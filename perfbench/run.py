"""End-to-end serving benchmark: closed-loop sessions against a durable
``ReproServer`` or a ``ShardCoordinator`` over two durable shards.

Usage, from the repository root::

    python3 perfbench/run.py --workload oltp_partial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20      # every workload
    python3 perfbench/run.py --workload all --smoke                    # seconds, for tests

A run repeats *rounds* until ``--seconds`` are used up (at least one).
Every round starts the system under test in fresh processes on an empty
data directory, preloads the same seeded rows, runs a fixed amount of
work — so every round, on every commit, ends at the same data size — and
checks every reply and the final database.  ``metrics.py`` says how the
rounds combine into each metric.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
rounds with the layer wrappers of ``spans.py`` installed in the server
processes and prints the per-layer metrics instead.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

Any failed output check prints ``"correct": false`` with no metrics and
exits 1.  See ``NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
import traceback
import uuid
from collections import Counter
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("oltp_partial", "bulk_ingest", "sharded_partial")

#: Give up on a server process that does not answer within this long.
_PROCESS_TIMEOUT_S = 60.0

#: Retries of a retryable error before the operation counts as wrong.
_RETRIES = 8


class CheckFailed(Exception):
    """An output check failed: the run reports no numbers."""


def _import_program() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(
            f"perfbench: program sources not found under {SRC!r}; run from "
            "a checkout of the repository"
        )
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


# ----------------------------------------------------------------------
# Processes of the system under test


class ServerProcess:
    """The system under test for one round: one ``serve.py`` process
    (a single server, or a coordinator over two shard servers), driven
    over its stdin/stdout.  ``port`` is what clients connect to;
    ``setup_s`` runs from launch to the first successful reply."""

    def __init__(self, workload: str, workdir: str, trace: bool) -> None:
        from repro.server import ReproClient

        sharded = workload == "sharded_partial"
        self.report_path = os.path.join(workdir, "report.json")
        self.log_path = os.path.join(workdir, "log.txt")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env.pop("REPRO_SANITIZE", None)
        self._log = open(self.log_path, "w", encoding="utf-8")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve.py"),
             "sharded" if sharded else "single",
             "--data-dir", os.path.join(workdir, "data"),
             "--report", self.report_path, "--trace", "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            text=True, env=env, cwd=ROOT,
        )
        try:
            self.port = int(self._expect("READY").split()[1])
            # First successful reply: a ping, or for the sharded system a
            # scatter read that reaches every shard through the coordinator.
            with ReproClient("127.0.0.1", self.port) as client:
                if sharded:
                    client.select("P", snapshot=True)
                else:
                    client.ping()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _expect(self, word: str) -> str:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline().strip()
        if not line.startswith(word):
            self._log.flush()
            with open(self.log_path, encoding="utf-8") as fh:
                log = fh.read()[-2000:]
            raise CheckFailed(
                f"server process said {line!r}, expected {word!r}; log:\n{log}"
            )
        return line

    def command(self, word: str) -> None:
        """Send ``mark``, ``snap`` or ``stop`` and wait for the answer."""
        assert self.proc.stdin is not None
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()
        self._expect("STOPPED" if word == "stop" else word.upper())

    def stop(self) -> dict[str, Any]:
        """Shut the server down; returns its report."""
        try:
            self.command("stop")
            self.proc.wait(_PROCESS_TIMEOUT_S)
        finally:
            self.kill()
        with open(self.report_path, encoding="utf-8") as fh:
            return json.load(fh)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(_PROCESS_TIMEOUT_S)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        self._log.close()


# ----------------------------------------------------------------------
# Load generation


class Recorder:
    """Per-operation outcomes of one round, shared by the session threads."""

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self.latencies: dict[str, list[float]] = {}
        self.attempted = 0
        self.errors = 0
        self.wrong: list[str] = []
        self.rows_written = 0
        #: Summed over sessions: time with a request outstanding, the
        #: base the per-layer shares and overheads divide by.
        self.busy_s = 0.0
        self.requests = 0

    def add(self, kind: str, seconds: float, rows: int, errors: int,
            wrong: str | None) -> None:
        with self._mu:
            self.latencies.setdefault(kind, []).append(seconds)
            self.attempted += 1
            self.errors += errors
            self.rows_written += rows
            if wrong is not None:
                self.wrong.append(wrong)

    def session_done(self, busy_s: float, requests: int) -> None:
        with self._mu:
            self.busy_s += busy_s
            self.requests += requests


def _expect_veto(op: Any, exc: Exception) -> str | None:
    if getattr(exc, "error_type", None) == "ReferentialIntegrityViolation":
        return None
    return f"{op.kind} {op.values}: expected an RI veto, got {exc!r}"


def _run_one(client: Any, op: Any) -> tuple[int, str | None]:
    """Execute *op* once; returns (rows written, wrong-outcome message)."""
    from repro.server import ServerError

    kind = op.kind
    if kind == "read":
        rows = client.request("select", table=op.table, equals=op.equals,
                              snapshot=True)["rows"]
        if rows != op.expect_rows:
            return 0, f"read {op.equals}: got {rows}, expected {op.expect_rows}"
        return 0, None
    if kind == "delete":
        count = client.request("delete", table=op.table, equals=op.equals)["rowcount"]
        if count != 1:
            return 0, f"delete {op.equals}: deleted {count} rows, expected 1"
        return 1, None
    if kind == "orphan_insert":
        try:
            response = client.request("insert", table=op.table, values=op.values)
        except ServerError as exc:
            if exc.retryable:
                raise
            return 0, _expect_veto(op, exc)
        return 0, f"orphan {op.values} was accepted: {response}"
    response = client.request("insert", table=op.table, values=op.values)
    if not isinstance(response.get("rid"), int) or response.get("replayed"):
        return 0, f"{kind} {op.values}: unexpected reply {response}"
    return 1, None


def _session_loop(client: Any, ops: list[Any], recorder: Recorder) -> None:
    """One closed-loop session.  A failure that is not a server reply
    (a torn connection, say) ends the session as a wrong outcome."""
    try:
        _session_ops(client, ops, recorder)
    except Exception as exc:  # noqa: BLE001 - thread boundary, reported
        recorder.add("aborted", 0.0, 0, 1, f"session aborted: {exc!r}")


def _session_ops(client: Any, ops: list[Any], recorder: Recorder) -> None:
    from repro.server import ServerError

    busy = 0.0
    for op in ops:
        errors = 0
        wrong: str | None = None
        rows = 0
        start = time.perf_counter()
        for attempt in range(_RETRIES):
            try:
                rows, wrong = _run_one(client, op)
                break
            except ServerError as exc:
                errors += 1
                if not exc.retryable or attempt == _RETRIES - 1:
                    wrong = f"{op.kind} {op.values or op.equals}: {exc!r}"
                    break
                time.sleep(0.002 * (attempt + 1))
        elapsed = time.perf_counter() - start
        busy += elapsed
        recorder.add(op.kind, elapsed, rows, errors, wrong)
    recorder.session_done(busy, len(ops))


class PipelinedSession:
    """One connection streaming stamped ``batch`` requests with at most
    *depth* in flight; each latency runs from send to reply."""

    def __init__(self, port: int) -> None:
        self.client_id = uuid.uuid4().hex
        self.sock = socket.create_connection(("127.0.0.1", port), 5.0)
        self.sock.settimeout(_PROCESS_TIMEOUT_S)
        self.req = 0

    def stats_when_alone(self) -> dict[str, Any]:
        """Stats once this is the server's only session (connections
        closed earlier are released asynchronously), so the stream runs
        the single-session lock path."""
        from repro.server import wire

        deadline = time.monotonic() + _PROCESS_TIMEOUT_S
        while True:
            wire.send_frame(self.sock, {"op": "stats"})
            stats = wire.recv_frame(self.sock)
            if stats is None:
                raise CheckFailed("server closed the pipelined connection")
            if stats["locks"]["open_sessions"] == 1:
                return stats
            if time.monotonic() > deadline:
                raise CheckFailed(f"server still has sessions open: {stats['locks']}")
            time.sleep(0.01)

    def run(self, ops: list[Any], depth: int, recorder: Recorder) -> None:
        from repro.server import wire

        in_flight: list[tuple[Any, float]] = []
        start = time.perf_counter()

        def receive() -> None:
            op, sent = in_flight.pop(0)
            reply = wire.recv_frame(self.sock)
            elapsed = time.perf_counter() - sent
            if reply is None:
                raise CheckFailed("server closed the pipelined connection")
            wrong = None
            rows = 0
            if not reply.get("ok"):
                wrong = f"batch failed: {reply.get('error_type')}: {reply.get('error')}"
            elif reply.get("rowcount") != len(op.rows) or reply.get("replayed"):
                wrong = f"batch of {len(op.rows)} rows: unexpected reply {reply}"
            else:
                rows = len(op.rows)
            recorder.add("batch", elapsed, rows, 0 if reply.get("ok") else 1, wrong)

        for op in ops:
            if len(in_flight) >= depth:
                receive()
            self.req += 1
            wire.send_frame(self.sock, {
                "op": "batch", "table": op.table, "rows": op.rows,
                "client": self.client_id, "req": self.req, "id": self.req,
            })
            in_flight.append((op, time.perf_counter()))
        while in_flight:
            receive()
        recorder.session_done(time.perf_counter() - start, len(ops))

    def close(self) -> None:
        self.sock.close()


# ----------------------------------------------------------------------
# One round


def _preload(client: Any, plan: Any) -> None:
    for table, rows in (("P", plan.preload_parents), ("C", plan.preload_children)):
        for start in range(0, len(rows), 500):
            chunk = rows[start:start + 500]
            if len(client.batch_insert(table, chunk)) != len(chunk):
                raise CheckFailed(f"preload of {table} lost rows")


def _stats(port: int) -> dict[str, Any]:
    from repro.server import ReproClient

    with ReproClient("127.0.0.1", port) as client:
        return client.stats()


def _check_single(port: int, plan: Any, verify: bool) -> None:
    from repro.server import ReproClient

    with ReproClient("127.0.0.1", port) as client:
        if verify:
            verdict = client.verify()
            if not verdict.get("clean"):
                raise CheckFailed(f"verify is not clean:\n{verdict.get('report')}")
        children = client.select("C")
        parents = client.select("P")
    if Counter(map(tuple, children)) != Counter(map(tuple, plan.final_children)):
        raise CheckFailed(
            f"child table holds {len(children)} rows that differ from the "
            f"{len(plan.final_children)} acknowledged ones"
        )
    if sorted(map(tuple, parents)) != sorted(map(tuple, plan.preload_parents)):
        raise CheckFailed("parent table differs from the preloaded parents")


def _check_sharded(port: int, plan: Any, verify: bool) -> None:
    from repro.server import ReproClient

    deadline = time.monotonic() + _PROCESS_TIMEOUT_S
    with ReproClient("127.0.0.1", port) as client:
        while True:
            stats = client.stats()
            coord = stats["coordinator"]
            residue = coord["in_flight"] + coord["pending_decides"] + sum(
                shard["twophase"]["in_doubt"] for shard in stats["shards"]
            )
            if residue == 0:
                break
            if time.monotonic() > deadline:
                raise CheckFailed(f"two-phase state did not drain: {stats}")
            time.sleep(0.05)
        if verify:
            verdict = client.request("verify", deep=True)
            if not verdict.get("clean") or verdict.get("orphans"):
                raise CheckFailed(
                    f"sharded verify is not clean:\n{verdict.get('report')}"
                )
        children = client.select("C", columns=["id", "k1", "k2"])
    if sorted(map(tuple, children)) != sorted(map(tuple, plan.final_children)):
        raise CheckFailed(
            f"child tables hold {len(children)} rows that differ from the "
            f"{len(plan.final_children)} acknowledged ones"
        )


class RoundResult:
    def __init__(self) -> None:
        self.setup_s = 0.0
        self.phase_s = 0.0
        self.recorder = Recorder()
        self.stats_before: dict[str, Any] = {}
        self.stats_after: dict[str, Any] = {}
        self.report: dict[str, Any] = {}
        self.properties: dict[str, float] = {}
        self.client_bytes = 0


def run_round(workload: str, seed: int, size: Any, trace: bool, workdir: str,
              verify: bool) -> RoundResult:
    """One round in fresh processes; *verify* adds the server's full
    integrity report (``verify`` op) to the per-reply and content checks."""
    import workloads
    from repro.server import ReproClient

    if workload == "oltp_partial":
        plan = workloads.oltp_partial(seed, size)
    elif workload == "bulk_ingest":
        plan = workloads.bulk_ingest(seed, size)
    else:
        plan = workloads.sharded_partial(seed, size)
    result = RoundResult()
    result.properties = dict(plan.properties)
    os.makedirs(workdir, exist_ok=True)
    server = ServerProcess(workload, workdir, trace)
    try:
        result.setup_s = server.setup_s
        port = server.port
        if plan.preload_parents or plan.preload_children:
            with ReproClient("127.0.0.1", port) as client:
                _preload(client, plan)
        if workload == "bulk_ingest":
            stream = PipelinedSession(port)
            try:
                result.stats_before = stream.stats_when_alone()
                result.phase_s, result.client_bytes = _measured(
                    server, trace,
                    lambda: stream.run(plan.sessions[0], workloads.PIPELINE_DEPTH,
                                       result.recorder),
                )
            finally:
                stream.close()
        else:
            clients = [ReproClient("127.0.0.1", port) for __ in plan.sessions]
            try:
                result.stats_before = _stats(port)

                def phase() -> None:
                    threads = [
                        threading.Thread(target=_session_loop,
                                         args=(client, ops, result.recorder))
                        for client, ops in zip(clients, plan.sessions)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()

                result.phase_s, result.client_bytes = _measured(server, trace, phase)
            finally:
                for client in clients:
                    client.close()
        result.stats_after = _stats(port)
        if result.recorder.wrong:
            raise CheckFailed(
                f"{len(result.recorder.wrong)} wrong outcome(s), first: "
                f"{result.recorder.wrong[0]}"
            )
        if workload == "sharded_partial":
            _check_sharded(port, plan, verify)
        else:
            _check_single(port, plan, verify)
        result.report = server.stop()
    finally:
        server.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _measured(server: ServerProcess, trace: bool,
              phase: Any) -> tuple[float, int]:
    """Run the measured *phase* between the servers' ``mark`` and
    ``snap``; returns its duration and, traced, the frame bytes sent and
    received by this process during it."""
    counter = _ByteCounter() if trace else None
    try:
        server.command("mark")
        start = time.perf_counter()
        phase()
        elapsed = time.perf_counter() - start
    finally:
        client_bytes = counter.stop() if counter is not None else 0
    server.command("snap")
    return elapsed, client_bytes


class _ByteCounter:
    """Counts the frame bytes this process sends and receives (traced
    runs only): wraps the wire module's blocking frame functions."""

    def __init__(self) -> None:
        from repro.server import wire

        self._wire = wire
        self._send, self._recv = wire.send_frame, wire.recv_frame
        self.bytes = 0
        self._mu = threading.Lock()

        def size(message: dict[str, Any]) -> int:
            return 4 + len(json.dumps(message, separators=(",", ":")).encode("utf-8"))

        def send_frame(sock: Any, message: dict[str, Any]) -> None:
            self._send(sock, message)
            with self._mu:
                self.bytes += size(message)

        def recv_frame(sock: Any) -> dict[str, Any] | None:
            message = self._recv(sock)
            if message is not None:
                with self._mu:
                    self.bytes += size(message)
            return message

        wire.send_frame, wire.recv_frame = send_frame, recv_frame

    def stop(self) -> int:
        self._wire.send_frame, self._wire.recv_frame = self._send, self._recv
        return self.bytes


# ----------------------------------------------------------------------
# Runs


#: Reference duration of one round of each workload (preload, measured
#: phase and checks, on a 2-core x86 container).  ``--seconds`` is turned
#: into a fixed number of rounds with it, so a run does the same work on
#: every commit instead of stopping at a deadline.
NOMINAL_ROUND_S = {"oltp_partial": 7.0, "bulk_ingest": 7.0, "sharded_partial": 4.0}

#: Set-up time is the median of this many launches per run (the rounds'
#: own launches, topped up with launch-and-stop cycles).
SETUP_SAMPLES = 7


def rounds_for(workload: str, seconds: float, trace: bool) -> int:
    """Fixed-work rounds for a run of about *seconds* (at least one; two
    for a traced ``bulk_ingest``, whose tracker counters must repeat)."""
    minimum = 2 if (trace and workload == "bulk_ingest") else 1
    return max(minimum, round(seconds / NOMINAL_ROUND_S[workload]))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> tuple[list[RoundResult], list[float]]:
    """The run's rounds, and its set-up time samples."""
    import workloads

    size = workloads.SMOKE if smoke else workloads.FULL
    rounds: list[RoundResult] = []
    workdir = os.path.join(WORK, f"{os.getpid()}-{workload}")
    try:
        for index in range(rounds_for(workload, 0.0 if smoke else seconds, trace)):
            rounds.append(run_round(
                workload, seed, size, trace, os.path.join(workdir, str(index)),
                verify=index == 0,
            ))
        setups = [r.setup_s for r in rounds]
        while not (trace or smoke) and len(setups) < SETUP_SAMPLES:
            target = os.path.join(workdir, f"setup{len(setups)}")
            os.makedirs(target, exist_ok=True)
            server = ServerProcess(workload, target, trace=False)
            setups.append(server.setup_s)
            server.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)  # only when no other run is using it
        except OSError:
            pass
    if trace and workload == "bulk_ingest":
        _determinism_guard(rounds)
    return rounds, setups


def _determinism_guard(rounds: list[RoundResult]) -> None:
    """Seeded one-session bulk ingest must charge bit-identical logical
    cost counters every time; anything else means the engine's work
    depends on timing, and no counter-based claim could rest on it."""
    first = rounds[0].report["tracker"]
    for index, result in enumerate(rounds[1:], start=1):
        other = result.report["tracker"]
        if other != first:
            diff = {k: (first.get(k), other.get(k))
                    for k in set(first) | set(other) if first.get(k) != other.get(k)}
            raise CheckFailed(
                f"determinism guard: bulk_ingest round {index} charged different "
                f"tracker counters than round 0: {diff}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end serving benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed work per round, one round")
    args = parser.parse_args(argv)
    _import_program()
    import metrics

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    contract: dict[str, Any] = {}
    try:
        for name in names:
            rounds, setups = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.smoke
            )
            report = metrics.Report(name, rounds, setups, bool(args.trace))
            print(report.render(), flush=True)
            attempted += report.attempted
            failed += report.failed
            if len(names) == 1:
                contract = report.contract_metrics()
    except Exception as exc:  # noqa: BLE001 - report any failure as incorrect
        if not isinstance(exc, CheckFailed):
            traceback.print_exc()
        print(f"perfbench: check failed: {exc}", file=sys.stderr, flush=True)
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": failed, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": contract}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
