"""Launch one process of the system under test for the benchmark.

Roles:

* ``single`` — one durable :class:`~repro.server.ReproServer` over the
  §7.1 synthetic schema (empty tables; the load generator sends rows).
* ``sharded`` — a durable :class:`~repro.sharding.ShardCoordinator` over
  two durable shard servers on the chaos shard schema, all in this one
  process, the way ``tests/test_sharding.py`` builds the cluster.

With ``--trace 1`` the functions listed in :mod:`spans` are wrapped
before the server is built.  The process prints ``READY <port>`` and
then obeys one command per stdin line:

* ``mark`` — start of the measured phase: forget spans, snapshot the
  cost tracker;
* ``snap`` — end of the measured phase: freeze the report (counter
  deltas, spans, peak RSS);
* ``stop`` — write the report as JSON to ``--report``, shut down, exit.

Run from the repository root::

    python3 perfbench/serve.py single --data-dir D --report R.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans as span_trace  # noqa: E402
import workloads  # noqa: E402

#: Shard servers behind the coordinator of the ``sharded`` role.
SHARDS = 2


def _build_single_database() -> Any:
    from repro.constraints import ForeignKey, MatchSemantics, PrimaryKey, ReferentialAction
    from repro.core.enforcement import EnforcedForeignKey
    from repro.core.strategies import IndexStructure
    from repro.storage.database import Database
    from repro.storage.schema import Column, DataType

    n = workloads.N_COLUMNS
    keys = [f"k{i + 1}" for i in range(n)]
    fks = [f"f{i + 1}" for i in range(n)]
    db = Database("perfbench")
    db.create_table(
        "P",
        [Column(c, DataType.INTEGER, nullable=False) for c in keys]
        + [Column("payload", DataType.INTEGER)],
    )
    db.add_candidate_key(PrimaryKey("P", tuple(keys)))
    db.create_table(
        "C",
        [Column(c, DataType.INTEGER) for c in fks]
        + [Column("payload", DataType.INTEGER)],
    )
    fk = ForeignKey(
        "fk_c_p", "C", tuple(fks), "P", tuple(keys),
        match=MatchSemantics.PARTIAL,
        on_delete=ReferentialAction.SET_NULL,
    )
    EnforcedForeignKey.create(db, fk, IndexStructure.BOUNDED)
    return db


class _Process:
    """The served object plus the counters its report needs."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.tracer: span_trace.Tracer | None = None
        if args.trace:
            self.tracer = span_trace.Tracer()
            span_trace.install(self.tracer, span_trace.SERVER_TARGETS)
            if args.role == "sharded":
                span_trace.install(self.tracer, span_trace.COORDINATOR_TARGETS)
        self.servers: list[Any] = []
        self.coordinator: Any = None
        self._tracker_mark: dict[str, int] = {}
        self.report: dict[str, Any] = {}

    def start(self) -> int:
        from repro.server import ReproServer

        data_dir = self.args.data_dir
        if self.args.role == "single":
            server = ReproServer(_build_single_database(), data_dir=data_dir)
            self.servers = [server.start()]
            return server.port
        from repro.sharding import ShardCoordinator, build_chaos_catalog
        from repro.testing.chaos import build_chaos_shard_database

        for index in range(SHARDS):
            server = ReproServer(
                build_chaos_shard_database(index, SHARDS),
                data_dir=os.path.join(data_dir, f"shard{index}"),
            )
            self.servers.append(server.start())
        self.coordinator = ShardCoordinator(
            build_chaos_catalog(SHARDS), [s.address for s in self.servers],
            data_dir=os.path.join(data_dir, "coordinator"),
        )
        self.coordinator.start()
        return self.coordinator.port

    def _tracker(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for server in self.servers:
            for key, value in server.db.tracker.counters.items():
                total[key] = total.get(key, 0) + value
        return total

    def mark(self) -> None:
        if self.tracer is not None:
            self.tracer.clear()
        self._tracker_mark = self._tracker()

    def snap(self) -> None:
        end = self._tracker()
        tracker = {k: v - self._tracker_mark.get(k, 0) for k, v in end.items()}
        self.report = {
            "role": self.args.role,
            "tracker": tracker,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "row_versions": sum(
                s.db.versions.version_count() for s in self.servers
            ),
        }
        if self.tracer is not None:
            self.report["trace"] = self.tracer.dump()

    def stop(self) -> None:
        if self.coordinator is not None:
            self.coordinator.shutdown()
        for server in self.servers:
            server.shutdown()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("single", "sharded"))
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    proc = _Process(args)
    port = proc.start()
    print(f"READY {port}", flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                proc.mark()
            elif command == "snap":
                proc.snap()
            elif command == "stop":
                break
            else:
                print(f"unknown command {command!r}", file=sys.stderr, flush=True)
                continue
            print(command.upper(), flush=True)
    finally:
        proc.stop()
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(proc.report, fh)
    print("STOPPED", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
