"""Turn a workload's rounds into the benchmark's metrics.

End-to-end metrics come from untraced rounds.  The metrics
``BENCHMARK.json`` gates are medians over rounds of each round's value;
the per-operation percentiles pool every round's samples; set-up time is
the median over the run's launches.  Per-layer metrics come from traced rounds: span totals from
``spans.py`` dumps, counter deltas from the cost tracker (``db.tracker``),
and ``stats``-op deltas (server, ``LockStats``, two-phase, coordinator)
taken around the measured phase.

Every metric prints as ``name value unit n=<samples>``; ``NOTES.md``
says which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from typing import Any

from spans import SpanSummary

#: End-to-end metrics in the benchmark's contract: defined on every
#: workload and never 0 (BENCHMARK.json lists the same names).
CONTRACT_END_TO_END = (
    "setup_s", "ops_per_s", "rows_written_per_s", "insert_p50_ms",
    "insert_p90_ms", "request_p90_ms", "server_peak_rss_mb",
)

#: Per-layer metrics in the contract: defined on every workload, and no
#: time among them is 0 by construction on any workload (the chaos shard
#: schema has no indexes, so ``indexes.maintenance_us_per_row`` is left
#: out).  The traced report prints the rest too, on the workloads where
#: their layer runs.
CONTRACT_PER_LAYER = (
    "server.overhead_us_per_req", "server.ledger_us_per_req",
    "server.wire_bytes_per_row", "server.replays", "server.rejected",
    "server.errors",
    "concurrency.session_self_us_per_op", "concurrency.lock_acquires_per_op",
    "concurrency.lock_waits_per_op", "concurrency.deadlocks",
    "concurrency.lock_timeouts", "concurrency.serialization_aborts",
    "storage.versions_us_per_write", "storage.row_versions_end",
    "storage.prune_ms_total", "storage.wal_commit_us_per_commit",
    "storage.fsyncs_per_commit", "storage.fsync_us_per_commit",
    "storage.wal_bytes_per_row", "storage.checkpoints",
    "storage.checkpoint_ms_total", "storage.checkpoint_ms_max",
    "query.probes_per_row", "query.probe_us_per_probe",
    "query.rows_examined_per_op", "query.planner_candidates_per_op",
    "query.full_scans",
    "core.trigger_invocations_per_row", "core.state_checks_per_delete",
    "core.rows_per_distinct_projection",
    "indexes.node_reads_per_op",
    "indexes.entries_scanned_per_op", "indexes.maintenance_ops_per_row",
    "sharding.shard_calls_per_op", "sharding.two_phase_share",
    "sharding.aborts_2pc", "sharding.teardowns", "sharding.replays",
    "trace.overhead_share", "trace.unattributed_share",
)

_SESSION_SPANS = (
    "session.execute", "session.select", "session.snapshot_select",
    "session.begin", "session.commit", "session.rollback",
)
#: The most frequent child-insert request of each workload: its latency
#: is the contract's ``insert_p50_ms``/``insert_p90_ms``.
_INSERT_KIND = {
    "oltp_partial": "total_insert",
    "bulk_ingest": "batch",
    "sharded_partial": "total_insert",
}


def percentile(samples: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile (``q`` in 0..100)."""
    data = sorted(samples)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


class Metric:
    def __init__(self, name: str, value: float, unit: str, samples: int) -> None:
        self.name, self.value, self.unit, self.samples = name, value, unit, samples

    def line(self) -> str:
        return f"  {self.name:<38} {self.value:>14.6g} {self.unit:<6} n={self.samples}"


class Report:
    """Every metric of one workload's rounds."""

    def __init__(self, workload: str, rounds: Sequence[Any], setups: Sequence[float],
                 traced: bool) -> None:
        self.workload = workload
        self.rounds = list(rounds)
        self.setups = list(setups)
        self.traced = traced
        self.attempted = sum(r.recorder.attempted for r in rounds)
        self.failed = sum(r.recorder.errors + len(r.recorder.wrong) for r in rounds)
        self.metrics: list[Metric] = []
        self._end_to_end()
        self._properties()
        if traced:
            self._per_layer()

    def _add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics.append(Metric(name, float(value), unit, int(samples)))

    def _round_median(self, value: Any) -> float:
        return statistics.median(value(r) for r in self.rounds)

    def _pooled(self, *kinds: str) -> list[float]:
        out: list[float] = []
        for r in self.rounds:
            for kind in kinds:
                out.extend(r.recorder.latencies.get(kind, ()))
        return out

    # ------------------------------------------------------------------

    def _end_to_end(self) -> None:
        rounds = self.rounds
        n = len(rounds)
        self._add("setup_s", statistics.median(self.setups), "s", len(self.setups))
        # The gated metrics are medians over rounds of each round's value,
        # so one round hit by a stall on a shared host does not move them.
        self._add("ops_per_s", self._round_median(
            lambda r: r.recorder.attempted / r.phase_s), "1/s", n)
        self._add("rows_written_per_s", self._round_median(
            lambda r: r.recorder.rows_written / r.phase_s), "1/s", n)
        kind = _INSERT_KIND[self.workload]
        inserts = len(self._pooled(kind))
        for q in (50, 90):
            self._add(f"insert_p{q}_ms", self._round_median(
                lambda r: 1e3 * percentile(r.recorder.latencies.get(kind, ()), q)),
                "ms", inserts)
        self._add("request_p90_ms", self._round_median(
            lambda r: 1e3 * percentile(
                [x for v in r.recorder.latencies.values() for x in v], 90)),
            "ms", self.attempted)
        # The per-operation percentiles pool every round's samples, so the
        # p99s have enough samples beyond them.
        for kind, top in (("read", 99), ("total_insert", 99), ("partial_insert", 99),
                          ("delete", 99), ("batch", 90), ("orphan_insert", 99),
                          ("parent_insert", 99)):
            samples = self._pooled(kind)
            if not samples:
                continue
            self._add(f"{kind}_p50_ms", 1e3 * percentile(samples, 50), "ms", len(samples))
            self._add(f"{kind}_p{top}_ms", 1e3 * percentile(samples, top), "ms", len(samples))
        self._add("failed_share", self.failed / max(1, self.attempted), "share",
                  self.attempted)
        self._add("server_peak_rss_mb", self._round_median(
            lambda r: r.report["peak_rss_kb"] / 1024.0), "MB", n)

    def _properties(self) -> None:
        props: dict[str, list[float]] = {}
        for r in self.rounds:
            for key, value in r.properties.items():
                props.setdefault(key, []).append(value)
        for key, values in sorted(props.items()):
            self._add(f"input.{key}", statistics.median(values), "share"
                      if key.endswith("share") else "ratio", len(values))
        if self.workload == "sharded_partial":
            partial = len(self._pooled("partial_insert"))
            two_phase = self._stat_delta(("coordinator", "commits_2pc"))
            self._add("input.two_phase_share", two_phase / max(1, partial), "share", partial)

    # ------------------------------------------------------------------
    # Per-layer (traced rounds)

    def _stat_delta(self, path: tuple[str, ...], shards: bool = False) -> float:
        """Sum over rounds of after-minus-before of one stats field; with
        *shards*, summed over the shard entries of a coordinator's stats
        (or the single server's own stats)."""

        def read(stats: dict[str, Any]) -> float:
            if shards and "shards" in stats:
                return sum(_dig(s, path) for s in stats["shards"])
            return _dig(stats, path)

        return sum(read(r.stats_after) - read(r.stats_before) for r in self.rounds)

    def _per_layer(self) -> None:
        rounds = self.rounds
        n = len(rounds)
        sharded = self.workload == "sharded_partial"
        summary = SpanSummary()
        tracker: dict[str, int] = {}
        for r in rounds:
            summary.add(r.report["trace"])
            for key, value in r.report["tracker"].items():
                tracker[key] = tracker.get(key, 0) + value
        ops = sum(r.recorder.requests for r in rounds)
        rows = sum(r.recorder.rows_written for r in rounds)
        busy_ns = 1e9 * sum(r.recorder.busy_s for r in rounds)
        reads = len(self._pooled("read"))
        deletes = len(self._pooled("delete"))
        commits = summary.calls("storage.wal_commit")
        # Coordinator threads: client connections and the decide pusher.
        coordinator, connections = ("repro-coord-",), ("repro-coord-conn-",)

        def per(value: float, base: float) -> float:
            return value / base if base else 0.0

        add = self._add
        # server
        session_ns = summary.outer_ns(_SESSION_SPANS)
        if sharded:
            link_ns = summary.outer_ns(["sharding.shard_request"], coordinator)
            server_reqs = summary.calls_on(["sharding.shard_request"], coordinator)
            served_ns = session_ns + summary.outer_ns(["sharding.prepare"])
            overhead = per(link_ns - served_ns, server_reqs) / 1e3
        else:
            server_reqs = ops
            overhead = per(busy_ns - session_ns, ops) / 1e3
        add("server.overhead_us_per_req", overhead, "us", server_reqs)
        ledger_ns = summary.outer_ns(["server.ledger_replay", "server.ledger_record"])
        add("server.ledger_us_per_req", per(ledger_ns, server_reqs) / 1e3, "us", server_reqs)
        client_bytes = sum(r.client_bytes for r in rounds)
        add("server.wire_bytes_per_row", per(client_bytes, rows), "B/row", rows)
        for name, field in (("replays", "idempotent_replays"), ("rejected", "rejected"),
                            ("errors", "errors")):
            add(f"server.{name}", self._stat_delta(("server", field), shards=True) / n,
                "count", n)
        # concurrency
        add("concurrency.session_self_us_per_op",
            per(summary.self_time_ns(*_SESSION_SPANS), ops) / 1e3, "us", ops)
        lock = lambda field: self._stat_delta(("locks", field), shards=True)  # noqa: E731
        add("concurrency.lock_acquires_per_op", per(lock("acquired"), ops), "count", ops)
        add("concurrency.lock_waits_per_op", per(lock("waits"), ops), "count", ops)
        add("concurrency.lock_wait_ms_total", 1e3 * lock("wait_time_s") / n, "ms", n)
        add("concurrency.deadlocks", lock("deadlocks") / n, "count", n)
        add("concurrency.lock_timeouts", lock("timeouts") / n, "count", n)
        witness = ("concurrency.witness", "concurrency.witness_many")
        if summary.calls(*witness):
            add("concurrency.witness_us_per_row",
                per(summary.outer_ns(witness), rows) / 1e3, "us", summary.calls(*witness))
        aborts = summary.errors.get(("concurrency.revalidate", "SerializationError"), 0)
        add("concurrency.serialization_aborts", aborts / n, "count", n)
        # storage
        versions = ("storage.versions_mutation", "storage.versions_commit")
        add("storage.versions_us_per_write",
            per(summary.outer_ns(versions), rows) / 1e3, "us", rows)
        add("storage.row_versions_end",
            self._round_median(lambda r: r.report["row_versions"]), "count", n)
        add("storage.prune_ms_total",
            summary.total_ns.get("storage.prune", 0) / 1e6 / n, "ms", summary.calls("storage.prune"))
        add("storage.wal_commit_us_per_commit",
            per(summary.total_ns.get("storage.wal_commit", 0), commits) / 1e3, "us", commits)
        appends = summary.calls("storage.segment_append")
        add("storage.fsyncs_per_commit", per(appends, commits), "count", commits)
        add("storage.fsync_us_per_commit",
            per(summary.total_ns.get("storage.segment_append", 0), commits) / 1e3, "us", commits)
        add("storage.wal_bytes_per_row",
            per(summary.bytes.get("storage.segment_append", 0), rows), "B/row", rows)
        checkpoints = summary.calls("storage.checkpoint")
        add("storage.checkpoints", checkpoints / n, "count", n)
        add("storage.checkpoint_ms_total",
            summary.total_ns.get("storage.checkpoint", 0) / 1e6 / n, "ms", checkpoints)
        add("storage.checkpoint_ms_max",
            summary.max_ns.get("storage.checkpoint", 0) / 1e6, "ms", checkpoints)
        # query
        probe = ("query.probe_exists", "query.probe_find")
        probes = summary.calls(*probe)
        add("query.probes_per_row", per(probes, rows), "count", rows)
        add("query.probe_us_per_probe", per(summary.outer_ns(probe), probes) / 1e3, "us", probes)
        if reads:
            add("query.select_us_per_read",
                per(summary.outer_ns(["query.select"]), reads) / 1e3, "us", reads)
        add("query.rows_examined_per_op", per(tracker.get("rows_examined", 0), ops), "count", ops)
        add("query.planner_candidates_per_op",
            per(tracker.get("planner_candidates", 0), ops), "count", ops)
        add("query.full_scans", tracker.get("full_scans", 0) / n, "count", n)
        # core
        dml = ("core.insert", "core.delete_where")
        if summary.calls(*dml):
            add("core.enforce_self_us_per_row",
                per(summary.self_time_ns(*dml), summary.calls(*dml)) / 1e3, "us",
                summary.calls(*dml))
        if summary.calls("core.batch_insert_rows"):
            add("core.batch_us_per_row",
                per(summary.outer_ns(["core.batch_insert_rows"]), rows) / 1e3, "us", rows)
        add("core.trigger_invocations_per_row",
            per(tracker.get("trigger_invocations", 0), rows), "count", rows)
        add("core.state_checks_per_delete",
            per(tracker.get("state_checks", 0), deletes), "count", deletes)
        ratio = [r.properties.get("rows_per_distinct_projection", 1.0) for r in rounds]
        add("core.rows_per_distinct_projection", statistics.median(ratio), "ratio", n)
        # indexes
        maintenance = ("indexes.insert_encoded", "indexes.insert_encoded_many",
                       "indexes.delete_encoded", "indexes.update_encoded")
        add("indexes.maintenance_us_per_row",
            per(summary.outer_ns(maintenance), rows) / 1e3, "us", rows)
        add("indexes.node_reads_per_op", per(tracker.get("index_node_reads", 0), ops),
            "count", ops)
        add("indexes.entries_scanned_per_op",
            per(tracker.get("index_entries_scanned", 0), ops), "count", ops)
        add("indexes.maintenance_ops_per_row",
            per(tracker.get("index_maintenance_ops", 0), rows), "count", rows)
        # sharding
        coord = lambda field: self._stat_delta(("coordinator", field))  # noqa: E731
        two_phase = coord("commits_2pc") if sharded else 0.0
        if sharded:
            link_client_ns = summary.outer_ns(["sharding.shard_request"], connections)
            add("sharding.overhead_us_per_req", per(busy_ns - link_client_ns, ops) / 1e3,
                "us", ops)
        add("sharding.shard_calls_per_op",
            per(summary.calls_on(["sharding.shard_request"], coordinator), ops),
            "count", ops)
        partial = len(self._pooled("partial_insert"))
        add("sharding.two_phase_share", per(two_phase, partial) if sharded else 0.0,
            "share", partial)
        if sharded:
            add("sharding.prepare_us_per_2pc",
                per(summary.total_ns.get("sharding.prepare", 0), two_phase) / 1e3, "us",
                int(two_phase))
            add("sharding.decision_log_us_per_2pc",
                per(summary.total_ns.get("sharding.decision_log", 0), two_phase) / 1e3,
                "us", int(two_phase))
        for name in ("aborts_2pc", "teardowns", "replays"):
            add(f"sharding.{name}", (coord(name) if sharded else 0.0) / n, "count", n)
        # trace
        cost = statistics.median(summary.span_cost_ns) if summary.span_cost_ns else 0.0
        add("trace.overhead_share", per(summary.spans * cost, busy_ns), "share",
            summary.spans)
        covered = (summary.outer_ns(["sharding.shard_request"], connections)
                   if sharded else summary.root_ns())
        add("trace.unattributed_share", 1.0 - per(covered, busy_ns), "share", ops)

    # ------------------------------------------------------------------

    def render(self) -> str:
        mode = "per-layer (traced)" if self.traced else "end-to-end"
        head = (f"[{self.workload}] {mode}: {len(self.rounds)} round(s), "
                f"{self.attempted} operations, {self.failed} failed")
        return "\n".join([head, *(m.line() for m in self.metrics)])

    def contract_metrics(self) -> dict[str, dict[str, float | str]]:
        wanted = CONTRACT_PER_LAYER if self.traced else CONTRACT_END_TO_END
        by_name = {m.name: m for m in self.metrics}
        return {name: {"value": by_name[name].value, "unit": by_name[name].unit}
                for name in wanted}


def _dig(stats: dict[str, Any], path: tuple[str, ...]) -> float:
    value: Any = stats
    for key in path:
        value = value.get(key, 0) if isinstance(value, dict) else 0
    return float(value or 0)
