"""Span recorder for the traced benchmark run.

The benchmark times layers from its own files: before the server is
built, :func:`install` replaces selected public functions of the
``repro`` package with wrappers that record one span per call — name,
start, end, parent span and root span (the request-level span the call
ran under), per thread.  Spans stay in memory; :meth:`Tracer.dump`
writes them out when the server process stops.  :func:`summarise` turns
a dump into per-name totals and self times (a span's duration minus the
time its direct child spans cover).

Untraced runs install no wrapper, so the end-to-end
numbers are measured with nothing added to the request path.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections.abc import Callable, Iterable
from typing import Any

#: (module path, owner attribute or None for a module function, function
#: name, span name).  Span names are ``layer.function``; the layer is the
#: part before the first dot and matches the package that owns the code.
SERVER_TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    # server: the result ledger (framing and dispatch are measured as
    # the client round trip minus the session entry calls below).
    ("repro.server.ledger", "ResultLedger", "replay", "server.ledger_replay"),
    ("repro.server.ledger", "ResultLedger", "record", "server.ledger_record"),
    # concurrency: the session entry calls the server makes per request.
    ("repro.concurrency.session", "Session", "execute", "session.execute"),
    ("repro.concurrency.session", "Session", "select", "session.select"),
    ("repro.concurrency.session", "Session", "snapshot_select", "session.snapshot_select"),
    ("repro.concurrency.session", "Session", "begin", "session.begin"),
    ("repro.concurrency.session", "Session", "commit", "session.commit"),
    ("repro.concurrency.session", "Session", "rollback", "session.rollback"),
    ("repro.concurrency.hooks", None, "verify_parent_exists", "concurrency.witness"),
    ("repro.concurrency.hooks", None, "verify_parent_exists_many", "concurrency.witness_many"),
    ("repro.concurrency.hooks", None, "revalidate_witnesses", "concurrency.revalidate"),
    # storage: MVCC version store, WAL commit, segment append (fsync),
    # checkpoints and the version pruning they trigger.
    ("repro.storage.versions", "VersionStore", "on_mutation", "storage.versions_mutation"),
    ("repro.storage.versions", "VersionStore", "on_commit", "storage.versions_commit"),
    ("repro.storage.versions", "VersionStore", "prune", "storage.prune"),
    ("repro.storage.wal", "WriteAheadLog", "commit", "storage.wal_commit"),
    ("repro.storage.wal", "WriteAheadLog", "checkpoint", "storage.checkpoint"),
    ("repro.storage.segments", "SegmentStore", "append", "storage.segment_append"),
    # query: prepared probes and the select executor.
    ("repro.query.probes", "PreparedProbe", "exists", "query.probe_exists"),
    ("repro.query.probes", "PreparedProbe", "find", "query.probe_find"),
    ("repro.query.executor", None, "select", "query.select"),
    # core: per-row DML entry points and the vectorized batch path.
    ("repro.storage.database", "Database", "insert", "core.insert"),
    ("repro.storage.database", "Database", "delete_where", "core.delete_where"),
    ("repro.core.batch", None, "batch_insert_rows", "core.batch_insert_rows"),
    # indexes: index maintenance.
    ("repro.indexes.manager", "TableIndex", "insert_encoded", "indexes.insert_encoded"),
    ("repro.indexes.manager", "TableIndex", "insert_encoded_many", "indexes.insert_encoded_many"),
    ("repro.indexes.manager", "TableIndex", "delete_encoded", "indexes.delete_encoded"),
    ("repro.indexes.manager", "TableIndex", "update_encoded", "indexes.update_encoded"),
    # sharding, participant side: PREPARE of a two-phase transaction.
    ("repro.sharding.twophase", "TwoPhaseParticipant", "prepare", "sharding.prepare"),
)

#: The coordinator (the ``sharded`` server process also holds the shard
#: servers): its shard links and its decision log.
COORDINATOR_TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.server.client", "ReproClient", "request", "sharding.shard_request"),
    ("repro.sharding.coordinator", "DecisionLog", "record_decision", "sharding.decision_log"),
)

#: Span names whose wrapper also records a byte count (argument sizes).
_BYTES_OF: dict[str, Callable[..., int]] = {
    "storage.segment_append": lambda store, payloads: sum(len(p) for p in payloads),
}


class Tracer:
    """In-memory span store shared by every wrapper in one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._seq = itertools.count(1)
        #: (seq, name, start_ns, end_ns, parent_seq, root_seq, thread, error)
        self.spans: list[tuple[Any, ...]] = []
        self.byte_counts: dict[str, int] = {}
        self._bytes_mu = threading.Lock()

    def clear(self) -> None:
        """Forget every span recorded so far (the warm-up before a mark)."""
        self.spans = []
        with self._bytes_mu:
            self.byte_counts = {}

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        local = self._local
        seq_counter = self._seq
        sizer = _BYTES_OF.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.thread = threading.current_thread().name
            seq = next(seq_counter)
            if stack:
                parent, root = stack[-1], stack[0]
            else:
                parent, root = 0, seq
            stack.append(seq)
            error = None
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(
                    (seq, name, start, end, parent, root, local.thread, error)
                )
                if sizer is not None and error is None:
                    size = sizer(*args, **kwargs)
                    with self._bytes_mu:
                        self.byte_counts[name] = self.byte_counts.get(name, 0) + size

        traced.__wrapped_by_perfbench__ = True  # type: ignore[attr-defined]
        return traced

    def dump(self) -> dict[str, Any]:
        return {
            "spans": list(self.spans),
            "bytes": dict(self.byte_counts),
            "span_cost_ns": calibrate(),
        }


def install(tracer: Tracer, targets: Iterable[tuple[str, str | None, str, str]]) -> None:
    """Replace every target with a span-recording wrapper."""
    import importlib

    for module_path, owner_name, attr, span_name in targets:
        module = importlib.import_module(module_path)
        owner: Any = module if owner_name is None else getattr(module, owner_name)
        current = getattr(owner, attr)
        if getattr(current, "__wrapped_by_perfbench__", False):
            continue
        setattr(owner, attr, tracer.wrap(current, span_name))


def calibrate(calls: int = 20_000, repeats: int = 5) -> float:
    """Median extra cost of one wrapped call over a bare call, in ns.

    Measured on a scratch tracer in this process, so the estimate
    includes this interpreter's call overhead and the span append.
    """

    def bare() -> None:
        return None

    probe = Tracer()
    wrapped = probe.wrap(bare, "calibration")
    extra: list[float] = []
    for __ in range(repeats):
        probe.clear()
        start = time.perf_counter_ns()
        for __ in range(calls):
            bare()
        plain = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for __ in range(calls):
            wrapped()
        traced = time.perf_counter_ns() - start
        extra.append(max(0.0, (traced - plain) / calls))
    extra.sort()
    return extra[len(extra) // 2]


# ----------------------------------------------------------------------
# Aggregation (runs in the load generator, over dumps read back from disk)


class SpanSummary:
    """Per-name totals over one or more span dumps."""

    def __init__(self) -> None:
        self.count: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.max_ns: dict[str, int] = {}
        self.spans = 0
        self.errors: dict[tuple[str, str], int] = {}
        self.bytes: dict[str, int] = {}
        self.span_cost_ns: list[float] = []
        self._dumps: list[list[tuple[Any, ...]]] = []

    def add(self, dump: dict[str, Any]) -> None:
        spans = [tuple(s) for s in dump.get("spans") or []]
        self._dumps.append(spans)
        self.spans += len(spans)
        for name, size in (dump.get("bytes") or {}).items():
            self.bytes[name] = self.bytes.get(name, 0) + int(size)
        if dump.get("span_cost_ns") is not None:
            self.span_cost_ns.append(float(dump["span_cost_ns"]))
        child_ns: dict[int, int] = {}
        for seq, name, start, end, parent, root, thread, error in spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        for seq, name, start, end, parent, root, thread, error in spans:
            duration = end - start
            self.count[name] = self.count.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + duration
            self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns.get(seq, 0)
            if duration > self.max_ns.get(name, 0):
                self.max_ns[name] = duration
            if error is not None:
                key = (name, error)
                self.errors[key] = self.errors.get(key, 0) + 1

    def calls(self, *names: str) -> int:
        return sum(self.count.get(n, 0) for n in names)

    def self_time_ns(self, *names: str) -> int:
        return sum(self.self_ns.get(n, 0) for n in names)

    def _selected(self, names: Iterable[str] | None, only: tuple[str, ...],
                  nested_ok: bool) -> Iterable[tuple[Any, ...]]:
        """Spans named *names* (any name if None) on threads whose name
        starts with one of *only* (any thread if empty).  Unless
        *nested_ok*, a span nested inside another selected-name span is
        skipped, so recursion is not counted twice."""
        wanted = None if names is None else set(names)
        for spans in self._dumps:
            by_seq = {s[0]: s for s in spans}
            for span in spans:
                if wanted is not None and span[1] not in wanted:
                    continue
                if only and not span[6].startswith(only):
                    continue
                if not nested_ok:
                    ancestor = by_seq.get(span[4])
                    while ancestor is not None and (
                        wanted is not None and ancestor[1] not in wanted
                    ):
                        ancestor = by_seq.get(ancestor[4])
                    if ancestor is not None:
                        continue
                yield span

    def outer_ns(self, names: Iterable[str], only: tuple[str, ...] = ()) -> int:
        """Time in spans named *names* that are not nested inside another
        span of the same set."""
        return sum(s[3] - s[2] for s in self._selected(names, only, False))

    def calls_on(self, names: Iterable[str], only: tuple[str, ...]) -> int:
        """Calls of *names* on threads named with one of the *only* prefixes."""
        return sum(1 for __ in self._selected(names, only, True))

    def root_ns(self) -> int:
        """Total time covered by request-level (parentless) spans."""
        return sum(s[3] - s[2] for s in self._selected(None, (), False))
