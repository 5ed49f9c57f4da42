"""Seeded inputs for the benchmark's workloads.

Everything here runs in the load generator.  The system under test only
ever receives the rows these functions return, over the wire.  The same
seed gives the same inputs; every operation's expected outcome is known
in advance, so the runner can check each reply.

Operation kinds (the latency buckets the runner reports):

* ``read`` — snapshot point read of one parent, expects that parent;
* ``total_insert`` — child insert, no NULL in the foreign key;
* ``partial_insert`` — child insert, at least one NULL FK component;
* ``orphan_insert`` — child insert that no parent matches, expects a
  ``ReferentialIntegrityViolation`` veto;
* ``delete`` — delete of one churn-victim parent (runs the SET NULL
  state loop), expects one row deleted;
* ``parent_insert`` — re-insert of a deleted churn victim;
* ``batch`` — one pipelined multi-row child insert.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any

#: Foreign-key width and NULL share of the §7.1 synthetic schema.
N_COLUMNS = 5
NULL_FRACTION = 0.25

#: Chaos shard schema: parents (k, 10k) for k < 16 (repro.testing.chaos).
CHAOS_PARENTS = 16

#: Closed-loop sessions of the per-row workloads (the generator may use
#: at most 2 threads and 2 connections).
SESSIONS = 2

#: bulk_ingest: rows per ``batch`` request, and requests kept in flight.
BATCH_ROWS = 200
PIPELINE_DEPTH = 4


@dataclass(frozen=True)
class Size:
    """How much work one round of a workload does."""

    parents: int = 2_000
    preload_children: int = 2_000
    victims_per_session: int = 50
    ops_per_session: int = 2_000
    bulk_rows: int = 60_000
    sharded_ops_per_session: int = 1_000


FULL = Size()
SMOKE = Size(
    parents=300, preload_children=300, victims_per_session=10,
    ops_per_session=150, bulk_rows=2_000, sharded_ops_per_session=60,
)


@dataclass
class Op:
    kind: str
    table: str
    values: list[Any] | None = None
    equals: dict[str, Any] | None = None
    #: Expected rows of a read.
    expect_rows: list[list[Any]] | None = None
    #: Rows of a batch.
    rows: list[list[Any]] | None = None


@dataclass
class Plan:
    """One round's inputs: preload, per-session operations, final state."""

    preload_parents: list[list[Any]] = field(default_factory=list)
    preload_children: list[list[Any]] = field(default_factory=list)
    sessions: list[list[Op]] = field(default_factory=list)
    #: Child rows the child table holds after a correct round.
    final_children: list[list[Any]] = field(default_factory=list)
    #: Input properties, recorded where they are measured.
    properties: dict[str, float] = field(default_factory=dict)


def _synthetic_config(parents: int, seed: int) -> Any:
    from repro.workloads.synthetic import SyntheticConfig

    return SyntheticConfig(
        n_columns=N_COLUMNS, parent_rows=parents,
        null_fraction=NULL_FRACTION, seed=seed,
    )


def _parent_keys(rng: random.Random, count: int, domain: int) -> list[tuple[int, ...]]:
    keys: set[tuple[int, ...]] = set()
    while len(keys) < count:
        keys.add(tuple(rng.randrange(domain) for __ in range(N_COLUMNS)))
    ordered = sorted(keys)
    rng.shuffle(ordered)
    return ordered


def _null_states(include_all_null: bool) -> list[tuple[int, ...]]:
    from repro.core.states import iter_null_states

    return list(iter_null_states(N_COLUMNS, include_total=False,
                                 include_all_null=include_all_null))


def _apply(key: tuple[int, ...], state: tuple[int, ...]) -> list[Any]:
    return [None if i in state else v for i, v in enumerate(key)]


class _Payloads:
    """Unique child payloads, so the final child table can be checked row
    for row."""

    def __init__(self) -> None:
        self.next = 0

    def __call__(self) -> int:
        self.next += 1
        return self.next


def _synthetic_base(size: Size, seed: int, victims: int) -> tuple[
    Plan, random.Random, Any, list[tuple[int, ...]], list[tuple[int, ...]], _Payloads
]:
    """Parents (the first *victims* keys are the churn pool) and preloaded
    children, generated only from non-victim parents."""
    rng = random.Random(seed)
    config = _synthetic_config(size.parents, seed)
    keys = _parent_keys(rng, size.parents, config.domain_size)
    victim_keys, stable_keys = keys[:victims], keys[victims:]
    plan = Plan()
    plan.preload_parents = [list(k) + [i] for i, k in enumerate(keys)]
    payload = _Payloads()
    states = _null_states(include_all_null=True)
    for __ in range(size.preload_children):
        key = stable_keys[rng.randrange(len(stable_keys))]
        state = states[rng.randrange(len(states))] if rng.random() < NULL_FRACTION else ()
        plan.preload_children.append(_apply(key, state) + [payload()])
    plan.final_children = [list(r) for r in plan.preload_children]
    return plan, rng, config, victim_keys, stable_keys, payload


def oltp_partial(seed: int, size: Size = FULL) -> Plan:
    """Per-row autocommit mix: 60% snapshot point reads, 25% child
    inserts (25% of them with NULLs), 5% orphan inserts, 10% parent
    delete/re-insert churn on a per-session victim pool."""
    victims = size.victims_per_session * SESSIONS
    plan, rng, config, victim_keys, stable_keys, payload = _synthetic_base(
        size, seed, victims
    )
    parent_payload = {tuple(r[:N_COLUMNS]): r[N_COLUMNS] for r in plan.preload_parents}
    states = _null_states(include_all_null=True)
    domain = config.domain_size
    kcols = [f"k{i + 1}" for i in range(N_COLUMNS)]
    churn_ops = 0
    for s in range(SESSIONS):
        pool = victim_keys[s * size.victims_per_session:(s + 1) * size.victims_per_session]
        present = {key: True for key in pool}
        ops: list[Op] = []
        for __ in range(size.ops_per_session):
            r = rng.random()
            if r < 0.60:
                key = stable_keys[rng.randrange(len(stable_keys))]
                ops.append(Op("read", "P", equals=dict(zip(kcols, key)),
                              expect_rows=[list(key) + [parent_payload[key]]]))
            elif r < 0.85:
                key = stable_keys[rng.randrange(len(stable_keys))]
                if rng.random() < NULL_FRACTION:
                    row = _apply(key, states[rng.randrange(len(states))]) + [payload()]
                    ops.append(Op("partial_insert", "C", values=row))
                else:
                    ops.append(Op("total_insert", "C", values=list(key) + [payload()]))
                plan.final_children.append(list(ops[-1].values or []))
            elif r < 0.90:
                # One component outside every parent's domain, never
                # NULLed: no parent can match, whatever the state.
                poisoned = rng.randrange(N_COLUMNS)
                key = list(stable_keys[rng.randrange(len(stable_keys))])
                key[poisoned] = domain + rng.randrange(1_000)
                state = ()
                if rng.random() < NULL_FRACTION:
                    state = tuple(p for p in states[rng.randrange(len(states))]
                                  if p != poisoned)
                ops.append(Op("orphan_insert", "C",
                              values=_apply(tuple(key), state) + [-1]))
            else:
                churn_ops += 1
                key = pool[rng.randrange(len(pool))]
                if present[key]:
                    ops.append(Op("delete", "P", equals=dict(zip(kcols, key))))
                else:
                    ops.append(Op("parent_insert", "P",
                                  values=list(key) + [parent_payload[key]]))
                present[key] = not present[key]
        # Leave every victim in place, so the round ends where it began.
        for key in pool:
            if not present[key]:
                ops.append(Op("parent_insert", "P",
                              values=list(key) + [parent_payload[key]]))
        plan.sessions.append(ops)
    total_ops = sum(len(ops) for ops in plan.sessions)
    plan.properties = {
        "churn_victim_share": victims / size.parents,
        "churn_op_share": churn_ops / max(1, total_ops),
        "rows_per_distinct_projection": 1.0,
        "repeated_projection_share": 0.0,
    }
    return plan


def bulk_ingest(seed: int, size: Size = FULL) -> Plan:
    """One session of pipelined ``batch`` requests, each carrying
    ``BATCH_ROWS`` clustered child rows as
    :func:`repro.workloads.synthetic.clustered_insert_stream` makes
    them."""
    from repro.server import wire
    from repro.workloads.synthetic import clustered_insert_stream

    plan, rng, config, __, stable_keys, payload = _synthetic_base(size, seed, 0)
    dataset = SimpleNamespace(config=config, parent_keys=stable_keys)
    stream = clustered_insert_stream(dataset, size.bulk_rows, seed=seed)
    ops: list[Op] = []
    repeated = 0
    per_request_ratio: list[float] = []
    for start in range(0, len(stream), BATCH_ROWS):
        rows = [wire.encode_row(row[:N_COLUMNS]) + [payload()]
                for row in stream[start:start + BATCH_ROWS]]
        distinct = {tuple(r[:N_COLUMNS]) for r in rows}
        repeated += len(rows) - len(distinct)
        per_request_ratio.append(len(rows) / len(distinct))
        ops.append(Op("batch", "C", rows=rows))
        plan.final_children.extend(list(r) for r in rows)
    plan.sessions = [ops]
    per_request_ratio.sort()
    plan.properties = {
        "churn_victim_share": 0.0,
        "rows_per_distinct_projection": per_request_ratio[len(per_request_ratio) // 2],
        "repeated_projection_share": repeated / max(1, len(stream)),
    }
    return plan


def sharded_partial(seed: int, size: Size = FULL) -> Plan:
    """Through the coordinator: 50% parent point reads, 30% fully
    referencing child inserts (one-phase), 20% child inserts with one
    NULL component (scatter probe, 2PC when the witness is remote)."""
    rng = random.Random(seed)
    plan = Plan()
    next_id = 0
    for __ in range(SESSIONS):
        ops: list[Op] = []
        for __ in range(size.sharded_ops_per_session):
            k = rng.randrange(CHAOS_PARENTS)
            r = rng.random()
            if r < 0.50:
                ops.append(Op("read", "P", equals={"k1": k, "k2": k * 10},
                              expect_rows=[[k, k * 10]]))
                continue
            next_id += 1
            if r < 0.80:
                values = [next_id, k, k * 10]
                ops.append(Op("total_insert", "C", values=values))
            else:
                values = [next_id, k, None] if rng.random() < 0.5 else [next_id, None, k * 10]
                ops.append(Op("partial_insert", "C", values=values))
            plan.final_children.append(list(values))
        plan.sessions.append(ops)
    plan.properties = {
        "churn_victim_share": 0.0,
        "rows_per_distinct_projection": 1.0,
        "repeated_projection_share": 0.0,
    }
    return plan
