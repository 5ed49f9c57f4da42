"""Tests of the benchmark itself, at smoke size (seconds, not minutes).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload_and_checks_outputs(trace):
    proc = _bench("--workload", "all", "--smoke", "--seed", "3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    for name in run.WORKLOADS:
        assert f"[{name}]" in proc.stdout
    lines = proc.stdout.splitlines()
    printed = {line.split()[0] for line in lines if line.startswith("  ")}
    wanted = metrics.CONTRACT_PER_LAYER if trace == "1" else (
        *metrics.CONTRACT_END_TO_END, "read_p50_ms", "read_p99_ms",
        "total_insert_p50_ms", "total_insert_p99_ms", "partial_insert_p50_ms",
        "partial_insert_p99_ms", "delete_p50_ms", "delete_p99_ms",
        "batch_p50_ms", "batch_p90_ms", "failed_share",
    )
    assert set(wanted) <= printed
    # Every metric line names its unit and sample count.
    assert all(" n=" in line for line in lines if line.startswith("  "))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_single_workload_prints_the_contract_metrics(workload):
    proc = _bench("--workload", workload, "--smoke", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result["metrics"]) == set(metrics.CONTRACT_END_TO_END)
    for value in result["metrics"].values():
        assert value["value"] > 0


def test_benchmark_json_lists_the_contract_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(metrics.CONTRACT_END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(metrics.CONTRACT_PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "oltp_partial", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_are_seeded_and_vetoes_are_orphans():
    one = workloads.oltp_partial(7, workloads.SMOKE)
    two = workloads.oltp_partial(7, workloads.SMOKE)
    other = workloads.oltp_partial(8, workloads.SMOKE)
    assert [o.values for o in one.sessions[0]] == [o.values for o in two.sessions[0]]
    assert [o.values for o in one.sessions[0]] != [o.values for o in other.sessions[0]]
    parents = {tuple(p[:workloads.N_COLUMNS]) for p in one.preload_parents}
    for op in one.sessions[0] + one.sessions[1]:
        if op.kind != "orphan_insert":
            continue
        fk = op.values[:workloads.N_COLUMNS]
        assert not any(
            all(v is None or v == p[i] for i, v in enumerate(fk)) for p in parents
        )


def test_bulk_batches_repeat_projections():
    plan = workloads.bulk_ingest(2, workloads.SMOKE)
    assert plan.properties["rows_per_distinct_projection"] > 1.0
    assert 0.0 < plan.properties["repeated_projection_share"] < 1.0
    assert sum(len(op.rows) for op in plan.sessions[0]) == workloads.SMOKE.bulk_rows


def test_determinism_guard_fails_loudly_on_differing_counters():
    def fake(tracker: dict) -> types.SimpleNamespace:
        return types.SimpleNamespace(report={"tracker": tracker})

    run._determinism_guard([fake({"index_node_reads": 5}), fake({"index_node_reads": 5})])
    with pytest.raises(run.CheckFailed, match="determinism guard"):
        run._determinism_guard([fake({"index_node_reads": 5}),
                                fake({"index_node_reads": 6})])


def test_self_time_subtracts_child_spans():
    summary = spans.SpanSummary()
    # (seq, name, start, end, parent, root, thread, error)
    summary.add({"spans": [
        (1, "session.execute", 0, 100, 0, 1, "t", None),
        (2, "core.insert", 10, 60, 1, 1, "t", None),
        (3, "indexes.insert_encoded", 20, 30, 2, 1, "t", None),
        (4, "concurrency.witness_many", 60, 90, 1, 1, "t", None),
        (5, "concurrency.witness", 65, 80, 4, 1, "t", None),
    ]})
    assert summary.self_ns["session.execute"] == 100 - 50 - 30
    assert summary.self_ns["core.insert"] == 50 - 10
    assert summary.outer_ns(["concurrency.witness", "concurrency.witness_many"]) == 30
    assert summary.root_ns() == 100


def test_percentile_interpolates():
    assert metrics.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert metrics.percentile([5.0], 99) == 5.0
