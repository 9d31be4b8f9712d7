"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import otmel  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "samples, expected",
    [(19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(samples, expected):
    assert workloads.tail_percentile(samples) == expected


def test_every_workload_has_enough_mentions_for_p90():
    for workload in workloads.WORKLOADS.values():
        assert workloads.tail_percentile(workload.rank_fixture["n_mentions"]) >= 90


def test_self_time_subtracts_overlapping_children_once():
    # Parent 0..10; children from two threads cover 1..5 and 3..7 (union 6),
    # and a grandchild inside the first child does not count for the parent.
    start = [0.0, 1.0, 3.0, 2.0]
    end = [10.0, 5.0, 7.0, 4.0]
    parent = [-1, 0, 0, 1]
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == pytest.approx([4.0, 2.0, 4.0, 2.0])


def test_self_time_of_spans_recorded_on_worker_threads():
    tracer = tracing.Tracer()
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")

    def child():
        tracer.call(inner, None, time.sleep, (0.05,), {})

    def parent():
        workers = [threading.Thread(target=child) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
            assert not w.is_alive()

    tracer.call(outer, None, parent, (), {})
    name_of, parents, start, end = tracer.arrays()
    assert name_of.tolist() == [outer, inner, inner]
    assert parents.tolist() == [-1, 0, 0]
    own = tracing.self_times(start, end, parents)
    union = max(end[1:]) - min(start[1:])
    # Both children ran at once, so the parent loses their union, not their sum.
    assert own[0] == pytest.approx(end[0] - start[0] - union)


def test_pooled_hit_ratio_counts_lookups_without_pooled_pair():
    names = ["matching.Scorer.pooled", "matching.pooled_pair", "matching.Scorer.scores"]
    # scores -> 4 lookups; the first and third compute their pooled pair.
    name_of = [2, 0, 1, 0, 0, 1, 0, 1]
    parent = [-1, 0, 1, 0, 0, 4, 0, -1]
    assert tracing.pooled_hit_ratio(names, name_of, parent) == pytest.approx(0.5)
    assert tracing.pooled_hit_ratio(names[2:], [0], [-1]) == 0.0


def test_wrapping_covers_every_binding_and_restores_it():
    originals = {
        "ot": otmel.ot.sinkhorn,
        "correlation": otmel.correlation.sinkhorn,
        "objectives": otmel.objectives.sinkhorn,
    }
    scores = otmel.Scorer.__dict__["scores"]
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracing.wrapped(tracer):
            wrapper = otmel.ot.sinkhorn
            assert wrapper is not originals["ot"]
            assert otmel.correlation.sinkhorn is wrapper
            assert otmel.objectives.sinkhorn is wrapper
            assert otmel.Scorer.__dict__["scores"] is not scores
            assert tracing.leaked_wrappers()
            raise ValueError("leave the block by an exception")
    assert otmel.ot.sinkhorn is originals["ot"]
    assert otmel.correlation.sinkhorn is originals["correlation"]
    assert otmel.objectives.sinkhorn is originals["objectives"]
    assert otmel.Scorer.__dict__["scores"] is scores
    assert tracing.leaked_wrappers() == []


def test_a_binding_left_wrapped_is_reported():
    tracer = tracing.Tracer()
    original = otmel.ot.sinkhorn
    with pytest.raises(RuntimeError, match="not restored"):
        with tracing.wrapped(tracer):
            stray = otmel.ot.sinkhorn
            # Simulate a second binding created while traced, e.g. by a reload.
            otmel.ot.sinkhorn_alias = stray
    del otmel.ot.sinkhorn_alias
    assert otmel.ot.sinkhorn is original
    assert tracing.leaked_wrappers() == []


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_small_run_of_each_workload_at_a_second_seed(name, trace):
    workload = workloads.small(workloads.WORKLOADS[name])
    work_dir = ROOT / ".perfbench_run" / f"test-{name}-{int(trace)}"
    try:
        attempted, failed, metrics, info = workloads.run_workload(
            workload, seed=2, seconds=0.0, trace=trace, root=ROOT, work_dir=work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    assert attempted > 0
    assert failed == 0
    assert set(metrics) == set(_declared("per_layer" if trace else "end_to_end"))
    assert all(np.isfinite(v) for v in metrics.values())
    if not trace:
        assert all(v > 0 for v in metrics.values())
    assert tracing.leaked_wrappers() == []
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
