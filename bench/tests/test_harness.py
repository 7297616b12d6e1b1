"""Tests of the benchmark harness itself, not of maxplus.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import cases  # noqa: E402
import corpus  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402

mp = cases.import_maxplus()


def build(grids):
    return mp.parse_problem(corpus.problem_text(grids)).instantiate()


# -- percentiles ------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert bench_run.percentile(values, 50) == 50
    assert bench_run.percentile(values, 90) == 90
    assert bench_run.above(values, 90) == 10
    assert bench_run.percentile(list(range(1, 100)), 90) == 90
    assert bench_run.percentile([7], 90) == 7
    assert bench_run.percentile([1, 2, 3, 4], 50) == 2


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_one_pass_leaves_ten_samples_above_p90(workload):
    count = len(corpus.build_run(workload, 0)["cases"])
    assert count - math.ceil(0.9 * count) >= 10


# -- spans ------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, None, "c", "case", 0, 100),
        (1, 0, "c", "a", 10, 40),
        (2, 1, "c", "b", 15, 25),
        (3, 0, "c", "a", 50, 60),
    ]
    assert tracing.self_times(spans) == {0: 60, 1: 20, 2: 10, 3: 10}


def traced(fn):
    tracer = tracing.Tracer()
    tracer.install(mp)
    try:
        tracer.begin_case("t")
        result = fn()
        tracer.end_case()
    finally:
        tracer.uninstall()
    return tracer, result


def flushed_totals(tracer):
    out = io.StringIO()
    tracer.flush(out)
    assert len(out.getvalue().splitlines()) == sum(c for c, _ in tracer.totals.values())
    return tracer.totals


def test_self_times_partition_the_case():
    grids, _ = corpus.consistent_system(random.Random("partition"), 5)
    system = build(grids)
    tracer, _ = traced(lambda: mp.check_consistency(system))
    (case,) = [s for s in tracer.spans if s[3] == "case"]
    assert sum(tracing.self_times(tracer.spans).values()) == case[5] - case[4]
    totals = flushed_totals(tracer)
    assert tracer.spans == []
    assert totals["pteg.check"][0] == 1
    assert totals["pteg.closure_step"][0] == 26
    assert tracing.HOOK in totals


def test_closure_steps_after_a_fixed_point_count_as_wasted():
    grids, _ = corpus.consistent_system(random.Random("waste"), 4)
    system = build(grids)
    tracer, verdict = traced(lambda: mp.check_consistency(system))
    assert verdict.kind is mp.ConsistencyKind.CONSISTENT
    steps, wasted = tracer.counts["pteg.closure_steps"], tracer.counts["pteg.wasted_steps"]
    assert steps == 17
    seq = mp.closure_sequence(system, 17)
    first_repeat = next(k for k in range(17) if seq[k] == seq[k + 1])
    assert wasted == steps - (first_repeat + 1)


def test_uninstall_restores_every_binding():
    from maxplus import cli, invariance, matrix, pteg, semiring

    before = (
        cli.format_scalar, matrix.format_scalar, semiring.format_scalar,
        pteg._next_closure, invariance._next_closure, cli.main,
        matrix.TropicalMatrix.__dict__["from_blocks"],
        matrix.TropicalMatrix.__dict__["__matmul__"],
    )
    tracer = tracing.Tracer()
    tracer.install(mp)
    assert cli.format_scalar is not before[0]
    assert invariance._next_closure is pteg._next_closure is not before[3]
    tracer.uninstall()
    after = (
        cli.format_scalar, matrix.format_scalar, semiring.format_scalar,
        pteg._next_closure, invariance._next_closure, cli.main,
        matrix.TropicalMatrix.__dict__["from_blocks"],
        matrix.TropicalMatrix.__dict__["__matmul__"],
    )
    assert all(a is b for a, b in zip(before, after))


# -- generators -------------------------------------------------------------


def test_generators_repeat_for_the_same_seed():
    a = corpus.consistent_system(random.Random("s"), 8)
    assert a == corpus.consistent_system(random.Random("s"), 8)
    assert a != corpus.consistent_system(random.Random("t"), 8)
    rng1, rng2 = random.Random("p"), random.Random("p")
    assert corpus.perturb(rng1, *a) == corpus.perturb(rng2, *a)
    for slot, spec in corpus.railway_slots():
        first = corpus.railway_ell(random.Random(slot), spec)
        assert first == corpus.railway_ell(random.Random(slot), spec)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_run_inputs_are_byte_identical_per_seed(workload):
    first = json.dumps(corpus.build_run(workload, 5))
    assert first == json.dumps(corpus.build_run(workload, 5))
    assert first != json.dumps(corpus.build_run(workload, 6))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_construction_is_consistent_and_its_witness_is_a_schedule(n):
    for k in range(5):
        grids, (p, lam) = corpus.consistent_system(random.Random(f"c/{n}/{k}"), n)
        system = build(grids)
        states = [[v + step * lam for v in p] for step in range(6)]
        assert mp.validate_trajectory(system, mp.Trajectory(states, states[1:]))
        assert mp.check_consistency(system).kind is mp.ConsistencyKind.CONSISTENT


@pytest.mark.parametrize("n", [2, 4, 8])
def test_perturbation_diverges_at_the_reported_index(n):
    for k in range(8):
        rng = random.Random(f"p/{n}/{k}")
        grids, index = corpus.perturb(rng, *corpus.consistent_system(rng, n))
        verdict = mp.check_consistency(build(grids))
        assert verdict.kind is mp.ConsistencyKind.NOT_WEAKLY_CONSISTENT
        assert verdict.first_divergent == index


def test_railway_ell_stays_in_its_slot():
    for slot, spec in corpus.railway_slots():
        if isinstance(spec, str):
            continue
        side, (lo, hi) = spec
        for c in range(corpus.POOL):
            ell = mp.parse_scalar(corpus.railway_ell(random.Random(f"{slot}/{c}"), spec))
            delta = float(side * (ell + 14))
            assert lo - 1e-3 <= delta <= hi + 1e-3, (slot, ell)


def test_golden_records_every_candidate():
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    for workload in corpus.WORKLOADS:
        keys = set()
        for _, _, systems, slot_cases in corpus.candidates(workload):
            for case in slot_cases:
                record = golden[workload][case["key"]]
                assert record["input"] == corpus.input_digest(case, systems), case["key"]
                keys.add(case["key"])
        assert keys == set(golden[workload])
