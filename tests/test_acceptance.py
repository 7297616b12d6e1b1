"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value is exact; comparisons use equality, never
tolerances.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from maxplus import (
    ConsistencyKind,
    InfeasibleHorizon,
    InvarianceKind,
    PtegSystem,
    TropicalMatrix,
    check_consistency,
    closure_sequence,
    finite_weak_feasibility,
    iterate_shrink,
    synthesize_trajectory,
    validate_trajectory,
)

from conftest import make_railway
from helpers import (
    positive_circuit_by_powers,
    random_matrix,
    random_system,
    shrink_generator,
    shrink_generator_unrolled,
    star_by_powers,
)

NEG = "-inf"


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"CRITERION {number:02d} FAIL: {title}")
        raise
    print(f"CRITERION {number:02d} PASS: {title}")


@pytest.fixture(scope="module")
def two_node_system() -> PtegSystem:
    return PtegSystem(
        dynamics=TropicalMatrix([[2, NEG], [NEG, NEG]]),
        backward=TropicalMatrix([[NEG, NEG], [NEG, -1]]),
        within=TropicalMatrix([[NEG, NEG], [0, NEG]]),
    )


@pytest.fixture(scope="module")
def corpus() -> list[PtegSystem]:
    """200 systems, sizes 1..3, integer entries in [-5, 5], ~50% arcs absent."""
    rng = random.Random(20260809)
    return [random_system(rng, rng.choice((1, 2, 3))) for _ in range(200)]


def test_criterion_1_two_node_closures(two_node_system):
    with criterion(1, "two-node closure values at indices 4 and 5"):
        seq = closure_sequence(two_node_system, 5)
        assert seq[4] == TropicalMatrix([[0, NEG], [4, 0]])
        assert seq[5] == TropicalMatrix([[0, NEG], [5, 0]])


def test_criterion_2_two_node_verdict(two_node_system):
    with criterion(2, "two-node system: open verdict, no divergence in probe"):
        seq = closure_sequence(two_node_system, 5)
        assert seq[5] != seq[4]  # stabilization fails exactly at index n^2 = 4
        verdict = check_consistency(two_node_system)
        assert verdict.kind is not ConsistencyKind.CONSISTENT
        assert verdict.kind is ConsistencyKind.NOT_CONSISTENT_WEAK_OPEN
        assert verdict.verified_up_to == 40


def test_criterion_3_two_node_generator_closed_form(two_node_system):
    with criterion(3, "closed-form shrink generators, steps 0..10"):
        for k in range(11):
            expected = TropicalMatrix(
                [
                    [0, NEG, NEG, NEG],
                    [1 + k, 0, -1 + k, -1],
                    [2, NEG, 0, NEG],
                    [2 + k, NEG, k, 0],
                ]
            )
            assert shrink_generator(two_node_system, k) == expected


def test_criterion_4_railway_consistent_window():
    with criterion(4, "railway window -14: fixed closure, consistent, 2 steps"):
        system = make_railway(-14)
        seq = closure_sequence(system, 17)
        expected = TropicalMatrix(
            [
                [0, NEG, NEG, NEG],
                [NEG, 0, NEG, NEG],
                [NEG, NEG, 0, NEG],
                [0, 3, 0, 0],
            ]
        )
        assert seq[16] == expected and seq[17] == expected
        verdict = check_consistency(system)
        assert verdict.kind is ConsistencyKind.CONSISTENT
        assert verdict.fixed_closure == expected
        report = iterate_shrink(system)
        assert report.kind is InvarianceKind.CONVERGED_NON_EMPTY
        assert report.step == 2


def test_criterion_5_railway_sweep():
    with criterion(5, "railway sweep empties at steps 2, 5, 20, 2000"):
        for ell, step, probe in (
            ("-13", 2, None),
            ("-13.5", 5, None),
            ("-13.9", 20, None),
            ("-13.999", 2000, 2100),
        ):
            report = iterate_shrink(make_railway(Fraction(ell)), probe)
            assert report.kind is InvarianceKind.REAL_EMPTY_AT_STEP, ell
            assert report.step == step, (ell, report.step)


def test_criterion_6_generator_formula_vs_unrolled(corpus):
    with criterion(6, "closed-form generators match unrolled stars, 200 systems"):
        for system in corpus:
            for k in range(6):
                assert shrink_generator(system, k) == shrink_generator_unrolled(
                    system, k
                )


def test_criterion_7_star_against_power_sum():
    with criterion(7, "star vs power-sum oracle and divergence, 500 matrices"):
        rng = random.Random(774)
        for _ in range(500):
            matrix = random_matrix(rng, rng.randint(1, 4))
            star = matrix.star()
            circuit = positive_circuit_by_powers(matrix)
            assert circuit == (not star.rmax_valued)
            if not circuit:
                assert star == star_by_powers(matrix)


def test_criterion_8_trajectories_for_consistent_systems(corpus):
    with criterion(8, "zero-seed schedules validate for consistent systems"):
        consistent = [
            s
            for s in corpus
            if check_consistency(s).kind is ConsistencyKind.CONSISTENT
        ]
        assert consistent
        for system in consistent:
            for horizon in range(2, 11):
                try:
                    trajectory = synthesize_trajectory(system, horizon)
                except InfeasibleHorizon:
                    continue
                assert validate_trajectory(system, trajectory)


def test_criterion_9_verdict_correspondence(corpus, two_node_system):
    with criterion(9, "consistency and invariance verdicts agree class-by-class"):
        pairing = {
            InvarianceKind.CONVERGED_NON_EMPTY: ConsistencyKind.CONSISTENT,
            InvarianceKind.REAL_EMPTY_AT_STEP: ConsistencyKind.NOT_WEAKLY_CONSISTENT,
            InvarianceKind.NON_CONVERGENT_WEAK_OPEN: ConsistencyKind.NOT_CONSISTENT_WEAK_OPEN,
        }
        # random systems land in the open class only for razor-edge weight
        # structure, so the worked systems supply the third class
        extras = [two_node_system, make_railway(-14), make_railway(-13)]
        seen = set()
        for system in corpus + extras:
            probe = 10 * system.size**2
            report = iterate_shrink(system, probe)
            verdict = check_consistency(system, probe)
            assert pairing[report.kind] is verdict.kind
            seen.add(report.kind)
        assert seen == set(pairing)


def test_criterion_10_graph_facts():
    with criterion(10, "positive-circuit facts for the worked graphs"):
        two_cycle = TropicalMatrix([[-3, -1], [2, NEG]])
        assert positive_circuit_by_powers(two_cycle)
        assert not two_cycle.star().rmax_valued
        assert not finite_weak_feasibility(make_railway(-13), 4)
