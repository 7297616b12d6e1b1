"""Exact transforms of a system whose effect on every result is known.

They check the library against itself at sizes and stop indices that no
brute-force oracle reaches (ROADMAP item 19).

*Occurrence shift* by lambda: x_i(k) -> x_i(k) + k * lambda.  Every forward
weight (``dynamics`` and ``extra_forward``) gains lambda, every backward
weight loses it, and ``within`` stays.  A closure entry weighs walks of
transit 0, so every closure, and with them the verdict, its index and the
fixed closure, is unchanged.  Generator k, the star of ``[[within,
backward], [forward, closure_k]]``, moves by the potentials p = [0; lambda]:
entry (i, j) gains p_i - p_j.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxplus import (
    InvarianceKind,
    PtegSystem,
    TropicalMatrix,
    check_consistency,
    is_finite,
    iterate_shrink,
)

from conftest import REPEAT_AT_FIVE, TWO_NODE, make_railway
from helpers import DENOMINATORS, fraction_systems, fractions, systems


def moved(block: TropicalMatrix, by) -> TropicalMatrix:
    """``block`` with ``by`` added to every finite entry."""
    return TropicalMatrix([[v + by if is_finite(v) else v for v in row] for row in block])


def shifted(system: PtegSystem, lam) -> PtegSystem:
    """The system of the schedules x_i(k) + k * lam."""
    return PtegSystem(
        dynamics=moved(system.dynamics, lam),
        backward=moved(system.backward, -lam),
        within=system.within,
        extra_forward=moved(system.extra_forward, lam),
    )


def potentials_moved(generator: TropicalMatrix, lam) -> tuple:
    """The rows of ``generator`` with entry (i, j) moved by p_i - p_j, p = [0; lam]."""
    n = generator.rows // 2
    return tuple(
        tuple(
            v + ((i >= n) - (j >= n)) * lam if is_finite(v) else v
            for j, v in enumerate(row)
        )
        for i, row in enumerate(generator)
    )


LAMBDAS = st.sampled_from(DENOMINATORS).flatmap(lambda dens: fractions(-6, 6, dens))

# a small probe keeps every listed generator (steps 0 to n^2 + 1) cheap to build
PROBE = 6


@settings(max_examples=60)
@given(
    st.one_of(systems(), fraction_systems().map(lambda drawn: drawn[0])), LAMBDAS
)
@example(TWO_NODE, Fraction(1, 3))
@example(REPEAT_AT_FIVE, Fraction(-7, 2))
@example(make_railway(-14), Fraction(14))
def test_occurrence_shift(system, lam):
    image = shifted(system, lam)
    assert check_consistency(image, PROBE) == check_consistency(system, PROBE)
    report, moved_report = iterate_shrink(system, PROBE), iterate_shrink(image, PROBE)
    assert (moved_report.kind, moved_report.step) == (report.kind, report.step)
    assert len(moved_report.generators) == len(report.generators)
    for g, g_moved in zip(report.generators, moved_report.generators):
        assert g_moved.to_rows() == potentials_moved(g, lam)


@pytest.mark.parametrize("lam", [Fraction(1, 3), Fraction(-7, 2), 14])
@pytest.mark.parametrize(
    "ell, stop", [(Fraction("-13.99"), 201), (Fraction("-13.999"), 2001)]
)
def test_occurrence_shift_past_the_walk_budget(ell, stop, lam):
    """The railway's first +inf lies past closure 32, so the search finds it."""
    system = make_railway(ell)
    image = shifted(system, lam)
    verdict = check_consistency(system, 2100)
    assert verdict.first_divergent == stop
    assert check_consistency(image, 2100) == verdict
    report, moved_report = iterate_shrink(system, 2100), iterate_shrink(image, 2100)
    empty = (InvarianceKind.REAL_EMPTY_AT_STEP, stop - 1)
    assert (moved_report.kind, moved_report.step) == (report.kind, report.step) == empty
