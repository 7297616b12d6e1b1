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

The other three are one affine map of the events, y_(pi_i)(k) = c * x_i(k)
+ p_i, taken one part at a time: an arc j -> i of weight w becomes an arc
pi_j -> pi_i of weight c * w + p_i - p_j.  Every matrix the library derives
from the blocks is a best weight of walks, so it maps the same way (a
generator with pi and p on both halves, ``[pi; n + pi]`` and ``[p; p]``),
and the verdict's kind and index, the shrink kind and step and the number
of generators do not change.

- *Event permutation* pi (p = 0, c = 1).
- *Event potentials* p (pi the identity, c = 1).
- *Scaling* by a rational c > 0 (pi the identity, p = 0).

A synthesized schedule maps too under pi and c, with its seed mapped: the
zero padding of the later stages is fixed by both.  Potentials would move
that padding, so they are not checked on schedules.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxplus import (
    ConsistencyVerdict,
    InfeasibleHorizon,
    InvarianceKind,
    PtegSystem,
    TropicalMatrix,
    check_consistency,
    closure_sequence,
    is_finite,
    iterate_shrink,
    synthesize_trajectory,
)

from conftest import REPEAT_AT_FIVE, TWO_NODE, make_railway
from helpers import DENOMINATORS, consistent_systems, fraction_systems, fractions, systems


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


def mapped(matrix: TropicalMatrix, pi=None, p=None, c=1) -> tuple:
    """The rows of ``matrix`` with entry (i, j) at (pi_i, pi_j), as c * v + p_i - p_j.

    Infinite entries keep their value; pi defaults to the identity, p to 0.
    """
    m = matrix.rows
    pi = range(m) if pi is None else pi
    p = (0,) * m if p is None else p
    rows = [[None] * m for _ in range(m)]
    for i, row in enumerate(matrix.to_rows()):
        for j, v in enumerate(row):
            rows[pi[i]][pi[j]] = c * v + p[i] - p[j] if is_finite(v) else v
    return tuple(map(tuple, rows))


def transformed(system: PtegSystem, pi=None, p=None, c=1) -> PtegSystem:
    """The system of the schedules y_(pi_i)(k) = c * x_i(k) + p_i."""

    def image(block):
        return TropicalMatrix(mapped(block, pi, p, c))

    return PtegSystem(
        dynamics=image(system.dynamics),
        backward=image(system.backward),
        within=image(system.within),
        extra_forward=image(system.extra_forward),
    )


def mapped_state(state, pi=None, c=1) -> tuple:
    """``state`` with entry i at pi_i, times c."""
    out = [None] * len(state)
    for i, v in enumerate(state):
        out[i if pi is None else pi[i]] = c * v
    return tuple(out)


LAMBDAS = st.sampled_from(DENOMINATORS).flatmap(lambda dens: fractions(-6, 6, dens))


@st.composite
def scales(draw):
    """A rational c in (0, 4]."""
    den = draw(st.sampled_from(DENOMINATORS).flatmap(lambda dens: dens))
    return Fraction(draw(st.integers(1, 4 * den)), den)


@st.composite
def cases(draw):
    """``(system, seed, pi, p, c)``: a system and the parameters of each transform.

    The systems come from :func:`helpers.systems`, :func:`helpers.fraction_systems`
    and :func:`helpers.consistent_systems` (n up to 16).
    """
    system = draw(
        st.one_of(
            systems(),
            fraction_systems().map(lambda drawn: drawn[0]),
            consistent_systems(),
        )
    )
    n = system.size
    seed = tuple(draw(st.lists(LAMBDAS, min_size=n, max_size=n)))
    pi = tuple(draw(st.permutations(range(n))))
    p = tuple(draw(st.lists(LAMBDAS, min_size=n, max_size=n)))
    return system, seed, pi, p, draw(scales())


# a small probe keeps every listed generator (steps 0 to n^2 + 1) cheap to build
PROBE = 6
# closures 0 to CLOSURES are compared, and schedules over HORIZON occurrences
CLOSURES = 8
HORIZON = 6


def assert_maps(system: PtegSystem, pi=None, p=None, c=1):
    """Verdict, closures and every listed generator map as the transform says."""
    image = transformed(system, pi, p, c)
    verdict = check_consistency(system, PROBE)
    fixed = verdict.fixed_closure
    assert check_consistency(image, PROBE) == ConsistencyVerdict(
        verdict.kind,
        None if fixed is None else TropicalMatrix(mapped(fixed, pi, p, c)),
        verdict.first_divergent,
        verdict.verified_up_to,
    )
    walks = closure_sequence(system, CLOSURES), closure_sequence(image, CLOSURES)
    for closure, image_closure in zip(*walks):
        assert image_closure.to_rows() == mapped(closure, pi, p, c)
    report, moved_report = iterate_shrink(system, PROBE), iterate_shrink(image, PROBE)
    assert (moved_report.kind, moved_report.step) == (report.kind, report.step)
    assert len(moved_report.generators) == len(report.generators)
    n = system.size
    pi2 = None if pi is None else (*pi, *(n + i for i in pi))
    p2 = None if p is None else (*p, *p)
    for g, g_moved in zip(report.generators, moved_report.generators):
        assert g_moved.to_rows() == mapped(g, pi2, p2, c)


def synthesized(system: PtegSystem, seed):
    """The states of the least schedule over HORIZON occurrences, or None."""
    try:
        return synthesize_trajectory(system, HORIZON, seed).states
    except InfeasibleHorizon:
        return None


def assert_schedule_maps(system: PtegSystem, seed, pi=None, c=1):
    states = synthesized(system, seed)
    image = synthesized(transformed(system, pi, c=c), mapped_state(seed, pi, c))
    if states is None:
        assert image is None
    else:
        assert image == tuple(mapped_state(x, pi, c) for x in states)


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
    p = (0,) * system.size + (lam,) * system.size
    for g, g_moved in zip(report.generators, moved_report.generators):
        assert g_moved.to_rows() == mapped(g, p=p)


@settings(max_examples=40)
@given(cases())
@example((REPEAT_AT_FIVE, (1, -2, Fraction(1, 2)), (2, 0, 1), None, 1))
@example((make_railway(-14), (0, 0, 0, Fraction(1, 3)), (3, 1, 0, 2), None, 1))
def test_event_permutation(case):
    system, seed, pi, _, _ = case
    assert_maps(system, pi=pi)
    assert_schedule_maps(system, seed, pi=pi)


@settings(max_examples=40)
@given(cases())
@example((TWO_NODE, None, None, (Fraction(5, 3), -2), 1))
@example((make_railway(-14), None, None, (1, Fraction(-1, 7), 0, 3), 1))
def test_event_potentials(case):
    system, _, _, p, _ = case
    assert_maps(system, p=p)


@settings(max_examples=40)
@given(cases())
@example((REPEAT_AT_FIVE, (0, 1, 2), None, None, Fraction(2, 3)))
@example((make_railway(-14), (0, 0, 0, 0), None, None, Fraction(7, 2)))
def test_scaling(case):
    system, seed, _, _, c = case
    assert_maps(system, c=c)
    assert_schedule_maps(system, seed, c=c)


STOPS = [(Fraction("-13.99"), 201), (Fraction("-13.999"), 2001)]


@pytest.mark.parametrize("lam", [Fraction(1, 3), Fraction(-7, 2), 14])
@pytest.mark.parametrize("ell, stop", STOPS)
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


@pytest.mark.parametrize(
    "pi, p, c",
    [
        ((2, 0, 3, 1), None, 1),
        (None, (Fraction(1, 3), -2, Fraction(5, 7), 0), 1),
        (None, None, Fraction(3, 2)),
    ],
    ids=["permutation", "potentials", "scaling"],
)
@pytest.mark.parametrize("ell, stop", STOPS)
def test_event_transforms_past_the_walk_budget(ell, stop, pi, p, c):
    """The stop at 201 or 2001 goes through the search, on the image too."""
    system = make_railway(ell)
    image = transformed(system, pi, p, c)
    verdict = check_consistency(system, 2100)
    assert verdict.first_divergent == stop
    assert check_consistency(image, 2100) == verdict
    report = iterate_shrink(image, 2100)
    assert (report.kind, report.step) == (InvarianceKind.REAL_EMPTY_AT_STEP, stop - 1)
