"""Block-tridiagonal routes against their dense unrolled oracles."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxplus import (
    NEG_INF,
    InfeasibleHorizon,
    PtegSystem,
    TropicalMatrix,
    build_block_matrix,
    closure_sequence,
    export_dot,
    finite_weak_feasibility,
    synthesize_trajectory,
)

from conftest import make_railway
from helpers import export_dot_dense, synthesize_dense


def scalar(rng, lo, hi, fractional):
    if not fractional:
        return rng.randint(lo, hi)
    q = rng.randint(1, 6)
    return Fraction(rng.randint(lo * q, hi * q), q)


@st.composite
def systems(draw, max_n=5):
    """Random systems up to n = 5, from dense to almost all -inf.

    Windowed signs (positive forward separations, negative backward bounds)
    leave most of them consistent; free signs close positive circuits.
    Entries are integers or Fractions with denominators up to 6.
    """
    n = draw(st.integers(1, max_n))
    sparsity = draw(st.integers(0, 9))
    windowed = draw(st.booleans())
    fractional = draw(st.booleans())
    rng = draw(st.randoms(use_true_random=False))

    def block(lo, hi):
        if not windowed:
            lo, hi = -5, 5
        return TropicalMatrix(
            [
                [
                    NEG_INF if rng.randrange(10) < sparsity
                    else scalar(rng, lo, hi, fractional)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )

    return PtegSystem(
        dynamics=block(0, 5),
        backward=block(-8, 0),
        within=block(-5, 0),
        extra_forward=block(-2, 3),
    )


@st.composite
def seeds(draw, n):
    if draw(st.booleans()):
        return None
    rng = draw(st.randoms(use_true_random=False))
    return [scalar(rng, -4, 4, draw(st.booleans())) for _ in range(n)]


@given(systems(), st.integers(1, 8))
def test_feasibility_matches_positive_circuit_oracle(system, horizon):
    feasible = finite_weak_feasibility(system, horizon)
    assert feasible == build_block_matrix(system, horizon).star().rmax_valued
    assert feasible == closure_sequence(system, horizon - 1)[-1].rmax_valued


@given(st.data(), systems(), st.integers(2, 8))
def test_synthesis_matches_dense_star(data, system, horizon):
    seed = data.draw(seeds(system.size))
    try:
        expected = synthesize_dense(system, horizon, seed)
    except InfeasibleHorizon as exc:
        expected = exc.reason
    try:
        states = synthesize_trajectory(system, horizon, seed).states
    except InfeasibleHorizon as exc:
        assert exc.reason == expected
    else:
        assert states == expected
        assert [[str(v) for v in row] for row in states] == [
            [str(v) for v in row] for row in expected
        ]


# 10**400 stores every entry of its matrix as an int beyond float range.
WIDE_DENOMINATORS = st.sampled_from([1, 2, 3, 7, 1009, 10**400])
BEYOND_FLOAT = 10**400


@st.composite
def wide_systems(draw, max_n=4):
    """``(system, seed)`` with Fraction entries and some beyond float range.

    Denominators go up to 10**400.  A few entries, and seed components, are
    shifted by 10**400: a huge backward slack is harmless, a huge forward
    delay usually closes a positive circuit, so some horizons are
    infeasible.
    """
    n = draw(st.integers(1, max_n))
    den = draw(WIDE_DENOMINATORS)
    sparsity = draw(st.integers(0, 8))
    rng = draw(st.randoms(use_true_random=False))

    def value(lo, hi, shift):
        v = Fraction(rng.randint(lo * den, hi * den), den)
        return v + shift if rng.randrange(8) == 0 else v

    def block(lo, hi, shift):
        return TropicalMatrix(
            [
                [
                    NEG_INF if rng.randrange(10) < sparsity else value(lo, hi, shift)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )

    system = PtegSystem(
        dynamics=block(0, 5, BEYOND_FLOAT),
        backward=block(-8, 0, -BEYOND_FLOAT),
        within=block(-5, 0, -BEYOND_FLOAT),
        extra_forward=block(-2, 3, 0),
    )
    shift = draw(st.sampled_from([BEYOND_FLOAT, -BEYOND_FLOAT]))
    return system, [value(-4, 4, shift) for _ in range(n)]


def rows(text):
    return TropicalMatrix([row.split() for row in text.split(";")])


# Free signs: a tail one stage too long in the backward sweep adds paths
# past the horizon, which raise x(1) here; windowed systems seldom show it.
PAST_THE_HORIZON = PtegSystem(
    dynamics=rows("-inf -inf -inf; 4 -1 -2; -inf -inf -inf"),
    backward=rows("-inf -inf -inf; -inf -inf 1; -inf -inf -inf"),
    within=rows("-inf -inf -inf; 1 -inf -inf; -inf -1 0"),
    extra_forward=rows("-inf -inf -inf; 2 -inf -inf; -inf -inf -inf"),
)


# Its backward sweep reaches the fixed point (0, 3), not the zero vector,
# so the stages the sweep skips must take that value.
LIFTED_FIXED_POINT = PtegSystem(
    dynamics=TropicalMatrix.epsilon(2),
    backward=rows("-inf -inf; 3 -inf"),
    within=TropicalMatrix.epsilon(2),
)


# Horizons up to 12 reach the backward sweep's fixed point, where it stops.
@settings(max_examples=60)
@given(wide_systems(), st.integers(2, 12))
@example((make_railway(Fraction("-14.123")), None), 20)
@example((make_railway(Fraction("-14.123")), [Fraction(1, 3), 0, 0, 2]), 20)
@example((LIFTED_FIXED_POINT, None), 6)
@example((PAST_THE_HORIZON, [-2, -3, 4]), 2)
@example((PAST_THE_HORIZON, None), 4)
@example((make_railway(-13), None), 8)  # infeasible from horizon 8 on
@example((make_railway(Fraction("-14.5")), [Fraction(1, 10**400), 0, 0, 10**400]), 6)
@example(
    (
        make_railway(Fraction(-14 * 10**400 - 1, 10**400)),
        [Fraction(1, 3), -(10**400), 0, 0],
    ),
    5,
)
def test_sweeps_match_dense_star_on_wide_values(drawn, horizon):
    """The integer vector sweeps give the dense star's states, or its verdict."""
    system, seed = drawn
    try:
        expected = synthesize_dense(system, horizon, seed)
    except InfeasibleHorizon as exc:
        expected = exc.reason
    try:
        states = synthesize_trajectory(system, horizon, seed).states
    except InfeasibleHorizon as exc:
        assert exc.reason == expected == "divergent"
    else:
        assert states == expected
        assert [[str(v) for v in row] for row in states] == [
            [str(v) for v in row] for row in expected
        ]


# Wide systems add labels beyond float range, decimals and p/q forms;
# horizons past 9 add two-digit stage numbers.
@given(st.one_of(systems(), wide_systems().map(lambda d: d[0])), st.integers(1, 12))
def test_dot_matches_dense_scan(system, horizon):
    assert export_dot(system, horizon) == export_dot_dense(system, horizon)
