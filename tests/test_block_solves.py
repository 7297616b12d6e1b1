"""Block-tridiagonal routes against their dense unrolled oracles."""

from fractions import Fraction

from hypothesis import given
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
    assert feasible == (not build_block_matrix(system, horizon).has_positive_circuit())
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


@given(systems(), st.integers(1, 8))
def test_dot_matches_dense_scan(system, horizon):
    assert export_dot(system, horizon) == export_dot_dense(system, horizon)
