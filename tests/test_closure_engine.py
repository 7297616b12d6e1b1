"""The shared closure engine against the full-length loops it replaced."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxplus import (
    NEG_INF,
    ConsistencyKind,
    InfeasibleHorizon,
    InvarianceKind,
    PtegSystem,
    Trajectory,
    TropicalMatrix,
    as_scalar,
    build_block_matrix,
    check_consistency,
    closure_sequence,
    finite_weak_feasibility,
    iterate_shrink,
    roundtrip_closure,
    shrink_generator,
    synthesize_trajectory,
    validate_trajectory,
)
from maxplus import invariance, precedence

from conftest import TWO_NODE, make_railway
from helpers import (
    all_eps_system,
    check_consistency_full,
    identity,
    closure_sequence_full,
    iterate_shrink_full,
    report_fields,
    shrink_generator_unrolled,
    stored_entries,
    synthesize_dense,
    validate_trajectory_full,
)


def block(draw, n, lo, hi):
    entries = st.one_of(st.just(NEG_INF), st.integers(lo, hi))
    row = st.lists(entries, min_size=n, max_size=n)
    return TropicalMatrix(draw(st.lists(row, min_size=n, max_size=n)))


@st.composite
def systems(draw, max_n=4):
    """Random systems, about half of them consistent.

    Signs follow the usual time windows: forward separations are positive
    and backward bounds negative, so divergence is not the rule.
    """
    n = draw(st.integers(1, max_n))
    return PtegSystem(
        dynamics=block(draw, n, 0, 5),
        backward=block(draw, n, -8, 0),
        within=block(draw, n, -5, 0),
        extra_forward=block(draw, n, -2, 3),
    )


def first_repeat(system, k_max):
    seq = closure_sequence(system, k_max)
    return next((k for k in range(1, k_max + 1) if seq[k] == seq[k - 1]), None)


@pytest.fixture
def count_steps(monkeypatch):
    """Counts calls of the one closure step; read ``calls[0]``."""
    calls = [0]
    step = precedence._next_closure

    def counted(system, current):
        calls[0] += 1
        return step(system, current)

    monkeypatch.setattr(precedence, "_next_closure", counted)
    return calls


@pytest.fixture
def count_assembly(monkeypatch):
    """Counts generator assemblies; read ``calls[0]``."""
    calls = [0]
    assemble = invariance._assemble_generator

    def counted(*args):
        calls[0] += 1
        return assemble(*args)

    monkeypatch.setattr(invariance, "_assemble_generator", counted)
    return calls


@given(systems(), st.integers(1, 6))
@example(make_railway(Fraction("-13.9")), 6)
@example(make_railway(Fraction("-13.5")), 6)
@example(TWO_NODE, 3)
def test_engine_matches_full_loops(system, probe):
    assert check_consistency(system, probe) == check_consistency_full(system, probe)
    report = iterate_shrink(system, probe)
    assert report_fields(report) == iterate_shrink_full(system, probe)
    if report.kind is InvarianceKind.CONVERGED_NON_EMPTY:
        j = first_repeat(system, report.step + 2)
        assert report.step == max(j, 2) - 2


def test_first_repeat_at_index_one_converges_at_step_zero(count_steps):
    system = all_eps_system()
    verdict = check_consistency(system, 1)
    assert verdict.kind is ConsistencyKind.CONSISTENT
    assert verdict.fixed_closure == identity(2)
    assert count_steps[0] == 1
    report = iterate_shrink(system, 1)
    assert report.kind is InvarianceKind.CONVERGED_NON_EMPTY
    assert report.step == 0
    assert len(report.generators) == 2
    assert report_fields(report) == iterate_shrink_full(system, 1)


@pytest.mark.parametrize("probe", [1, 2, 3])
def test_railway_around_its_converging_step(probe):
    system = make_railway(-14)
    assert first_repeat(system, 5) == 4
    report = iterate_shrink(system, probe)
    assert report_fields(report) == iterate_shrink_full(system, probe)
    if probe < 2:
        assert report.kind is InvarianceKind.NON_CONVERGENT_WEAK_OPEN
        assert report.step == probe
        assert len(report.generators) == probe + 1
    else:
        assert report.kind is InvarianceKind.CONVERGED_NON_EMPTY
        assert report.step == 2
        assert len(report.generators) == 4
    assert check_consistency(system, probe) == check_consistency_full(system, probe)


def test_no_step_after_the_fixed_point(count_steps):
    system = make_railway(-14)
    assert check_consistency(system).kind is ConsistencyKind.CONSISTENT
    assert count_steps[0] == 4
    count_steps[0] = 0
    iterate_shrink(system)
    assert count_steps[0] == 4
    count_steps[0] = 0
    assert len(closure_sequence(system, 17)) == 18
    assert count_steps[0] == 4


def test_divergence_stops_the_check(count_steps):
    verdict = check_consistency(make_railway(-13))
    assert verdict.kind is ConsistencyKind.NOT_WEAKLY_CONSISTENT
    assert count_steps[0] == verdict.first_divergent


def test_classification_assembles_no_generator(count_steps, count_assembly):
    report = iterate_shrink(make_railway(Fraction("-13.9")))
    assert report.kind is InvarianceKind.REAL_EMPTY_AT_STEP
    assert report.step == 20
    assert count_assembly[0] == 0
    assert count_steps[0] == 21
    assert len(report.generators) == 21
    assert count_assembly[0] == 21
    assert report.generators is report.generators
    assert count_assembly[0] == 21


def test_converged_report_assembles_one_generator(count_assembly):
    report = iterate_shrink(make_railway(-14))
    assert report.kind is InvarianceKind.CONVERGED_NON_EMPTY
    assert count_assembly[0] == 1
    assert report.generators[-1] == report.invariant_generator


# Small denominators, and large ones whose LCM is a product of coprime factors.
DENOMINATORS = (st.integers(1, 6), st.integers(1001, 2999))


@st.composite
def fractions(draw, lo, hi, denominators):
    den = draw(denominators)
    return Fraction(draw(st.integers(lo * den, hi * den)), den)


@st.composite
def fraction_systems(draw, max_n=3):
    """``(system, seed)``: Fraction entries, signed like :func:`systems`."""
    n = draw(st.integers(1, max_n))
    dens = draw(st.sampled_from(DENOMINATORS))

    def block(lo, hi):
        entries = st.one_of(st.just(NEG_INF), fractions(lo, hi, dens))
        row = st.lists(entries, min_size=n, max_size=n)
        return TropicalMatrix(draw(st.lists(row, min_size=n, max_size=n)))

    system = PtegSystem(
        dynamics=block(0, 5),
        backward=block(-8, 0),
        within=block(-5, 0),
        extra_forward=block(-2, 3),
    )
    seed = draw(st.lists(fractions(-3, 3, dens), min_size=n, max_size=n))
    return system, tuple(seed)


def synthesized_or_reason(synthesize, system, horizon, seed):
    try:
        return synthesize(system, horizon, seed)
    except InfeasibleHorizon as exc:
        return exc.reason


@settings(max_examples=50)
@given(fraction_systems(), st.integers(1, 6))
@example((make_railway(Fraction("-13.9")), (Fraction(1, 3), 0, Fraction(-5, 7), 1)), 6)
@example((make_railway(Fraction("-14.5")), (0, Fraction(1, 2), 0, 0)), 6)
def test_integer_kernel_matches_fraction_oracles(drawn, probe):
    """Scaled integer results equal the oracles run on the unscaled blocks."""
    system, seed = drawn
    assert check_consistency(system, probe) == check_consistency_full(system, probe)
    assert report_fields(iterate_shrink(system, probe)) == iterate_shrink_full(
        system, probe
    )
    assert closure_sequence(system, 8) == closure_sequence_full(system, 8)
    for k in range(3):
        assert shrink_generator(system, k) == shrink_generator_unrolled(system, k)
    for horizon in range(1, 9):
        dense = build_block_matrix(system, horizon)
        assert finite_weak_feasibility(system, horizon) == (
            not dense.has_positive_circuit()
        )
    for horizon, start in ((2, None), (5, seed)):
        trajectory = synthesized_or_reason(synthesize_trajectory, system, horizon, start)
        expected = synthesized_or_reason(synthesize_dense, system, horizon, start)
        if isinstance(expected, str):
            assert trajectory == expected
            continue
        assert trajectory.states == expected
        assert [[str(v) for v in row] for row in trajectory.states] == [
            [str(v) for v in row] for row in expected
        ]


@pytest.fixture
def walk_operands(monkeypatch):
    """Collects every stored entry the closure step reads; read ``entries``.

    Each step's operands must share one scale, so no product rescales.
    """
    entries = []
    step = precedence._next_closure

    def recorded(system, current):
        operands = (system.within, system.backward, system.forward, current)
        assert len({m._scale for m in operands}) == 1
        for m in operands:
            entries.extend(stored_entries(m))
        return step(system, current)

    monkeypatch.setattr(precedence, "_next_closure", recorded)
    return entries


def test_closure_walk_runs_on_ints(walk_operands):
    system = make_railway(Fraction("-13.9"))
    check_consistency(system)
    iterate_shrink(system).generators
    closure_sequence(system, 25)
    finite_weak_feasibility(system, 30)
    synthesize_trajectory(system, 5, ("1/3", 0, "-5/7", "1/4"))
    assert len(walk_operands) > 0
    assert not [v for v in walk_operands if isinstance(v, Fraction)]


def normalized(matrix_or_rows) -> bool:
    """No entry is a Fraction that :func:`as_scalar` would turn into an int."""
    return all(type(as_scalar(v)) is type(v) for row in matrix_or_rows for v in row)


@pytest.mark.parametrize("ell", ["-14.5", "-14.25", "-13.9"])
def test_returned_values_are_normalized(ell):
    system = make_railway(Fraction(ell))
    verdict = check_consistency(system)
    report = iterate_shrink(system)
    returned = [
        *closure_sequence(system, 8),
        *report.generators,
        roundtrip_closure(system),
        shrink_generator(system, 3),
        synthesize_trajectory(system, 4, ("1/2", "3/2", 0, "1/2")).states,
    ]
    if verdict.kind is ConsistencyKind.CONSISTENT:
        returned += [verdict.fixed_closure, report.invariant_generator]
    assert all(normalized(m) for m in returned)


@settings(max_examples=80)
@given(st.one_of(systems(), fraction_systems(max_n=4).map(lambda drawn: drawn[0])))
@example(make_railway(-14))
@example(make_railway(Fraction("-14.5")))
@example(all_eps_system())
def test_consistent_verdict_certificate(system):
    """A Consistent verdict's closure passes one step on the raw blocks."""
    verdict = check_consistency(system)
    if verdict.kind is not ConsistencyKind.CONSISTENT:
        return
    p = verdict.fixed_closure
    assert p.rmax_valued
    assert p == (system.backward @ p @ system.forward + system.within).star()


@settings(max_examples=50)
@given(
    fraction_systems(),
    st.integers(2, 6),
    st.integers(0, 10**6),
    st.fractions(min_value=Fraction(1, 13), max_value=3, max_denominator=13),
)
@example(
    (make_railway(Fraction("-14.123")), (Fraction(1, 3), 0, 0, Fraction(2, 7))),
    6,
    4,
    Fraction(1, 11),
)
def test_validation_matches_fraction_oracle(drawn, horizon, position, drop):
    """Scaled validation agrees with the Fraction oracle, valid or not.

    One entry, chosen by ``position``, is pushed down by ``drop``.
    """
    system, seed = drawn
    try:
        trajectory = synthesize_trajectory(system, horizon, seed)
    except InfeasibleHorizon:
        return
    assert validate_trajectory(system, trajectory)
    assert validate_trajectory_full(system, trajectory)
    states = [list(row) for row in trajectory.states]
    k, i = divmod(position % (horizon * system.size), system.size)
    states[k][i] -= drop
    lowered = Trajectory(states=states)
    assert validate_trajectory(system, lowered) == validate_trajectory_full(
        system, lowered
    )


RAILWAY_SEED = (Fraction(1, 3), 0, 0, Fraction(2, 7))


def test_lowered_railway_state_is_rejected():
    system = make_railway(Fraction("-14.123"))
    trajectory = synthesize_trajectory(system, 4, RAILWAY_SEED)
    states = [list(row) for row in trajectory.states]
    states[1][0] -= Fraction(1, 11)  # x1(2) >= x1(1) + 0 is tight
    lowered = Trajectory(states=states)
    assert not validate_trajectory(system, lowered)
    assert not validate_trajectory_full(system, lowered)


def test_synthesis_and_validation_compare_ints(monkeypatch):
    """``@`` and ``<=`` read stored ``int``s; the caller's states stay exact.

    Synthesis aligns its operands once, so no product of its sweeps has to
    bring two scales together.
    """
    operands = []
    scale_pairs = []

    def recorded(method):
        def wrapped(a, b):
            operands.extend(v for m in (a, b) for v in stored_entries(m))
            scale_pairs.append((a._scale, b._scale))
            return method(a, b)

        return wrapped

    for name in ("__matmul__", "__le__"):
        method = getattr(TropicalMatrix, name)
        monkeypatch.setattr(TropicalMatrix, name, recorded(method))
    system = make_railway(Fraction("-14.123"))
    trajectory = synthesize_trajectory(system, 40, RAILWAY_SEED)
    assert scale_pairs and all(s == t for s, t in scale_pairs)
    assert validate_trajectory(system, trajectory)
    assert any(isinstance(v, Fraction) for row in trajectory.states for v in row)
    assert len(operands) > 0
    assert not [v for v in operands if isinstance(v, Fraction)]
