"""The shared closure engine against the full-length loops it replaced."""

import ast
import collections
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxplus import (
    NEG_INF,
    POS_INF,
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
    is_finite,
    iterate_shrink,
    synthesize_trajectory,
    validate_trajectory,
)
from maxplus import invariance, matrix, precedence, pteg
from maxplus.matrix import aligned

from certificate import certifies_consistency, certifies_schedule, extends
from conftest import REPEAT_AT_FIVE, TWO_NODE, make_railway
from helpers import (
    all_eps_system,
    boundary_segment_dense,
    check_consistency_full,
    closure_step_full,
    consistent_systems,
    identity,
    closure_sequence_full,
    fraction_systems,
    fractions,
    iterate_shrink_full,
    random_matrix,
    report_fields,
    shrink_generator,
    shrink_generator_unrolled,
    stored_entries,
    synthesize_dense,
    systems,
    validate_trajectory_full,
)


def first_repeat(system, k_max):
    seq = closure_sequence(system, k_max)
    return next((k for k in range(1, k_max + 1) if seq[k] == seq[k - 1]), None)


@pytest.fixture
def count_steps(monkeypatch):
    """Counts calls of the one closure step; read ``calls[0]``."""
    calls = [0]
    step = precedence._next_closure

    def counted(system, current, *, previous=None):
        calls[0] += 1
        return step(system, current, previous=previous)

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
@example(REPEAT_AT_FIVE, 6)
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


def test_first_repeat_at_index_five():
    """Closure 5 repeats closure 4, and no earlier closure repeats."""
    assert first_repeat(REPEAT_AT_FIVE, 5) == 5
    assert check_consistency(REPEAT_AT_FIVE).kind is ConsistencyKind.CONSISTENT
    report = iterate_shrink(REPEAT_AT_FIVE)
    assert report.kind is InvarianceKind.CONVERGED_NON_EMPTY
    assert report.step == 3


@pytest.mark.parametrize("probe", [1, 2, 3])
def test_railway_around_its_converging_step(probe):
    system = make_railway(-14)
    assert first_repeat(system, 5) == 4
    report = iterate_shrink(system, probe)
    assert report_fields(report) == iterate_shrink_full(system, probe)
    # a probe bound below n^2 + 1 = 17 still walks to closure 19, past the repeat
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


@pytest.mark.parametrize(
    "system, count, finite",
    [
        (make_railway(-14), 4, 4),
        (REPEAT_AT_FIVE, 5, 5),
        (make_railway(Fraction("-13.5")), 7, 6),
    ],
    ids=["railway-14", "repeat-at-five", "railway-13.5"],
)
def test_the_stream_ends_at_its_first_repeat(system, count, finite):
    """The walk yields closures 0 to j - 1 and ends, closure j repeating j - 1.

    A repeat of a closure that holds +inf ends it too: the railway at ell =
    -13.5 first holds +inf at closure 6, and closure 7 repeats it.
    ``closure_sequence`` pads the stream with its last object.
    """
    stream = list(itertools.islice(precedence._closures(system), 20))
    assert len(stream) == count
    assert stream == closure_sequence_full(system, count - 1)
    assert [c.rmax_valued for c in stream] == [True] * finite + [False] * (count - finite)
    padded = closure_sequence(system, 12)
    assert padded == stream + [stream[-1]] * (13 - count)
    assert all(c is padded[count - 1] for c in padded[count:])


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
    count_steps[0] = 0
    assert len(report.generators) == 21
    assert count_assembly[0] == 21
    assert count_steps[0] == 20  # generator 20 reads closure 20, not the +inf 21
    assert report.generators is report.generators
    assert count_assembly[0] == 21


def test_converged_report_assembles_one_generator(count_assembly):
    report = iterate_shrink(make_railway(-14))
    assert report.kind is InvarianceKind.CONVERGED_NON_EMPTY
    assert count_assembly[0] == 1
    assert report.generators[-1] is report.invariant_generator


@pytest.mark.parametrize(
    "ell, kind, step",
    [
        (-14, InvarianceKind.CONVERGED_NON_EMPTY, 2),
        (-20, InvarianceKind.CONVERGED_NON_EMPTY, 1),
        (Fraction("-13.9"), InvarianceKind.REAL_EMPTY_AT_STEP, 20),
    ],
)
def test_first_read_assembles_steps_zero_to_step(count_assembly, ell, kind, step):
    """Reading ``generators`` assembles generators 0 to ``step`` and no other.

    A converged listing ends with the report's own ``invariant_generator``,
    not a second assembly of it: 3 at ell = -14 (4 when the listing built
    it again) and 2 at -20 (3).  The railway at -13.9 empties and lists 21.
    """
    report = iterate_shrink(make_railway(ell))
    assert (report.kind, report.step) == (kind, step)
    count_assembly[0] = 0
    listed = report.generators
    assert count_assembly[0] == step + 1
    converged = kind is InvarianceKind.CONVERGED_NON_EMPTY
    assert len(listed) == step + 1 + converged
    assert (listed[-1] is report.invariant_generator) == converged


@settings(max_examples=150, deadline=None)
@given(st.one_of(systems(), consistent_systems(max_n=6)), st.integers(1, 12))
@example(all_eps_system(), 1)
@example(REPEAT_AT_FIVE, 6)
@example(make_railway(-14), 1)
@example(make_railway(Fraction("-13.5")), 6)
def test_generators_are_the_shrink_generators(system, probe):
    """Each listed generator k is generator k of its own closure, by the old route.

    Generator ``step + 1`` of a converged report reads the fixed closure, as
    ``invariant_generator`` does, so the listing's last entry is that object.
    When closure 1 repeats closure 0 both entries read closure 0.
    """
    report = iterate_shrink(system, probe)
    listed = report.generators
    converged = report.kind is InvarianceKind.CONVERGED_NON_EMPTY
    assert len(listed) == report.step + 1 + converged
    assert list(listed) == [shrink_generator(system, k) for k in range(len(listed))]
    if converged:
        assert listed[-1] is report.invariant_generator


def test_generator_costs_one_star_of_the_two_stage_grid(monkeypatch):
    """Each assembly stars one 2n x 2n grid in place and runs nothing else.

    No product, triple product, re-closing or segment join: the within,
    backward and forward blocks and closure k are read as stored.
    """
    ops = collections.Counter()

    def counting(name, function):
        def counted(*args):
            ops[name] += 1
            return function(*args)

        return counted

    def sized_star(d, scale, pivots=None, finite=None):
        ops["_star", len(d)] += 1
        return star(d, scale, pivots, finite)

    star = matrix._star
    for module in (matrix, precedence, invariance):
        monkeypatch.setattr(module, "_star", sized_star)
    for name in ("_triple_product", "_close_over", "_join"):
        function = getattr(precedence, name)
        for module in (matrix, precedence, invariance):
            if getattr(module, name, None) is function:
                monkeypatch.setattr(module, name, counting(name, function))
    for name in ("star", "__matmul__"):
        monkeypatch.setattr(
            TropicalMatrix, name, counting(name, getattr(TropicalMatrix, name))
        )
    costs = []
    assemble = invariance._assemble_generator

    def measured(*args):
        before = ops.copy()
        generator = assemble(*args)
        costs.append(ops - before)
        return generator

    monkeypatch.setattr(invariance, "_assemble_generator", measured)
    assert len(iterate_shrink(make_railway(Fraction("-13.9"))).generators) == 21
    assert iterate_shrink(make_railway(-14)).invariant_generator is not None
    assert costs == [collections.Counter({("_star", 8): 1})] * 22


@pytest.mark.parametrize(
    "call, bound",
    [
        (iterate_shrink, 2.5),
        (finite_weak_feasibility, 2.5),
        (check_consistency, 7.5),
        (check_consistency, Fraction(15, 2)),
    ],
)
@pytest.mark.parametrize("system", [TWO_NODE, make_railway(Fraction("-13.9"))])
def test_non_integral_bound_is_a_type_error(call, bound, system):
    """A float or Fraction bound used to hang on a system that never stops."""
    with pytest.raises(TypeError):
        call(system, bound)


@st.composite
def sparse_systems(draw, max_n=4):
    """Systems signed like :func:`systems`, with ``int`` or Fraction entries.

    A drawn share of 0 to 90% of the entries is -inf, so some systems stop
    late or not at all within a few dozen closures.
    """
    n = draw(st.integers(1, max_n))
    tenths = draw(st.integers(0, 9))
    den = draw(st.sampled_from((1, 2, 3, 7)))

    def entry(lo, hi):
        if draw(st.integers(0, 9)) < tenths:
            return NEG_INF
        return Fraction(draw(st.integers(lo * den, hi * den)), den)

    def block(lo, hi):
        return TropicalMatrix([[entry(lo, hi) for _ in range(n)] for _ in range(n)])

    return PtegSystem(
        dynamics=block(0, 5),
        backward=block(-8, 0),
        within=block(-5, 0),
        extra_forward=block(-2, 3),
    )


# The railway near its boundary: the first +inf is closure 2m + 1 or a little
# later for ell = -14 + 1/m, and below -14 the closures repeat.
railways = st.builds(
    lambda m, sign: make_railway(-14 + sign * Fraction(1, m)),
    st.integers(1, 25),
    st.sampled_from((1, -1)),
)


def stop_of(closures, last):
    """The walk's ``(k, closure_k, fixed)`` read off a list of closures."""
    for k, closure in enumerate(closures[: last + 1]):
        if k and closure == closures[k - 1]:
            return k, closures[k - 1], True
        if k == last or not closure.rmax_valued:
            return k, closure, False


def described(stop):
    k, closure, fixed = stop
    return k, fixed, [[(type(v), str(v)) for v in row] for row in closure.to_rows()]


@settings(max_examples=100)
@given(st.one_of(sparse_systems(), railways))
@example(make_railway(Fraction("-13.9")))
@example(make_railway(-14))
@example(TWO_NODE)
def test_search_returns_the_walks_stop(system):
    """With a walk budget of 1 every stop past index 1 is found by the search.

    A budget of 5 starts the search from closure 5.  The search hands the
    walk a closure at most two indices before the stop and, whenever a
    probe moved the start, an earlier closure: the one that probe jumped
    from, to re-close from (any earlier closure will do).
    """
    closures = closure_sequence_full(system, 40)
    search = precedence._search_start
    starts = []

    def recorded(*args):
        starts.append(search(*args))
        return starts[-1]

    for budget in (1, 5):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(precedence, "_WALK_BUDGET", budget)
            patch.setattr(precedence, "_search_start", recorded)
            for last in range(1, 41):
                starts.clear()
                expected = stop_of(closures, last)
                stop = precedence._stopping_closure(system, last)
                assert described(stop) == described(expected)
                assert len(starts) == (expected[0] > budget)
                for k, closure, previous in starts:
                    assert budget <= k <= expected[0] <= k + 2
                    assert k < expected[0] or k == last
                    assert closure == closures[k]
                    assert (previous is None) == (k == budget)
                    assert previous is None or previous in closures[:k]


@settings(max_examples=60)
@given(sparse_systems(), st.integers(1, 4), st.integers(1, 4))
@example(make_railway(Fraction("-13.5")), 4, 4)
def test_composed_segment_is_the_unrolled_star(system, a, b):
    """The dense segments store each corner at its own scale; aligned at the call."""
    w = system.within.star()
    forward, backward = system.forward, system.backward
    one = (w, w @ backward, forward @ w, forward @ w @ backward)
    assert boundary_segment_dense(system, 1) == one
    parts = aligned(*boundary_segment_dense(system, a), *boundary_segment_dense(system, b))
    joined = precedence._compose(parts[:4], parts[4:])
    assert joined == boundary_segment_dense(system, a + b)


def join_full(a, closure):
    """Oracle for ``precedence._join``: the full star and fresh sums."""
    a_ff, a_back, a_ahead, a_around = a
    j = (closure + a_around).star()
    back_j = a_back @ j
    return a_ff + back_j @ a_ahead, back_j, j


some_systems = st.one_of(
    sparse_systems(), fraction_systems().map(lambda pair: pair[0]), railways
)


@settings(max_examples=60)
@given(some_systems, st.integers(1, 3))
@example(make_railway(Fraction("-13.5")), 3)
@example(make_railway(Fraction("-13.99")), 2)
def test_reclosing_join_is_the_full_star(system, stages):
    """Every closure 0-8, at the system's scale and at its own, +inf or not.

    The dense segment's corners are each stored at their own scale, so the
    join's operands, which it takes at one scale, are aligned at the call.
    """
    segment = boundary_segment_dense(system, stages)
    for closure in closure_sequence_full(system, 8):
        for stored in (closure, TropicalMatrix(closure.to_rows())):
            *parts, one = aligned(*segment, stored)
            joined = precedence._join(tuple(parts), one)
            expected = join_full(segment, stored)
            assert joined == expected
            assert [typed(m) for m in joined] == [typed(m) for m in expected]


@settings(max_examples=60)
@given(some_systems)
@example(make_railway(Fraction("-13.5")))
@example(make_railway(Fraction("-13.99")))
def test_any_earlier_closure_re_closes_a_later_one(system):
    """``previous`` may be any closure before ``current``, not only the last."""
    closures = closure_sequence_full(system, 10)
    for m, current in enumerate(closures):
        full = precedence._next_closure(system, current)
        for previous in closures[:m]:
            step = precedence._next_closure(system, current, previous=previous)
            assert step == full
            assert typed(step) == typed(full)


@settings(max_examples=60)
@given(st.one_of(systems(), fraction_systems().map(lambda pair: pair[0]), railways))
@example(all_eps_system())
@example(make_railway(-14))
@example(make_railway(Fraction("-13.5")))
def test_a_repeat_is_the_closure_itself(system):
    """A step returns ``current`` itself exactly when it repeats it, +inf or not."""
    closures = closure_sequence_full(system, 17)
    for m, current in enumerate(closures):
        for previous in [None, *closures[:m]]:
            nxt = precedence._next_closure(system, current, previous=previous)
            assert (nxt is current) == (nxt == current)


@settings(max_examples=60)
@given(st.one_of(systems(), fraction_systems().map(lambda pair: pair[0]), railways))
@example(make_railway(-14))
@example(make_railway(Fraction("-13.5")))
@example(REPEAT_AT_FIVE)
def test_repeat_test_of_a_probe(system):
    """No grown arc above closure k exactly when closure k+1 repeats it.

    A probe decides so, for closure k+p given closure k, without building
    closure k+p+1.  Here closure k, free of +inf, is given every closure i
    < k: the answer agrees with the full oracle and with the closure step.
    """
    closures = closure_sequence_full(system, 17)
    blocks = system.backward, system.forward
    for k, current in enumerate(closures[:-1]):
        if not current.rmax_valued:
            break
        repeats = closures[k + 1] == current
        for previous in closures[:k]:
            grown = matrix._grown_arcs(current, previous, *blocks)
            assert (not grown) == repeats
            step = precedence._next_closure(system, current, previous=previous)
            assert (step is current) == repeats


@pytest.mark.parametrize(
    "ell, probe, divergent, steps",
    [("-13.999", 2100, 2001, 64), ("-13.99999", 300000, 200001, 80)],
)
def test_divergence_takes_logarithmically_many_steps(
    count_steps, ell, probe, divergent, steps
):
    system = make_railway(Fraction(ell))
    verdict = check_consistency(system, probe)
    assert verdict.kind is ConsistencyKind.NOT_WEAKLY_CONSISTENT
    assert verdict.first_divergent == divergent
    assert count_steps[0] <= steps
    count_steps[0] = 0
    report = iterate_shrink(system, probe)
    assert report.kind is InvarianceKind.REAL_EMPTY_AT_STEP
    assert report.step == divergent - 1
    assert count_steps[0] <= steps


def test_stop_just_past_the_walk_budget():
    system = make_railway(-14 + Fraction(1, 20))
    expected = stop_of(closure_sequence_full(system, 50), 50)
    assert precedence._WALK_BUDGET < expected[0] == 42
    for last in (42, 50, 2100):
        stop = precedence._stopping_closure(system, last)
        assert described(stop) == described(expected)


@settings(max_examples=60)
@given(st.one_of(systems(), fraction_systems().map(lambda pair: pair[0])))
@example(make_railway(Fraction("-13.9")))
@example(make_railway(-14))
@example(make_railway(-20))
def test_walk_repeats_one_object(system):
    """Closures 0-12: distinct objects up to the first repeat, then one object."""
    walk = closure_sequence(system, 12)
    repeat = next((k for k in range(1, 13) if walk[k] == walk[k - 1]), 13)
    assert len({id(m) for m in walk[:repeat]}) == repeat
    assert all(m is walk[repeat - 1] for m in walk[repeat:])


@pytest.mark.parametrize(
    "system, stop",
    [
        (make_railway(Fraction("-13.999")), (2001, False)),
        (make_railway(Fraction("-13.99999")), (200001, False)),
        (make_railway(Fraction("-13.9")), (21, False)),
        (make_railway(-14), (4, True)),
        (REPEAT_AT_FIVE, (5, True)),
    ],
)
def test_stop_with_no_limit(system, stop):
    """The search with no ``last`` stops where a limit far past the stop does.

    Each system is consistent or not weakly consistent: on one that is
    weakly consistent only, such as ``TWO_NODE``, it would not stop.
    """
    k, closure, fixed = precedence._stopping_closure(system, math.inf)
    assert (k, fixed) == stop
    assert closure.rmax_valued == fixed
    expected = precedence._stopping_closure(system, 10**7)
    assert described((k, closure, fixed)) == described(expected)


@pytest.mark.parametrize("k", range(1, 11))
def test_divergence_index_near_the_railway_boundary(count_steps, k):
    system = make_railway(-14 + Fraction(1, 10**k))
    verdict = check_consistency(system, 10 ** (k + 1))
    assert verdict.first_divergent == 2 * 10**k + 1
    assert count_steps[0] <= 100


@pytest.mark.parametrize("m, divergent", [(50, 102), (100, 201), (200, 402), (1000, 2001)])
def test_search_makes_no_closure_step(count_steps, m, divergent):
    """33 closure steps per stop: the walk's 32 and one after the search.

    A probe tests its closure for a repeat without building the next one.
    """
    verdict = check_consistency(make_railway(-14 + Fraction(1, m)), 2100)
    assert verdict.first_divergent == divergent
    assert count_steps[0] == 33


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
        assert finite_weak_feasibility(system, horizon) == dense.star().rmax_valued
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

    def recorded(system, current, *, previous=None):
        operands = (system.within, system.backward, system.forward, current)
        if previous is not None:
            operands += (previous,)
        assert len({m._scale for m in operands}) == 1
        for m in operands:
            entries.extend(stored_entries(m))
        return step(system, current, previous=previous)

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
@example(make_railway(-20))
@example(all_eps_system())
@example(TWO_NODE)
@example(REPEAT_AT_FIVE)
def test_consistent_verdict_certificate(system):
    """A Consistent verdict's closure passes one step on the raw blocks.

    It also passes the independent checker, which rejects it with one entry
    made +inf, one diagonal entry made -1, or one entry lowered below a
    finite entry of ``within``.
    """
    verdict = check_consistency(system)
    if verdict.kind is not ConsistencyKind.CONSISTENT:
        return
    p = verdict.fixed_closure
    assert p.rmax_valued
    assert p == (system.backward @ p @ system.forward + system.within).star()
    blocks = [m.to_rows() for m in (system.within, system.backward, system.forward)]
    rows = p.to_rows()
    assert certifies_consistency(rows, *blocks)
    below_within = [
        (i, j, v - 1)
        for i, row in enumerate(blocks[0])
        for j, v in enumerate(row)
        if v != NEG_INF
    ]
    n = system.size
    for i, j, v in [(0, 0, POS_INF), (n - 1, n - 1, -1), *below_within[:1]]:
        mutant = [list(row) for row in rows]
        mutant[i][j] = v
        assert not certifies_consistency(mutant, *blocks)


@settings(max_examples=100)
@given(
    st.one_of(systems(), fraction_systems().map(lambda drawn: drawn[0])),
    st.integers(0, 2**32),
)
@example(make_railway(-14), 0)
@example(make_railway(Fraction("-14.5")), 0)
@example(make_railway(Fraction("-13.9")), 0)
@example(make_railway(-20), 0)
def test_closure_decides_which_states_extend(system, seed):
    """A stage-1 state x extends over K stages exactly when closure K-1 @ x <= x.

    That is the lemma of ``check_consistency``'s proof, checked for K =
    1..6 by plain longest paths with stage 2 left free.  x is each real
    column of closure K-1, which the closure maps to itself, and three
    uniform integer vectors.
    """
    rng = random.Random(seed)
    blocks = [m.to_rows() for m in (system.within, system.backward, system.forward)]
    n = system.size
    for stages, closure in enumerate(closure_sequence(system, 5), 1):
        rows = closure.to_rows()
        states = [[row[j] for row in rows] for j in range(n)]
        states = [x for x in states if all(map(is_finite, x))]
        states += [[rng.randint(-6, 6) for _ in range(n)] for _ in range(3)]
        for x in states:
            column = TropicalMatrix.column(x)
            assert extends(blocks, x, None, stages) == (closure @ column <= column)


def check_schedule_certificate(system, horizon, seed=None) -> int:
    """Check the schedule ``synthesize_trajectory`` returns against the checker.

    The schedule passes it, and on each table made from the schedule by one
    entry raised or lowered by 1 the checker and ``validate_trajectory``
    agree.  An entry lowered below a tight forward constraint, where
    ``forward @ x(k)`` meets ``x(k+1)``, fails both.  Returns the number of
    such tight entries, or -1 for an infeasible horizon.
    """
    try:
        trajectory = synthesize_trajectory(system, horizon, seed)
    except InfeasibleHorizon:
        return -1
    blocks = [m.to_rows() for m in (system.within, system.backward, system.forward)]
    rows = trajectory.states
    assert certifies_schedule(rows, *blocks)
    tight = {
        (k + 1, i)
        for k, (x, y) in enumerate(zip(rows, rows[1:]))
        for i, weights in enumerate(blocks[2])
        if max(w + v for w, v in zip(weights, x)) == y[i]
    }
    for k, i, step in itertools.product(range(horizon), range(system.size), (-1, 1)):
        mutant = [list(row) for row in rows]
        mutant[k][i] += step
        verdict = certifies_schedule(mutant, *blocks)
        assert verdict == validate_trajectory(system, Trajectory(mutant))
        if step == -1 and (k, i) in tight:
            assert not verdict
    return len(tight)


@settings(max_examples=80)
@given(
    st.one_of(
        systems().map(lambda system: (system, None)),
        fraction_systems(max_n=4),
    ),
    st.integers(2, 7),
)
@example((make_railway(-14), None), 6)
@example((make_railway(Fraction("-14.5")), None), 6)
@example((make_railway(-20), None), 6)
def test_synthesized_schedule_certificate(drawn, horizon):
    system, seed = drawn
    check_schedule_certificate(system, horizon, seed)


@pytest.mark.parametrize("ell", [-14, Fraction("-14.5"), -20])
def test_railway_schedule_has_tight_forward_constraints(ell):
    assert check_schedule_certificate(make_railway(ell), 6) > 0


def test_certificate_checker_is_independent():
    """The checker imports nothing from the modules whose verdicts it checks."""
    source = Path(__file__).with_name("certificate.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert not imported & {"maxplus.matrix", "maxplus.precedence", "maxplus.pteg"}


@settings(max_examples=50)
@given(
    fraction_systems(),
    st.integers(2, 6),
    st.integers(0, 10**6),
    st.fractions(min_value=Fraction(1, 13), max_value=3, max_denominator=13),
    st.sampled_from([-1, 1]),
)
@example(
    (make_railway(Fraction("-14.123")), (Fraction(1, 3), 0, 0, Fraction(2, 7))),
    6,
    4,
    Fraction(1, 11),
    -1,
)
@example(
    (make_railway(Fraction("-14.123")), (Fraction(1, 3), 0, 0, Fraction(2, 7))),
    6,
    1,
    Fraction(1, 11),
    1,
)
@example((TWO_NODE, (0, 0)), 3, 0, Fraction(3), 1)  # x1(1) raised above x2(1)
def test_validation_matches_fraction_oracle(drawn, horizon, position, drop, sign):
    """Scaled validation agrees with the Fraction oracle, valid or not.

    One entry, chosen by ``position``, is pushed down or up by ``drop``.
    Every schedule is also checked over its first state alone (K = 1),
    where only the within family applies.
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
    states[k][i] += sign * drop
    moved = Trajectory(states=states)
    for checked in (trajectory, moved):
        for schedule in (checked, Trajectory(states=checked.states[:1])):
            assert validate_trajectory(system, schedule) == validate_trajectory_full(
                system, schedule
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


@pytest.fixture
def sweep_calls(monkeypatch):
    """Each ``(matrix, vector)`` the sweep kernel is applied to, in order."""
    calls = []
    apply = pteg._apply

    def recorded(m, vector):
        calls.append((m, list(vector)))
        return apply(m, vector)

    monkeypatch.setattr(pteg, "_apply", recorded)
    return calls


def test_synthesis_and_validation_compare_ints(monkeypatch, sweep_calls):
    """The sweeps and the closure walk read stored ``int``s; states stay exact.

    Synthesis aligns its operands once, so every matrix of its sweeps is at
    one scale and every vector holds ``int``s at that scale.  Validation
    stores the states once with the blocks, so its products are sweeps too:
    one scale, each vector a state's stored ``int``s.
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
    assert len(sweep_calls) == 2 * 40 - 1 + 10  # backward: 5 steps to its fixed point
    assert len({m._scale for m, _ in sweep_calls}) == 1
    assert sweep_calls[0][0]._scale > 1
    assert all(type(v) is int for _, vector in sweep_calls for v in vector)
    assert not [
        v for m, _ in sweep_calls for v in stored_entries(m) if isinstance(v, Fraction)
    ]
    assert scale_pairs and all(s == t for s, t in scale_pairs)
    assert len(operands) > 0
    assert not [v for v in operands if isinstance(v, Fraction)]
    assert any(isinstance(v, Fraction) for row in trajectory.states for v in row)

    walked = len(scale_pairs)
    sweep_calls.clear()
    assert validate_trajectory(system, trajectory)
    assert len(scale_pairs) == walked  # no ``@`` and no ``<=``
    scales = {m._scale for m, _ in sweep_calls}
    assert len(scales) == 1 and scales.pop() > 1
    assert all(type(v) is int for _, vector in sweep_calls for v in vector)
    assert all(
        type(v) is int or v == NEG_INF
        for m, _ in sweep_calls
        for v in stored_entries(m)
    )
    states = trajectory.states
    read = [tuple(Fraction(v, m._scale) for v in vector) for m, vector in sweep_calls]
    pairs = [state for x, y in zip(states, states[1:]) for state in (y, x)]
    assert read == list(states) + pairs


@pytest.mark.parametrize("horizon", [1, 2, 3, 7, 40])
@pytest.mark.parametrize(
    "system", [make_railway(Fraction("-14.123")), make_railway(-14), TWO_NODE]
)
def test_validation_sweeps_three_families(monkeypatch, sweep_calls, system, horizon):
    """Validating K states: 3K-2 sweep products, no ``@`` and no lift.

    Within once per state, then backward and forward once per consecutive
    pair, each the system's own block: the zero-seeded states share its scale.
    """
    states = synthesize_trajectory(system, max(horizon, 2)).states[:horizon]
    built = []

    def counted(name):
        method = getattr(TropicalMatrix, name)
        return lambda *args: built.append(name) or method(*args)

    monkeypatch.setattr(TropicalMatrix, "__matmul__", counted("__matmul__"))
    monkeypatch.setattr(TropicalMatrix, "from_blocks", counted("from_blocks"))
    sweep_calls.clear()
    assert validate_trajectory(system, Trajectory(states=states))
    assert built == []
    assert len(sweep_calls) == 3 * horizon - 2
    blocks = [m for m, _ in sweep_calls]
    assert all(m is system.within for m in blocks[:horizon])
    assert all(m is system.backward for m in blocks[horizon::2])
    assert all(m is system.forward for m in blocks[horizon + 1 :: 2])


# Products of the backward sweep, by horizon: 2(K-1) up to its fixed point.
# The railways' closures repeat and their sweeps stop after five steps; the
# closures of TWO_NODE never repeat, so its sweep runs to the end.
BACKWARD_PRODUCTS = {
    make_railway(Fraction("-14.123")): {2: 2, 3: 4, 7: 10, 40: 10},
    make_railway(-14): {2: 2, 3: 4, 7: 10, 40: 10},
    TWO_NODE: {2: 2, 3: 4, 7: 12, 40: 78},
}


@pytest.mark.parametrize("horizon", [2, 3, 7, 40])
@pytest.mark.parametrize("system", list(BACKWARD_PRODUCTS))
def test_sweeps_make_no_matrix_product(monkeypatch, sweep_calls, system, horizon):
    """Synthesis over K occurrences: no ``@``, 2K-1 forward sweep products.

    A closure that repeated is one object for every later tail, so the
    kernel reads its entry lists from one cache.
    """
    products = []
    matmul = TropicalMatrix.__matmul__

    def counted(a, b):
        products.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(TropicalMatrix, "__matmul__", counted)
    synthesize_trajectory(system, horizon)
    assert products == []
    assert len(sweep_calls) == 2 * horizon - 1 + BACKWARD_PRODUCTS[system][horizon]
    assert len({id(m) for m, _ in sweep_calls[1::2]}) == 2  # backward, forward
    tails = {id(m) for m, _ in sweep_calls[::2]}
    fixed = first_repeat(system, horizon)
    assert len(tails) == (horizon if fixed is None else min(horizon, fixed))


@pytest.mark.parametrize("seed", [None, RAILWAY_SEED])
def test_backward_sweep_stops_at_its_fixed_point(sweep_calls, seed):
    """The backward sweep's work does not grow with the horizon past its fixed point."""
    system = make_railway(Fraction("-14.123"))
    backward = []
    for horizon in (40, 80):
        sweep_calls.clear()
        synthesize_trajectory(system, horizon, seed)
        backward.append(len(sweep_calls) - (2 * horizon - 1))
    assert backward == [10, 10]


@pytest.fixture
def stored_again(monkeypatch):
    """Counts of the calls that build a system or store or divide back values."""
    counts = collections.Counter()

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapped(*args, **kwargs):
            counts[f"{cls.__name__}.{name}"] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapped)

    counted(PtegSystem, "__init__")
    counted(TropicalMatrix, "__new__")
    counted(TropicalMatrix, "to_rows")
    return counts


@pytest.mark.parametrize("seed", [None, (3, 0, -2, 1)])
@pytest.mark.parametrize("horizon", [2, 3, 7, 40])
@pytest.mark.parametrize("system", [make_railway(Fraction("-14.123")), make_railway(-14)])
def test_schedule_is_stored_once(sweep_calls, stored_again, system, horizon, seed):
    """Synthesis walks the caller's system and keeps what its sweeps give.

    It builds no ``PtegSystem`` and calls ``to_rows`` nowhere; with no seed
    or an integer one, every tail is at the system's own scale and a fixed
    closure repeated as a tail is one object.  Validation reads the
    trajectory's table as it is: no matrix built from rows, nothing
    divided back.
    """
    trajectory = synthesize_trajectory(system, horizon, seed)
    assert stored_again["PtegSystem.__init__"] == stored_again["TropicalMatrix.to_rows"] == 0
    tails = [m for m, _ in sweep_calls[::2]]
    assert {m._scale for m, _ in sweep_calls} == {system.within._scale}
    fixed = first_repeat(system, horizon)
    assert len({id(m) for m in tails}) == min(horizon, fixed or horizon)
    assert trajectory.table._scale == system.within._scale

    stored_again.clear()
    sweep_calls.clear()
    assert validate_trajectory(system, trajectory)
    assert stored_again == {}
    rows = [vector for _, vector in sweep_calls[:horizon]]
    assert rows == [list(row) for row in trajectory.table._data]


def test_seed_denominator_leaves_the_walk_at_the_system_scale(monkeypatch, sweep_calls):
    """A seed that adds a denominator rescales the walked closures once.

    The walk itself runs on the system's blocks at their own scale; the
    sweeps run at the LCM with the seed's, and the states are the dense
    oracle's.
    """
    system, seed = make_railway(-14), (0, 0, 0, Fraction(1, 3))
    walked = []
    closures = pteg._closures

    def recorded(*args):
        for closure in closures(*args):
            walked.append(closure)
            yield closure

    monkeypatch.setattr(pteg, "_closures", recorded)
    trajectory = synthesize_trajectory(system, 9, seed)
    assert walked and {m._scale for m in walked} == {system.within._scale} == {1}
    assert {m._scale for m, _ in sweep_calls} == {3}
    fixed = first_repeat(system, 9)
    assert len({id(m) for m, _ in sweep_calls[::2]}) == min(9, fixed or 9)
    assert trajectory.states == synthesize_dense(system, 9, seed)


# The closure-step kernel against the four generic operations it replaced.
# Small denominators, pairwise coprime large ones, and 10**400, which stores
# every entry of its matrix as an int beyond float range.
KERNEL_DENOMINATORS = st.sampled_from([1, 2, 3, 7, 1009, 2003, 10**400])


@st.composite
def kernel_matrix(draw, n, lo, hi, plus_inf):
    """n x n, about 30% -inf, some rows all -inf, +inf only if ``plus_inf``."""

    def entry():
        kind = draw(st.integers(0, 9))
        if kind < 3:
            return NEG_INF
        if kind == 3 and plus_inf:
            return POS_INF
        return draw(fractions(lo, hi, KERNEL_DENOMINATORS))

    return TropicalMatrix(
        [NEG_INF] * n if draw(st.integers(0, 5)) == 0 else [entry() for _ in range(n)]
        for _ in range(n)
    )


@st.composite
def kernel_operands(draw):
    """``(system, current)``: within arcs up to +3, so positive circuits occur."""
    n = draw(st.integers(1, 6))
    system = PtegSystem(
        dynamics=draw(kernel_matrix(n, 0, 5, False)),
        backward=draw(kernel_matrix(n, -8, 2, False)),
        within=draw(kernel_matrix(n, -5, 3, False)),
    )
    return system, draw(kernel_matrix(n, -9, 9, True))


@settings(max_examples=150)
@given(kernel_operands())
@example((make_railway(Fraction("-14.123")), make_railway(-14).within.star()))
def test_closure_step_matches_the_four_operation_oracle(operands):
    """``_next_closure`` is ``(B @ C @ F + W).star()``, or raises if not monotone.

    C is drawn at random, +inf entries included, and is also each of the
    first closures of the system's own walk, which hold +inf once it
    diverges.
    """
    system, drawn = operands
    walk = closure_sequence_full(system, 3)
    for current in (drawn, *walk):
        expected = closure_step_full(system, current)
        if current <= expected:
            step = precedence._next_closure(system, current)
            assert step == expected
            assert step.to_rows() == expected.to_rows()
        else:
            with pytest.raises(RuntimeError, match="monotonicity"):
                precedence._next_closure(system, current)


def below(closed, lower):
    """The entrywise minimum of ``closed`` and ``lower``, at ``closed``'s scale."""
    return TropicalMatrix._wrap(
        tuple(tuple(map(min, c, x)) for c, x in zip(closed._data, lower._data)),
        closed._scale,
    )


def reclosed_with_oracle(closed, before, left, right):
    """``closed`` re-closed over its grown arcs, and ``(closed + left @ delta @ right).star()``."""
    delta = TropicalMatrix._wrap(
        tuple(
            tuple(x if x != y else NEG_INF for x, y in zip(c, b))
            for c, b in zip(closed._data, before._data)
        ),
        closed._scale,
    )
    expected = (closed + left @ delta @ right).star()
    arcs = matrix._grown_arcs(closed, before, left, right)
    return matrix._close_over(closed, arcs), expected


@st.composite
def reclose_operands(draw):
    """``(closed, before, left, right)`` at one scale, free of +inf.

    ``closed`` is the star of a base with no positive circuit, and
    ``before`` lies below it.  Dense outer blocks give several grown
    entries per new arc.  Outer entries up to +2 give positive circuits in
    about half of the results, up to +4 in about 60%; about a third add no
    arc above ``closed``.
    """
    n = draw(st.integers(1, 6))
    hi, low = draw(st.sampled_from(((2, (-15, 0)), (4, (-9, 9)))))
    bounds = ((-6, 0), (-6, hi), (-6, hi), low)
    base, left, right, lower = aligned(
        *(draw(kernel_matrix(n, lo, up, False)) for lo, up in bounds)
    )
    closed = base.star()
    return closed, below(closed, lower), left, right


@settings(max_examples=150)
@given(reclose_operands(), st.booleans())
def test_reclose_on_any_operands(operands, outer):
    """Re-closing over the grown arcs is ``(closed + left @ delta @ right).star()``.

    ``delta`` holds the entries in which ``closed`` exceeds ``before``;
    with identity outer factors it is added as it is.
    """
    closed, before, left, right = operands
    if not outer:
        left = right = identity(closed.rows)
    result, expected = reclosed_with_oracle(closed, before, left, right)
    assert result == expected and result.to_rows() == expected.to_rows()
    assert (result is closed) == (expected == closed)


@pytest.mark.parametrize("hi, lo", [(2, -15), (1, -12)])
def test_reclose_on_dense_operands(hi, lo):
    """Many grown entries lead to each new arc; the greatest must be kept.

    About half or more of the results hold +inf.
    """
    rng = random.Random(4405 + hi)
    for _ in range(200):
        n = rng.randint(2, 6)
        closed = random_matrix(rng, n, -6, 0, 0.7).star()
        left, right = (random_matrix(rng, n, -6, hi, 0.7) for _ in range(2))
        before = below(closed, random_matrix(rng, n, lo, 0, 0.7))
        result, expected = reclosed_with_oracle(closed, before, left, right)
        assert result == expected


def test_reclose_saturates_every_new_positive_circuit():
    """Two new positive circuits, one per component of ``closed``."""
    closed = TropicalMatrix(
        [[0, -1, NEG_INF, NEG_INF], [-1, 0, NEG_INF, NEG_INF],
         [NEG_INF, NEG_INF, 0, -1], [NEG_INF, NEG_INF, -1, 0]]
    )
    # entries (0, 1) and (2, 3) grew; each new arc weighs -1 + 3
    before = TropicalMatrix(
        [[0, NEG_INF, NEG_INF, NEG_INF], [-1, 0, NEG_INF, NEG_INF],
         [NEG_INF, NEG_INF, 0, NEG_INF], [NEG_INF, NEG_INF, -1, 0]]
    )
    lift = TropicalMatrix([[3 if i == j else NEG_INF for j in range(4)] for i in range(4)])
    result, expected = reclosed_with_oracle(closed, before, identity(4), lift)
    assert result == expected
    assert result.to_rows() == tuple(
        (POS_INF,) * 2 + (NEG_INF,) * 2 if i < 2 else (NEG_INF,) * 2 + (POS_INF,) * 2
        for i in range(4)
    )


@pytest.fixture
def listings(monkeypatch):
    """Every call of ``_arcs`` and ``_column_arcs``, as ``(matrix, name, result)``."""
    returned = []

    def recording(name):
        listed = getattr(TropicalMatrix, name)

        def recorded(matrix):
            result = listed(matrix)
            returned.append((matrix, name, result))
            return result

        return recorded

    for name in ("_arcs", "_column_arcs"):
        monkeypatch.setattr(TropicalMatrix, name, recording(name))
    return returned


def test_block_entries_are_listed_once(listings):
    """A walk lists each block's entries once and reuses that list every step.

    The first step lists the rows of both outer blocks and reads its middle
    factor, closure 0, used once, as stored; each later step re-closes its
    predecessor, reading backward's columns and forward's rows.
    """
    system = make_railway(Fraction("-13.9"))
    assert len(closure_sequence(system, 20)) == 21
    assert len(listings) == 40
    for block in (system.backward, system.forward):
        lists = [(name, result) for matrix, name, result in listings if matrix is block]
        assert len(lists) == 20
        for kind in ("_arcs", "_column_arcs"):
            kept = [result for name, result in lists if name == kind]
            assert all(result is kept[0] for result in kept)
    kinds = [name for matrix, name, _ in listings if matrix is system.backward]
    assert kinds == ["_arcs"] + ["_column_arcs"] * 19
    assert {name for matrix, name, _ in listings if matrix is system.forward} == {"_arcs"}
    assert all(matrix in (system.backward, system.forward) for matrix, _, _ in listings)


def test_generators_list_nothing_beyond_their_walk(listings):
    """The assemblies read the blocks and the closures as stored.

    The railway at ell = -13.9 empties at step 20: 21 generators read
    closures 0 to 20, and the walk to them lists backward and forward 40
    times, as in :func:`test_block_entries_are_listed_once`; the
    assemblies add no listing.
    """
    system = make_railway(Fraction("-13.9"))
    report = iterate_shrink(system)
    del listings[:]
    assert len(report.generators) == 21
    assert len(listings) == 40
    assert all(matrix in (system.backward, system.forward) for matrix, _, _ in listings)


# The re-closing walk: after its first step, each closure step is handed its
# predecessor and re-closes only what the last step grew.
WALK_DENOMINATORS = st.sampled_from([1, 2, 3, 7, 1009, 10**400])


@st.composite
def walk_systems(draw, max_n=5):
    """Time windows around a 1-periodic schedule, some of them too tight.

    Each finite entry (0 to 100% are -inf) lies a drawn slack of 0 to 6
    below what the schedule ``p_i + k * lam`` allows, except that backward
    arcs allow ``drift`` more: a circuit running m occurrences ahead and
    back gains ``m * drift`` against its slack.  So walks grow for a while,
    and many reach +inf late and go on past it.
    """
    n = draw(st.integers(1, max_n))
    tenths = draw(st.integers(0, 10))
    den = draw(WALK_DENOMINATORS)
    p = [draw(st.integers(0, 20)) for _ in range(n)]
    lam = draw(st.integers(1, 6))
    drift = Fraction(draw(st.integers(0, 2)), draw(st.integers(1, 8)))

    def block(shift):
        def entry(i, j):
            if draw(st.integers(0, 9)) < tenths:
                return NEG_INF
            return p[i] - p[j] + shift - Fraction(draw(st.integers(0, 6 * den)), den)

        return TropicalMatrix([[entry(i, j) for j in range(n)] for i in range(n)])

    return PtegSystem(
        dynamics=block(lam),
        backward=block(drift - lam),
        within=block(0),
        extra_forward=block(lam),
    )


def typed(matrix):
    return [[(type(v), v) for v in row] for row in matrix.to_rows()]


@settings(max_examples=120)
@given(st.one_of(walk_systems(), railways))
@example(make_railway(Fraction("-13.5")))
@example(make_railway(-14))
@example(make_railway(Fraction("-14.123")))
@example(TWO_NODE)
def test_reclosing_walk_matches_the_full_oracle(system):
    """Closures 0-12 of the walk, and each step given its predecessor.

    The railway at ell = -13.5 first holds +inf at closure 6, which closure
    7 repeats, so the list is padded with it from there.
    """
    expected = closure_sequence_full(system, 12)
    walk = closure_sequence(system, 12)
    assert len(walk) == len(expected) == 13
    for closure, oracle in zip(walk, expected):
        assert closure == oracle
        assert typed(closure) == typed(oracle)
    for k in range(1, 12):
        step = precedence._next_closure(system, expected[k], previous=expected[k - 1])
        assert step == closure_step_full(system, expected[k]) == expected[k + 1]
        assert typed(step) == typed(expected[k + 1])


@pytest.fixture
def step_pivots(monkeypatch):
    """Per closure step: ``(previous given, pivots of each Floyd-Warshall pass)``.

    A pass run outside a closure step is not recorded.
    """
    steps, inside = [], []
    star = matrix._star
    step = precedence._next_closure

    def counted_star(d, scale, pivots=None, finite=None):
        if inside:
            inside[-1].append(len(d) if pivots is None else len(pivots))
        return star(d, scale, pivots, finite)

    def counted_step(system, current, *, previous=None):
        passes = []
        steps.append((previous is not None, passes))
        inside.append(passes)
        try:
            return step(system, current, previous=previous)
        finally:
            inside.pop()

    monkeypatch.setattr(matrix, "_star", counted_star)
    monkeypatch.setattr(precedence, "_star", counted_star)  # a first step's full star
    monkeypatch.setattr(precedence, "_next_closure", counted_step)
    return steps


@pytest.mark.parametrize("system", [make_railway(-14), make_railway(Fraction("-14.5"))])
def test_repeat_step_runs_no_star(step_pivots, system):
    verdict = check_consistency(system)
    assert verdict.kind is ConsistencyKind.CONSISTENT
    assert len(step_pivots) >= 2
    assert step_pivots[-1] == (True, [])


@pytest.mark.parametrize("system", [make_railway(-14), make_railway(Fraction("-14.5"))])
def test_repeat_step_compares_nothing(monkeypatch, system):
    """Only a step that returns a new closure checks it against the last."""
    steps = []
    compare = TropicalMatrix.__le__
    step = precedence._next_closure

    def counted_compare(a, b):
        steps[-1][1] += 1
        return compare(a, b)

    def counted_step(system, current, *, previous=None):
        steps.append([None, 0])
        nxt = step(system, current, previous=previous)
        steps[-1][0] = nxt is current
        return nxt

    monkeypatch.setattr(TropicalMatrix, "__le__", counted_compare)
    monkeypatch.setattr(precedence, "_next_closure", counted_step)
    assert check_consistency(system).kind is ConsistencyKind.CONSISTENT
    assert steps[-1] == [True, 0]
    assert all(compares == 1 for repeat, compares in steps[:-1])
    assert not any(repeat for repeat, _ in steps[:-1])


def test_railway_steps_pivot_over_one_node(step_pivots):
    """At ell = -13.99 each re-closing step adds arcs from one tail or two.

    The walk's 31 re-closing steps add arcs from one tail.  The probes make
    no closure step: each tests closure k+p for a repeat by the arcs that
    closure k+p+1 would add.  The walk after the search is handed the
    closure the last moving probe jumped from, so its one step re-closes
    too, from two tails.  Only the first step of the whole walk is a full
    star.
    """
    verdict = check_consistency(make_railway(Fraction("-13.99")), 2100)
    assert verdict.first_divergent == 201
    reclosed = [passes for given, passes in step_pivots if given]
    assert reclosed == [[1]] * 31 + [[2]]
    assert [passes for given, passes in step_pivots if not given] == [[4]]


@pytest.fixture
def search_work(monkeypatch):
    """Floyd-Warshall pivots of every pass, and full closure steps.

    ``precedence`` stars only the grid of a closure step that does not
    re-close, over every node (``pivots is None``).
    """
    work = collections.Counter()
    star = matrix._star

    def counted_star(d, scale, pivots=None, finite=None):
        work["pivots"] += len(d) if pivots is None else len(pivots)
        return star(d, scale, pivots, finite)

    def counted_step_star(d, scale, pivots=None, finite=None):
        work["full steps"] += pivots is None
        return counted_star(d, scale, pivots, finite)

    monkeypatch.setattr(matrix, "_star", counted_star)
    monkeypatch.setattr(precedence, "_star", counted_step_star)
    return work


def test_slow_divergence_pivots_over_few_nodes(search_work):
    """Joins and probe steps re-close: 90 pivots, against 227 with full stars.

    The one full closure step is the walk's first: the step after the
    search re-closes from the last moving probe's jump.
    """
    verdict = check_consistency(make_railway(Fraction("-13.999")), 2100)
    assert verdict.first_divergent == 2001
    assert search_work["pivots"] <= 100
    assert search_work["full steps"] == 1


@pytest.fixture
def first_listings(monkeypatch):
    """The matrices whose rows ``_arcs()`` lists for the first time."""
    listed = []
    arcs = TropicalMatrix._arcs

    def counted(self):
        if self._arc_rows is None:
            listed.append(self)
        return arcs(self)

    monkeypatch.setattr(TropicalMatrix, "_arcs", counted)
    return listed


def test_generators_make_no_first_listing(first_listings):
    """Listing the generators lists no matrix for the first time.

    The classifying walk has listed the blocks already; each generator's
    grid is built from stored rows.  Assembling from the unit segment made 4.
    """
    report = iterate_shrink(make_railway(Fraction("-13.9")))
    first_listings.clear()
    assert len(report.generators) == 21
    assert first_listings == []


def test_search_lists_no_used_once_corner(first_listings):
    """Joins and compositions read their corner j as stored: 36 listings, not 46.

    The blocks, the segments S_(2^i) and their arounds are listed once each.
    """
    verdict = check_consistency(make_railway(Fraction("-13.999")), 2100)
    assert verdict.first_divergent == 2001
    assert len(first_listings) == 36


@pytest.fixture
def join_work(monkeypatch):
    """Calls of ``_join`` and ``_compose``; a composition's own join counts as a join."""
    work = collections.Counter()
    join, compose = precedence._join, precedence._compose

    def counted_join(a, closure):
        work["joins"] += 1
        return join(a, closure)

    def counted_compose(a, b):
        work["compositions"] += 1
        return compose(a, b)

    monkeypatch.setattr(precedence, "_join", counted_join)
    monkeypatch.setattr(precedence, "_compose", counted_compose)
    return work


@pytest.mark.parametrize(
    "ell, probe, divergent, joins, compositions",
    [
        ("-13.999", 2100, 2001, 31, 10),
        ("-13.99", 2100, 201, 22, 7),
        ("-13.99999", 300000, 200001, 52, 17),
    ],
)
def test_railway_search_work(join_work, ell, probe, divergent, joins, compositions):
    """The stop search's joins and compositions on the railway, pinned.

    Each probe makes one join, and each doubling of S_p one composition,
    which makes one more join; a change to the number of probes shows here.
    """
    verdict = check_consistency(make_railway(Fraction(ell)), probe)
    assert verdict.first_divergent == divergent
    assert join_work == {"joins": joins, "compositions": compositions}


# NotWeaklyConsistent at closure 3; some around entries of its unit segment
# equal closure 1's entries, which no railway around entry does.
TIED_AROUND = PtegSystem(
    dynamics=TropicalMatrix(
        [
            [NEG_INF, NEG_INF, -3, 0],
            [1, -4, NEG_INF, -3],
            [2, NEG_INF, 2, NEG_INF],
            [3, -5, -4, -3],
        ]
    ),
    backward=TropicalMatrix(
        [
            [-3, NEG_INF, -2, -3],
            [NEG_INF, 0, NEG_INF, -1],
            [NEG_INF] * 4,
            [NEG_INF, NEG_INF, -4, NEG_INF],
        ]
    ),
    within=TropicalMatrix(
        [
            [-1, NEG_INF, NEG_INF, NEG_INF],
            [-3, NEG_INF, NEG_INF, NEG_INF],
            [NEG_INF] * 4,
            [0, -3, -4, NEG_INF],
        ]
    ),
)


def test_join_recloses_over_strictly_higher_arcs_only(monkeypatch):
    """A join re-closes its closure over the around entries above it.

    That is 4 arcs; the entries at or above it would be 8.
    """
    handed = []
    close_over = precedence._close_over

    def counted(closed, arcs):
        handed.append(len(arcs))
        return close_over(closed, arcs)

    monkeypatch.setattr(precedence, "_close_over", counted)
    assert check_consistency(TIED_AROUND).first_divergent == 3
    closures = closure_sequence(TIED_AROUND, 2)
    handed.clear()
    ff = precedence._join(precedence._unit_segment(TIED_AROUND), closures[1])[0]
    assert ff == closures[2]
    assert handed == [4]


# The engine's kernels take every operand at the system's scale: the blocks
# are aligned once, when the system is built, and every closure, segment and
# generator inherits that scale.
ENGINE_KERNELS = ("_triple_product", "_join", "_close_over", "_grown_arcs", "_next_closure")


def handed_matrices(args):
    """The matrices among ``args``, segments (tuples) unpacked."""
    for arg in args:
        if isinstance(arg, TropicalMatrix):
            yield arg
        elif isinstance(arg, tuple):
            yield from handed_matrices(arg)


@settings(max_examples=40)
@given(fraction_systems().map(lambda pair: pair[0]), st.just(None))
@example(make_railway(Fraction("-13.999")), 2100)  # a stop past the walk budget
@example(make_railway(Fraction("-14.5")), None)
@example(make_railway(Fraction("-13.9")), None)
def test_engine_kernels_see_one_scale(system, probe_bound):
    """Every matrix handed to a kernel, under every binding, has the system's scale."""
    scales = set()

    def recording(kernel):
        def recorded(*args, **kwargs):
            scales.update(m._scale for m in handed_matrices([*args, *kwargs.values()]))
            return kernel(*args, **kwargs)

        return recorded

    kernels = {getattr(precedence, name): name for name in ENGINE_KERNELS}
    with pytest.MonkeyPatch.context() as patch:
        patched = set()
        for module in (matrix, precedence, pteg, invariance):
            for binding, value in list(vars(module).items()):
                if callable(value) and value in kernels:
                    patch.setattr(module, binding, recording(value))
                    patched.add(kernels[value])
        assert patched == set(ENGINE_KERNELS)
        check_consistency(system, probe_bound)
        iterate_shrink(system, probe_bound).generators
        finite_weak_feasibility(system, 12)
        try:
            synthesize_trajectory(system, 12)
        except InfeasibleHorizon:
            pass
    assert scales == {system.within._scale}
