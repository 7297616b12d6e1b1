import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxplus import (
    NEG_INF,
    ConsistencyKind,
    InvarianceKind,
    PtegSystem,
    TropicalMatrix,
    check_consistency,
    closure_sequence,
    iterate_shrink,
    maximal_invariant,
)

from certificate import exact, extends, times
from conftest import TWO_NODE, make_railway
from helpers import (
    all_eps_system,
    column_values,
    consistent_systems,
    fraction_systems,
    identity,
    random_system,
    shrink_generator,
    shrink_generator_unrolled,
    stacked_constraint,
    systems,
    top_left,
)

NEG = "-inf"

# The railway below ell = -14: its closures repeat, so its iteration converges.
consistent_railways = st.builds(
    lambda m: make_railway(-14 - Fraction(1, m)), st.integers(1, 25)
)


PAIRING = {
    InvarianceKind.CONVERGED_NON_EMPTY: ConsistencyKind.CONSISTENT,
    InvarianceKind.REAL_EMPTY_AT_STEP: ConsistencyKind.NOT_WEAKLY_CONSISTENT,
    InvarianceKind.NON_CONVERGENT_WEAK_OPEN: ConsistencyKind.NOT_CONSISTENT_WEAK_OPEN,
}


def windowed_system(rng, n, density, denominator, backward):
    """A system signed like :func:`helpers.systems`, entries multiples of 1/denominator.

    Each entry is finite with probability ``density``; backward entries lie
    in the interval ``backward``.
    """

    def block(lo, hi):
        return TropicalMatrix(
            [
                [
                    Fraction(rng.randint(lo * denominator, hi * denominator), denominator)
                    if rng.random() < density
                    else NEG_INF
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )

    return PtegSystem(
        dynamics=block(0, 5),
        backward=block(*backward),
        within=block(-5, 0),
        extra_forward=block(-2, 3),
    )


def two_node_generator_expected(k):
    """Closed form of the k-step generator for the two-node window system."""
    return TropicalMatrix(
        [
            [0, NEG, NEG, NEG],
            [1 + k, 0, -1 + k, -1],
            [2, NEG, 0, NEG],
            [2 + k, NEG, k, 0],
        ]
    )


class TestLift:
    def test_two_node_blocks(self, two_node):
        assert stacked_constraint(two_node) == TropicalMatrix(
            [
                [NEG, NEG, NEG, NEG],
                [0, NEG, NEG, -1],
                [2, NEG, NEG, NEG],
                [NEG, NEG, 0, NEG],
            ]
        )

    def test_unconstrained_system(self):
        assert stacked_constraint(all_eps_system()) == TropicalMatrix.epsilon(4)

    def test_railway_constraint(self, railway):
        system = railway(-14)
        constraint = stacked_constraint(system)
        assert constraint.shape == (8, 8)
        assert constraint[3, 7] == Fraction(-14)
        assert top_left(constraint, 4, 4) == TropicalMatrix.epsilon(4)
        bottom_left = TropicalMatrix([row[:4] for row in constraint.to_rows()[4:]])
        assert bottom_left == system.forward


class TestShrinkGenerator:
    def test_two_node_closed_form(self, two_node):
        for k in range(5):
            assert shrink_generator(two_node, k) == two_node_generator_expected(k)

    def test_unconstrained_system_stays_at_identity(self):
        system = all_eps_system()
        for k in range(4):
            assert shrink_generator(system, k) == identity(4)

    def test_unrolled_corner_at_step_zero(self, two_node):
        assert shrink_generator_unrolled(two_node, 0) == stacked_constraint(two_node).star()

    @settings(max_examples=60)
    @given(
        st.one_of(
            systems(),
            fraction_systems().map(lambda drawn: drawn[0]),
            consistent_railways,
        )
    )
    @example(make_railway(-14))
    @example(all_eps_system())
    @example(TWO_NODE)
    def test_matches_unrolled_oracle(self, system):
        for k in range(5):
            assert shrink_generator(system, k) == shrink_generator_unrolled(system, k)
        report = iterate_shrink(system, 6)
        if report.kind is InvarianceKind.CONVERGED_NON_EMPTY:
            expected = shrink_generator_unrolled(system, report.step + 1)
            assert report.invariant_generator == expected

    @pytest.mark.parametrize(
        "n, denominator, backward, finite",
        [
            (12, 1, (-12, -4), True),
            (16, 1, (-14, -6), True),
            (16, 7, (-14, -6), True),
            (12, 1, (-8, 0), False),
        ],
    )
    def test_dense_systems_match_unrolled_oracle(self, n, denominator, backward, finite):
        """Seeded systems at density 0.3, whose generators are fully dense.

        The drawn property above stays at small n, where the 2n x 2n grid is
        sparse.  Backward arcs drawn in ``backward`` keep closures 0 to 4
        finite or, in the last case, put +inf into closure 1 but not 0.
        """
        system = windowed_system(random.Random(3505), n, 0.3, denominator, backward)
        closures = closure_sequence(system, 4)
        assert system.within._scale == denominator
        if finite:
            assert closures[4].rmax_valued
        else:
            assert closures[0].rmax_valued and not closures[1].rmax_valued
        for k in range(4):
            generator = shrink_generator(system, k)
            assert generator == shrink_generator_unrolled(system, k)
            assert generator.rmax_valued is closures[k + 1].rmax_valued

    def test_railway_divergence_shows_in_generator(self, railway):
        system = railway(-13)
        assert shrink_generator(system, 1).rmax_valued
        assert not shrink_generator(system, 2).rmax_valued
        assert not shrink_generator_unrolled(system, 2).rmax_valued


class TestGeneratorChain:
    def test_nesting(self):
        rng = random.Random(4402)
        for _ in range(15):
            system = random_system(rng, rng.randint(1, 2))
            previous = shrink_generator(system, 0)
            for k in range(1, 5):
                current = shrink_generator(system, k)
                if not (previous.rmax_valued and current.rmax_valued):
                    break
                # image of the later generator is contained in the earlier one
                assert previous @ current == current
                previous = current

    def test_finite_generators_are_star_matrices(self):
        rng = random.Random(4403)
        for _ in range(15):
            system = random_system(rng, rng.randint(1, 2))
            for k in range(4):
                generator = shrink_generator(system, k)
                if generator.rmax_valued:
                    assert generator.star() == generator


class TestIterateShrink:
    def test_railway_converges_in_two_steps(self, railway):
        report = iterate_shrink(railway(-14))
        assert report.kind is InvarianceKind.CONVERGED_NON_EMPTY
        assert report.step == 2
        generator = report.invariant_generator
        assert generator is not None and any(NEG_INF in row for row in generator)
        assert generator.rmax_valued and generator.star() == generator
        # the stabilized generator, reachable from any later step
        assert generator == shrink_generator(railway(-14), 17)
        assert report.generators[-1] == generator

    def test_railway_empties_in_two_steps(self, railway):
        report = iterate_shrink(railway(-13))
        assert report.kind is InvarianceKind.REAL_EMPTY_AT_STEP
        assert report.step == 2
        assert report.invariant_generator is None
        assert not report.generators[-1].rmax_valued
        assert all(m.rmax_valued for m in report.generators[:-1])

    def test_two_node_never_settles(self, two_node):
        report = iterate_shrink(two_node)
        assert report.kind is InvarianceKind.NON_CONVERGENT_WEAK_OPEN
        assert report.step == 40  # default probe bound 10 * n^2
        assert report.invariant_generator is None
        assert len(report.generators) == 41
        assert all(m.rmax_valued for m in report.generators)

    def test_probe_bound_respected(self, two_node):
        report = iterate_shrink(two_node, probe_bound=7)
        assert report.step == 7
        assert len(report.generators) == 8

    def test_slow_divergence_needs_larger_probe(self, railway):
        system = railway(Fraction("-13.9"))
        report = iterate_shrink(system)
        assert report.kind is InvarianceKind.REAL_EMPTY_AT_STEP
        assert report.step == 20
        capped = iterate_shrink(system, probe_bound=10)
        assert capped.kind is InvarianceKind.NON_CONVERGENT_WEAK_OPEN

    def test_verdict_coherence(self):
        rng = random.Random(4404)
        for _ in range(40):
            system = random_system(rng, rng.randint(1, 3))
            probe = 10 * system.size**2
            report = iterate_shrink(system, probe)
            verdict = check_consistency(system, probe)
            assert PAIRING[report.kind] is verdict.kind

    @settings(max_examples=80)
    @given(
        st.one_of(systems(), fraction_systems().map(lambda drawn: drawn[0])),
        st.integers(1, 40),
    )
    @example(make_railway(-14), 1)
    @example(TWO_NODE, 1)
    def test_one_stop_two_views(self, system, probe):
        verdict = check_consistency(system, probe)
        report = iterate_shrink(system, probe)
        assert PAIRING[report.kind] is verdict.kind
        n = system.size
        if verdict.kind is ConsistencyKind.CONSISTENT:
            # the first repeat j is at step + 2, or at 1 for step 0
            closures = closure_sequence(system, report.step + 2)
            j = next(k for k in range(1, len(closures)) if closures[k] == closures[k - 1])
            assert report.step == max(j, 2) - 2
            assert top_left(report.invariant_generator, n, n) == verdict.fixed_closure
        elif verdict.kind is ConsistencyKind.NOT_WEAKLY_CONSISTENT:
            assert report.step == max(verdict.first_divergent - 1, 0)
        else:
            assert report.step == verdict.verified_up_to == max(probe, n * n + 1)

    @pytest.mark.parametrize(
        "ell, probe, divergent",
        [("-13.9", 19, 21), ("-13.9", 20, 21), ("-13.9875", 161, 162)],
    )
    def test_same_bound_same_decision(self, ell, probe, divergent):
        system = make_railway(Fraction(ell))
        verdict = check_consistency(system, probe)
        assert verdict.kind is ConsistencyKind.NOT_WEAKLY_CONSISTENT
        assert verdict.first_divergent == divergent
        report = iterate_shrink(system, probe)
        assert report.kind is InvarianceKind.REAL_EMPTY_AT_STEP
        assert report.step == divergent - 1


class TestMaximalInvariant:
    def test_present_for_feasible_window(self, railway):
        generator = maximal_invariant(railway(-14))
        assert generator is not None
        assert top_left(generator, 4, 4) == closure_sequence(railway(-14), 16)[16]

    def test_absent_when_emptied(self, railway):
        assert maximal_invariant(railway(-13)) is None

    def test_absent_when_never_settling(self, two_node):
        assert maximal_invariant(two_node) is None


class TestInvariantMember:
    """The image of a star matrix G is its set of fixed points, ``G @ x == x``."""

    def test_identity_generator(self):
        x = TropicalMatrix.column([0, -1, 2, 3])
        assert identity(4) @ x == x

    def test_generator_columns_belong(self, railway):
        generator = maximal_invariant(railway(-14))
        for j in range(generator.cols):
            column = TropicalMatrix.column(column_values(generator, j))
            assert generator @ column == column

    def test_window_violation_rejected(self, railway):
        generator = maximal_invariant(railway(-14))
        # membership forces x4 >= -14 + x8; this vector breaks that bound
        violating = TropicalMatrix.column([0, 0, 0, 0, 0, 0, 0, 15])
        assert generator @ violating != violating


class TestOneStepInvariance:
    def test_witness_for_feasible_window(self, railway):
        system = railway(-14)
        generator = maximal_invariant(system)
        n = system.size
        anchored = TropicalMatrix([row[n:] for row in generator.to_rows()[n:]])
        constraint = stacked_constraint(system)
        checked = 0
        for j in range(generator.cols):
            column = column_values(generator, j)
            second = column[n:]
            if any(v == NEG_INF for v in second):
                continue
            checked += 1
            successor = column_values(
                anchored @ system.forward @ TropicalMatrix.column(second)
            )
            stacked = TropicalMatrix.column(second + successor)
            assert (constraint @ stacked) <= stacked
        assert checked > 0


def definition_misses(system, generator_rows, step, rng):
    """``(invariance, maximality)``: candidates on which the image and its definition disagree.

    ``generator_rows`` is a converged report's G, the generator of step + 1
    and so the stage-(1, 2) corner of the star of the (step + 3)-stage
    unrolling.  A member z, ``G @ z == z``, must start a schedule over
    step + 6 stages; the candidates are every real column of G and three
    random max-plus combinations of all its columns, real because a
    finite star has a zero diagonal.  A non-member must not start one over
    step + 3: each member with one entry moved by 1 either way, and two
    uniform random vectors, where ``G @ z != z``.  Every product is taken
    in Fraction arithmetic by the independent checker.
    """
    blocks = [m.to_rows() for m in (system.within, system.backward, system.forward)]
    g, n = exact(generator_rows), system.size
    columns = [[row[j] for row in g] for j in range(2 * n)]
    members = [column for column in columns if None not in column]
    for _ in range(3):
        weights = [Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3))) for _ in columns]
        members.append([
            max(w + c[i] for w, c in zip(weights, columns) if c[i] is not None)
            for i in range(2 * n)
        ])
    moved = [
        z[:i] + [z[i] + d] + z[i + 1:] for z in members for i in range(2 * n) for d in (-1, 1)
    ]
    moved += [[Fraction(rng.randint(-60, 60), 2) for _ in range(2 * n)] for _ in range(2)]
    invariance = sum(not extends(blocks, z[:n], z[n:], step + 6) for z in members)
    maximality = sum(
        extends(blocks, z[:n], z[n:], step + 3)
        for z in moved
        if [v for v, in times(g, [[v] for v in z])] != z
    )
    return invariance, maximality


DEFINITION_RAILWAYS = [make_railway(-14), make_railway(Fraction("-14.5")), make_railway(-20)]


class TestAgainstDefinition:
    """Result (i) checked against its definition by plain longest paths.

    The maximal controlled-invariant set is the set of stacked pairs [x; y]
    from which a schedule continues: ``extends`` decides that with no
    library code, and the report's G must agree on both sides.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(systems(), fraction_systems().map(lambda drawn: drawn[0])),
        st.integers(0, 2**32),
    )
    @example(DEFINITION_RAILWAYS[0], 0)
    @example(DEFINITION_RAILWAYS[1], 0)
    @example(DEFINITION_RAILWAYS[2], 0)
    def test_image_is_the_set_that_continues(self, system, seed):
        report = iterate_shrink(system)
        rng = random.Random(seed)
        if report.kind is InvarianceKind.CONVERGED_NON_EMPTY:
            g = report.invariant_generator.to_rows()
            assert definition_misses(system, g, report.step, rng) == (0, 0)
        elif report.kind is InvarianceKind.REAL_EMPTY_AT_STEP:
            blocks = [m.to_rows() for m in (system.within, system.backward, system.forward)]
            for _ in range(3):
                z = [Fraction(rng.randint(-60, 60), 2) for _ in range(2 * system.size)]
                assert not extends(blocks, z[:system.size], z[system.size:], report.step + 2)

    @pytest.mark.parametrize("system", DEFINITION_RAILWAYS)
    @pytest.mark.parametrize(
        "entry, d, missed", [((3, 7), 1, (False, True)), ((4, 1), -1, (True, False))]
    )
    def test_one_entry_off_is_caught(self, system, entry, d, missed):
        """G with one entry off by 1 disagrees with the definition on one side.

        Row 3, column 7 raised by 1 rejects, by ``G @ z != z``, a moved
        vector that does start a schedule over step + 3 stages; row 4,
        column 1 lowered by 1 admits a combination of columns that starts
        none over step + 6.  Rows and columns count from 0.
        """
        report = iterate_shrink(system)
        rows = [list(row) for row in report.invariant_generator.to_rows()]
        assert definition_misses(system, rows, report.step, random.Random(0)) == (0, 0)
        i, j = entry
        rows[i][j] += d
        misses = definition_misses(system, rows, report.step, random.Random(0))
        assert tuple(map(bool, misses)) == missed


# ROADMAP item 6's recovery check and next-state window, checked against
# ``extends`` alone.  G11 | G12 over G21 | G22 are the n x n blocks of a
# converged report's G, in Fraction rows with None for -inf.


def quarters(report):
    """``[G11, G12, G21, G22]`` of ``report.invariant_generator``."""
    g, n = exact(report.invariant_generator.to_rows()), report.system.size
    return [[row[cols] for row in g[rows]] for rows in (slice(n), slice(n, None))
            for cols in (slice(n), slice(n, None))]


def applied(a, x):
    """``a @ x`` for an exact row matrix and a vector; None for -inf."""
    return [v for v, in times(a, [[v] for v in x])]


def residual(a, x):
    """``a # x``, the greatest y with ``a @ y <= x``; +inf where no a[j][i] is finite.

    y_i = min_j (x_j - a[j][i]), a min-plus product with a's transpose.
    """
    return [
        min((x[j] - row[i] for j, row in enumerate(a) if row[i] is not None), default=inf)
        for i in range(len(a[0]))
    ]


def recoverable(g11, rng):
    """x = G11 @ v for a random rational v: finite, as G11 has a zero diagonal."""
    v = [Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3))) for _ in g11]
    return applied(g11, v)


def window_checks(system, report, rng):
    """Windows checked with both ends finite; asserts every law of the window.

    For x = G11 @ v the next state y with [x; y] in the set ranges over
    lo = G21 @ x to hi = G22 # (G12 # x) event by event.  Each finite end
    is reached, lo <= hi, and one end moved outward by 1/1000 leaves the set.
    """
    n, stages = system.size, report.step + 3
    blocks = [m.to_rows() for m in (system.within, system.backward, system.forward)]
    g11, g12, g21, g22 = quarters(report)
    both = 0
    for _ in range(2):
        x = recoverable(g11, rng)
        lo, hi = applied(g21, x), residual(g22, residual(g12, x))
        ends = []
        if None not in lo:
            assert all(a <= b for a, b in zip(lo, hi))
            ends.append((lo, Fraction(-1, 1000)))
        if inf not in hi:
            ends.append((hi, Fraction(1, 1000)))
        both += len(ends) == 2
        for y, outward in ends:
            assert extends(blocks, x, y, stages)
            for i in range(n):
                moved = y[:i] + [y[i] + outward] + y[i + 1:]
                assert not extends(blocks, x, moved, stages)
    return both


WINDOW_SYSTEMS = st.one_of(systems(), consistent_systems(max_n=6))


class TestNextStateWindow:
    """A recoverable state, and the window of its valid next states (item 6)."""

    @settings(max_examples=80, deadline=None)
    @given(WINDOW_SYSTEMS, st.integers(0, 2**32))
    @example(DEFINITION_RAILWAYS[0], 0)
    @example(DEFINITION_RAILWAYS[1], 0)
    @example(DEFINITION_RAILWAYS[2], 0)
    def test_recovery_check_is_the_fixed_closure(self, system, seed):
        """G11 is the fixed closure, and x continues exactly when G11 @ x <= x.

        The states tried are recoverable ones, each with one entry moved by
        1 either way, and two uniform random ones.
        """
        report = iterate_shrink(system)
        if report.kind is not InvarianceKind.CONVERGED_NON_EMPTY:
            return
        n, rng = system.size, random.Random(seed)
        fixed = check_consistency(system).fixed_closure
        assert top_left(report.invariant_generator, n, n) == fixed
        blocks = [m.to_rows() for m in (system.within, system.backward, system.forward)]
        g11 = quarters(report)[0]
        states = [recoverable(g11, rng) for _ in range(2)]
        states += [x[:i] + [x[i] + d] + x[i + 1:] for x in states for i in range(n)
                   for d in (-1, 1)]
        states += [[Fraction(rng.randint(-60, 60), 2) for _ in range(n)] for _ in range(2)]
        for x in states:
            below_x = all(v is None or v <= w for v, w in zip(applied(g11, x), x))
            assert below_x == extends(blocks, x, None, report.step + 3)

    @settings(max_examples=80, deadline=None)
    @given(WINDOW_SYSTEMS, st.integers(0, 2**32))
    def test_window_ends_are_tight(self, system, seed):
        """Each finite end of a recoverable state's window is its valid extreme."""
        report = iterate_shrink(system)
        if report.kind is InvarianceKind.CONVERGED_NON_EMPTY:
            window_checks(system, report, random.Random(seed))

    @pytest.mark.parametrize("system", DEFINITION_RAILWAYS)
    def test_railway_windows(self, system):
        report = iterate_shrink(system)
        assert window_checks(system, report, random.Random(0)) == 2
