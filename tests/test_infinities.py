"""Infinities known by construction, and what the kernels save by it.

- A stored -inf is the object ``NEG_INF`` itself, however it got there: a
  user's ``float("-inf")``, the token ``"-inf"``, a kernel, a walk, an
  instantiated problem, unpickling or a copy.  So the kernels skip -inf by
  identity (``is``), never by value.
- Where a matrix's maker recorded whether it is free of +inf (``_finite``),
  the record is what a fresh scan finds.
- So ``rmax_valued`` never scans a matrix that the closure walk built: the
  walk reads each closure's record instead.
"""

import copy
import itertools
import json
import pickle
import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TWO_NODE, make_railway
from helpers import fraction_systems, systems
from maxplus import (
    NEG_INF,
    POS_INF,
    ConsistencyKind,
    InfeasibleHorizon,
    PtegSystem,
    TropicalMatrix,
    as_scalar,
    check_consistency,
    closure_sequence,
    iterate_shrink,
    parse_problem,
    synthesize_trajectory,
)
from maxplus.matrix import _apply, _triple_product, aligned
from maxplus.precedence import _compose, _stopping_closure, _unit_segment
from maxplus.problems import MATRIX_FIELDS
from maxplus.semiring import _Record


def fresh_neg() -> float:
    """A -inf that is a new float object, not the constant."""
    return float("-inf")


def stray(rows) -> list:
    """The -inf values among ``rows`` that are not ``NEG_INF`` itself."""
    return [v for v in itertools.chain(*rows) if v == NEG_INF and v is not NEG_INF]


def scanned(m: TropicalMatrix) -> bool:
    """Whether ``m`` is free of +inf, found afresh from its stored grid."""
    return all(v != POS_INF for v in itertools.chain(*m._data))


def matrices_in(value) -> list:
    """Every matrix held by ``value``: a matrix, a record or a sequence of them."""
    if isinstance(value, TropicalMatrix):
        return [value]
    if isinstance(value, (tuple, list)):
        return [m for item in value for m in matrices_in(item)]
    if isinstance(value, _Record):  # derived values included
        return matrices_in(list(vars(value).values()))
    return []


def with_fresh_negs(system: PtegSystem) -> PtegSystem:
    """``system`` rebuilt through the public constructor, each -inf a new float."""

    def fresh(block):
        return TropicalMatrix(
            [[fresh_neg() if v == NEG_INF else v for v in row] for row in block.to_rows()]
        )

    return PtegSystem(*map(fresh, system._fields()))


def built_from(system: PtegSystem) -> list:
    """Matrices the library builds from ``system``: walk, stop, generators,
    schedule, segments and each public operation on its blocks."""
    built = [*matrices_in(system), *closure_sequence(system, 6)]
    built += matrices_in(iterate_shrink(system).generators)
    built.append(_stopping_closure(system, 2100)[1])
    built += matrices_in(check_consistency(system))
    unit = _unit_segment(system)
    built += [*unit, *_compose(unit, unit)]
    try:
        built.append(synthesize_trajectory(system, 3).table)
    except InfeasibleHorizon:
        pass
    within, backward = system.within, system.backward
    built += [within @ backward, within + backward, (within @ backward + within).star()]
    return built


RAILWAY_ELLS = (-13, Fraction("-13.5"), -14, Fraction("-13.99"))
NAMED = [TWO_NODE, *map(make_railway, RAILWAY_ELLS)]
DRAWN = st.one_of(systems(), fraction_systems().map(lambda pair: pair[0]))


# Scalars of every kind, -inf both as a new float and as text.
ENTRIES = st.one_of(
    st.builds(fresh_neg),
    st.just("-inf"),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
    st.just(POS_INF),
)


@st.composite
def square_pairs(draw):
    n = draw(st.integers(1, 4))
    grid = st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
    return TropicalMatrix(draw(grid)), TropicalMatrix(draw(grid))


class TestNegInfIsTheConstant:
    def test_a_new_float_is_not_the_constant(self):
        assert fresh_neg() == NEG_INF and fresh_neg() is not NEG_INF

    @pytest.mark.parametrize(
        "value", [fresh_neg(), "-inf", " -inf ", type("FloatLike", (float,), {})("-inf")]
    )
    def test_as_scalar_gives_the_constant(self, value):
        assert as_scalar(value) is NEG_INF

    @pytest.mark.parametrize("extra", [0, Fraction(1, 3)], ids=["ints", "fractions"])
    def test_constructors_store_the_constant(self, extra):
        rows = [[fresh_neg(), extra], ["-inf", as_scalar(fresh_neg())]]
        built = [TropicalMatrix(rows), TropicalMatrix.column([fresh_neg(), extra])]
        for m in built:
            assert NEG_INF in itertools.chain(*m._data)
            assert stray(m._data) == stray(m.to_rows()) == []
            assert m[0, 0] is NEG_INF

    @given(square_pairs())
    def test_every_operation_stores_the_constant(self, pair):
        a, b = pair
        n = a.rows
        results = [a, b, a @ b, a + b, a.star(), b.star(), *aligned(a, b)]
        results += [TropicalMatrix.from_blocks([[a, b], [b, a]]), TropicalMatrix.epsilon(n)]
        for m in results:
            assert stray(m._data) == stray(m.to_rows()) == [], m
            # a kernel's arcs skip -inf by identity, so none holds it
            arcs = [v for _, v in itertools.chain(*m._arcs(), *m._column_arcs())]
            assert NEG_INF not in arcs
        vias, grid, _ = _triple_product(*aligned(a, b, a, b))
        assert stray(vias) == stray(grid) == []
        if a.rmax_valued:
            assert stray([_apply(a, [0] * n)]) == []

    @pytest.mark.parametrize("system", NAMED)
    def test_walks_generators_and_schedules_store_the_constant(self, system):
        for m in built_from(with_fresh_negs(system)):
            assert stray(m._data) == [], m

    @settings(max_examples=40)
    @given(DRAWN)
    def test_drawn_systems_store_the_constant(self, system):
        for m in built_from(with_fresh_negs(system)):
            assert stray(m._data) == [], m

    def test_instantiated_blocks_store_the_constant(self):
        grid = [["-inf", "1/2"], [" -inf", "x"]]
        doc = {"n": 2, "params": {"x": "-inf"}, **dict.fromkeys(MATRIX_FIELDS, grid)}
        system = parse_problem(json.dumps(doc)).instantiate()
        for m in matrices_in(system):
            assert NEG_INF in itertools.chain(*m._data)
            assert stray(m._data) == []

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickled_matrices_and_records_store_the_constant(self, protocol):
        system = with_fresh_negs(make_railway(Fraction("-14.5")))
        report = iterate_shrink(system)
        report.generators  # derived, kept in the record's __dict__
        held = [system, check_consistency(system), report, synthesize_trajectory(system, 3)]
        held += [TropicalMatrix([[fresh_neg(), Fraction(1, 2)], [POS_INF, 0]])]
        for value in held:
            for clone in (
                pickle.loads(pickle.dumps(value, protocol)),
                copy.copy(value),
                copy.deepcopy(value),
            ):
                found = matrices_in(clone)
                assert found and len(found) == len(matrices_in(value))
                for m, original in zip(found, matrices_in(value)):
                    assert m == original and m._scale == original._scale
                    assert stray(m._data) == []


class TestRecordedFiniteness:
    @pytest.mark.parametrize("system", NAMED)
    def test_a_recorded_finiteness_is_a_fresh_scan(self, system):
        for m in built_from(system):
            assert m._finite in (None, scanned(m)), m

    @settings(max_examples=40)
    @given(DRAWN)
    def test_drawn_systems_record_a_fresh_scan(self, system):
        for m in built_from(system):
            assert m._finite in (None, scanned(m)), m

    @given(square_pairs())
    def test_operations_record_a_fresh_scan(self, pair):
        a, b = pair
        for m in (a @ b, a + b, a.star(), (a @ b).star(), *aligned(a, b)):
            assert m._finite in (None, scanned(m)), m

    def test_railway_closures_with_inf_are_recorded_right(self):
        closures = closure_sequence(make_railway(-13), 8)
        assert not all(map(scanned, closures))
        assert [c._finite for c in closures] == [*map(scanned, closures)]


@contextmanager
def scans():
    """The matrices whose ``rmax_valued`` read has to scan, in order."""
    found = []
    read = TropicalMatrix.rmax_valued.fget

    def counted(m):
        if m._finite is None:
            found.append(m)
        return read(m)

    with mock.patch.object(TropicalMatrix, "rmax_valued", property(counted)):
        yield found


def test_railway_walk_scans_no_closure():
    """33 closures of the railway at ell = -13.95, no scan for +inf."""
    system = make_railway(Fraction("-13.95"))
    with scans() as found:
        k, closure, fixed = _stopping_closure(system, 32)
    assert (k, fixed, closure.rmax_valued) == (32, False, True)
    assert found == []


def consistent_problem(seed: str, n: int) -> str:
    """A problem text that the schedule x_i(k) = p_i + k * lam meets with slack.

    Built as the benchmark's consistent corpus builds one: each finite entry
    lies 1 to 5 below the largest weight that schedule allows, and about 30%
    of the entries are finite, 15% of ``Rtilde``'s.
    """
    rng = random.Random(seed)
    p, lam = [rng.randint(0, 30) for _ in range(n)], rng.randint(1, 10)

    def block(shift, density):
        return [
            [
                str(p[i] - p[j] + shift - rng.randint(1, 5)) if rng.random() < density else "-inf"
                for j in range(n)
            ]
            for i in range(n)
        ]

    blocks = {"A": block(lam, 0.3), "L": block(-lam, 0.3), "C": block(0, 0.3)}
    return json.dumps({"n": n, **blocks, "Rtilde": block(lam, 0.15)})


@pytest.mark.parametrize("seed", ["scan/0", "scan/1", "scan/2"])
def test_consistency_check_of_a_problem_scans_nothing(seed):
    """Loading a consistent n = 12 problem and checking it scans no matrix.

    The instantiated blocks are free of +inf by construction (the load
    path rejects +inf), and so is each closure the walk builds from them.
    """
    text = consistent_problem(seed, 12)
    with scans() as found:
        verdict = check_consistency(parse_problem(text).instantiate())
    assert verdict.kind is ConsistencyKind.CONSISTENT
    assert found == []
