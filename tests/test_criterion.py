"""The closure walk's verdict against the three-way cycle criterion (``cycles``).

The walk decides "consistent" at a repeat and "not weakly consistent" at a
+inf entry, and leaves the rest open at its probe bound.  The criterion
decides all three classes from the simple cycles of the quotient
multigraph, so the two must agree on the classes the walk decides, and a
system the walk leaves open must be weakly consistent but not consistent.
"""

from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxplus import NEG_INF, ConsistencyKind, PtegSystem, check_consistency

from certificate import exact, extends
from conftest import REPEAT_AT_FIVE, TWO_NODE, make_railway
from cycles import (
    CONSISTENT,
    NOT_WEAKLY_CONSISTENT,
    WEAKLY_NOT_CONSISTENT,
    classify,
    components,
    multigraph,
    reachable,
    simple_cycles,
)
from helpers import block_rows, fraction_systems, systems, two_scc_systems

PROBE = 400


def oracle(system: PtegSystem):
    return classify(*block_rows(system))


def agree(system):
    """The walk's class at probe 400 is the criterion's, or open and crossed."""
    kind = check_consistency(system, PROBE).kind
    found = oracle(system).kind
    assert (kind is ConsistencyKind.CONSISTENT) == (found == CONSISTENT)
    assert (kind is ConsistencyKind.NOT_WEAKLY_CONSISTENT) == (
        found == NOT_WEAKLY_CONSISTENT
    )
    if kind is ConsistencyKind.NOT_CONSISTENT_WEAK_OPEN:
        assert found == WEAKLY_NOT_CONSISTENT


@settings(max_examples=100)
@given(systems())
@example(REPEAT_AT_FIVE)
def test_walk_agrees_with_the_criterion(system):
    agree(system)


@settings(max_examples=60)
@given(fraction_systems())
def test_walk_agrees_with_the_criterion_on_fractions(drawn):
    agree(drawn[0])


@settings(max_examples=300)
@given(two_scc_systems())
@example(TWO_NODE)
def test_walk_agrees_with_the_criterion_across_two_components(system):
    agree(system)


DRAWN = st.one_of(
    systems(), fraction_systems().map(lambda drawn: drawn[0]), two_scc_systems()
)


def re_added(cycle, within, backward, forward) -> tuple:
    """(W, T) of ``cycle``, summed again from the blocks along its arcs.

    The arcs must close a simple cycle, and each must be an entry other
    than -inf of the block its transit names.
    """
    by_transit = {0: exact(within), 1: exact(forward), -1: exact(backward)}
    tails = [tail for tail, _, _ in cycle.arcs]
    assert len(set(tails)) == len(tails)
    assert [head for _, head, _ in cycle.arcs] == tails[1:] + tails[:1]
    weights = [by_transit[t][head][tail] for tail, head, t in cycle.arcs]
    assert None not in weights
    return sum(weights), sum(t for _, _, t in cycle.arcs)


def height(cycle) -> int:
    """How many stages the cycle spans above its lowest one."""
    levels = [0, *accumulate(t for _, _, t in cycle.arcs)]
    return max(levels) - min(levels)


@settings(max_examples=100)
@given(DRAWN)
@example(TWO_NODE)
@example(make_railway(-13))
def test_every_cycle_re_adds_from_the_blocks(system):
    """Each listed cycle, and so each witness, is a cycle of the blocks.

    A positive zero-transit witness of height h is a positive circuit of
    the (h + 1)-stage unrolling, so no state starts a schedule that long.
    Crossed witnesses attain the interval ends they cross.
    """
    rows = block_rows(system)
    arcs = multigraph(*rows)
    for scc in components(system.size, arcs):
        for cycle in simple_cycles(scc, arcs):
            assert re_added(cycle, *rows) == (cycle.weight, cycle.transit)
    found = classify(*rows)
    for cycle in found.witnesses:
        assert re_added(cycle, *rows) == (cycle.weight, cycle.transit)
    if found.kind == CONSISTENT:
        assert found.witnesses == ()
        return
    if len(found.witnesses) == 1:
        (cycle,) = found.witnesses
        assert found.kind == NOT_WEAKLY_CONSISTENT
        assert cycle.transit == 0 and cycle.weight > 0
        assert not extends(rows, [0] * system.size, None, height(cycle) + 1)
        return
    low, high = found.witnesses
    assert low.transit > 0 > high.transit
    assert low.weight / low.transit > high.weight / high.transit
    (a,) = [scc for scc in found.intervals if low.arcs[0][0] in scc]
    (b,) = [scc for scc in found.intervals if high.arcs[0][0] in scc]
    assert found.intervals[a][0] == low.weight / low.transit
    assert found.intervals[b][1] == high.weight / high.transit
    assert (a == b) == (found.kind == NOT_WEAKLY_CONSISTENT)
    assert b[0] in reachable(system.size, arcs)[a[0]]


@pytest.mark.parametrize(
    "system, kind",
    [
        (REPEAT_AT_FIVE, CONSISTENT),
        (make_railway(-13), NOT_WEAKLY_CONSISTENT),
        (make_railway(Fraction("-13.999")), NOT_WEAKLY_CONSISTENT),
        (make_railway(-14), CONSISTENT),
        (make_railway(Fraction("-14.0000001")), CONSISTENT),
        (make_railway(-20), CONSISTENT),
    ],
)
def test_pinned_classes(system, kind):
    assert oracle(system).kind == kind


def test_two_node_is_weakly_but_not_consistent():
    """Event 1 needs a period of at least 2, and event 2, which it reaches, at most 1."""
    found = oracle(TWO_NODE)
    assert found.kind == WEAKLY_NOT_CONSISTENT
    assert found.intervals == {(0,): (2, float("inf")), (1,): (float("-inf"), 1)}
    low, high = found.witnesses
    assert low.arcs == ((0, 0, 1),) and low.weight == 2
    assert high.arcs == ((1, 1, -1),) and high.weight == -1
    open_kind = ConsistencyKind.NOT_CONSISTENT_WEAK_OPEN
    assert check_consistency(TWO_NODE, PROBE).kind is open_kind


def test_the_oracle_is_capped():
    eps = [[NEG_INF] * 6 for _ in range(6)]
    with pytest.raises(ValueError, match="capped"):
        classify(eps, eps, eps)
