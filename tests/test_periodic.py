"""Per-event periodic schedules (``periodic``) against the criterion and the checkers.

Where the cycle criterion calls a system consistent, the oracle builds x_i(k)
= a_i + (k - 1) * tau_i, and ``certificate.certifies_periodic`` must accept it
with its O(n^2) check, and ``certifies_schedule`` its first 12 states.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxplus import ConsistencyKind, PtegSystem, TropicalMatrix, check_consistency

from certificate import certifies_periodic, certifies_schedule
from conftest import NEG, REPEAT_AT_FIVE, TWO_NODE, make_railway
from cycles import CONSISTENT, classify
from helpers import block_rows, fraction_systems, systems, two_scc_systems
from periodic import periodic, unrolled

PROBE = 400
STATES = 12

DRAWN = st.one_of(
    systems(), fraction_systems().map(lambda drawn: drawn[0]), two_scc_systems()
)

# Event 1 keeps a period in [2, 3] and event 2, which it reaches, one in
# [5, 6]: consistent, with no common period.
TWO_PERIODS = PtegSystem(
    dynamics=TropicalMatrix([[2, NEG], [NEG, 5]]),
    backward=TropicalMatrix([[-3, NEG], [NEG, -6]]),
    within=TropicalMatrix([[NEG, NEG], [0, NEG]]),
)


@settings(max_examples=200)
@given(DRAWN)
@example(TWO_NODE)
@example(REPEAT_AT_FIVE)
@example(TWO_PERIODS)
@example(make_railway(-14))
def test_a_certified_schedule_exactly_when_consistent(system):
    rows = block_rows(system)
    found = classify(*rows)
    schedule = periodic(*rows)
    assert (schedule is not None) == (found.kind == CONSISTENT)
    if check_consistency(system, PROBE).kind is ConsistencyKind.CONSISTENT:
        assert schedule is not None
    if schedule is None:
        return
    tau, a = schedule
    for scc, (low, high) in found.intervals.items():
        assert all(low <= tau[i] <= high for i in scc)
    assert certifies_periodic(tau, a, *rows)
    states = unrolled(tau, a, STATES)
    assert all(certifies_schedule(states[:k], *rows) for k in range(2, STATES + 1))


@pytest.mark.parametrize("ell", [-14, Fraction("-14.5"), -15, -20])
def test_the_railway_keeps_a_cycle_time_of_14(ell):
    assert periodic(*block_rows(make_railway(ell))) == ([14] * 4, [3, 0, 3, 3])


@pytest.mark.parametrize(
    "system", [make_railway(-13), TWO_NODE], ids=["railway-13", "two-node"]
)
def test_no_schedule_without_consistency(system):
    assert periodic(*block_rows(system)) is None


def test_repeat_at_five_has_period_4():
    tau, _ = periodic(*block_rows(REPEAT_AT_FIVE))
    assert tau == [4] * 3


def test_two_components_get_two_periods():
    rows = block_rows(TWO_PERIODS)
    assert classify(*rows).intervals == {(0,): (2, 3), (1,): (5, 6)}
    assert check_consistency(TWO_PERIODS).kind is ConsistencyKind.CONSISTENT
    tau, a = periodic(*rows)
    assert tau == [2, 5]
    assert certifies_periodic(tau, a, *rows)


def test_lowered_periods_fail_the_certificate():
    rows = block_rows(make_railway(-14))
    tau, a = periodic(*rows)
    assert certifies_periodic(tau, a, *rows)
    assert not certifies_periodic([t - Fraction(1, 2) for t in tau], a, *rows)
