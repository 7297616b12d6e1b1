from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import settings

from maxplus import PtegSystem, TropicalMatrix

# Property tests draw the same examples on every run, and wall-clock
# deadlines are off so a busy machine cannot fail them.
settings.register_profile("maxplus", derandomize=True, deadline=None)
settings.load_profile("maxplus")

NEG = "-inf"


# Two events; the second must follow the first within a sliding window.
# The schedule of event 1 advances by at least 2 per occurrence, event 2
# must happen no earlier than event 1 of the same occurrence, and event 2
# may lead its own next occurrence by at most 1.
TWO_NODE = PtegSystem(
    dynamics=TropicalMatrix([[2, NEG], [NEG, NEG]]),
    backward=TropicalMatrix([[NEG, NEG], [NEG, -1]]),
    within=TropicalMatrix([[NEG, NEG], [0, NEG]]),
)


@pytest.fixture
def two_node() -> PtegSystem:
    return TWO_NODE


# Three events whose first repeat is closure 5, the largest index found at
# n = 3 (ROADMAP item 9); C and Rtilde are all -inf.
REPEAT_AT_FIVE = PtegSystem(
    dynamics=TropicalMatrix([[NEG, NEG, 9], [NEG, NEG, NEG], [-1, NEG, NEG]]),
    backward=TropicalMatrix([[NEG, NEG, -2], [NEG, -6, -9], [NEG, 0, NEG]]),
    within=TropicalMatrix.epsilon(3),
)


RAILWAY_DYNAMICS = TropicalMatrix(
    [
        [0, 17, NEG, NEG],
        [NEG, 0, 11, 9],
        [14, NEG, 11, 9],
        [14, NEG, 11, 0],
    ]
)


def make_railway(ell) -> PtegSystem:
    """Four-station railway: departures at station 4 at most -ell apart."""
    backward = [[NEG] * 4 for _ in range(4)]
    backward[3][3] = Fraction(ell)
    return PtegSystem(
        dynamics=RAILWAY_DYNAMICS,
        backward=TropicalMatrix(backward),
        within=TropicalMatrix.epsilon(4),
    )


@pytest.fixture
def railway():
    return make_railway
