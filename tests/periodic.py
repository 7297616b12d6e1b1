"""Per-event periodic schedules of a consistent system (ROADMAP item 15).

An independent oracle beside :mod:`cycles`: it reads rows of plain values,
computes in ``fractions.Fraction`` and imports nothing from ``maxplus``.

An affine schedule x_i(k) = a_i + (k - 1) * tau_i meets an arc j -> i of
weight w at every occurrence k >= 1 exactly when tau_i >= tau_j and the arc
holds at k = 1:

- a_i - a_j >= w          (within, x_i(k) >= x_j(k) + w);
- a_i - a_j >= w - tau_i  (forward, x_i(k+1) >= x_j(k) + w);
- a_i - a_j >= w + tau_j  (backward, x_i(k) >= x_j(k+1) + w).

The arc's slack at occurrence k is its slack at k = 1 plus (k - 1) * (tau_i -
tau_j), so it never shrinks.  Hence tau is non-decreasing along arcs and
constant on each strongly connected component.  For a consistent system
(:func:`cycles.classify`) take tau_B, on component B, to be the largest
finite tau_min_A over the components A ~> B.  Where there is none, tau_B is a
floor below every finite interval end.  Then tau_B lies in [tau_min_B,
tau_max_B], as tau_min_A <= tau_max_B for every A ~> B, and tau only grows
along arcs.  The k = 1 inequalities are difference constraints, and any
cycle among them stays in one component, where it reads W - tau * T <= 0
for the cycle's weight W and transit T: no cycle is positive, and longest
paths from 0 give a.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from cycles import CONSISTENT, classify, components, multigraph, reachable


def periodic(within, backward, forward) -> tuple[list, list] | None:
    """``(tau, a)``: the schedule x_i(k) = a_i + (k - 1) * tau_i, or None.

    None exactly when :func:`cycles.classify` does not call the system
    consistent.  tau is picked as the module docstring says, and ``a`` is
    the least solution above 0 of the k = 1 inequalities, by Bellman-Ford;
    a cycle still rising after n rounds would contradict the proof there,
    and raises.
    """
    found = classify(within, backward, forward)
    if found.kind != CONSISTENT:
        return None
    n = len(within)
    arcs = multigraph(within, backward, forward)
    reach = reachable(n, arcs)
    ends = [end for pair in found.intervals.values() for end in pair if abs(end) != inf]
    floor = min(ends, default=0) - 1
    tau = [None] * n
    for b in components(n, arcs):
        lows = [found.intervals[a][0] for a in found.intervals if b[0] in reach[a[0]]]
        period = Fraction(max((low for low in lows if low != -inf), default=floor))
        for i in b:
            tau[i] = period
    constraints = [
        (tail, head, w - (transit == 1) * tau[head] + (transit == -1) * tau[tail])
        for (tail, head), parallel in arcs.items()
        for transit, w in parallel
    ]
    a = [Fraction(0)] * n
    for _ in range(n + 1):
        rose = False
        for tail, head, w in constraints:
            if a[tail] + w > a[head]:
                a[head], rose = a[tail] + w, True
        if not rose:
            return tau, a
    raise AssertionError("a positive cycle among the k = 1 constraints")


def unrolled(tau, a, stages: int) -> list[list]:
    """The states x(1..stages) of the schedule x_i(k) = a_i + (k - 1) * tau_i."""
    return [[a_i + k * tau_i for tau_i, a_i in zip(tau, a)] for k in range(stages)]
