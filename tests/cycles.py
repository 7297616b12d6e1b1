"""The three-way consistency criterion, by brute force over simple cycles.

An independent oracle for the verdict of the closure walk (ROADMAP item 2).
It reads rows of plain values and computes in ``fractions.Fraction``, and
it imports nothing from ``maxplus``, so no fault of the library's closure
engine can vouch for itself here.

The system's three blocks give one multigraph on its n events, the
quotient of the unrolling by the occurrence index: entry (i, j) of a block
is an arc j -> i with that weight, and with transit 0 (``within``), +1
(``forward``) or -1 (``backward``), the stages it moves up by.  A cycle
has weight W and transit T, the sums over its arcs.  In each strongly
connected component A, the periods tau with W - tau * T <= 0 on every
cycle form the interval [tau_min_A, tau_max_A]: tau_min_A is the largest
W / T over cycles with T > 0 (-inf if none), tau_max_A the smallest W / T
over cycles with T < 0 (+inf if none).  With A ~> B when B is reachable
from A (A ~> A included), the system is

- not weakly consistent when some component has a zero-transit cycle of
  positive weight, or tau_min_A > tau_max_A for some A;
- consistent when neither holds and tau_min_A <= tau_max_B for every
  A ~> B;
- weakly consistent but not consistent otherwise.

Every simple cycle is listed, with every choice among parallel arcs, so
the cost is exponential in n; :func:`classify` refuses n > 5.
"""

from __future__ import annotations

from itertools import product
from math import inf
from typing import NamedTuple

from certificate import exact

CONSISTENT = "Consistent"
NOT_WEAKLY_CONSISTENT = "NotWeaklyConsistent"
WEAKLY_NOT_CONSISTENT = "WeaklyConsistentNotConsistent"

MAX_SIZE = 5


class Cycle(NamedTuple):
    """A simple cycle: its arcs ``(tail, head, transit)`` in order, W and T."""

    arcs: tuple
    weight: object
    transit: int


class Classification(NamedTuple):
    """The class, each component's [tau_min, tau_max], and the deciding cycles.

    ``intervals`` maps each component, a sorted tuple of events, to its
    interval, with -inf and +inf as floats.  ``witnesses`` holds one
    positive zero-transit cycle, or the two cycles attaining tau_min_A and
    tau_max_B of a crossed pair A ~> B (A = B when not weakly consistent),
    or nothing for a consistent system.
    """

    kind: str
    intervals: dict
    witnesses: tuple


def multigraph(within, backward, forward) -> dict:
    """``{(tail, head): [(transit, weight), ...]}`` for every arc of the blocks."""
    arcs = {}
    for transit, block in ((0, within), (1, forward), (-1, backward)):
        for i, row in enumerate(exact(block)):
            for j, w in enumerate(row):
                if w is not None:
                    arcs.setdefault((j, i), []).append((transit, w))
    return arcs


def components(n: int, arcs: dict) -> list[tuple]:
    """Tarjan's strongly connected components, each a sorted tuple of events."""
    successors = [[h for t, h in arcs if t == v] for v in range(n)]
    index, low, stack, on_stack, found = {}, {}, [], set(), []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in successors[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            members = []
            while not members or members[-1] != v:
                members.append(stack.pop())
                on_stack.discard(members[-1])
            found.append(tuple(sorted(members)))

    for v in range(n):
        if v not in index:
            visit(v)
    return found


def simple_cycles(nodes: tuple, arcs: dict):
    """Every simple cycle inside ``nodes``, once per choice among parallel arcs.

    Each cycle of events is found once, from its least event.
    """
    inside = set(nodes)

    def paths(start, path):
        for (t, h) in arcs:
            if t != path[-1] or h not in inside or h < start:
                continue
            if h == start:
                yield path
            elif h not in path:
                yield from paths(start, path + [h])

    for start in nodes:
        for path in paths(start, [start]):
            steps = list(zip(path, path[1:] + path[:1]))
            for choice in product(*(arcs[step] for step in steps)):
                yield Cycle(
                    tuple((t, h, transit) for (t, h), (transit, _) in zip(steps, choice)),
                    sum(w for _, w in choice),
                    sum(transit for transit, _ in choice),
                )


def classify(within, backward, forward) -> Classification:
    """The class of the system of the three blocks, with its witnesses.

    The blocks are square rows of one size n <= 5, holding ints,
    ``Fraction``s and the float -inf; entry (i, j) weighs an arc from j to i.
    """
    n = len(within)
    if n > MAX_SIZE:
        raise ValueError(f"the cycle oracle is capped at n = {MAX_SIZE}")
    arcs = multigraph(within, backward, forward)
    sccs = components(n, arcs)
    intervals, lowest, highest, positive = {}, {}, {}, None
    for scc in sccs:
        tau_min, tau_max = -inf, inf
        for cycle in simple_cycles(scc, arcs):
            if cycle.transit == 0:
                if cycle.weight > 0 and positive is None:
                    positive = cycle
                continue
            ratio = cycle.weight / cycle.transit
            if cycle.transit > 0 and ratio > tau_min:
                tau_min, lowest[scc] = ratio, cycle
            elif cycle.transit < 0 and ratio < tau_max:
                tau_max, highest[scc] = ratio, cycle
        intervals[scc] = (tau_min, tau_max)
    if positive is not None:
        return Classification(NOT_WEAKLY_CONSISTENT, intervals, (positive,))
    for a in sccs:
        if intervals[a][0] > intervals[a][1]:
            return Classification(
                NOT_WEAKLY_CONSISTENT, intervals, (lowest[a], highest[a])
            )
    reach = reachable(n, arcs)
    for a, b in product(sccs, sccs):
        if a != b and b[0] in reach[a[0]] and intervals[a][0] > intervals[b][1]:
            return Classification(
                WEAKLY_NOT_CONSISTENT, intervals, (lowest[a], highest[b])
            )
    return Classification(CONSISTENT, intervals, ())


def reachable(n: int, arcs: dict) -> list[set]:
    """Per event, the events it reaches along arcs, itself included."""
    reach = [{v} for v in range(n)]
    for _ in range(n):
        for t, h in arcs:
            reach[t] |= reach[h]
    return reach
