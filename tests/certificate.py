"""Independent checkers for a Consistent verdict's certificate and a schedule.

They read rows of plain values and compute in ``fractions.Fraction``, and
they import nothing from ``maxplus``, so no fault of the library's matrices,
closure engine or schedule synthesis can vouch for itself here.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf


def exact(rows):
    """``rows`` with -inf as None and every other value a Fraction."""
    return [[None if v == -inf else Fraction(v) for v in row] for row in rows]


def times(a, b):
    """The max-plus product of two exact row matrices."""
    return [
        [
            max(
                (x + b[t][j] for t, x in enumerate(row)
                 if x is not None and b[t][j] is not None),
                default=None,
            )
            for j in range(len(b[0]))
        ]
        for row in a
    ]


def below(a, b):
    """Entrywise ``a <= b`` of two exact row matrices, None the least."""
    return all(
        x is None or (y is not None and x <= y)
        for ra, rb in zip(a, b)
        for x, y in zip(ra, rb)
    )


def certifies_consistency(p, within, backward, forward) -> bool:
    """True when ``p`` proves that the system of the three blocks is consistent.

    All four are square rows of one size, holding ints, ``Fraction``s and
    the floats -inf and +inf; entry (i, j) weighs an arc from j to i.  ``p``
    must be free of +inf, have a diagonal of at least 0, and satisfy ``p @ p
    <= p``, ``p >= within`` and ``p >= backward @ p @ forward``, products and
    order taken in the max-plus sense.

    Why that suffices (ROADMAP item 12): x = p @ 0 is finite and x >= p @ x.
    For any such x take y = p @ (forward @ x oplus (x - t)).  Then y >= p @
    y, y >= within @ y and y >= forward @ x.  Also backward @ p @ forward @
    x <= p @ x <= x, and backward @ p @ x - t <= x once t is large enough,
    so x >= backward @ y.  Repeating from y builds an infinite schedule.
    """
    if any(v == inf for row in p for v in row):
        return False
    p, within, backward, forward = map(exact, (p, within, backward, forward))
    return (
        all(row[i] is not None and row[i] >= 0 for i, row in enumerate(p))
        and below(times(p, p), p)
        and below(within, p)
        and below(times(times(backward, p), forward), p)
    )


def certifies_schedule(states, within, backward, forward) -> bool:
    """True when the rows ``states``, x(1..K), are a finite schedule of the system.

    The blocks are as for :func:`certifies_consistency`; each state is a
    row of n finite values.  Each x(k) must satisfy ``within @ x(k) <=
    x(k)``, and each consecutive pair ``backward @ x(k+1) <= x(k)`` and
    ``forward @ x(k) <= x(k+1)``, products and order in the max-plus sense.
    """
    if any(len(row) != len(within) or inf in row or -inf in row for row in states):
        return False
    within, backward, forward = map(exact, (within, backward, forward))
    columns = [[[v] for v in row] for row in exact(states)]
    return all(below(times(within, x), x) for x in columns) and all(
        below(times(backward, y), x) and below(times(forward, x), y)
        for x, y in zip(columns, columns[1:])
    )


def certifies_periodic(tau, a, within, backward, forward) -> bool:
    """True when x_i(k) = a_i + (k - 1) * tau_i, k >= 1, is an infinite schedule.

    The blocks are as for :func:`certifies_consistency`; ``tau`` and ``a``
    are n finite values.  Every finite weight w of an arc j -> i needs
    tau_i >= tau_j and the arc's inequality at k = 1: ``a_i >= a_j + w``
    (within), ``a_i + tau_i >= a_j + w`` (forward) and ``a_i >= a_j + tau_j
    + w`` (backward).  At occurrence k the arc's slack is its slack at k =
    1 plus (k - 1) * (tau_i - tau_j), so these O(n^2) checks certify every
    occurrence (ROADMAP item 12, second form).
    """
    n = len(within)
    if len(tau) != n or len(a) != n or any(abs(v) == inf for v in (*tau, *a)):
        return False
    tau, a = [Fraction(v) for v in tau], [Fraction(v) for v in a]
    return all(
        tau[i] >= tau[j] and a[i] + ahead * tau[i] >= a[j] + behind * tau[j] + w
        for block, ahead, behind in ((within, 0, 0), (forward, 1, 0), (backward, 0, 1))
        for i, row in enumerate(exact(block))
        for j, w in enumerate(row)
        if w is not None
    )


def extends(blocks, x, y, stages) -> bool:
    """True when real states x and y (unless None) start a schedule of ``stages`` states.

    ``blocks`` is ``(within, backward, forward)``, as for
    :func:`certifies_schedule`.  Stage 1 is fixed to x, and stage 2 to y
    or, with y None, left free; ``stages`` is at least the number of fixed
    stages.  Each finite weight w is a difference constraint of the
    unrolling, ``x_i(k) >= x_j(l) + w``.  Longest paths from the fixed
    values (Bellman-Ford, every free value starting at -inf) give the
    least values the free stages can take.  The schedule fails to exist
    when those paths raise a fixed value, or when they still rise after as
    many rounds as there are free values: a positive cycle.  A value left
    at -inf can be any low enough real.  A positive cycle among values no
    path reaches has a copy through stage 1, as every stage carries the
    same blocks, so it raises a fixed value.
    """
    within, backward, forward = map(exact, blocks)
    n = len(within)
    arcs = [
        (k * n + i, l * n + j, w)
        for k in range(stages)
        for block, l in ((within, k), (backward, k + 1), (forward, k - 1))
        if 0 <= l < stages
        for i, row in enumerate(block)
        for j, w in enumerate(row)
        if w is not None
    ]
    value = [Fraction(v) for v in (*x, *(() if y is None else y))]
    fixed = len(value)
    value += [None] * (n * stages - fixed)
    for _ in range(n * stages - fixed + 1):
        rose = False
        for target, source, w in arcs:
            if value[source] is None:
                continue
            reached = value[source] + w
            if value[target] is None or reached > value[target]:
                if target < fixed:
                    return False
                value[target], rose = reached, True
        if not rose:
            return True
    return False
