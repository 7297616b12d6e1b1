"""An independent checker for the certificate of a Consistent verdict.

It reads rows of plain values and computes in ``fractions.Fraction``, and
it imports nothing from ``maxplus``, so no fault of the library's matrices
or closure engine can vouch for itself here.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf


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

    def exact(rows):  # -inf as None, every other value a Fraction
        return [[None if v == -inf else Fraction(v) for v in row] for row in rows]

    def times(a, b):
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
        return all(
            x is None or (y is not None and x <= y)
            for ra, rb in zip(a, b)
            for x, y in zip(ra, rb)
        )

    p, within, backward, forward = map(exact, (p, within, backward, forward))
    return (
        all(row[i] is not None and row[i] >= 0 for i, row in enumerate(p))
        and below(times(p, p), p)
        and below(within, p)
        and below(times(times(backward, p), forward), p)
    )
