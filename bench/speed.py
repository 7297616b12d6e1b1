"""A fixed pure-Python reference loop that tracks the interpreter's speed.

The benchmark shares its machine with other work, and the speed at which
this interpreter runs drifts by tens of percent within seconds.  Timing this
loop next to every case gives the local speed, and each timing is scaled to
``REFERENCE_NS``, about the time the loop takes on a quiet machine (Python
3.11, 2 GHz x86-64).  The loop mixes the kinds of interpreted work maxplus
does (an integer greatest-walk sweep, Fraction sums and comparisons, JSON
text) and never calls maxplus, so a change to the library cannot move it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_NS = 350_000
_N = 12
_GRID = [[(i * 7 + j * 3) % 11 - 8 for j in range(_N)] for i in range(_N)]
_FRACTIONS = [Fraction(i * 7 % 13 - 6, i % 5 + 1) for i in range(24)]


def reference_ns() -> int:
    """Time of one run of the reference loop, in ns."""
    start = perf_counter_ns()
    d = [row[:] for row in _GRID]
    for k in range(6):
        dk = d[k]
        for i in range(_N):
            di = d[i]
            dik = di[k]
            for j in range(_N):
                v = dik + dk[j]
                if v > di[j]:
                    di[j] = v
    best = _FRACTIONS[0]
    for a in _FRACTIONS:
        for b in _FRACTIONS[:6]:
            s = a + b
            if s > best:
                best = s
    text = json.dumps([[str(x) for x in _FRACTIONS[:12]] for _ in range(4)])
    json.loads(text)
    return perf_counter_ns() - start


def speed_sample() -> int:
    """The median of three runs: one sample of the current speed."""
    return sorted(reference_ns() for _ in range(3))[1]
