"""Fully actuated P-time event graphs and their unrolled precedence graphs.

A precedence system asks for a real vector x with ``x >= A @ x``; entry
(i, j) of A is the weight of an arc from node j to node i in the precedence
graph.  A :class:`PtegSystem` is stage-structured (one copy of the events
per occurrence index): its three square blocks unroll into a block
tridiagonal matrix over any finite horizon.  The closure recurrence of
:func:`_closures` eliminates that matrix stage by stage, so feasibility and
the graph export work on the blocks alone, never on the unrolled matrix.
The three blocks are stored at one common scale, so the recurrence runs on
``int`` entries and never rescales an operand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .matrix import DimensionMismatch, TropicalMatrix, aligned
from .semiring import NEG_INF, format_scalar


@dataclass(frozen=True)
class PtegSystem:
    """A fully actuated P-time event graph: four square blocks free of +inf.

    The plant is ``x(k+1) = dynamics @ x(k) oplus u(k)`` with one free input
    per event, so ``dynamics`` only adds arcs from stage k to stage k+1.
    ``within`` weights arcs inside one stage, ``backward`` arcs from stage
    k+1 back to stage k, and ``extra_forward`` user constraints from stage k
    to stage k+1 (None means none).  ``forward = dynamics oplus
    extra_forward`` is built on construction and is not a field, so it takes
    no part in ``==`` or ``hash``.  Construction makes the one shape and +inf
    check on ``within``, ``backward`` and ``forward``, and stores those three
    at the LCM of their scales (see :func:`~maxplus.matrix.aligned`); their
    values are the ones given.
    """

    dynamics: TropicalMatrix
    backward: TropicalMatrix
    within: TropicalMatrix
    extra_forward: TropicalMatrix | None = None

    def __post_init__(self):
        if self.extra_forward is None:
            no_extra = TropicalMatrix.epsilon(self.dynamics.rows)
            object.__setattr__(self, "extra_forward", no_extra)
        # forward has every +inf of its two terms, and ``+`` rejects a shape clash
        blocks = (self.within, self.backward, self.dynamics + self.extra_forward)
        if len({b.shape for b in blocks}) != 1 or not self.within.is_square:
            raise DimensionMismatch(
                "within/backward/forward blocks must share one square shape"
            )
        if not all(block.rmax_valued for block in blocks):
            raise ValueError("+inf is not a legal constraint weight")
        for name, block in zip(("within", "backward", "forward"), aligned(*blocks)):
            object.__setattr__(self, name, block)

    @property
    def size(self) -> int:
        return self.within.rows

    def block_spec(self) -> PtegSystem:
        """The system itself: the benchmark's cases still ask for it by this name."""
        return self


def build_block_matrix(system: PtegSystem, horizon: int) -> TropicalMatrix:
    """Unroll ``horizon`` stages into one block tridiagonal matrix.

    The within block sits on the diagonal, the backward block on the
    superdiagonal and the forward block on the subdiagonal; everything
    else is -inf.  The leading (horizon-1) stages of the result coincide
    with the unrolling one stage shorter.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    eps = TropicalMatrix.epsilon(system.size)
    grid = []
    for i in range(horizon):
        row = []
        for j in range(horizon):
            if i == j:
                row.append(system.within)
            elif j == i + 1:
                row.append(system.backward)
            elif j == i - 1:
                row.append(system.forward)
            else:
                row.append(eps)
        grid.append(row)
    return TropicalMatrix.from_blocks(grid)


def _next_closure(system: PtegSystem, current: TropicalMatrix) -> TropicalMatrix:
    nxt = (system.backward @ current @ system.forward + system.within).star()
    if not current <= nxt:
        raise RuntimeError("closure sequence lost monotonicity")
    return nxt


def _closures(system: PtegSystem) -> Iterator[tuple[int, TropicalMatrix, bool]]:
    """Yield ``(k, closure_k, fixed)`` for k = 0, 1, 2, ... without end.

    Closure 0 is the star of the within block and closure k+1 the star of
    ``backward @ closure_k @ forward oplus within``: eliminating the last
    stage of a block tridiagonal unrolling, one stage at a time.  Closure k
    is the stage-1 corner of the star of the (k+1)-stage unrolling.  A path
    leaving stage 1 enters stage 2 by a forward arc and returns by a
    backward arc, and in between it is a path of stages 2..k+1, whose best
    weights are closure k-1 because every stage carries the same blocks.

    ``fixed`` is True once closure k equals closure k-1.  The recurrence is
    deterministic, so that closure is a fixed point: it is yielded for every
    later index without being computed again.  Entries saturated to +inf
    do not stop the sequence; callers decide when to stop.
    """
    current = system.within.star()
    yield 0, current, False
    for k in itertools.count(1):
        nxt = _next_closure(system, current)
        if nxt == current:
            for j in itertools.count(k):
                yield j, current, True
        yield k, nxt, False
        current = nxt


def _stopping_closure(
    system: PtegSystem, last: int
) -> tuple[int, TropicalMatrix, bool]:
    """``(k, closure_k, fixed)`` at the first +inf, first repeat or k = ``last``.

    Past a +inf or a repeat nothing changes: +inf entries stay saturated
    and a repeated closure is a fixed point.
    """
    for k, closure, fixed in _closures(system):
        if fixed or k == last or not closure.rmax_valued:
            return k, closure, fixed


def finite_weak_feasibility(system: PtegSystem, horizon: int) -> bool:
    """Exact feasibility certificate for one finite horizon.

    True iff the unrolled precedence graph over ``horizon`` stages has no
    positive-weight circuit, i.e. arbitrarily scheduled real solutions over
    these stages exist.  The answer is antitone in the horizon: once false,
    it stays false for every longer horizon.

    Decided as "closure ``horizon - 1`` is free of +inf" in
    O(horizon * n^3), without unrolling.  That closure is the stage-1
    corner of the star of the unrolling (see :func:`_closures`), so a +inf
    entry in it comes from a positive circuit.  Conversely, take a positive
    circuit on stages s..t of the unrolling.  Every stage carries the same
    blocks, so moving it s-1 stages down gives a positive circuit on stages
    1..t-s+1, through some event v of stage 1; pumping it makes entry
    (v, v) of the corner +inf.  The closures only grow and a repeated
    closure is a fixed point, so the first +inf answers False and the first
    repeat answers True.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    return _stopping_closure(system, horizon - 1)[1].rmax_valued


def export_dot(system: PtegSystem, horizon: int) -> str:
    """Render the unrolled precedence graph as deterministic DOT text.

    Nodes are labelled ``x_i(k)`` and ordered stage-major, arcs are ordered
    by (source, target) node index; identical inputs give identical bytes.
    Arcs leaving stage k reach stage k-1 (backward block), k (within) and
    k+1 (forward), read in that order straight from the blocks, so the cost
    is O(horizon * n^2) and the unrolled matrix is never built.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    n = system.size
    lines = ["digraph precedence {", "  rankdir=LR;"]
    for stage in range(1, horizon + 1):
        for i in range(1, n + 1):
            lines.append(f'  x{i}_{stage} [label="x_{i}({stage})"];')
    for stage in range(1, horizon + 1):
        reach = [
            (target, block.to_rows())
            for target, block in (
                (stage - 1, system.backward),
                (stage, system.within),
                (stage + 1, system.forward),
            )
            if 1 <= target <= horizon
        ]
        for j in range(n):
            for target, rows in reach:
                for i in range(n):
                    w = rows[i][j]
                    if w == NEG_INF:
                        continue
                    lines.append(
                        f'  x{j + 1}_{stage} -> x{i + 1}_{target}'
                        f' [label="{format_scalar(w)}"];'
                    )
    lines.append("}")
    return "\n".join(lines) + "\n"
