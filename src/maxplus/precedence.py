"""Fully actuated P-time event graphs and their unrolled precedence graphs.

A precedence system asks for a real vector x with ``x >= A @ x``; entry
(i, j) of A is the weight of an arc from node j to node i in the precedence
graph.  A :class:`PtegSystem` is stage-structured (one copy of the events
per occurrence index): its three square blocks unroll into a block
tridiagonal matrix over any finite horizon.  The closure recurrence of
:func:`_closures` eliminates that matrix stage by stage, so feasibility and
the graph export work on the blocks alone, never on the unrolled matrix.
The first step of a walk, ``(backward @ closure @ forward oplus within)*``,
stars the grid of one :func:`~maxplus.matrix._triple_product` in place.  The
closures only grow, so each later step re-closes the last closure over the
arcs that the entries it grew by add (:func:`~maxplus.matrix._grown_arcs`): a
step that adds no arc above it costs no star, and Floyd-Warshall pivots
only over the tails of the new arcs.  Where the recurrence first stops (a
+inf entry or a repeat) is found by :func:`_stopping_closure` in O(log k)
compositions of boundary segments, whole stretches of the unrolling
eliminated down to their first and last stage, once a short walk has not
stopped; its joins re-close known closures too.  Its probes make no
closure step: each builds one closure by a join and tells from the arcs a
step would add whether the next closure repeats it.  The three blocks are
stored at one common scale, so the recurrence runs on ``int`` entries and
never rescales an operand.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

from .matrix import DimensionMismatch, TropicalMatrix, aligned
from .matrix import _close_over, _grown_arcs, _star, _texts, _triple_product, _wrapped
from .semiring import _Record


class PtegSystem(_Record):
    """A fully actuated P-time event graph: four square blocks free of +inf.

    The plant is ``x(k+1) = dynamics @ x(k) oplus u(k)`` with one free input
    per event, so ``dynamics`` only adds arcs from stage k to stage k+1.
    ``within`` weights arcs inside one stage, ``backward`` arcs from stage
    k+1 back to stage k, and ``extra_forward`` user constraints from stage k
    to stage k+1 (None means none).  ``forward = dynamics oplus
    extra_forward`` is built on construction and is not a field, so it takes
    no part in ``==`` or ``hash``.  Construction makes the one shape and +inf
    check on ``within``, ``backward`` and ``forward``, and stores those three
    at the LCM of their scales (:func:`~maxplus.matrix.aligned`), values
    unchanged: the system's scale, which its closures and segments inherit.
    """

    dynamics: TropicalMatrix
    backward: TropicalMatrix
    within: TropicalMatrix
    extra_forward: TropicalMatrix

    def __init__(self, dynamics, backward, within, extra_forward=None):
        if extra_forward is None:
            extra_forward = TropicalMatrix.epsilon(dynamics.rows)
        # forward has every +inf of its two terms, and ``+`` rejects a shape clash
        blocks = (within, backward, dynamics + extra_forward)
        if len({b.shape for b in blocks}) != 1 or not within.is_square:
            raise DimensionMismatch(
                "within/backward/forward blocks must share one square shape"
            )
        if not all(block.rmax_valued for block in blocks):
            raise ValueError("+inf is not a legal constraint weight")
        within, backward, forward = aligned(*blocks)
        self.__dict__.update(
            dynamics=dynamics, backward=backward, within=within,
            extra_forward=extra_forward, forward=forward,
        )

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
    if operator.index(horizon) < 1:
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


def _next_closure(
    system: PtegSystem,
    current: TropicalMatrix,
    *,
    previous: TropicalMatrix | None = None,
) -> TropicalMatrix:
    """Closure k+1, ``(backward @ current @ forward oplus within)*``.

    ``current`` is closure k; ``previous``, if given, is a closure C_i, i <
    k (C_{k-1} in the walk; on the first step after the search, the closure
    the last probe that moved the start jumped from).
    With no ``previous``, or +inf in ``current``, the step stars in place
    the grid of :func:`~maxplus.matrix._triple_product`.  Otherwise it re-closes
    ``current`` over what it grew by (:func:`~maxplus.matrix._grown_arcs`),
    using C_{k+1} = (C_k oplus backward @ delta @ forward)*, where delta
    holds the entries in which C_k exceeds C_i.

    Proof.  Write M_k = backward @ C_k @ forward oplus within, so C_k =
    M_{k-1}*.  The closures only grow, so C_k = C_i oplus delta, and since
    the product distributes over oplus, M_k = M_i oplus backward @ delta @
    forward.  Now M_i <= C_{i+1} <= C_k, so M_k <= C_k oplus backward @
    delta @ forward, and both terms lie below M_k*: C_k = M_{k-1}* <= M_k*.
    So that matrix lies between M_k and its star, and its star is C_{k+1}.
    ``previous`` may not be ``current`` itself: with i = k, delta is empty
    and the step would return C_k.  C_k is a star free of +inf, re-closed
    over the new arcs above it (:func:`~maxplus.matrix._close_over`).

    A first step could re-close too, with delta all of C_k, but then E is
    nearly dense and building C_k @ E costs more than the pivots it
    saves: on the consistency corpus that ran about 40% slower than
    the full star (BENCH_delta_closure.json, ``first_step_ms``).

    The result is ``current`` itself exactly when closure k+1 equals closure
    k: the full star's is compared once, and a re-closing over no arc
    returns ``current`` (an arc lifts the entry under it).  So a repeat is
    one object, tested with ``is``.  Any other result must lie above
    ``current``; a shrinking sequence is an internal error.
    """
    if previous is not None and current.rmax_valued:
        nxt = _close_over(current, _grown_arcs(current, previous, system.backward, system.forward))
    else:
        blocks = system.backward, current, system.forward, system.within
        nxt = _star(*_triple_product(*blocks)[1:])
        if nxt == current:
            return current
    if nxt is not current and not current <= nxt:
        raise RuntimeError("closure sequence lost monotonicity")
    return nxt


def _closures(system: PtegSystem) -> Iterator[TropicalMatrix]:
    """Yield closure 0, 1, 2, ... up to the first repeat.

    Closure 0 is the star of the within block and closure k+1 the star of
    ``backward @ closure_k @ forward oplus within``: eliminating the last
    stage of a block tridiagonal unrolling, one stage at a time.  Closure k
    is the stage-1 corner of the star of the (k+1)-stage unrolling.  A path
    leaving stage 1 enters stage 2 by a forward arc and returns by a
    backward arc, and in between it is a path of stages 2..k+1, whose best
    weights are closure k-1 because every stage carries the same blocks.

    The closures only grow, so after the first step each step is handed
    its predecessor too and re-closes only what the last step grew (see
    :func:`_next_closure` for the proof): C_{k-1} <= C_k <= C_{k+1} gives
    C_{k+1} = (C_k oplus backward @ delta @ forward)*, with delta the
    entries in which C_k exceeds C_{k-1}.

    A repeat is the one object :func:`_next_closure` returns for it, so the
    stream ends there, as the walk of :func:`_stopping_closure` does: the
    recurrence is deterministic, so the last closure yielded is a fixed
    point and stands for every later index.  Entries saturated to +inf do
    not end the stream, but a +inf closure that repeats does.
    """
    previous, current = None, system.within.star()
    while current is not previous:
        yield current
        previous, current = current, _next_closure(system, current, previous=previous)


# Closure steps walked before the search takes over; at least 1.  Most
# stops come early and cost no search set-up.  On the railway (n = 4) a stop
# up to about 80 indices past the budget costs more to search for than to
# walk to, up to 1.7 times as much at 4-19 past it, and one from about 90
# past it on less (BENCH_probe_repeat_test.json).  The step-count tests pin it.
_WALK_BUDGET = 32


def _unit_segment(system: PtegSystem) -> tuple:
    """S_1 = (W*, W* @ backward, forward @ W*, forward @ W* @ backward), W = within."""
    w = system.within.star()
    back = w @ system.backward
    return w, back, system.forward @ w, system.forward @ back


def _join(a: tuple, closure: TropicalMatrix) -> tuple:
    """``(ff, back_j, j)``: segment ``a`` joined to a stretch known by ``closure``.

    ``closure`` is the stretch's corner at its first stage, entered from a's
    last stage by a forward arc and left back by a backward arc, so ``j =
    (closure oplus a.around)*`` is the corner there once a is joined in
    front; when the star ``closure`` and ``around`` are free of +inf, j
    re-closes ``closure`` (``_close_over``).  ``back_j = a.back @ j`` leads
    from there into a's first stage, and ``ff = a.ff oplus back_j @ a.ahead``
    is the corner at a's first stage: both come from one
    :func:`~maxplus.matrix._triple_product`.  Every matrix here has the
    system's scale.  With a = S_p and closure k, ff is closure k+p.
    """
    a_ff, a_back, a_ahead, a_around = a
    if closure.rmax_valued and a_around.rmax_valued:
        rows = enumerate(zip(a_around._arcs(), closure._data))
        above = {(i, t): w for i, (arcs, ci) in rows for t, w in arcs if w > ci[t]}
        j = _close_over(closure, above)
    else:
        j = (closure + a_around).star()
    back_j, ff, scale = _triple_product(a_back, j, a_ahead, a_ff)
    return _wrapped(ff, scale), _wrapped(back_j, scale), j


def _compose(a: tuple, b: tuple) -> tuple:
    """S_(a+b) from S_a followed by S_b, eliminating the two junction stages.

    Write f and l for the first and last stage of the K-stage unrolling,
    and ff, fl, lf, ll for the corners of its star between them (row =
    target, column = source).  The segment S_K = (ff, back, ahead, around)
    holds ff, which is closure K-1, ``back = fl @ backward`` (into f from
    the stage after l), ``ahead = forward @ lf`` (from f into that stage)
    and ``around = forward @ ll @ backward`` (from that stage back to
    itself through l).

    Between crossings of the junction a path runs inside a or inside b, so
    :func:`_join` of a and b's ff gives the ff of the result and the corner
    j at b's first stage, and the other parts split the same way: the
    corners of a star absorb each other (``fl @ ll = fl``, ``fl @ lf <=
    ff``), +inf entries included.  ``b.ahead @ j`` and the around ``b.around
    oplus b.ahead @ j @ b.back`` come from one triple product.
    """
    b_ff, b_back, b_ahead, b_around = b
    ff, back_j, j = _join(a, b_ff)
    ahead_j, around, scale = _triple_product(b_ahead, j, b_back, b_around)
    return ff, back_j @ b_back, _wrapped(ahead_j, scale) @ a[2], _wrapped(around, scale)


def _search_start(
    system: PtegSystem, k: int, closure: TropicalMatrix, last: int
) -> tuple[int, TropicalMatrix, TropicalMatrix | None]:
    """``(k', closure_k', previous)``, k' >= k: no stop up to k', one by k' + 2.

    The stop is the least index i with f(i), "closure i holds +inf, or
    i >= 1 and closure i repeats closure i-1", or ``last`` if that is smaller;
    there is none up to ``k``.  f is monotone: closures only grow, so +inf
    stays, and a repeated closure is a fixed point of the recurrence.  So
    the stop can be searched for.  S_p composed in front of S_(k+1) has
    closure k+p as its ff, and only closure k, the ff of S_(k+1), enters it
    (see :func:`_join`).  A probe builds that closure by the join and then
    decides, without building closure k+p+1, whether it repeats:
    it does exactly when no arc of ``backward @ delta @ forward`` lies
    above closure k+p, with delta the entries in which closure k+p exceeds
    closure k (:func:`~maxplus.matrix._grown_arcs`).

    Proof.  Write C_i for closure i and M_i = backward @ C_i @ forward oplus
    within, so C_(i+1) = M_i*.  As in :func:`_next_closure`, M_(k+p) = M_k
    oplus backward @ delta @ forward, M_k <= C_(k+1) <= C_(k+p) as p >= 1,
    and C_(k+p) = M_(k+p-1)* <= M_(k+p)* as the closures grow.  If no arc of
    ``backward @ delta @ forward`` lies above C_(k+p), then M_(k+p) <=
    C_(k+p) <= M_(k+p)*; starring all three, C_(k+p) being a star, gives
    C_(k+p+1) = C_(k+p).  If one arc lies above it, C_(k+p+1) >= M_(k+p)
    is at least that arc's weight there, so it differs from C_(k+p).

    A probe with p either shows a stop by k+p (+inf in closure k+p) or by
    k+p+1 (a repeat), or moves the start p on: closure k+p is free of +inf,
    and closure k+p+1 does not repeat it, so nothing stops up to k+p.
    The loop probes at level i of ``powers``, p = 2^i, when k+p < hi, a
    stop lying by hi.  While i is the top level and each probe moves the
    start, it brackets the stop, doubling S_p to a new top level when k+2p
    < hi; any other probe, or k+p >= hi, steps down a level.  So the
    smaller powers, largest first, shrink the bracket, which holds at most
    2p+1 indices past the start before a probe with p and at most p+1
    after it; the walk on from the return after level 0 takes at most two
    steps.  A probe costs one re-closing of closure k over the arcs of
    S_p's around, one triple product and one collection of arcs; it runs no
    closure step and builds no matrix but closure k+p and the join's
    ``back_j``.  ``previous`` is the closure the last probe that moved the
    start jumped from, closure k' - p for that probe's p (None if no probe
    moved it), so the walk on from k' re-closes from its first step (see
    :func:`_next_closure`).
    """
    powers = [_unit_segment(system)]  # S_(2^i)
    hi, previous, i = last, None, 0  # a stop lies by hi
    while i >= 0:
        p = 1 << i
        if k + p < hi:
            jumped = _join(powers[i], closure)[0]  # closure k+p
            if not jumped.rmax_valued:
                hi = k + p
            elif not _grown_arcs(jumped, closure, system.backward, system.forward):
                hi = k + p + 1  # closure k+p+1 repeats closure k+p
            else:
                k, closure, previous = k + p, jumped, closure
                if i == len(powers) - 1:  # bracketing: stay at the top level
                    if k + 2 * p < hi:
                        powers.append(_compose(powers[i], powers[i]))
                        i += 1
                    continue
        i -= 1
    return k, closure, previous


def _stopping_closure(
    system: PtegSystem, last: int
) -> tuple[int, TropicalMatrix, bool]:
    """``(k, closure_k, fixed)`` at the first +inf, first repeat or k = ``last``.

    Past a +inf or a repeat nothing changes: +inf entries stay saturated
    and a repeated closure is a fixed point.  One loop steps the closures
    as :func:`_closures` does; a step that returns its input is a repeat.
    At index ``_WALK_BUDGET`` the search (see :func:`_search_start`)
    replaces the loop's state, finding a later stop in O(log k) probes and
    segment compositions, each a re-closing and a few products of n x n
    blocks, and the loop steps on at most two indices, so the triple is
    the one the walk alone returns.  ``last`` may be ``math.inf``.
    """
    k, closure, previous = 0, system.within.star(), None
    while k != last and closure.rmax_valued:
        if k == _WALK_BUDGET:
            k, closure, previous = _search_start(system, k, closure, last)
        nxt = _next_closure(system, closure, previous=previous)
        if nxt is closure:
            return k + 1, closure, True
        k, closure, previous = k + 1, nxt, closure
    return k, closure, False


def finite_weak_feasibility(system: PtegSystem, horizon: int) -> bool:
    """Exact feasibility certificate for one finite horizon.

    True iff the unrolled precedence graph over ``horizon`` stages has no
    positive-weight circuit, i.e. arbitrarily scheduled real solutions over
    these stages exist.  The answer is antitone in the horizon: once false,
    it stays false for every longer horizon.

    Decided as "closure ``horizon - 1`` is free of +inf" with O(log
    horizon) n x n stars and products (see :func:`_stopping_closure`),
    without unrolling.  That closure is the stage-1
    corner of the star of the unrolling (see :func:`_closures`), so a +inf
    entry in it comes from a positive circuit.  Conversely, take a positive
    circuit on stages s..t of the unrolling.  Every stage carries the same
    blocks, so moving it s-1 stages down gives a positive circuit on stages
    1..t-s+1, through some event v of stage 1; pumping it makes entry
    (v, v) of the corner +inf.  The closures only grow and a repeated
    closure is a fixed point, so the first +inf answers False and the first
    repeat answers True.
    """
    if operator.index(horizon) < 1:
        raise ValueError("horizon must be at least 1")
    return _stopping_closure(system, horizon - 1)[1].rmax_valued


def export_dot(system: PtegSystem, horizon: int) -> str:
    """Render the unrolled precedence graph as deterministic DOT text.

    Nodes are labelled ``x_i(k)`` and ordered stage-major, arcs are ordered
    by (source, target) node index; identical inputs give identical bytes.
    Arcs leaving stage k reach stage k-1 (backward block), k (within) and
    k+1 (forward), read in that order straight from the blocks, so the
    unrolled matrix is never built.  Every stage carries the same blocks,
    so each block's arcs are read, and each label formatted, once: the text
    of a first, an interior and a last stage is built once, with marker
    characters for k-1, k and k+1 that each stage fills in by ``replace``.
    """
    horizon = operator.index(horizon)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    blocks = (system.backward, system.within, system.forward)
    stored = (v for block in blocks for row in block._data for v in row)
    texts = _texts(system.within._scale, stored)  # the blocks share one scale
    # per block, per source event j: its arc lines, "\0\1\2" for k-1, k, k+1
    back, within, ahead = (
        [
            "".join(f'  x{j}_\1 -> x{i + 1}_{to} [label="{texts[v]}"];\n' for i, v in arcs)
            for j, arcs in enumerate(block._column_arcs(), 1)
        ]
        for block, to in zip(blocks, "\0\1\2")
    )

    def stage(*parts):  # one stage's arcs, source by source
        return "".join(map("".join, zip(*parts)))

    if horizon == 1:
        stages = [stage(within)]
    else:
        inner = [stage(back, within, ahead)] * (horizon - 2)
        stages = [stage(within, ahead), *inner, stage(back, within)]
    n = system.size
    nodes = "".join(f'  x{i}_\1 [label="x_{i}(\1)"];\n' for i in range(1, n + 1))
    text = ["digraph precedence {\n  rankdir=LR;\n"]
    text += [nodes.replace("\1", str(k)) for k in range(1, horizon + 1)]
    for k, arcs in enumerate(stages, 1):
        arcs = arcs.replace("\0", str(k - 1)).replace("\2", str(k + 1))
        text.append(arcs.replace("\1", str(k)))
    return "".join(text) + "}\n"
