"""Consistency analysis of time-window constrained, fully actuated systems.

The plant is ``x(k+1) = dynamics @ x(k) oplus u(k)`` with one free input per
component.  The schedule must additionally satisfy, for every occurrence
index k, the three inequality families of a P-time event graph::

    x(k)   >= backward @ x(k+1)
    x(k)   >= within   @ x(k)
    x(k+1) >= forward  @ x(k)        (forward = dynamics oplus extra_forward)

Every analysis takes the :class:`~maxplus.precedence.PtegSystem` holding
these blocks.  The system is *consistent* when one infinite real schedule
satisfies all of them, and *weakly consistent* when arbitrarily long finite
schedules exist.  Consistency is decided exactly through the growing-horizon
closure sequence; weak consistency beyond a configurable probe bound is
reported as open, never guessed.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from enum import Enum
from functools import cached_property

from .matrix import DimensionMismatch, TropicalMatrix, _apply, aligned

# The closure step is bound here too: per-step hooks, such as the tracing in
# bench/, look it up as ``pteg._next_closure``.
from .precedence import PtegSystem, _closures, _next_closure, _stopping_closure
from .semiring import Scalar, _Record, as_scalar, is_finite


class InfeasibleHorizon(Exception):
    """No finite schedule of the requested length exists.

    The constraint closure blows up to +inf, so no schedule of this length
    exists at all.  That is the one case: ``reason``, a class attribute,
    names it ``"divergent"`` for the CLI's ``infeasible (divergent)`` line.
    """

    reason = "divergent"


class ConsistencyKind(Enum):
    CONSISTENT = "Consistent"
    NOT_CONSISTENT_WEAK_OPEN = "NotConsistentWeakOpen"
    NOT_WEAKLY_CONSISTENT = "NotWeaklyConsistent"


class ConsistencyVerdict(_Record):
    """Outcome of :func:`check_consistency` with its certificate.

    Exactly one certificate field is set, matching ``kind``:

    - CONSISTENT: ``fixed_closure`` is the stabilized closure matrix, valid
      for every longer horizon.
    - NOT_WEAKLY_CONSISTENT: ``first_divergent`` is the least closure index
      containing +inf.
    - NOT_CONSISTENT_WEAK_OPEN: ``verified_up_to`` is P (:func:`closure_limit`),
      a true lower bound: all closures up to P + 2 are finite and none
      repeated, so weak consistency remains undecided beyond the bound.
    """

    kind: ConsistencyKind
    fixed_closure: TropicalMatrix | None
    first_divergent: int | None
    verified_up_to: int | None

    def __init__(
        self, kind, fixed_closure=None, first_divergent=None, verified_up_to=None
    ):
        self.__dict__.update(
            kind=kind, fixed_closure=fixed_closure,
            first_divergent=first_divergent, verified_up_to=verified_up_to,
        )


def closure_sequence(system: PtegSystem, k_max: int) -> list[TropicalMatrix]:
    """The growing-horizon constraint closures, indices 0 to ``k_max``.

    Closure 0 is the star of the within block; closure k+1 is the star of
    ``backward @ closure_k @ forward oplus within``.  Closure k collects every
    constraint induced between the events of one occurrence by looking k
    further occurrences ahead.  The sequence grows monotonically, and +inf
    entries stay.  The stream of :func:`~maxplus.precedence._closures` ends
    at its first repeat; that fixed closure, one object, pads the list.
    """
    k_max = operator.index(k_max)
    if k_max < 0:
        raise ValueError("closure count must be non-negative")
    closures = list(itertools.islice(_closures(system), k_max + 1))
    return closures + closures[-1:] * (k_max + 1 - len(closures))


def closure_limit(size: int, probe_bound: int | None) -> int:
    """P: ``probe_bound`` (default ``10 * n^2``), at least n^2 + 1.

    The one walk limit: :func:`_stop` searches closures up to P + 2, the
    closure that decides shrink step P.
    """
    probe = 10 * size * size if probe_bound is None else operator.index(probe_bound)
    if probe < 1:
        raise ValueError("probe bound must be positive")
    return max(probe, size * size + 1)


def _stop(system: PtegSystem, probe_bound: int | None) -> tuple:
    """``(k, closure_k, fixed, P)``: the first +inf, first repeat or k = P + 2.

    P is :func:`closure_limit`.  Both :func:`check_consistency` and
    :func:`~maxplus.invariance.iterate_shrink` only relabel this stop.
    """
    limit = closure_limit(system.size, probe_bound)
    return (*_stopping_closure(system, limit + 2), limit)


def check_consistency(
    system: PtegSystem, probe_bound: int | None = None
) -> ConsistencyVerdict:
    """Decide consistency exactly; probe weak consistency up to a bound.

    The closure sequence is walked until an entry saturates to +inf, a
    closure repeats its predecessor, or the index reaches P + 2, P =
    :func:`closure_limit` of ``probe_bound`` (see :func:`_stop`).  A +inf
    entry disproves weak consistency.  A finite repeat proves consistency
    at any index, and the fixed closure persists for all longer horizons.
    Otherwise the verdict reports P, a true lower bound on how far
    finiteness was verified, instead of guessing.  A stop past closure 32
    costs O(log k) segment compositions, not k steps (see
    :func:`~maxplus.precedence._stopping_closure`), so a first +inf at
    k = 200001 is found in milliseconds.

    Proof for a repeat closure_k = closure_{k+1} = P: a stage-1 state x
    extends over K stages exactly when ``x >= closure_{K-1} @ x``, so for
    every K > k these are the states of S = {x : x >= P @ x}.  Each x in S
    extends over k + 2 stages; the second state of that schedule extends
    over the k + 1 stages after it, so it lies in S too.  Constraints link
    one occurrence or two consecutive ones, so choosing such successors
    again and again builds an infinite schedule.
    """
    k, closure, fixed, limit = _stop(system, probe_bound)
    if not closure.rmax_valued:
        return ConsistencyVerdict(
            ConsistencyKind.NOT_WEAKLY_CONSISTENT, first_divergent=k
        )
    if fixed:
        return ConsistencyVerdict(ConsistencyKind.CONSISTENT, fixed_closure=closure)
    return ConsistencyVerdict(
        ConsistencyKind.NOT_CONSISTENT_WEAK_OPEN, verified_up_to=limit
    )


class Trajectory(_Record):
    """A finite schedule: states x(1..K) and inputs u(1..K-1) = x(2..K).

    Only the states are stored, as the rows of one K x n matrix, ``table``;
    a :class:`~maxplus.matrix.TropicalMatrix` passed as ``states`` is kept.
    Callers that also pass the inputs must pass the successor states.
    ``table`` is the one field; ``states`` is read off it once and cached.
    """

    table: TropicalMatrix

    def __init__(self, states, inputs=None):
        table = states if isinstance(states, TropicalMatrix) else TropicalMatrix(states)
        self.__dict__["table"] = table
        # a stored value is infinite exactly when it is a float (or a subclass's)
        if any(issubclass(t, float) for t in set(map(type, itertools.chain(*table._data)))):
            raise ValueError("trajectory entries must be finite")
        if inputs is not None and Trajectory((self.states[0], *inputs)) != self:
            raise ValueError("inputs must replay the successor states")

    @cached_property
    def states(self) -> tuple[tuple[Scalar, ...], ...]:
        """x(1..K), the rows of ``table`` as exact scalars, divided back once."""
        return self.table.to_rows()

    @property
    def inputs(self) -> tuple[tuple[Scalar, ...], ...]:
        """u(1..K-1) = x(2..K), read off the states."""
        return self.states[1:]

    @property
    def horizon(self) -> int:
        return self.table.rows


def synthesize_trajectory(
    system: PtegSystem, horizon: int, seed: Sequence | None = None
) -> Trajectory:
    """The least finite schedule over ``horizon`` occurrences dominating a seed.

    That is ``M* @ b`` for the unrolled constraint matrix M and the stacked
    vector b = [seed, 0, ..., 0] (seed defaults to the zero vector): the
    least fixed point of the unrolled system above b, hence a valid schedule
    whenever all components stay finite.  It is computed by block
    elimination in O(horizon * n^3), without building M.  With K the
    horizon, the tail closures ``T_k = closure_{K-k}`` hold the best weights
    inside occurrence k over paths through occurrences k..K, and

    - backward sweep: ``r_K = b_K`` and
      ``r_k = b_k oplus backward @ T_{k+1} @ r_{k+1}``;
    - forward sweep: ``x_1 = T_1 @ r_1`` and
      ``x_k = T_k @ (forward @ x_{k-1} oplus r_k)``.

    The backward sweep stops at its fixed point.  Synthesis reads the
    distinct closures: the stream of :func:`~maxplus.precedence._closures`
    ends at its first repeat, whose one object stands for every longer
    tail, so once ``T_k`` is ``T_{k+1}`` the same holds for every smaller
    k.  If also ``r_k = r_{k+1}`` for some k >= 2, then
    ``r_{k-1} = 0 oplus backward @ T_k @ r_k`` is ``r_k`` whenever k-1 >= 2
    (b is 0 there), and by induction ``r_j = r_k`` for 2 <= j <= k; only
    ``r_1 = b_1 oplus backward @ T_2 @ r_2`` is left to compute.

    The closures only grow, so ``T_1`` is the largest.  If it holds +inf the
    unrolled graph has a positive circuit (see
    :func:`~maxplus.precedence.finite_weak_feasibility`), some component is
    +inf, and :class:`InfeasibleHorizon` is raised.  Otherwise every
    component is finite: b is finite and a star's diagonal is at least 0,
    so each component is at least its entry of b and never -inf.

    The closures are walked on the system at its own scale.  The seed,
    ``backward``, ``forward`` and the walked closures are then aligned once
    (see :func:`~maxplus.matrix.aligned`), and both sweeps run on lists of
    the stored ``int``s, as at most 4(K-1)+1 matrix-vector products of
    :func:`~maxplus.matrix._apply` (2K-1 forward, at most 2(K-1) backward),
    each O(n^2).  The states are stored as the sweeps give them, as the
    rows of the trajectory's ``table``.
    """
    horizon = operator.index(horizon)
    if horizon < 2:
        raise ValueError("trajectory synthesis needs a horizon of at least 2")
    n = system.size
    seed_vec = tuple(map(as_scalar, (0,) * n if seed is None else seed))
    if len(seed_vec) != n:
        raise DimensionMismatch(f"seed must have {n} components")
    if not all(map(is_finite, seed_vec)):
        raise ValueError("seed components must be finite")

    walked = []
    for closure in itertools.islice(_closures(system), horizon):
        if not closure.rmax_valued:
            raise InfeasibleHorizon(
                f"no schedule over {horizon} occurrences exists:"
                " the unrolled constraints force an event time to +inf"
            )
        walked.append(closure)
    seed_col, backward, forward, *walked = aligned(
        TropicalMatrix.column(seed_vec), system.backward, system.forward, *walked
    )
    # 0-based lists: tails[k] is T_{k+1} = closure_{K-k-1}, r[k] is r_{k+1}
    tails = [walked[-1]] * (horizon - len(walked)) + walked[::-1]
    # stored ints at the common scale; the zero vector is 0 at every scale
    r = [[0] * n] * horizon
    for k in range(horizon - 2, 0, -1):
        via = _apply(backward, _apply(tails[k + 1], r[k + 1]))
        r[k] = [v if v >= 0 else 0 for v in via]
        if r[k] == r[k + 1] and tails[k] is tails[k + 1]:  # a fixed point
            r[1:k] = [r[k]] * (k - 1)
            break
    via = _apply(backward, _apply(tails[1], r[1]))
    r[0] = [a if a >= b else b for (a,), b in zip(seed_col._data, via)]
    x = _apply(tails[0], r[0])
    states = [tuple(x)]
    for k in range(1, horizon):
        via = _apply(forward, x)
        x = _apply(tails[k], [a if a >= b else b for a, b in zip(via, r[k])])
        states.append(tuple(x))
    return Trajectory(TropicalMatrix._wrap(tuple(states), seed_col._scale))


def validate_trajectory(system: PtegSystem, trajectory: Trajectory) -> bool:
    """Exact check of all three inequality families over the whole horizon.

    Each state x(k) must meet ``within @ x(k) <= x(k)``, and each pair of
    consecutive states ``backward @ x(k+1) <= x(k)`` and ``forward @ x(k)
    <= x(k+1)``.  The trajectory's ``table`` is aligned with the blocks
    (see :func:`~maxplus.matrix.aligned`), so the 3K-2 products over K
    states are :func:`~maxplus.matrix._apply` sweeps of stored ``int``s:
    no product matrix is built, nothing divided back.
    """
    table = trajectory.table
    if table.cols != system.size:
        raise DimensionMismatch("trajectory width does not match the system")
    table, within, backward, forward = aligned(
        table, system.within, system.backward, system.forward
    )
    states = table._data
    if not all(all(map(operator.le, _apply(within, x), x)) for x in states):
        return False
    return all(
        all(map(operator.le, _apply(backward, y), x))
        and all(map(operator.le, _apply(forward, x), y))
        for x, y in zip(states, states[1:])
    )
