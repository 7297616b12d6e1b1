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
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .matrix import DimensionMismatch, TropicalMatrix, aligned

# The closure step is bound here too: per-step hooks, such as the tracing in
# bench/, look it up as ``pteg._next_closure``.
from .precedence import PtegSystem, _closures, _next_closure, _stopping_closure
from .semiring import Scalar, as_scalar, is_finite


class InfeasibleHorizon(Exception):
    """No finite schedule of the requested length could be produced.

    ``reason`` is ``"divergent"``: the constraint closure blows up to +inf,
    so no schedule of this length exists at all.
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class ConsistencyKind(Enum):
    CONSISTENT = "Consistent"
    NOT_CONSISTENT_WEAK_OPEN = "NotConsistentWeakOpen"
    NOT_WEAKLY_CONSISTENT = "NotWeaklyConsistent"


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Outcome of :func:`check_consistency` with its certificate.

    Exactly one certificate field is set, matching ``kind``:

    - CONSISTENT: ``fixed_closure`` is the stabilized closure matrix, valid
      for every longer horizon.
    - NOT_WEAKLY_CONSISTENT: ``first_divergent`` is the least closure index
      containing +inf.
    - NOT_CONSISTENT_WEAK_OPEN: ``verified_up_to`` is the probe limit; all
      closures up to it are finite and none repeated, so weak consistency
      remains undecided beyond the probe bound.
    """

    kind: ConsistencyKind
    fixed_closure: TropicalMatrix | None = None
    first_divergent: int | None = None
    verified_up_to: int | None = None


def closure_sequence(system: PtegSystem, k_max: int) -> list[TropicalMatrix]:
    """The growing-horizon constraint closures, indices 0 to ``k_max``.

    Closure 0 is the star of the within block; closure k+1 is the star of
    ``backward @ closure_k @ forward oplus within``.  Closure k collects every
    constraint induced between the events of one occurrence by looking k
    further occurrences ahead.  The sequence grows monotonically; once an
    entry saturates to +inf it stays saturated.
    """
    if k_max < 0:
        raise ValueError("closure count must be non-negative")
    closures = itertools.islice(_closures(system), k_max + 1)
    return [m for _, m, _ in closures]


def _probe_bound(size: int, probe_bound: int | None) -> int:
    """The probe bound given, or the default ``10 * n^2``; must be positive."""
    probe = 10 * size * size if probe_bound is None else probe_bound
    if probe < 1:
        raise ValueError("probe bound must be positive")
    return probe


def closure_limit(size: int, probe_bound: int | None) -> int:
    """Largest closure index :func:`check_consistency` may compute.

    The probe bound (default ``10 * n^2``), raised to at least n^2 + 1.
    """
    return max(_probe_bound(size, probe_bound), size * size + 1)


def check_consistency(
    system: PtegSystem, probe_bound: int | None = None
) -> ConsistencyVerdict:
    """Decide consistency exactly; probe weak consistency up to a bound.

    With n the system size, the closure sequence is iterated until an entry
    saturates to +inf, a closure repeats its predecessor, or the index
    reaches the limit (``probe_bound``, default ``10 * n^2``, but at least
    n^2 + 1).  A +inf entry disproves weak consistency.  A finite repeat
    proves consistency at any index, and the fixed closure persists for all
    longer horizons.  Otherwise the verdict reports how far finiteness was
    verified instead of guessing.

    Proof for a repeat closure_k = closure_{k+1} = P: a stage-1 state x
    extends over K stages exactly when ``x >= closure_{K-1} @ x``, so for
    every K > k these are the states of S = {x : x >= P @ x}.  Each x in S
    extends over k + 2 stages; the second state of that schedule extends
    over the k + 1 stages after it, so it lies in S too.  Constraints link
    one occurrence or two consecutive ones, so choosing such successors
    again and again builds an infinite schedule.
    """
    limit = closure_limit(system.size, probe_bound)
    k, closure, fixed = _stopping_closure(system, limit)
    if not closure.rmax_valued:
        return ConsistencyVerdict(
            ConsistencyKind.NOT_WEAKLY_CONSISTENT, first_divergent=k
        )
    if fixed:
        return ConsistencyVerdict(ConsistencyKind.CONSISTENT, fixed_closure=closure)
    return ConsistencyVerdict(
        ConsistencyKind.NOT_CONSISTENT_WEAK_OPEN, verified_up_to=limit
    )


@dataclass(frozen=True, init=False)
class Trajectory:
    """A finite schedule: states x(1..K) and inputs u(1..K-1) = x(2..K).

    Only the states are stored.  Callers that also pass the inputs must
    pass the successor states.
    """

    states: tuple[tuple[Scalar, ...], ...]

    def __init__(self, states, inputs=None):
        states = tuple(tuple(as_scalar(v) for v in row) for row in states)
        object.__setattr__(self, "states", states)
        if not states:
            raise ValueError("a trajectory needs at least one state")
        width = len(states[0])
        if any(len(row) != width for row in states):
            raise ValueError("state vectors have unequal lengths")
        if not all(is_finite(v) for row in states for v in row):
            raise ValueError("trajectory entries must be finite")
        if inputs is not None and Trajectory(states[:1] + tuple(inputs)) != self:
            raise ValueError("inputs must replay the successor states")

    @property
    def inputs(self) -> tuple[tuple[Scalar, ...], ...]:
        """u(1..K-1) = x(2..K), read off the states."""
        return self.states[1:]

    @property
    def horizon(self) -> int:
        return len(self.states)


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

    The closures only grow, so ``T_1`` is the largest.  If it holds +inf the
    unrolled graph has a positive circuit (see
    :func:`~maxplus.precedence.finite_weak_feasibility`), some component is
    +inf, and :class:`InfeasibleHorizon` is raised.  Otherwise every
    component is finite: b is finite and a star's diagonal is at least 0,
    so each component is at least its entry of b and never -inf.

    The seed, the zero vector and the blocks are aligned to one scale once
    (see :func:`~maxplus.matrix.aligned`), so neither sweep rescales an
    operand.
    """
    if horizon < 2:
        raise ValueError("trajectory synthesis needs a horizon of at least 2")
    n = system.size
    if seed is None:
        seed_vec: tuple[Scalar, ...] = (0,) * n
    else:
        seed_vec = tuple(as_scalar(v) for v in seed)
        if len(seed_vec) != n:
            raise DimensionMismatch(f"seed must have {n} components")
        if not all(map(is_finite, seed_vec)):
            raise ValueError("seed components must be finite")

    seed_col, zero, within, backward, forward = aligned(
        TropicalMatrix.column(seed_vec),
        TropicalMatrix.column((0,) * n),
        system.within,
        system.backward,
        system.forward,
    )
    system = PtegSystem(dynamics=forward, backward=backward, within=within)
    tails = []
    for _, closure, _ in itertools.islice(_closures(system), horizon):
        if not closure.rmax_valued:
            raise InfeasibleHorizon(
                f"no schedule over {horizon} occurrences exists:"
                " the unrolled constraints force an event time to +inf",
                reason="divergent",
            )
        tails.append(closure)
    tails.reverse()  # 0-based lists: tails[k] is T_{k+1}, r[k] is r_{k+1}
    r = [zero] * horizon
    r[0] = seed_col
    for k in range(horizon - 2, -1, -1):
        r[k] = r[k] + system.backward @ (tails[k + 1] @ r[k + 1])
    x = tails[0] @ r[0]
    states = [x.column_values()]
    for k in range(1, horizon):
        x = tails[k] @ (system.forward @ x + r[k])
        states.append(x.column_values())
    return Trajectory(states=tuple(states))


def validate_trajectory(system: PtegSystem, trajectory: Trajectory) -> bool:
    """Exact check of all three inequality families over the whole horizon."""
    n = system.size
    if any(len(row) != n for row in trajectory.states):
        raise DimensionMismatch("trajectory width does not match the system")
    cols = [TropicalMatrix.column(state) for state in trajectory.states]
    for k in range(trajectory.horizon):
        if not system.within @ cols[k] <= cols[k]:
            return False
    for k in range(trajectory.horizon - 1):
        if not system.backward @ cols[k + 1] <= cols[k]:
            return False
        if not system.forward @ cols[k] <= cols[k + 1]:
            return False
    return True
