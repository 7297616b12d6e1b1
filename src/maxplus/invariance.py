"""Maximal controlled-invariant subsemimodules of the paired-state lift.

Stacking two consecutive states into one vector turns the time-window
constraints into a single precedence semimodule: the set of stacked vectors
xbar with ``xbar >= constraint @ xbar``.  A subsemimodule is controlled
invariant when from every point inside it some input keeps the successor
inside as well.  The maximal controlled-invariant subsemimodule is obtained
by iterating a one-step shrinking operation; each iterate is the image of an
explicitly computable star matrix, and the iteration either stabilizes, or
empties out of real vectors, or keeps shrinking forever.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator

from .matrix import TropicalMatrix
from .precedence import PtegSystem, _closures, _stopping_closure
from .pteg import _probe_bound


def roundtrip_closure(system: PtegSystem) -> TropicalMatrix:
    """Closure of the constraints linking one occurrence to itself via the next.

    Star of ``forward @ within* @ backward oplus within``: the best weight of
    going forward one occurrence, moving there, and coming back, combined
    with the purely local constraints.
    """
    inner = system.forward @ system.within.star() @ system.backward
    return (inner + system.within).star()


def _assemble_generator(
    system: PtegSystem,
    closure_k: TropicalMatrix,
    closure_k1: TropicalMatrix,
    roundtrip: TropicalMatrix,
) -> TropicalMatrix:
    anchored = (closure_k + roundtrip).star()
    return TropicalMatrix.from_blocks(
        [
            [closure_k1, closure_k1 @ system.backward @ anchored],
            [anchored @ system.forward @ closure_k1, anchored],
        ]
    )


def _generators(system: PtegSystem, start: int = 0) -> Iterator[TropicalMatrix]:
    """Generators ``start``, ``start + 1``, ...; generator k reads closures k, k+1."""
    roundtrip = roundtrip_closure(system)
    closures = (closure for _, closure, _ in _closures(system))
    pairs = itertools.islice(itertools.pairwise(closures), start, None)
    for closure_k, closure_k1 in pairs:
        yield _assemble_generator(system, closure_k, closure_k1, roundtrip)


def shrink_generator(system: PtegSystem, k: int) -> TropicalMatrix:
    """Generator (star matrix) of the k-times-shrunk constraint semimodule.

    Assembled in closed form from closures k and k+1 and the roundtrip
    closure; entries may be +inf once the shrinking empties out of real
    vectors.  Equals the stage-(1, 2) corner of the star of the constraint
    system unrolled over k+2 occurrences.
    """
    if k < 0:
        raise ValueError("shrink step must be non-negative")
    return next(_generators(system, k))


class InvarianceKind(Enum):
    CONVERGED_NON_EMPTY = "ConvergedNonEmpty"
    REAL_EMPTY_AT_STEP = "RealEmptyAtStep"
    NON_CONVERGENT_WEAK_OPEN = "NonConvergentWeakOpen"


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of :func:`iterate_shrink` for ``system``.

    ``step`` is the classifying step:

    - CONVERGED_NON_EMPTY: the least k at which the closure sequence repeats
      (closure k+2 equals closure k+1); the iteration is stationary from the
      next generator on, and ``invariant_generator`` is that stabilized
      matrix, whose image is the maximal controlled-invariant subsemimodule
      and contains real vectors.
    - REAL_EMPTY_AT_STEP: the least k whose generator contains +inf, so from
      that step on the iterates contain no real vector at all.
    - NON_CONVERGENT_WEAK_OPEN: the probe bound; every generator up to it
      is finite and still strictly shrinking, so no classification within
      the bound.  (The true limit contains no real vector in this case as
      well; only the shrinking never terminates.)

    ``generators`` holds the generators of steps 0 to ``step``, plus the
    stabilized one (step + 1) when converged.  It is assembled from
    ``system`` on first read and cached; it is not a field, so it takes no
    part in ``==``.
    """

    kind: InvarianceKind
    step: int
    system: PtegSystem
    invariant_generator: TropicalMatrix | None = None

    @cached_property
    def generators(self) -> tuple[TropicalMatrix, ...]:
        """The generators of steps 0 to ``step`` (+ 1 when converged).

        The first read walks the closure recurrence again instead of reusing
        the walk that classified the report.  Reusing it would mean keeping
        every closure of that walk, ``step + 2`` matrices (2001 for the
        railway at ell = -13.999), on every report, also on the many whose
        generators are never read; the second walk costs time only when the
        generators are wanted.
        """
        count = self.step + (1 if self.invariant_generator is None else 2)
        return tuple(itertools.islice(_generators(self.system), count))


def iterate_shrink(
    system: PtegSystem, probe_bound: int | None = None
) -> InvarianceReport:
    """Classify the shrinking iteration, up to the probe bound.

    When the system is consistent the closure sequence stabilizes after at
    most n^2 iterations (n the system size), so convergence is always caught
    within the default probe bound of ``10 * n^2``.  Divergence beyond the
    bound (slowly growing positive circuits) is reported as open rather than
    guessed; raise the bound to settle such cases exactly.

    The class is read off the closure walk that decides consistency; only
    a converged report assembles a generator, the stabilized one.  Generator
    k is the stage-(1, 2) corner of the star of the (k+2)-stage unrolling,
    whose stage-1 corner is closure k+1, so +inf there is +inf in generator
    k.  Conversely a +inf in generator k comes from a positive circuit of
    the unrolling, which moved down to stage 1 makes closure k+1 +inf (see
    :func:`~maxplus.precedence.finite_weak_feasibility`).  A first +inf at
    closure d <= probe + 1 thus empties step ``max(d - 1, 0)``.  Generator k
    reads closures k and k+1 only, so a first repeat at closure j fixes
    every generator from step j-1 on; for j <= probe + 2 the iteration
    converges at step ``max(j, 2) - 2``.
    """
    probe = _probe_bound(system.size, probe_bound)
    j, closure, fixed = _stopping_closure(system, probe + 2)
    if fixed:
        roundtrip = roundtrip_closure(system)
        stable = _assemble_generator(system, closure, closure, roundtrip)
        return InvarianceReport(
            InvarianceKind.CONVERGED_NON_EMPTY, max(j, 2) - 2, system, stable
        )
    if not closure.rmax_valued and j <= probe + 1:
        return InvarianceReport(
            InvarianceKind.REAL_EMPTY_AT_STEP, max(j - 1, 0), system
        )
    return InvarianceReport(InvarianceKind.NON_CONVERGENT_WEAK_OPEN, probe, system)


def maximal_invariant(
    system: PtegSystem, probe_bound: int | None = None
) -> TropicalMatrix | None:
    """Generator of the maximal controlled-invariant subsemimodule, or None.

    Present exactly when the shrinking iteration converges with finite
    entries; in every other classification the maximal invariant contains
    no real vector and None is returned.
    """
    return iterate_shrink(system, probe_bound).invariant_generator
