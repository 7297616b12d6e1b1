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

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .matrix import TropicalMatrix, image_member
from .precedence import _closures
from .pteg import PtegSystem, closure_sequence, default_probe_bound


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


def shrink_generator(system: PtegSystem, k: int) -> TropicalMatrix:
    """Generator (star matrix) of the k-times-shrunk constraint semimodule.

    Assembled in closed form from closures k and k+1 and the roundtrip
    closure; entries may be +inf once the shrinking empties out of real
    vectors.  Equals the stage-(1, 2) corner of the star of the constraint
    system unrolled over k+2 occurrences.
    """
    if k < 0:
        raise ValueError("shrink step must be non-negative")
    seq = closure_sequence(system, k + 1)
    return _assemble_generator(system, seq[k], seq[k + 1], roundtrip_closure(system))


class InvarianceKind(Enum):
    CONVERGED_NON_EMPTY = "ConvergedNonEmpty"
    REAL_EMPTY_AT_STEP = "RealEmptyAtStep"
    NON_CONVERGENT_WEAK_OPEN = "NonConvergentWeakOpen"


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of :func:`iterate_shrink`.

    ``generators`` holds the generator matrices in step order, starting at
    step 0, up to and including the matrix that settled the classification.
    ``step`` is the classifying step:

    - CONVERGED_NON_EMPTY: the least k at which the closure sequence repeats
      (closure k+2 equals closure k+1); the iteration is stationary from the
      next generator on, and ``invariant_generator`` is that stabilized
      matrix, whose image is the maximal controlled-invariant subsemimodule
      and contains real vectors.
    - REAL_EMPTY_AT_STEP: the least k whose generator contains +inf, so from
      that step on the iterates contain no real vector at all.
    - NON_CONVERGENT_WEAK_OPEN: the probe bound; every generator computed was
      finite and still strictly shrinking, so no classification within the
      bound.  (The true limit contains no real vector in this case as well;
      only the shrinking never terminates.)
    """

    generators: tuple[TropicalMatrix, ...]
    kind: InvarianceKind
    step: int
    invariant_generator: TropicalMatrix | None = None


def iterate_shrink(
    system: PtegSystem, probe_bound: int | None = None
) -> InvarianceReport:
    """Run the shrinking iteration until it settles or the probe bound hits.

    When the system is consistent the closure sequence stabilizes after at
    most n^2 iterations (n the system size), so convergence is always caught
    within the default probe bound of ``10 * n^2``.  Divergence beyond the
    bound (slowly growing positive circuits) is reported as open rather than
    guessed; raise the bound to settle such cases exactly.
    """
    probe = default_probe_bound(system.size) if probe_bound is None else probe_bound
    if probe < 1:
        raise ValueError("probe bound must be positive")
    roundtrip = roundtrip_closure(system)
    closures = _closures(system)
    (_, closure_k, _), (_, closure_k1, _) = next(closures), next(closures)
    generators: list[TropicalMatrix] = []
    for k in range(probe + 1):
        generator = _assemble_generator(system, closure_k, closure_k1, roundtrip)
        generators.append(generator)
        if not generator.rmax_valued:
            return InvarianceReport(
                tuple(generators), InvarianceKind.REAL_EMPTY_AT_STEP, step=k
            )
        _, closure_k2, fixed = next(closures)
        if fixed:
            stable = _assemble_generator(system, closure_k1, closure_k2, roundtrip)
            generators.append(stable)
            return InvarianceReport(
                tuple(generators),
                InvarianceKind.CONVERGED_NON_EMPTY,
                step=k,
                invariant_generator=stable,
            )
        closure_k, closure_k1 = closure_k1, closure_k2
    return InvarianceReport(
        tuple(generators), InvarianceKind.NON_CONVERGENT_WEAK_OPEN, step=probe
    )


def maximal_invariant(
    system: PtegSystem, probe_bound: int | None = None
) -> TropicalMatrix | None:
    """Generator of the maximal controlled-invariant subsemimodule, or None.

    Present exactly when the shrinking iteration converges with finite
    entries; in every other classification the maximal invariant contains
    no real vector and None is returned.
    """
    return iterate_shrink(system, probe_bound).invariant_generator


def invariant_member(generator: TropicalMatrix, vector: Sequence) -> bool:
    """Membership of a stacked vector in the invariant set generated."""
    return image_member(generator, vector)
