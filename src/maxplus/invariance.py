"""Maximal controlled-invariant subsemimodules of the paired-state lift.

Stacking two consecutive states into one vector turns the time-window
constraints into a single precedence semimodule: the set of stacked vectors
xbar with ``xbar >= constraint @ xbar``.  A subsemimodule is controlled
invariant when from every point inside it some input keeps the successor
inside as well.  The maximal controlled-invariant subsemimodule is obtained
by iterating a one-step shrinking operation; each iterate is the image of a
star matrix, and the iteration either stabilizes, or empties out of real
vectors, or keeps shrinking forever.  Generator k is built from closure k
alone, by the join (:func:`~maxplus.precedence._join`) of the one-stage
segment to it, the step the stop search of the closure walk also takes.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from .matrix import TropicalMatrix
from .precedence import PtegSystem, _join, _unit_segment
from .pteg import _stop, closure_sequence
from .semiring import _Record


def _assemble_generator(unit: tuple, closure_k: TropicalMatrix) -> TropicalMatrix:
    """Generator k ``[[ff, back_j], [j @ forward @ W*, j]]`` from closure k alone.

    ``(ff, back_j, j)`` is the join of ``unit``, S_1, to closure k.  Proof:
    generator k is the stage-(1, 2) corner of the star of the (k+2)-stage
    unrolling.  Split that into stage 1 and the (k+1)-stage stretch after
    it, whose first-stage corner is closure k.  A walk from stage 2 back to
    stage 2 stays in the stretch or makes excursions forward @ W* @
    backward into stage 1: j.  A walk from stage 2 to stage 1 ends after
    its last crossing: W* @ backward @ j = back_j.  A walk from stage 1 to
    stage 2 starts with its first crossing: j @ forward @ W*.  A walk from
    stage 1 to stage 1 is W* oplus back_j @ forward @ W* = ff = C_(k+1).
    The closed form [[C_(k+1), C_(k+1) @ backward @ A], [A @ forward @
    C_(k+1), A]], A = (C_k oplus (forward @ W* @ backward oplus W)*)*,
    agrees: A = j because C_k >= W*, and C_(k+1) @ backward @ j = back_j
    because j absorbs j @ forward @ W* @ backward @ j.
    """
    ff, back_j, j = _join(unit, closure_k)
    return TropicalMatrix.from_blocks([[ff, back_j], [j @ unit[2], j]])


class InvarianceKind(Enum):
    CONVERGED_NON_EMPTY = "ConvergedNonEmpty"
    REAL_EMPTY_AT_STEP = "RealEmptyAtStep"
    NON_CONVERGENT_WEAK_OPEN = "NonConvergentWeakOpen"


class InvarianceReport(_Record):
    """Outcome of :func:`iterate_shrink` for ``system``.

    ``step`` is the classifying step:

    - CONVERGED_NON_EMPTY: the least k at which the closure sequence repeats
      (closure k+2 equals closure k+1); the iteration is stationary from the
      next generator on, and ``invariant_generator`` is that stabilized
      matrix, whose image is the maximal controlled-invariant subsemimodule
      and contains real vectors.
    - REAL_EMPTY_AT_STEP: the least k whose generator contains +inf, so from
      that step on the iterates contain no real vector at all.
    - NON_CONVERGENT_WEAK_OPEN: P (:func:`~maxplus.pteg.closure_limit`);
      every generator up to it is finite and still strictly shrinking, so no
      classification within the bound.  (The true limit contains no real
      vector in this case as well; only the shrinking never terminates.)

    ``generators`` holds the generators of steps 0 to ``step``, plus the
    stabilized one (step + 1) when converged, assembled on first read and
    cached; it is not a field, so it takes no part in ``==``.
    """

    kind: InvarianceKind
    step: int
    system: PtegSystem
    invariant_generator: TropicalMatrix | None

    def __init__(self, kind, step, system, invariant_generator=None):
        self.__dict__.update(
            kind=kind, step=step, system=system, invariant_generator=invariant_generator
        )

    @cached_property
    def generators(self) -> tuple[TropicalMatrix, ...]:
        """The generators of steps 0 to ``step`` (+ 1 when converged).

        The first read walks again to the ``step + 1`` closures (+ 1 when
        converged) they read, rather than keep the classifying walk's
        closures (2001 for the railway at ell = -13.999) on every report.
        """
        count = self.step + (1 if self.invariant_generator is None else 2)
        unit = _unit_segment(self.system)
        closures = closure_sequence(self.system, count - 1)
        return tuple(_assemble_generator(unit, closure) for closure in closures)


def iterate_shrink(
    system: PtegSystem, probe_bound: int | None = None
) -> InvarianceReport:
    """Classify the shrinking iteration, up to the probe bound.

    The class is read off the stop that decides consistency
    (:func:`~maxplus.pteg._stop`), searched up to closure P + 2 for the
    walk limit P.  No bound on the first repeat's index is proved here, so
    a repeat past it, like divergence past it (slowly growing positive
    circuits), is reported as open at step P; a larger bound settles such
    cases, at little cost: the railway at ell = -13.99999 empties at step
    200000 in milliseconds.

    Only a converged report assembles a generator, the stabilized one.
    Generator k reads closure k only; its top-left block is closure k+1, as
    the join computes it (see :func:`_assemble_generator`), so +inf there is
    +inf in generator k.  Conversely a +inf in generator k comes from a
    positive circuit of the (k+2)-stage unrolling, which moved down to stage
    1 makes closure k+1 +inf (see
    :func:`~maxplus.precedence.finite_weak_feasibility`).  A first +inf at
    closure d thus empties step ``max(d - 1, 0)``, and a first repeat at
    closure j fixes every generator from step j-1 on, so the iteration
    converges at step ``max(j, 2) - 2``.
    """
    j, closure, fixed, limit = _stop(system, probe_bound)
    if fixed:
        stable = _assemble_generator(_unit_segment(system), closure)
        return InvarianceReport(
            InvarianceKind.CONVERGED_NON_EMPTY, max(j, 2) - 2, system, stable
        )
    if not closure.rmax_valued:
        return InvarianceReport(
            InvarianceKind.REAL_EMPTY_AT_STEP, max(j - 1, 0), system
        )
    return InvarianceReport(InvarianceKind.NON_CONVERGENT_WEAK_OPEN, limit, system)


def maximal_invariant(
    system: PtegSystem, probe_bound: int | None = None
) -> TropicalMatrix | None:
    """Generator of the maximal controlled-invariant subsemimodule, or None.

    Present exactly when the shrinking iteration converges with finite
    entries; in every other classification the maximal invariant contains
    no real vector and None is returned.
    """
    return iterate_shrink(system, probe_bound).invariant_generator
