"""Maximal controlled-invariant subsemimodules of the paired-state lift.

Stacking two consecutive states into one vector turns the time-window
constraints into a single precedence semimodule: the set of stacked vectors
xbar with ``xbar >= constraint @ xbar``.  A subsemimodule is controlled
invariant when from every point inside it some input keeps the successor
inside as well.  The maximal controlled-invariant subsemimodule is obtained
by iterating a one-step shrinking operation; each iterate is the image of a
star matrix, and the iteration either stabilizes, or empties out of real
vectors, or keeps shrinking forever.  Generator k is built from closure k
alone, as the star of one two-stage block grid whose second diagonal block
is closure k (:func:`_assemble_generator`); the stop search's segments take
no part.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from .matrix import TropicalMatrix, _star
from .precedence import PtegSystem
from .pteg import _stop, closure_sequence
from .semiring import _Record


def _assemble_generator(system: PtegSystem, closure_k: TropicalMatrix) -> TropicalMatrix:
    """Generator k, ``[[within, backward], [forward, closure_k]]*``, starred in place.

    Proof: generator k is the stage-(1, 2) corner of the star of the
    (k+2)-stage unrolling.  Eliminating stages 3..k+2 leaves the two-stage
    grid ``[[W, B], [F, W oplus B @ C_(k-1) @ F]]`` (W, B, F the within,
    backward and forward blocks; stage 2's block is W alone for k = 0), and
    its star is that corner.  A diagonal block enters a star only through
    its own star: ``(X oplus D)* = (X oplus D*)*``, as D <= D* <= (X oplus
    D)*.  Stage 2's block has star C_k, so it may be replaced by closure k,
    +inf entries included.  All four share the system's scale; only C_k may hold +inf.
    """
    bands = (system.within, system.backward), (system.forward, closure_k)
    grid = [[*a, *b] for left, right in bands for a, b in zip(left._data, right._data)]
    return _star(grid, system.within._scale, finite=closure_k.rmax_valued)


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

    ``generators``, generators 0 to ``step`` then any ``invariant_generator``,
    is built on first read and cached; not a field, it is not part of ``==``.
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
        """Generators 0 to ``step`` from a new walk, then ``invariant_generator``.

        A report keeps none of its walk's closures (2001 at ell = -13.999).
        The walk never pads: converged, ``step = max(j, 2) - 2 <= j - 1`` for
        the first repeat j; emptied, ``step <= d`` and the stream yields d, the
        first +inf closure; open, no closure repeats up to P + 2.
        """
        closures = closure_sequence(self.system, self.step)
        stable = () if self.invariant_generator is None else (self.invariant_generator,)
        return (*(_assemble_generator(self.system, c) for c in closures), *stable)


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
    Generator k reads closure k only; its top-left block is the stage-1
    corner of the (k+2)-stage unrolling's star, closure k+1 (see
    :func:`~maxplus.precedence._closures`), so +inf there is +inf in
    generator k.  Conversely a +inf in generator k comes from a
    positive circuit of the (k+2)-stage unrolling, which moved down to stage
    1 makes closure k+1 +inf (see
    :func:`~maxplus.precedence.finite_weak_feasibility`).  A first +inf at
    closure d thus empties step ``max(d - 1, 0)``, and a first repeat at
    closure j fixes every generator from step j-1 on, so the iteration
    converges at step ``max(j, 2) - 2``.
    """
    j, closure, fixed, limit = _stop(system, probe_bound)
    if fixed:
        stable = _assemble_generator(system, closure)
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
