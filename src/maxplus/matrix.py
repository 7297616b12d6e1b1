"""Dense matrices over the max-plus semiring, with exact entries.

``+`` is the entrywise maximum, ``@`` is the max-plus product
``(A @ B)[i, j] = max_t(A[i, t] + B[t, j])`` and ``<=`` compares entrywise.
Matrices are immutable; every operation returns a new value, so instances can
be shared freely across threads.

All of these operations, and the star, are positively homogeneous: scaling
every entry by the same s > 0 scales the result by s.  A matrix therefore
stores its finite entries as ``int`` multiples of one private scale, the LCM
of their denominators (``_stored``), and computes on those ``int``s, which
is much faster than ``Fraction`` arithmetic.  Values get a scale in one place,
``_stored``, and two scales meet in one, :func:`aligned`: the public operations
bring operands of two scales to the LCM of both there; the kernels take one.
A matrix is made in one, ``TropicalMatrix._wrap``, from a grid already
stored: the public constructor checks and stores its rows, then hands over.
Values are divided back only when read, into the same exact values,
normalized (an integral value is always an ``int``).  Text is written
straight from the stored ``int``s (``_texts``).

Every product reads its factors' entries other than -inf from lists kept on
each matrix (``_arcs``), so a factor used again is scanned once.  There is
one kernel per product shape: ``@`` (:func:`_product`) lists its right
factor, :func:`_apply` (a matrix times a vector of stored ``int``s, the
step of the schedule sweeps of :mod:`maxplus.pteg`) its matrix, and
:func:`_triple_product`, ``left @ middle`` and ``left @ middle @ right +
base`` in one pass, its outer factors; its middle factor, a closure or
corner used once, is read row by row as stored.  The closure step and the
segment joins of :mod:`maxplus.precedence` run on that one kernel, the
first step starring its grid in place.  ``_close_over`` re-closes a star
over a few arcs, such as those a few grown entries add (``_grown_arcs``).
A stored -inf is the object ``NEG_INF`` (``as_scalar`` and unpickling give
it, no kernel computes one), so kernels skip it by identity; and a matrix
is told by its maker whether it is free of +inf, if that is known (``_wrap``).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import chain

from .semiring import NEG_INF, POS_INF, Scalar, as_scalar, format_ratio


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


class NotSquare(ValueError):
    """A square matrix was required."""


def _star(
    d: list[list[Scalar]], scale: int, pivots: Iterable[int] | None = None, finite=None
) -> "TropicalMatrix":
    """The star of grid ``d``, which it overwrites, stored at ``scale``.

    First all-pairs greatest walk weights (walk length >= 1), Floyd-Warshall
    style.  Entry (i, j) is read as "best walk from node j to node i".  The
    update rule is symmetric in that reading, so the usual triple loop
    applies.  Each pivot k relaxes through the entries of row k other than
    -inf, read before the rows are updated; a pivot row of only -inf
    entries is skipped.  When positive-weight circuits exist some entries
    may exceed the best simple-path weight; those pairs are exactly the ones
    then saturated to +inf, so unsaturated entries remain exact.

    ``pivots`` (default: every node) are the nodes a walk may pass through;
    the caller guarantees that every best walk, and some walk around every
    positive circuit, can be routed through them (see :func:`_close_over`).
    The +inf saturation pass always runs over every node.  ``finite`` is
    whether ``d`` is free of +inf (None: not known); the star is free of it
    exactly when ``d`` is and no diagonal entry is positive.
    """
    for k in range(len(d)) if pivots is None else pivots:
        dk = d[k]
        pivot = [(j, v) for j, v in enumerate(dk) if v is not NEG_INF]
        if not pivot:
            continue
        for di in d:
            dik = di[k]
            if dik is NEG_INF:
                continue
            for j, v in pivot:
                try:
                    s = dik + v
                except OverflowError:  # an int beyond float range plus +inf
                    s = POS_INF
                if s > di[j]:
                    di[j] = s
    n = len(d)
    positive = [k for k in range(n) if d[k][k] > 0]
    for i in range(n):
        if d[i][i] < 0:
            d[i][i] = 0
    for k in positive:
        # the diagonal is now finite, so k is among its own sources and targets
        sources = [j for j, v in enumerate(d[k]) if v != NEG_INF]
        for di in d:
            if di[k] != NEG_INF:
                for j in sources:
                    di[j] = POS_INF
    return _wrapped(d, scale, False if positive else finite)


def _wrapped(grid: list, scale: int, finite: bool | None = None) -> "TropicalMatrix":
    return TropicalMatrix._wrap(tuple(map(tuple, grid)), scale, finite)


def _restored(grid: tuple, scale: int) -> "TropicalMatrix":  # unpickled floats are new
    return _wrapped([map(as_scalar, row) for row in grid], scale)


def _stored(grid: tuple) -> tuple[tuple, int]:
    """Rows of exact scalars as stored values, and the scale they are stored at.

    The scale is the LCM of the denominators; a finite value v is stored as
    the ``int`` v * scale, and the infinities as they are.
    """
    scale = math.lcm(
        *(v.denominator for row in grid for v in row if type(v) is Fraction)
    )
    if scale != 1:
        grid = tuple(
            tuple(
                v if type(v) is float else v.numerator * (scale // v.denominator)
                for v in row
            )
            for row in grid
        )
    return grid, scale


def _texts(scale: int, stored: Iterable) -> dict:
    """Each distinct value of ``stored``, stored at ``scale``, mapped to its text.

    The infinities get their tokens.  A finite value is reduced against the
    scale by their gcd and written by :func:`~maxplus.semiring.format_ratio`,
    once per distinct value, as :func:`~maxplus.semiring.format_scalar`
    writes the value it stands for.
    """
    texts = {NEG_INF: "-inf", POS_INF: "+inf"}
    for v in stored:
        if v not in texts:
            g = math.gcd(v, scale)
            texts[v] = format_ratio(v // g, scale // g)
    return texts


def _product(left, right):
    """``left @ right``; ``@`` is this.

    Entries of ``left`` other than -inf spread over rows of ``right._arcs()``.
    """
    if not isinstance(right, TropicalMatrix):
        return NotImplemented
    if left.cols != right.rows:
        raise DimensionMismatch(f"cannot multiply {left.shape} by {right.shape}")
    if left._scale != right._scale:
        left, right = aligned(left, right)
    arcs, grid = right._arcs(), []
    for arow in left._data:
        out = [NEG_INF] * right.cols
        for a, brow in zip(arow, arcs):
            if a is NEG_INF:
                continue
            for j, v in brow:
                try:
                    s = a + v
                except OverflowError:  # an int beyond float range plus +inf
                    s = POS_INF
                if s > out[j]:
                    out[j] = s
        grid.append(tuple(out))
    finite = left._finite and right._finite or None
    return TropicalMatrix._wrap(tuple(grid), left._scale, finite)


class TropicalMatrix:
    """An immutable ``rows x cols`` matrix of max-plus scalars."""

    __slots__ = ("rows", "cols", "_data", "_scale", "_finite", "_arc_rows", "_arc_cols")

    def __new__(cls, data: Iterable[Iterable]) -> "TropicalMatrix":
        grid = tuple(tuple(as_scalar(v) for v in row) for row in data)
        if not grid or not grid[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("rows have unequal lengths")
        return cls._wrap(*_stored(grid))

    @classmethod
    def _wrap(cls, grid: tuple, scale: int, finite: bool | None = None) -> "TropicalMatrix":
        """The one place a matrix is made: a grid of stored values at ``scale``,
        -inf as ``NEG_INF`` itself, free of +inf if ``finite`` (None: unknown)."""
        self = object.__new__(cls)
        self._data = grid
        self._scale = scale
        self._finite, self._arc_rows, self._arc_cols = finite, None, None
        self.rows = len(grid)
        self.cols = len(grid[0])
        return self

    def __reduce__(self):
        # with __slots__ and no __dict__, pickle protocols 0 and 1 need this
        return _restored, (self._data, self._scale)

    def _arcs(self) -> tuple:
        """Per stored row, its ``(column, entry)`` pairs other than -inf.

        Listed on first use and kept: a constant operand, such as a block
        of a system, is scanned once, not once per product.
        """
        if self._arc_rows is None:
            self._arc_rows = tuple(
                tuple([(j, v) for j, v in enumerate(row) if v is not NEG_INF])
                for row in self._data
            )
        return self._arc_rows

    def _column_arcs(self) -> tuple:
        """Per stored column, its ``(row, entry)`` pairs other than -inf; kept."""
        if self._arc_cols is None:
            self._arc_cols = tuple(
                tuple([(i, v) for i, v in enumerate(col) if v is not NEG_INF])
                for col in zip(*self._data)
            )
        return self._arc_cols

    # -- constructors -------------------------------------------------

    @classmethod
    def epsilon(cls, n: int) -> "TropicalMatrix":
        """The n x n all ``-inf`` matrix (the additive zero)."""
        if n < 1:
            raise ValueError("matrix must have at least one row and one column")
        return cls._wrap(tuple((NEG_INF,) * n for _ in range(n)), 1, True)

    @classmethod
    def column(cls, values: Iterable) -> "TropicalMatrix":
        return cls([[v] for v in values])

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence["TropicalMatrix"]]) -> "TropicalMatrix":
        """Assemble a matrix from a rectangular grid of blocks."""
        if not blocks or not blocks[0] or any(len(b) != len(blocks[0]) for b in blocks):
            raise DimensionMismatch("blocks do not form a non-empty rectangular grid")
        if any(len({b.rows for b in brow}) != 1 for brow in blocks):
            raise DimensionMismatch("blocks in one band have unequal heights")
        if any(len({b.cols for b in stack}) != 1 for stack in zip(*blocks)):
            raise DimensionMismatch("stacked blocks have unequal widths")
        flat, width = aligned(*chain(*blocks)), len(blocks[0])
        grid = []
        for start in range(0, len(flat), width):
            for parts in zip(*(block._data for block in flat[start : start + width])):
                # from a list, not an iterator, a tuple gets its exact size
                grid.append(tuple([v for part in parts for v in part]))
        return cls._wrap(tuple(grid), flat[0]._scale)

    # -- basic protocol -----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def rmax_valued(self) -> bool:
        """True when no entry is ``+inf``: told by the maker, else scanned once and kept."""
        if self._finite is None:
            self._finite = all(POS_INF not in row for row in self._data)
        return self._finite

    def to_rows(self) -> tuple[tuple[Scalar, ...], ...]:
        """The entries, divided back from the stored scale and normalized."""
        scale = self._scale
        if scale == 1:
            return self._data
        return tuple(
            tuple(v if type(v) is float else as_scalar(Fraction(v, scale)) for v in row)
            for row in self._data
        )

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        v = self._data[i][j]
        return v if type(v) is float else as_scalar(Fraction(v, self._scale))

    def __iter__(self) -> Iterator[tuple[Scalar, ...]]:
        return iter(self.to_rows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropicalMatrix):
            return NotImplemented
        if self._scale != other._scale:
            self, other = aligned(self, other)
        return self._data == other._data

    def __hash__(self) -> int:
        return hash(self.to_rows())

    def __le__(self, other: "TropicalMatrix") -> bool:
        if not isinstance(other, TropicalMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            self._check_same_shape(other)
        if self._scale != other._scale:
            self, other = aligned(self, other)
        return all(map(operator.le, chain(*self._data), chain(*other._data)))

    def text_rows(self) -> list[list[str]]:
        """The entries as :func:`~maxplus.semiring.format_scalar` writes them.

        Read from the stored ``int``s (see :func:`_texts`).
        """
        texts = _texts(self._scale, chain(*self._data))
        return [[texts[v] for v in row] for row in self._data]

    def __repr__(self) -> str:
        body = "; ".join(" ".join(row) for row in self.text_rows())
        return f"TropicalMatrix[{body}]"

    def __str__(self) -> str:
        cells = self.text_rows()
        width = max(len(c) for row in cells for c in row)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)

    def _check_same_shape(self, other: "TropicalMatrix") -> None:
        if self.shape != other.shape:
            raise DimensionMismatch(f"shapes {self.shape} and {other.shape} differ")

    # -- semiring operations ------------------------------------------

    def __add__(self, other: "TropicalMatrix") -> "TropicalMatrix":
        """Entrywise maximum."""
        if not isinstance(other, TropicalMatrix):
            return NotImplemented
        self._check_same_shape(other)
        if self._scale != other._scale:
            self, other = aligned(self, other)
        return TropicalMatrix._wrap(
            tuple(
                [
                    tuple([a if a >= b else b for a, b in zip(ra, rb)])
                    for ra, rb in zip(self._data, other._data)
                ]
            ),
            self._scale,
            self._finite and other._finite or None,
        )

    __matmul__ = _product

    # -- path algebra ---------------------------------------------------

    def star(self) -> "TropicalMatrix":
        """Kleene star: entry (i, j) is the supremal weight of paths j -> i.

        The supremum runs over all finite paths, including the empty path
        when i = j, so the diagonal is at least 0.  An entry is ``+inf``
        exactly when node j reaches a node that lies on a positive-weight
        circuit which in turn reaches node i: pumping that circuit makes
        the path weight unbounded.  Computed as a greatest-walk sweep
        followed by a saturation pass over positive-diagonal nodes.
        """
        if not self.is_square:
            raise NotSquare("star is defined for square matrices only")
        return _star([list(row) for row in self._data], self._scale, finite=self._finite)


def aligned(*matrices: TropicalMatrix) -> tuple[TropicalMatrix, ...]:
    """The same matrices, each stored at the LCM of all their scales.

    The one place where two scales meet, as :func:`_stored` is the one where
    values get one.  Operations on aligned operands never rescale, so a
    computation that reuses its operands many times aligns them once, up front.
    """
    scale = math.lcm(*(m._scale for m in matrices))
    out = []
    for m in matrices:
        factor = scale // m._scale
        if factor != 1:
            grid = [
                [v if type(v) is float else v * factor for v in row] for row in m._data
            ]
            m = _wrapped(grid, scale, m._finite)
        out.append(m)
    return tuple(out)


def _apply(matrix: TropicalMatrix, vector: Sequence) -> list:
    """``matrix @ vector`` on a list of stored values, as a list.

    ``vector`` holds finite ``int``s at the matrix's scale; the result is at
    that scale too, -inf where a row has no entry other than -inf.  The
    caller guarantees that ``matrix`` is free of +inf, so only ``int``s are
    added and no sum can overflow into a float.
    """
    out = []
    for arcs in matrix._arcs():
        best = NEG_INF
        for j, v in arcs:
            v += vector[j]
            if v > best:
                best = v
        out.append(best)
    return out


def _triple_product(
    left: TropicalMatrix,
    middle: TropicalMatrix,
    right: TropicalMatrix,
    base: TropicalMatrix,
) -> tuple[list[list], list[list], int]:
    """``(left @ middle, left @ middle @ right + base)`` as row lists, and the scale.

    All four share one scale, the one returned.  Each entry of row i of
    ``left`` other than -inf spreads over a row of ``middle`` into row i of
    ``left @ middle``, and each entry of that over a row of ``right``'s arcs
    into row i of the sum, which starts as that of ``base``.  The outer
    factors are a system's blocks or a segment's corners, read again and
    again, so their arcs are listed once and kept; the middle factor is a
    closure or corner used once, so its stored rows are read as they are.
    """
    between, right_arcs = middle._data, right._arcs()
    width = middle.cols
    vias, grid = [], []
    for arcs, out in zip(left._arcs(), map(list, base._data)):
        via = [NEG_INF] * width  # row i of left @ middle
        for s, a in arcs:
            for t, v in enumerate(between[s]):
                if v is NEG_INF:
                    continue
                try:
                    x = a + v
                except OverflowError:  # an int beyond float range plus +inf
                    x = POS_INF
                if x > via[t]:
                    via[t] = x
        for t, a in enumerate(via):
            if a is NEG_INF:
                continue
            for j, v in right_arcs[t]:
                try:
                    x = a + v
                except OverflowError:
                    x = POS_INF
                if x > out[j]:
                    out[j] = x
        vias.append(via)
        grid.append(out)
    return vias, grid, base._scale


def _close_over(closed: TropicalMatrix, arcs: dict) -> TropicalMatrix:
    """``(closed + E)*`` for a star ``closed`` free of +inf.

    E holds the finite ``arcs``, ``{(head, tail): weight}``, each above its
    entry of ``closed`` and at its scale; with none, ``closed`` is returned.
    Every walk of ``closed + E`` alternates walks of ``closed`` and arcs of
    E, and ``closed`` absorbs its own walks (``closed @ closed = closed``,
    diagonal 0).  An arc of E followed by a walk of ``closed`` is one arc
    of ``closed @ E``, so every such walk is a walk of ``closed + closed @
    E`` whose inner nodes are tails of E.  That matrix lies between
    ``closed + E`` and its star, so its star is that star, and
    Floyd-Warshall needs to pivot only over the tails.  A positive circuit
    of ``closed + E`` holds an arc of E, so it passes through a tail, which
    therefore carries a positive diagonal and reaches, and is reached by,
    the same nodes: the +inf saturation marks the same pairs as the full
    star does.
    """
    if not arcs:
        return closed
    c = closed._data
    d = [list(row) for row in c]
    for (t, s), w in arcs.items():  # closed @ E: arc s -> t, then closed
        for di, ci in zip(d, c):
            x = ci[t]
            if x is not NEG_INF and x + w > di[s]:
                di[s] = x + w
    return _star(d, closed._scale, sorted({s for _, s in arcs}), finite=True)


def _grown_arcs(
    closed: TropicalMatrix,
    before: TropicalMatrix,
    left: TropicalMatrix,
    right: TropicalMatrix,
) -> dict:
    """The arcs of ``left @ delta @ right`` above ``closed``, ``{(head, tail): weight}``.

    ``delta`` holds the entries in which ``closed`` exceeds ``before``
    (-inf elsewhere).  All four share one scale, ``closed`` is free of
    +inf, and ``before <= closed``.  Each grown entry (s, t) adds the arcs
    ``left[:, s] + closed[s, t] + right[t, :]``, read from the arcs of
    ``left``'s columns and ``right``'s rows; only those above their entry
    of ``closed`` are kept, the greatest per pair.  An arc not above
    ``closed`` changes no entry of the star, so ``(closed + left @ delta @
    right).star()`` is ``closed`` re-closed over these (:func:`_close_over`).
    """
    c, width = closed._data, closed.cols
    sources, targets = left._column_arcs(), right._arcs()
    arcs: dict[tuple[int, int], Scalar] = {}  # (head, tail) -> weight
    for s, (g, b) in enumerate(zip(c, before._data)):
        if g == b:
            continue
        via = [NEG_INF] * width  # row s of delta @ right
        for t, x in enumerate(g):
            if x != b[t]:
                for j, v in targets[t]:
                    v += x
                    if v > via[j]:
                        via[j] = v
        via = [(j, v) for j, v in enumerate(via) if v is not NEG_INF]
        for i, a in sources[s]:
            ci = c[i]
            for j, v in via:
                w = a + v
                if w > ci[j] and w > arcs.get((i, j), NEG_INF):
                    arcs[i, j] = w
    return arcs

