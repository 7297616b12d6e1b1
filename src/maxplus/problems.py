"""Problem files: a JSON document carrying the four constraint matrices.

The document holds the system size ``n``, an optional ``params`` object and
four ``n x n`` grids.  :data:`MATRIX_FIELDS` maps each grid's key to the
:class:`~maxplus.precedence.PtegSystem` block it fills: ``A`` dynamics, ``L``
backward, ``C`` within, ``Rtilde`` extra forward constraints.  Grid entries
are exact decimals or rationals, the token ``-inf``, or the name of a
parameter; ``+inf`` is rejected on input.  Parameters are substituted
before any validation, with command-line values overriding file defaults.

Numbers may be written as JSON numbers; they are captured as raw text and
parsed exactly, so ``0.1`` means one tenth, not the nearest double.  The
size must be a JSON integer: ``"n": "4"`` is a string, not a size.

:meth:`ProblemFile.instantiate` goes from tokens to the system's blocks in
one pass: each distinct token is parsed once, all values are stored at one
scale, the LCM of their denominators, and the four grids of stored values
are built at that scale.  No grid is rescaled afterwards.
"""

from __future__ import annotations

import json

from .matrix import TropicalMatrix, _stored
from .precedence import PtegSystem
from .semiring import POS_INF, _Record, parse_scalar

# Problem-file key -> PtegSystem field, in document order.
MATRIX_FIELDS = {"A": "dynamics", "L": "backward", "C": "within", "Rtilde": "extra_forward"}

Grid = tuple[tuple[str, ...], ...]

_SIZE_ERROR = 'field "n" must be a positive integer'


class ProblemFormatError(ValueError):
    """The problem document is malformed; carries position info if known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ProblemFile(_Record):
    """Parsed but not yet instantiated problem data (entries still tokens).

    ``params`` defaults to a new empty dict for each file.
    """

    size: int
    dynamics: Grid
    backward: Grid
    within: Grid
    extra_forward: Grid
    params: dict[str, str]

    def __init__(self, size, dynamics, backward, within, extra_forward, params=None):
        self.__dict__.update(
            size=size, dynamics=dynamics, backward=backward, within=within,
            extra_forward=extra_forward, params={} if params is None else params,
        )

    def instantiate(self, overrides: dict[str, str] | None = None) -> PtegSystem:
        """Substitute parameters, parse every entry and build the system.

        One pass: the distinct tokens are collected in document order, each
        with the matrix where it first occurs, and each is parsed once per
        call.  So a bad token fails where it first occurs, and the error
        names that matrix.  The parsed values are stored at one scale, the
        LCM of all their denominators, and the four grids are built at that
        scale from the stored values, so the system's blocks start aligned.

        No parameter may be named like a scalar.  An override must name a
        parameter declared in ``params`` or used in a grid, so a misspelled
        name fails; a declared parameter no grid uses is accepted.
        """
        overrides = overrides or {}
        values = {**self.params, **overrides}
        _reject_scalar_names(values)
        n = self.size
        if n < 1:
            raise ProblemFormatError(_SIZE_ERROR)
        grids = {name: getattr(self, name) for name in MATRIX_FIELDS.values()}
        first: dict[str, str] = {}  # token -> key of the matrix it first occurs in
        for key, grid in zip(MATRIX_FIELDS, grids.values()):
            if len(grid) != n or set(map(len, grid)) != {n}:
                raise ProblemFormatError(f"matrix {key} must be {n} x {n}")
            for row in grid:
                for token in row:
                    if token not in first:
                        first[token] = key
        for name in overrides:
            if name not in self.params and name not in first:
                raise ProblemFormatError(f"unknown parameter {name!r}")
        parsed = [_resolve_entry(token, values, key) for token, key in first.items()]
        (stored,), scale = _stored((parsed,))
        lookup = dict(zip(first, stored)).__getitem__
        return PtegSystem(
            **{
                name: TropicalMatrix._wrap(  # +inf was rejected above
                    tuple([tuple(map(lookup, row)) for row in grid]), scale, True
                )
                for name, grid in grids.items()
            }
        )


def _reject_scalar_names(names) -> None:
    """A name like a scalar, or "", would rewrite literal or blank entries."""
    for name in names:
        if not name:
            raise ProblemFormatError("parameter name '' is empty")
        try:
            parse_scalar(name)
        except ValueError:
            continue
        raise ProblemFormatError(
            f"parameter name {name!r} would shadow a scalar token"
        )


def _resolve_entry(token: str, params: dict[str, str], key: str):
    raw = params.get(token, token)
    try:
        value = parse_scalar(raw)
    except ValueError:
        if token in params:
            raise ProblemFormatError(
                f"parameter {token!r} has non-scalar value {raw!r}"
            ) from None
        raise ProblemFormatError(
            f"entry {token!r} in matrix {key} is neither a scalar"
            " nor a known parameter"
        ) from None
    if value == POS_INF:
        raise ProblemFormatError(f"+inf is rejected in matrix {key}")
    return value


def _capture_grid(obj, key: str, n: int) -> Grid:
    if not isinstance(obj, list) or len(obj) != n:
        raise ProblemFormatError(f"matrix {key} must be a list of {n} rows")
    grid = []
    for row in obj:
        if not isinstance(row, list) or len(row) != n:
            raise ProblemFormatError(f"matrix {key} must have {n} entries per row")
        out = []
        for cell in row:
            if not isinstance(cell, str):
                raise ProblemFormatError(
                    f"unexpected entry {cell!r} in matrix {key}"
                )
            token = cell.strip()
            if token == "+inf" or token == "inf":
                raise ProblemFormatError(f"+inf is rejected in matrix {key}")
            out.append(token)
        grid.append(tuple(out))
    return tuple(grid)


class _JsonInteger(str):
    """The text of a JSON integer, told apart from a JSON string."""


# JSON numbers are kept as their text; integers are marked so that only a
# JSON integer can give the size.
_DECODER = json.JSONDecoder(parse_float=str, parse_int=_JsonInteger, parse_constant=str)


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem document, capturing numeric tokens exactly."""
    try:
        raw = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    except RecursionError:
        raise ProblemFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    size = raw.get("n")
    try:
        n = int(size) if type(size) is _JsonInteger else 0
    except ValueError:  # past the int digit limit
        n = 0
    if n < 1:
        raise ProblemFormatError(_SIZE_ERROR)
    for key in MATRIX_FIELDS:
        if key not in raw:
            raise ProblemFormatError(f"missing matrix {key}")
    params_raw = raw.get("params", {})
    if not isinstance(params_raw, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in params_raw.items()
    ):
        raise ProblemFormatError('"params" must map names to scalar strings')
    _reject_scalar_names(params_raw)
    unknown = set(raw) - set(MATRIX_FIELDS) - {"n", "params"}
    if unknown:
        raise ProblemFormatError(f"unknown fields: {sorted(unknown)}")
    grids = {name: _capture_grid(raw[key], key, n) for key, name in MATRIX_FIELDS.items()}
    params = {name: str(value) for name, value in params_raw.items()}  # unmark integers
    return ProblemFile(size=n, params=params, **grids)


def parse_problem_file(path) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())

