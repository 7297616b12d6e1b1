"""Problem files: a JSON document carrying the four constraint matrices.

The document holds the system size ``n``, an optional ``params`` object and
four ``n x n`` grids.  :data:`MATRIX_FIELDS` maps each grid's key to the
:class:`~maxplus.precedence.PtegSystem` block it fills: ``A`` dynamics, ``L``
backward, ``C`` within, ``Rtilde`` extra forward constraints.  Grid entries
are exact decimals or rationals, the token ``-inf``, or the name of a
parameter; ``+inf`` is rejected on input.  Parameters are substituted
before any validation, with command-line values overriding file defaults.

Numbers may be written as JSON numbers; they are captured as raw text and
parsed exactly, so ``0.1`` means one tenth, not the nearest double.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .matrix import TropicalMatrix
from .precedence import PtegSystem
from .semiring import POS_INF, Scalar, parse_scalar

# Problem-file key -> PtegSystem field, in document order.
MATRIX_FIELDS = {"A": "dynamics", "L": "backward", "C": "within", "Rtilde": "extra_forward"}

Grid = tuple[tuple[str, ...], ...]


class ProblemFormatError(ValueError):
    """The problem document is malformed; carries position info if known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ProblemFile:
    """Parsed but not yet instantiated problem data (entries still tokens)."""

    size: int
    dynamics: Grid
    backward: Grid
    within: Grid
    extra_forward: Grid
    params: dict[str, str] = field(default_factory=dict)

    def instantiate(self, overrides: dict[str, str] | None = None) -> PtegSystem:
        """Substitute parameters, parse every entry and build the system.

        Each distinct token is parsed once per call.  Only a token that
        parsed is remembered, so a bad one fails where it first occurs in
        document order and the error names that matrix.
        """
        overrides = overrides or {}
        _reject_scalar_names(overrides)
        values = {**self.params, **overrides}
        parsed: dict[str, Scalar] = {}

        def entry(token: str, key: str) -> Scalar:
            value = parsed.get(token)
            if value is None:
                value = parsed[token] = _resolve_entry(token, values, key)
            return value

        matrices = {
            name: TropicalMatrix(
                [[entry(token, key) for token in row] for row in getattr(self, name)]
            )
            for key, name in MATRIX_FIELDS.items()
        }
        return PtegSystem(**matrices)


def _reject_scalar_names(names) -> None:
    """A parameter named like a scalar would rewrite every literal entry."""
    for name in names:
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
            if cell.strip() in ("+inf", "inf"):
                raise ProblemFormatError(f"+inf is rejected in matrix {key}")
            out.append(cell.strip())
        grid.append(tuple(out))
    return tuple(grid)


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem document, capturing numeric tokens exactly."""
    try:
        raw = json.loads(text, parse_float=str, parse_int=str, parse_constant=str)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    except RecursionError:
        raise ProblemFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    # JSON numbers arrive as text, so true (an int to Python) is no size.
    try:
        n = int(raw["n"]) if isinstance(raw.get("n"), str) else 0
    except ValueError:
        n = 0
    if n < 1:
        raise ProblemFormatError('field "n" must be a positive integer')
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
    return ProblemFile(size=n, params=dict(params_raw), **grids)


def parse_problem_file(path) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())

