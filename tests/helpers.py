"""Shared corpus generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import json
import operator
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from hypothesis import strategies as st

from maxplus import (
    NEG_INF,
    POS_INF,
    ConsistencyKind,
    ConsistencyVerdict,
    InfeasibleHorizon,
    InvarianceKind,
    InvarianceReport,
    PtegSystem,
    Trajectory,
    TropicalMatrix,
    as_scalar,
    build_block_matrix,
    closure_sequence,
    format_scalar,
    is_finite,
)
from maxplus import invariance
from maxplus.matrix import DimensionMismatch, _apply, aligned
from maxplus.problems import MATRIX_FIELDS, ProblemFile, ProblemFormatError, _reject_scalar_names


def identity(n: int) -> TropicalMatrix:
    """Zeros on the diagonal, ``-inf`` elsewhere (the multiplicative one)."""
    return TropicalMatrix(
        [[0 if i == j else NEG_INF for j in range(n)] for i in range(n)]
    )


def top_left(matrix: TropicalMatrix, rows: int, cols: int) -> TropicalMatrix:
    """The leading ``rows x cols`` block of ``matrix``."""
    return TropicalMatrix([row[:cols] for row in matrix.to_rows()[:rows]])


def boundary_segment_dense(system: PtegSystem, stages: int) -> tuple:
    """Oracle for a segment, read off the corners of the unrolled star.

    With ff, fl, lf, ll the corners between the first stage ("f") and the
    last ("l"), row = target, column = source, the segment is ``(ff, fl @
    backward, forward @ lf, forward @ ll @ backward)``.
    """
    n = system.size
    rows = build_block_matrix(system, stages).star().to_rows()

    def corner(target: int, source: int) -> TropicalMatrix:
        band = rows[target * n : (target + 1) * n]
        return TropicalMatrix([row[source * n : (source + 1) * n] for row in band])

    last = stages - 1
    backward, forward = system.backward, system.forward
    return (
        corner(0, 0),
        corner(0, last) @ backward,
        forward @ corner(last, 0),
        forward @ corner(last, last) @ backward,
    )


def block_rows(system: PtegSystem) -> tuple:
    """The rows of ``within``, ``backward`` and ``forward``, for the plain-row oracles."""
    return tuple(m.to_rows() for m in (system.within, system.backward, system.forward))


def column_values(matrix: TropicalMatrix, j: int = 0) -> tuple:
    """The read values of column ``j``."""
    return tuple(row[j] for row in matrix)


def stored_entries(matrix: TropicalMatrix) -> list:
    """The entries a matrix computes on: its stored grid, not its read values."""
    return [v for row in matrix._data for v in row]


# Plain-Fraction oracles for the matrix operations: nested lists of int,
# Fraction and the two infinities, no scale, no stored ints.


def fraction_rows(matrix: TropicalMatrix) -> list[list]:
    return [[Fraction(v) if v not in (NEG_INF, POS_INF) else v for v in row]
            for row in matrix.to_rows()]


def normalized_rows(rows) -> tuple:
    return tuple(tuple(as_scalar(v) for v in row) for row in rows)


def _otimes(a, b):
    if NEG_INF in (a, b):
        return NEG_INF
    # spelled out: Fraction + inf converts the Fraction to float, which
    # overflows beyond the float range
    return POS_INF if POS_INF in (a, b) else a + b


def fraction_add(a: list, b: list) -> list:
    return [[max(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def fraction_matmul(a: list, b: list) -> list:
    return [
        [max(_otimes(row[t], b[t][j]) for t in range(len(b))) for j in range(len(b[0]))]
        for row in a
    ]


def fraction_star(a: list) -> list:
    """Floyd-Warshall greatest walks, the empty path, then +inf saturation."""
    n = len(a)
    d = [row[:] for row in a]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = max(d[i][j], _otimes(d[i][k], d[k][j]))
    out = [[max(d[i][j], 0) if i == j else d[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):
        if d[k][k] > 0:
            for i in range(n):
                for j in range(n):
                    if (i == k or d[i][k] != NEG_INF) and (j == k or d[k][j] != NEG_INF):
                        out[i][j] = POS_INF
    return out


def positive_circuit_by_powers(matrix: TropicalMatrix) -> bool:
    """Independent positive-circuit oracle, by powers, not Floyd-Warshall.

    True when a diagonal entry of A^k is > 0 for some 1 <= k <= n: a
    positive circuit splits into simple circuits, one of them positive, and
    a simple circuit has at most n arcs.
    """
    n = matrix.rows
    rows = fraction_rows(matrix)
    powers = itertools.accumulate(itertools.repeat(rows, n), fraction_matmul)
    return any(power[i][i] > 0 for power in powers for i in range(n))


def random_matrix(rng: random.Random, n: int, lo=-5, hi=5, density=0.5) -> TropicalMatrix:
    """Integer entries in [lo, hi], each replaced by -inf with prob 1-density."""
    return TropicalMatrix(
        [
            [rng.randint(lo, hi) if rng.random() < density else NEG_INF for _ in range(n)]
            for _ in range(n)
        ]
    )


def all_eps_system(n=2) -> PtegSystem:
    """No constraints at all: every closure is the identity."""
    eps = TropicalMatrix.epsilon(n)
    return PtegSystem(dynamics=eps, backward=eps, within=eps)


def random_system(rng: random.Random, n: int) -> PtegSystem:
    return PtegSystem(
        dynamics=random_matrix(rng, n),
        backward=random_matrix(rng, n),
        within=random_matrix(rng, n),
        extra_forward=random_matrix(rng, n),
    )


def star_by_powers(matrix: TropicalMatrix) -> TropicalMatrix:
    """Independent star oracle: identity oplus all products of length < n.

    Valid whenever the graph has no positive-weight circuit (path weights
    are then maximized by simple paths, which have fewer than n arcs).
    """
    n = matrix.rows
    acc = identity(n)
    power = identity(n)
    for _ in range(n - 1):
        power = power @ matrix
        acc = acc + power
    return acc


def enumerate_path_star(matrix: TropicalMatrix, max_len: int) -> TropicalMatrix:
    """Brute-force star by enumerating every path up to a given length."""
    n = matrix.rows
    best = [[NEG_INF] * n for _ in range(n)]
    for i in range(n):
        best[i][i] = 0

    def walk(start: int, node: int, weight, length: int):
        if weight > best[node][start]:
            best[node][start] = weight
        if length == max_len:
            return
        for nxt in range(n):
            w = matrix[nxt, node]
            if w != NEG_INF:
                walk(start, nxt, weight + w, length + 1)

    for start in range(n):
        walk(start, start, 0, 0)
    return TropicalMatrix(best)


def stacked_constraint(system: PtegSystem) -> TropicalMatrix:
    """Constraint matrix of two stacked occurrences: [[C, L], [forward, C]]."""
    return TropicalMatrix.from_blocks(
        [[system.within, system.backward], [system.forward, system.within]]
    )


def closure_step_full(system: PtegSystem, current: TropicalMatrix) -> TropicalMatrix:
    """Oracle for one closure step: four generic matrix operations."""
    return (system.backward @ current @ system.forward + system.within).star()


def closure_sequence_full(system: PtegSystem, k_max: int) -> list[TropicalMatrix]:
    """Oracle for closure_sequence: k_max fresh steps on the unscaled blocks."""
    closures = [system.within.star()]
    for _ in range(k_max):
        closures.append(closure_step_full(system, closures[-1]))
    return closures


def roundtrip_full(system: PtegSystem) -> TropicalMatrix:
    """``(forward @ within* @ backward oplus within)*``: one occurrence to itself via the next."""
    inner = system.forward @ system.within.star() @ system.backward
    return (inner + system.within).star()


def generator_full(
    system: PtegSystem,
    closure_k: TropicalMatrix,
    closure_k1: TropicalMatrix,
    roundtrip: TropicalMatrix,
) -> TropicalMatrix:
    """Oracle for generator k: ``[[C1, C1 @ B @ A], [A @ F @ C1, A]]``.

    C1 is closure k+1, B and F the backward and forward blocks, and A =
    ``(closure_k oplus roundtrip)*`` with ``roundtrip`` from
    :func:`roundtrip_full`.
    """
    anchored = (closure_k + roundtrip).star()
    return TropicalMatrix.from_blocks(
        [
            [closure_k1, closure_k1 @ system.backward @ anchored],
            [anchored @ system.forward @ closure_k1, anchored],
        ]
    )


def check_consistency_full(
    system: PtegSystem, probe_bound: int | None = None
) -> ConsistencyVerdict:
    """Oracle for check_consistency: always iterates to index n^2 + 1.

    Consistent when closures n^2 and n^2 + 1 agree, divergent at the first
    closure with +inf, otherwise iterated on up to closure P + 2, for P the
    probe bound raised to at least n^2 + 1; open cases report P.
    """
    n = system.size
    stabilization_index = n * n
    if probe_bound is None:
        probe_bound = 10 * n * n
    limit = max(probe_bound, stabilization_index + 1)
    current = system.within.star()
    if not current.rmax_valued:
        return ConsistencyVerdict(
            ConsistencyKind.NOT_WEAKLY_CONSISTENT, first_divergent=0
        )
    at_stabilization_index = None
    for k in range(1, limit + 3):
        current = closure_step_full(system, current)
        if not current.rmax_valued:
            return ConsistencyVerdict(
                ConsistencyKind.NOT_WEAKLY_CONSISTENT, first_divergent=k
            )
        if k == stabilization_index:
            at_stabilization_index = current
        elif k == stabilization_index + 1 and current == at_stabilization_index:
            return ConsistencyVerdict(ConsistencyKind.CONSISTENT, fixed_closure=current)
    return ConsistencyVerdict(
        ConsistencyKind.NOT_CONSISTENT_WEAK_OPEN, verified_up_to=limit
    )


def iterate_shrink_full(system: PtegSystem, probe_bound: int | None = None):
    """Oracle for iterate_shrink: one fresh closure step per shrink step.

    Returns ``(kind, step, invariant_generator, generators)``; compare it
    with :func:`report_fields`.  Works on the unscaled blocks throughout.
    P is the probe bound raised to at least n^2 + 1.  Step P looks for a
    repeat at closure P + 2, and step P + 1 only for +inf there (generator
    P + 1 holds closure P + 2).  Open cases report step P and generators 0
    to P.
    """
    n = system.size
    limit = max(10 * n * n if probe_bound is None else probe_bound, n * n + 1)
    roundtrip = roundtrip_full(system)
    closure_k = system.within.star()
    closure_k1 = closure_step_full(system, closure_k)
    generators = []
    for k in range(limit + 2):
        generator = generator_full(system, closure_k, closure_k1, roundtrip)
        generators.append(generator)
        if not generator.rmax_valued:
            return InvarianceKind.REAL_EMPTY_AT_STEP, k, None, tuple(generators)
        if k > limit:
            break
        closure_k2 = closure_step_full(system, closure_k1)
        if closure_k2 == closure_k1:
            stable = generator_full(system, closure_k1, closure_k2, roundtrip)
            generators.append(stable)
            return InvarianceKind.CONVERGED_NON_EMPTY, k, stable, tuple(generators)
        closure_k, closure_k1 = closure_k1, closure_k2
    return InvarianceKind.NON_CONVERGENT_WEAK_OPEN, limit, None, tuple(generators[:-1])


def report_fields(report: InvarianceReport):
    """``(kind, step, invariant_generator, generators)`` of an InvarianceReport."""
    return report.kind, report.step, report.invariant_generator, report.generators


def shrink_generator(system: PtegSystem, k: int) -> TropicalMatrix:
    """Generator k of the shrinking iteration, from the library's closed form."""
    return invariance._assemble_generator(system, closure_sequence(system, k)[k])


def shrink_generator_unrolled(system: PtegSystem, k: int) -> TropicalMatrix:
    """Oracle for shrink_generator, via the unrolled horizon.

    Materializes the block matrix over k+2 occurrences, stars it, and cuts
    out the leading block of twice the system size.
    """
    unrolled = build_block_matrix(system, k + 2)
    size2 = 2 * system.size
    return top_left(unrolled.star(), size2, size2)


def synthesize_dense(
    system: PtegSystem, horizon: int, seed=None
) -> tuple[tuple, ...]:
    """Oracle for synthesize_trajectory: the unrolled star applied to [seed, 0, ...].

    Returns the states, or raises :class:`InfeasibleHorizon` on a +inf
    component.  A -inf component cannot occur: b is finite and a star's
    diagonal is at least 0 (the proof in ``synthesize_trajectory``'s
    docstring), so the oracle fails with ``AssertionError`` if one does.
    """
    n = system.size
    seed = (0,) * n if seed is None else tuple(seed)
    stacked = TropicalMatrix.column(seed + (0,) * (n * (horizon - 1)))
    unrolled = build_block_matrix(system, horizon)
    solution = column_values(unrolled.star() @ stacked)
    if POS_INF in solution:
        raise InfeasibleHorizon("a component is +inf")
    if NEG_INF in solution:
        raise AssertionError("a component is -inf, though no star can give one")
    return tuple(solution[k * n : (k + 1) * n] for k in range(horizon))


def validate_trajectory_full(system: PtegSystem, trajectory: Trajectory) -> bool:
    """Oracle for validate_trajectory: every inequality on the unscaled values."""
    cols = [TropicalMatrix.column(s) for s in trajectory.states]
    for k in range(trajectory.horizon):
        if not system.within @ cols[k] <= cols[k]:
            return False
    for k in range(trajectory.horizon - 1):
        if not system.backward @ cols[k + 1] <= cols[k]:
            return False
        if not system.forward @ cols[k] <= cols[k + 1]:
            return False
    return True


def validate_trajectory_by_rows(system: PtegSystem, trajectory: Trajectory) -> bool:
    """Oracle for validate_trajectory: the states read back and stored again.

    The rows of ``trajectory.states`` become a new matrix at the LCM of
    their own denominators, aligned with the blocks, and are checked by
    the same sweeps of stored ``int``s.
    """
    rows = trajectory.states
    if any(len(row) != system.size for row in rows):
        raise DimensionMismatch("trajectory width does not match the system")
    stored, within, backward, forward = aligned(
        TropicalMatrix(rows), system.within, system.backward, system.forward
    )
    states = stored._data
    if not all(all(map(operator.le, _apply(within, x), x)) for x in states):
        return False
    return all(
        all(map(operator.le, _apply(backward, y), x))
        and all(map(operator.le, _apply(forward, x), y))
        for x, y in zip(states, states[1:])
    )


def export_dot_dense(system: PtegSystem, horizon: int) -> str:
    """Oracle for export_dot: scans every entry of the unrolled matrix."""
    matrix = build_block_matrix(system, horizon)
    n = system.size
    lines = ["digraph precedence {", "  rankdir=LR;"]
    for stage in range(1, horizon + 1):
        for i in range(1, n + 1):
            lines.append(f'  x{i}_{stage} [label="x_{i}({stage})"];')
    for source in range(matrix.rows):
        j_stage, j_comp = divmod(source, n)
        for target in range(matrix.rows):
            w = matrix[target, source]
            if w == NEG_INF:
                continue
            i_stage, i_comp = divmod(target, n)
            lines.append(
                f'  x{j_comp + 1}_{j_stage + 1} -> x{i_comp + 1}_{i_stage + 1}'
                f' [label="{format_scalar(w)}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


# Frozen-dataclass twins of the five library records, declared as the
# records were before they moved onto ``semiring._Record``: the reference
# for their equality, hash, repr, signatures and immutability.  Each twin
# takes its record's name, so the two ``repr`` texts compare directly.


def _named_as(record):
    def rename(twin):
        twin.__name__ = twin.__qualname__ = record.__name__
        return twin

    return rename


@_named_as(PtegSystem)
@dataclass(frozen=True)
class PtegSystemTwin:
    dynamics: TropicalMatrix
    backward: TropicalMatrix
    within: TropicalMatrix
    extra_forward: TropicalMatrix | None = None

    def __post_init__(self):
        if self.extra_forward is None:
            no_extra = TropicalMatrix.epsilon(self.dynamics.rows)
            object.__setattr__(self, "extra_forward", no_extra)
        blocks = (self.within, self.backward, self.dynamics + self.extra_forward)
        if len({b.shape for b in blocks}) != 1 or not self.within.is_square:
            raise DimensionMismatch(
                "within/backward/forward blocks must share one square shape"
            )
        if not all(block.rmax_valued for block in blocks):
            raise ValueError("+inf is not a legal constraint weight")
        for name, block in zip(("within", "backward", "forward"), aligned(*blocks)):
            object.__setattr__(self, name, block)


@_named_as(ConsistencyVerdict)
@dataclass(frozen=True)
class ConsistencyVerdictTwin:
    kind: ConsistencyKind
    fixed_closure: TropicalMatrix | None = None
    first_divergent: int | None = None
    verified_up_to: int | None = None


@_named_as(Trajectory)
@dataclass(frozen=True, init=False)
class TrajectoryTwin:
    table: TropicalMatrix

    def __init__(self, states, inputs=None):
        table = states if isinstance(states, TropicalMatrix) else TropicalMatrix(states)
        object.__setattr__(self, "table", table)
        if not all(is_finite(v) for row in table._data for v in row):
            raise ValueError("trajectory entries must be finite")
        if inputs is not None and TrajectoryTwin((self.states[0], *inputs)) != self:
            raise ValueError("inputs must replay the successor states")

    @property
    def states(self):
        return self.table.to_rows()

    @property
    def inputs(self):
        return self.states[1:]


@_named_as(InvarianceReport)
@dataclass(frozen=True)
class InvarianceReportTwin:
    kind: InvarianceKind
    step: int
    system: PtegSystem
    invariant_generator: TropicalMatrix | None = None


@_named_as(ProblemFile)
@dataclass(frozen=True)
class ProblemFileTwin:
    size: int
    dynamics: tuple
    backward: tuple
    within: tuple
    extra_forward: tuple
    params: dict[str, str] = field(default_factory=dict)


RECORD_TWINS = {
    PtegSystem: PtegSystemTwin,
    ConsistencyVerdict: ConsistencyVerdictTwin,
    Trajectory: TrajectoryTwin,
    InvarianceReport: InvarianceReportTwin,
    ProblemFile: ProblemFileTwin,
}


# Hypothesis strategies shared by the property tests.


def _block(draw, n, lo, hi):
    entries = st.one_of(st.just(NEG_INF), st.integers(lo, hi))
    row = st.lists(entries, min_size=n, max_size=n)
    return TropicalMatrix(draw(st.lists(row, min_size=n, max_size=n)))


@st.composite
def systems(draw, max_n=4):
    """Random systems, about half of them consistent.

    Signs follow the usual time windows: forward separations are positive
    and backward bounds negative, so divergence is not the rule.
    """
    n = draw(st.integers(1, max_n))
    return PtegSystem(
        dynamics=_block(draw, n, 0, 5),
        backward=_block(draw, n, -8, 0),
        within=_block(draw, n, -5, 0),
        extra_forward=_block(draw, n, -2, 3),
    )


# Small denominators, and large ones whose LCM is a product of coprime factors.
DENOMINATORS = (st.integers(1, 6), st.integers(1001, 2999))


@st.composite
def fractions(draw, lo, hi, denominators):
    den = draw(denominators)
    return Fraction(draw(st.integers(lo * den, hi * den)), den)


@st.composite
def fraction_systems(draw, max_n=3):
    """``(system, seed)``: Fraction entries, signed like :func:`systems`."""
    n = draw(st.integers(1, max_n))
    dens = draw(st.sampled_from(DENOMINATORS))

    def block(lo, hi):
        entries = st.one_of(st.just(NEG_INF), fractions(lo, hi, dens))
        row = st.lists(entries, min_size=n, max_size=n)
        return TropicalMatrix(draw(st.lists(row, min_size=n, max_size=n)))

    system = PtegSystem(
        dynamics=block(0, 5),
        backward=block(-8, 0),
        within=block(-5, 0),
        extra_forward=block(-2, 3),
    )
    seed = draw(st.lists(fractions(-3, 3, dens), min_size=n, max_size=n))
    return system, tuple(seed)


@st.composite
def two_scc_systems(draw, max_n=5):
    """Systems on two groups of events, as :func:`systems` signs them.

    Arcs run only inside a group or from the first group to the second, so
    a consistent first group can still force a period on the second that
    its own cycles cannot keep: the class the walk leaves open is far more
    common here than among unstructured systems.
    """
    n = draw(st.integers(2, max_n))
    first = draw(st.integers(1, n - 1))
    rng = draw(st.randoms(use_true_random=False))

    def block(lo, hi):
        return TropicalMatrix(
            [
                [
                    rng.randint(lo, hi)
                    if (i < first) <= (j < first) and rng.random() < 0.5
                    else NEG_INF
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    return PtegSystem(
        dynamics=block(0, 5),
        backward=block(-8, 0),
        within=block(-5, 0),
        extra_forward=block(-2, 3),
    )


@st.composite
def consistent_systems(draw, max_n=16):
    """Systems that the schedule x_i(k) = p_i + k * lam meets with slack.

    Built as the benchmark's consistent corpus builds them: every finite
    entry lies 1 to 5 below the largest weight that schedule allows
    (p_i - p_j, shifted by lam forward and by -lam backward), and about
    30% of the entries are finite, 15% of ``extra_forward``'s.
    """
    n = draw(st.integers(1, max_n))
    rng = draw(st.randoms(use_true_random=False))
    p = [rng.randint(0, 30) for _ in range(n)]
    lam = rng.randint(1, 10)

    def block(shift, density):
        return TropicalMatrix(
            [
                [
                    p[i] - p[j] + shift - rng.randint(1, 5)
                    if rng.random() < density
                    else NEG_INF
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    return PtegSystem(
        dynamics=block(lam, 0.3),
        backward=block(-lam, 0.3),
        within=block(0, 0.3),
        extra_forward=block(lam, 0.15),
    )


# Oracles for the problem load path: every token through Fraction, and the
# four-matrix construction that PtegSystem then aligns.


def parse_scalar_by_fraction(text: str):
    """Oracle for ``parse_scalar``: every finite token as ``as_scalar(Fraction(token))``.

    A token holding "_" or an inner space is rejected first: ``Fraction``
    reads "1_000" from 3.11 on and "1 /2" from 3.12 on, and the scalar
    grammar is the one every supported interpreter reads.
    """
    token = text.strip()
    if token == "-inf":
        return NEG_INF
    if token in ("+inf", "inf"):
        return POS_INF
    _, marker, exponent = token.lower().partition("e")
    try:
        if "_" in token or any(c.isspace() for c in token):
            raise ValueError("underscore or inner space")
        if marker and abs(int(exponent)) > sys.int_info.default_max_str_digits:
            raise ValueError("decimal exponent out of range")
        return as_scalar(Fraction(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact scalar: {text!r}") from exc


def _resolve_by_fraction(token: str, params: dict, key: str):
    raw = params.get(token, token)
    try:
        value = parse_scalar_by_fraction(raw)
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


def instantiate_by_matrices(problem: ProblemFile, overrides: dict | None = None) -> PtegSystem:
    """Oracle for ``ProblemFile.instantiate``: one ``TropicalMatrix`` per grid.

    Each entry goes through ``as_scalar``, each matrix takes the LCM of its
    own denominators, and ``PtegSystem`` aligns within, backward and forward
    afterwards; dynamics and extra_forward keep their own scales.  A
    parameter named like a scalar, then an override that is neither
    declared nor used in a grid, is rejected first.
    """
    overrides = overrides or {}
    values = {**problem.params, **overrides}
    _reject_scalar_names(values)
    grids = [getattr(problem, name) for name in MATRIX_FIELDS.values()]
    used = {token for grid in grids for row in grid for token in row}
    for name in overrides:
        if name not in problem.params and name not in used:
            raise ProblemFormatError(f"unknown parameter {name!r}")
    parsed: dict = {}

    def entry(token: str, key: str):
        if token not in parsed:
            parsed[token] = _resolve_by_fraction(token, values, key)
        return parsed[token]

    return PtegSystem(
        **{
            name: TropicalMatrix(
                [[entry(token, key) for token in row] for row in getattr(problem, name)]
            )
            for key, name in MATRIX_FIELDS.items()
        }
    )


_DIGITS = st.text("0123456789", min_size=1, max_size=12)
_PADDING = st.sampled_from(["", " ", "\t", " \n "])


@st.composite
def plain_numbers(draw):
    """``-?digits`` or ``-?digits.digits``, the tokens ``parse_scalar`` reads with ``int()``."""
    sign = draw(st.sampled_from(["", "-"]))
    places = draw(st.one_of(st.just(""), _DIGITS.map(".".__add__)))
    return sign + draw(_DIGITS) + places


@st.composite
def near_numbers(draw):
    """A number that ``parse_scalar`` must not read with ``int()``."""
    sign = draw(st.sampled_from(["", "-"]))
    token = draw(plain_numbers())
    at = draw(st.integers(0, len(token)))
    return draw(
        st.sampled_from(
            [
                "+" + token.removeprefix("-"),
                token[:at] + "_" + token[at:],
                sign + "." + draw(_DIGITS),
                sign + draw(_DIGITS) + ".",
                # Arabic-Indic three, fullwidth five, superscript two, NKo one
                token[:at] + draw(st.sampled_from("\u0663\uff15\u00b2\u07c1")) + token[at:],
                token[:at] + " " + token[at:],
                token + "/" + draw(st.sampled_from(["3", "0", "-2", "04", "1_0"])),
            ]
        )
    )


@st.composite
def exponent_numbers(draw):
    exponent = draw(
        st.one_of(
            st.integers(-30, 30).map(str),
            st.sampled_from(["+3", "4300", "-4300", "4301", "+4301", "", "x", "1_0"]),
        )
    )
    return draw(plain_numbers()) + draw(st.sampled_from("eE")) + exponent


@st.composite
def long_numbers(draw):
    """Tokens of 4290-4310 digits, around Python's default int digit limit."""
    length = draw(st.integers(4290, 4310))
    pattern = draw(st.text("0123456789", min_size=1, max_size=4))
    digits = (pattern * length)[:length]
    dot = draw(st.one_of(st.none(), st.integers(1, length - 1)))
    if dot is not None:
        digits = digits[:dot] + "." + digits[dot:]
    return draw(st.sampled_from(["", "-"])) + digits


@st.composite
def scalar_texts(draw):
    """Scalar-like text for ``parse_scalar``, valid or not, with padding."""
    token = draw(
        st.one_of(
            plain_numbers(),
            near_numbers(),
            exponent_numbers(),
            long_numbers(),
            st.sampled_from(["-inf", "+inf", "inf", "-", ".", "", "nan", "1/0", "-0", "007"]),
        )
    )
    return draw(_PADDING) + token + draw(_PADDING)


# Grid tokens for problem texts: mixed denominators, names and bad tokens.
_VALUES = st.one_of(
    st.integers(-20, 20).map(str),
    st.sampled_from(["-inf", "0.5", "-13.999", "1/3", "-5/6", "7/1001", "0.125", "2.50", " 3 "]),
)
_NAMES = st.sampled_from(["a", "b", "c"])
_BAD = st.sampled_from(["soon", "1/0", "1e99999", "nan", "+inf"])


@st.composite
def problem_texts(draw, max_n=3):
    """``(text, overrides)``: a problem document that parses, and ``--param`` values.

    Grids mix literal values and parameter names ("a", "b", "c").  About a
    third of the draws hold one token that is not a scalar, in a grid or
    as a parameter value (where ``+inf`` is one of them).
    """
    n = draw(st.integers(1, max_n))
    cell = st.one_of(_VALUES, _VALUES, _NAMES)
    doc: dict = {"n": n}
    for key in MATRIX_FIELDS:
        doc[key] = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    # "a" and "b" always have values; "c" may be unknown
    doc["params"] = draw(
        st.fixed_dictionaries({"a": _VALUES, "b": _VALUES}, optional={"c": _VALUES})
    )
    overrides = draw(st.dictionaries(_NAMES, _VALUES, max_size=2))
    where = draw(st.sampled_from(["none", "none", "grid", "params", "overrides"]))
    bad = draw(_BAD)
    if where == "grid" and bad != "+inf":  # +inf in a grid fails at parse time
        key = draw(st.sampled_from(list(MATRIX_FIELDS)))
        doc[key][draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = bad
    elif where in ("params", "overrides"):
        (doc["params"] if where == "params" else overrides)[draw(_NAMES)] = bad
    return json.dumps(doc), overrides
