"""Shared corpus generators and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

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
    format_scalar,
)
from maxplus.invariance import _assemble_generator


def identity(n: int) -> TropicalMatrix:
    """Zeros on the diagonal, ``-inf`` elsewhere (the multiplicative one)."""
    return TropicalMatrix(
        [[0 if i == j else NEG_INF for j in range(n)] for i in range(n)]
    )


def top_left(matrix: TropicalMatrix, rows: int, cols: int) -> TropicalMatrix:
    """The leading ``rows x cols`` block of ``matrix``."""
    return TropicalMatrix([row[:cols] for row in matrix.to_rows()[:rows]])


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


def _closure_step(system: PtegSystem, current: TropicalMatrix) -> TropicalMatrix:
    return (system.backward @ current @ system.forward + system.within).star()


def closure_sequence_full(system: PtegSystem, k_max: int) -> list[TropicalMatrix]:
    """Oracle for closure_sequence: k_max fresh steps on the unscaled blocks."""
    closures = [system.within.star()]
    for _ in range(k_max):
        closures.append(_closure_step(system, closures[-1]))
    return closures


def _roundtrip_full(system: PtegSystem) -> TropicalMatrix:
    inner = system.forward @ system.within.star() @ system.backward
    return (inner + system.within).star()


def check_consistency_full(
    system: PtegSystem, probe_bound: int | None = None
) -> ConsistencyVerdict:
    """Oracle for check_consistency: always iterates to index n^2 + 1.

    Consistent when closures n^2 and n^2 + 1 agree, divergent at the first
    closure with +inf, otherwise iterated on up to the probe bound.
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
    for k in range(1, limit + 1):
        current = _closure_step(system, current)
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
    """
    probe = 10 * system.size**2 if probe_bound is None else probe_bound
    roundtrip = _roundtrip_full(system)
    closure_k = system.within.star()
    closure_k1 = _closure_step(system, closure_k)
    generators = []
    for k in range(probe + 1):
        generator = _assemble_generator(system, closure_k, closure_k1, roundtrip)
        generators.append(generator)
        if not generator.rmax_valued:
            return InvarianceKind.REAL_EMPTY_AT_STEP, k, None, tuple(generators)
        closure_k2 = _closure_step(system, closure_k1)
        if closure_k2 == closure_k1:
            stable = _assemble_generator(system, closure_k1, closure_k2, roundtrip)
            generators.append(stable)
            return InvarianceKind.CONVERGED_NON_EMPTY, k, stable, tuple(generators)
        closure_k, closure_k1 = closure_k1, closure_k2
    return InvarianceKind.NON_CONVERGENT_WEAK_OPEN, probe, None, tuple(generators)


def report_fields(report: InvarianceReport):
    """``(kind, step, invariant_generator, generators)`` of an InvarianceReport."""
    return report.kind, report.step, report.invariant_generator, report.generators


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

    Returns the states, or raises :class:`InfeasibleHorizon` with reason
    ``"divergent"`` on a +inf component and ``"unreachable"`` on a -inf one.
    """
    n = system.size
    seed = (0,) * n if seed is None else tuple(seed)
    stacked = TropicalMatrix.column(seed + (0,) * (n * (horizon - 1)))
    unrolled = build_block_matrix(system, horizon)
    solution = (unrolled.star() @ stacked).column_values()
    if POS_INF in solution:
        raise InfeasibleHorizon("a component is +inf", reason="divergent")
    if NEG_INF in solution:
        raise InfeasibleHorizon("a component is -inf", reason="unreachable")
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
