"""Exact max-plus (tropical) linear algebra and feasibility analysis.

The package decides whether a fully actuated event system subject to
time-window constraints admits consistent schedules, synthesizes finite
schedules, and computes the maximal controlled-invariant subsemimodule of
the induced precedence constraint set.  All arithmetic is exact (rationals
plus the two infinities), so every verdict is a certificate, not an
approximation.  A matrix stores its entries as ``int``s at one scale, the
LCM of their denominators, so every analysis computes on ``int``s; values
read from it are the same exact values, normalized (an integral value is
always an ``int``).
"""

from .semiring import (
    NEG_INF,
    POS_INF,
    Scalar,
    as_scalar,
    format_scalar,
    is_finite,
    parse_scalar,
)
from .matrix import (
    DimensionMismatch,
    NotSquare,
    NotStarMatrix,
    TropicalMatrix,
    image_member,
)
from .precedence import (
    PtegSystem,
    build_block_matrix,
    export_dot,
    finite_weak_feasibility,
)
from .pteg import (
    ConsistencyKind,
    ConsistencyVerdict,
    InfeasibleHorizon,
    Trajectory,
    check_consistency,
    closure_sequence,
    synthesize_trajectory,
    validate_trajectory,
)
from .invariance import (
    InvarianceKind,
    InvarianceReport,
    iterate_shrink,
    maximal_invariant,
    roundtrip_closure,
    shrink_generator,
)
from .problems import (
    ProblemFile,
    ProblemFormatError,
    parse_problem,
    parse_problem_file,
)

__version__ = "0.1.0"

__all__ = [
    "NEG_INF",
    "POS_INF",
    "Scalar",
    "as_scalar",
    "format_scalar",
    "is_finite",
    "parse_scalar",
    "DimensionMismatch",
    "NotSquare",
    "NotStarMatrix",
    "TropicalMatrix",
    "image_member",
    "PtegSystem",
    "build_block_matrix",
    "export_dot",
    "finite_weak_feasibility",
    "ConsistencyKind",
    "ConsistencyVerdict",
    "InfeasibleHorizon",
    "Trajectory",
    "check_consistency",
    "closure_sequence",
    "synthesize_trajectory",
    "validate_trajectory",
    "InvarianceKind",
    "InvarianceReport",
    "iterate_shrink",
    "maximal_invariant",
    "roundtrip_closure",
    "shrink_generator",
    "ProblemFile",
    "ProblemFormatError",
    "parse_problem",
    "parse_problem_file",
    "__version__",
]
