"""The public surface: every exported name is used by the library itself.

A name in ``maxplus.__all__`` either has a caller in ``src/maxplus`` outside
its own definition, or is listed in ``UNCALLED`` with the reason it ships.
Adding a name to ``__all__`` means adding it to ``EXPORTS`` as well.
"""

import ast
from pathlib import Path

import maxplus

SRC = Path(maxplus.__file__).resolve().parent

EXPORTS = sorted(
    [
        "BlockMatrixSpec",
        "ConsistencyKind",
        "ConsistencyVerdict",
        "DimensionMismatch",
        "InfeasibleHorizon",
        "InvarianceKind",
        "InvarianceReport",
        "NEG_INF",
        "NotSquare",
        "NotStarMatrix",
        "POS_INF",
        "ProblemFile",
        "ProblemFormatError",
        "PtegSystem",
        "Scalar",
        "Trajectory",
        "TropicalMatrix",
        "__version__",
        "as_scalar",
        "build_block_matrix",
        "check_consistency",
        "closure_sequence",
        "export_dot",
        "finite_weak_feasibility",
        "format_scalar",
        "image_member",
        "is_finite",
        "iterate_shrink",
        "maximal_invariant",
        "parse_problem",
        "parse_problem_file",
        "parse_scalar",
        "roundtrip_closure",
        "shrink_generator",
        "synthesize_trajectory",
        "validate_trajectory",
    ]
)

UNCALLED = {
    "__version__": "package metadata",
    "build_block_matrix": "benchmark imports it; the dense test oracles unroll with it",
    "finite_weak_feasibility": "benchmark imports it",
    "image_member": "paper API: membership in the image of a star matrix",
    "maximal_invariant": "paper API: the maximal controlled-invariant generator",
    "shrink_generator": "paper API: the k-step generator; test oracle",
}


def internal_references() -> set[str]:
    """Names read in ``src/maxplus``, except inside their own definition.

    ``__init__.py`` only re-exports, so its imports do not count.
    """
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, ast.Assign):
                own = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            else:
                own = set()
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
            names |= read - own
    return names


def test_exports_are_pinned():
    assert sorted(maxplus.__all__) == EXPORTS


def test_every_export_is_called_or_justified():
    referenced = internal_references()
    uncalled = {name for name in maxplus.__all__ if name not in referenced}
    assert uncalled == set(UNCALLED)
