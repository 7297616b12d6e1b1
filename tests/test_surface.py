"""The public surface: every exported name is used by the library itself.

A name in ``maxplus.__all__`` either has a caller in ``src/maxplus`` outside
its own definition, or is listed in ``UNCALLED`` with the reason it ships.
Adding a name to ``__all__`` means adding it to ``EXPORTS`` as well.  The
modules form layers: each imports only the modules before it in ``LAYERS``.
"""

import ast
from pathlib import Path

import maxplus

SRC = Path(maxplus.__file__).resolve().parent

# Lowest first.  The one system type, PtegSystem, lives in precedence, so
# every analysis above it takes the system without a second type.
LAYERS = ["semiring", "matrix", "precedence", "pteg", "invariance", "problems", "cli"]

EXPORTS = sorted(
    [
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


def relative_imports(module: str) -> set[str]:
    """The sibling modules ``module`` imports (``from .x import ...``)."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module)
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in SRC.glob("*.py")} == set(LAYERS) | {"__init__"}


def test_modules_import_only_lower_layers():
    for rank, module in enumerate(LAYERS):
        assert relative_imports(module) <= set(LAYERS[:rank]), module


def test_one_system_type():
    assert maxplus.PtegSystem is maxplus.pteg.PtegSystem
    assert maxplus.PtegSystem is maxplus.precedence.PtegSystem
