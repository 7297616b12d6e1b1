"""The public surface: every exported name is used by the library itself.

A name in ``maxplus.__all__`` either has a caller in ``src/maxplus`` outside
its own definition, or is listed in ``UNCALLED`` with the reason it ships.
Adding a name to ``__all__`` means adding it to ``EXPORTS`` as well.  The
same holds one level down: every public method or property of the classes
in ``MEMBER_CLASSES`` is read in ``src/maxplus`` or listed in
``UNREAD_MEMBERS``, and every module-level ``_private`` function is read.
The modules form layers: each imports only the modules before it in
``LAYERS``.  In ``cli`` only ``main`` writes stdout or stderr, and each
option string is written once.  Only ``matrix._texts`` writes a stored
value as text, and only where outside values enter are scales aligned.  A
matrix's shape, stored grid and scale, and the caches kept on it, are set
only where ``MATRIX_STATE`` allows.
"""

import ast
import os
import subprocess
import sys
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
        "is_finite",
        "iterate_shrink",
        "maximal_invariant",
        "parse_problem",
        "parse_problem_file",
        "parse_scalar",
        "synthesize_trajectory",
        "validate_trajectory",
    ]
)

UNCALLED = {
    "__version__": "package metadata",
    "build_block_matrix": "benchmark imports it; the dense test oracles unroll with it",
    "finite_weak_feasibility": "benchmark imports it",
    "format_scalar": "public inverse of parse_scalar; the tests and the benchmark's"
    " tracing bind it",
    "maximal_invariant": "paper API: the maximal controlled-invariant generator",
}

MEMBER_CLASSES = {
    "TropicalMatrix",
    "PtegSystem",
    "Trajectory",
    "ConsistencyVerdict",
    "InvarianceReport",
    "ProblemFile",
}

UNREAD_MEMBERS = {
    "PtegSystem.block_spec": "benchmark calls it; goes with ROADMAP item 1",
    "Trajectory.inputs": "paper API: the plant's inputs u(k) = x(k+1)",
}


def modules() -> dict[str, ast.Module]:
    """The parsed modules of ``src/maxplus``, except ``__init__.py``.

    ``__init__.py`` only re-exports, so its imports do not count as reads.
    """
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in SRC.glob("*.py")
        if path.name != "__init__.py"
    }


def reads(node: ast.AST, own: frozenset) -> set[tuple[str, str]]:
    """``("name" | "attr", identifier)`` read in ``node``, except in ``own``.

    A read inside a function, method or class of the same name does not
    count.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        own = own | {node.name}
    found = set()
    if isinstance(node, ast.Name) and node.id not in own:
        found.add(("name", node.id))
    elif isinstance(node, ast.Attribute) and node.attr not in own:
        found.add(("attr", node.attr))
    for child in ast.iter_child_nodes(node):
        found |= reads(child, own)
    return found


def internal_reads() -> set[tuple[str, str]]:
    """Every read in ``src/maxplus`` outside the definition it reads.

    A module-level assignment does not read the names it binds.
    """
    found = set()
    for tree in modules().values():
        for stmt in tree.body:
            own = set()
            if isinstance(stmt, ast.Assign):
                own = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            found |= reads(stmt, frozenset(own))
    return found


def internal_references() -> set[str]:
    """Names read in ``src/maxplus``, as a name or an attribute."""
    return {name for _, name in internal_reads()}


def test_exports_are_pinned():
    assert sorted(maxplus.__all__) == EXPORTS


def test_every_export_is_called_or_justified():
    referenced = internal_references()
    uncalled = {name for name in maxplus.__all__ if name not in referenced}
    assert uncalled == set(UNCALLED)


def test_every_public_member_is_read_or_justified():
    attributes = {name for kind, name in internal_reads() if kind == "attr"}
    found, unread = set(), set()
    for tree in modules().values():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in MEMBER_CLASSES):
                continue
            found.add(cls.name)
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    if item.name not in attributes:
                        unread.add(f"{cls.name}.{item.name}")
    assert found == MEMBER_CLASSES
    assert unread == set(UNREAD_MEMBERS)


def test_every_private_function_is_read():
    referenced = internal_references()
    unread = {
        f"{module}.{stmt.name}"
        for module, tree in modules().items()
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef)
        and stmt.name.startswith("_")
        and stmt.name not in referenced
    }
    assert unread == set()


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


def stream_writers(tree: ast.Module) -> set[str]:
    """Functions in ``tree`` that call ``print`` or name a ``sys`` stream."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            named = (
                isinstance(node, ast.Attribute)
                and node.attr in ("stdout", "stderr")
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
            )
            printed = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            )
            if named or printed:
                found.add(func.name)
    return found


CLI_OPTIONS = (
    "--format", "--probe-bound", "--horizon", "--param", "--seed", "--emit-pi", "--emit-s"
)


def test_each_cli_option_is_specified_once():
    """Subcommands that share a flag share its one spec in ``cli._build_parser``."""
    constants = [
        node.value for node in ast.walk(modules()["cli"]) if isinstance(node, ast.Constant)
    ]
    assert {option: constants.count(option) for option in CLI_OPTIONS} == dict.fromkeys(
        CLI_OPTIONS, 1
    )


def test_only_main_writes_stdout():
    """The CLI handlers return their text or raise; ``main`` writes both streams."""
    assert stream_writers(modules()["cli"]) == {"main"}


def name_reads(node: ast.AST, where: str = "<module>") -> set[tuple[str, str]]:
    """``(function, identifier)`` for each name or attribute in ``node``.

    ``math.gcd`` counts as ``gcd``; an import binds a name and does not count.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    found = set()
    if isinstance(node, ast.Name):
        found.add((where, node.id))
    elif isinstance(node, ast.Attribute):
        found.add((where, node.attr))
    for child in ast.iter_child_nodes(node):
        found |= name_reads(child, where)
    return found


def test_one_writer_for_stored_value_text():
    """Only ``matrix._texts`` turns a stored value into text.

    It reduces the value against its scale (``math.gcd``) and writes the
    ratio (``format_ratio``, also read in ``semiring``, which defines it).
    """
    sites = {"format_ratio": set(), "gcd": set()}
    for module, tree in modules().items():
        for where, name in name_reads(tree):
            if name in sites:
                sites[name].add((module, where))
    outside = {site for site in sites["format_ratio"] if site[0] != "semiring"}
    assert outside == sites["gcd"] == {("matrix", "_texts")}


def test_scales_meet_only_where_outside_values_enter():
    """Only the entry points call ``aligned``; the engine's kernels never rescale.

    The public ``@``, ``==``, ``<=``, ``+`` and ``from_blocks`` take matrices
    of any scales, a system aligns its blocks once, and synthesis and
    validation align a seed or a table with them.  Every closure, segment and
    generator inherits the system's one scale.
    """
    callers = {
        (module, where)
        for module, tree in modules().items()
        for where, name in name_reads(tree)
        if name == "aligned"
    }
    assert callers == {
        ("matrix", "_product"),
        ("matrix", "__eq__"),
        ("matrix", "__le__"),
        ("matrix", "__add__"),
        ("matrix", "from_blocks"),
        ("precedence", "__init__"),
        ("pteg", "synthesize_trajectory"),
        ("pteg", "validate_trajectory"),
    }


# The stop search's own names; generators are built without them, so the
# search can be reworked without moving a generator.
STOP_SEARCH = {"_join", "_compose", "_unit_segment", "_search_start", "_WALK_BUDGET"}


def test_invariance_reads_none_of_the_stop_search():
    """``invariance`` neither imports nor reads the stop search's names."""
    tree = modules()["invariance"]
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = {name for _, name in name_reads(tree)}
    assert STOP_SEARCH.isdisjoint(imported | read)


def test_one_place_gives_values_a_scale_and_one_aligns_scales():
    """``math.lcm`` is read in ``_stored``, which stores values at the LCM of
    their denominators, and in ``aligned``, which brings matrices to the LCM
    of their scales; nowhere else."""
    sites = {
        (module, where)
        for module, tree in modules().items()
        for where, name in name_reads(tree)
        if name == "lcm"
    }
    assert sites == {("matrix", "_stored"), ("matrix", "aligned")}


def test_one_system_type():
    assert maxplus.PtegSystem is maxplus.pteg.PtegSystem
    assert maxplus.PtegSystem is maxplus.precedence.PtegSystem


# What ``dataclasses`` and ``typing`` load; none of it is needed at run time.
START_UP_EXCLUDED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


def test_import_loads_no_introspection_modules():
    """A fresh ``python -S`` that imports the package and its CLI loads none.

    It counts modules, not time, so it holds on a loaded machine.  ``-S``
    keeps ``site`` (which may load ``typing`` itself) out of the count.
    """
    code = "import sys, maxplus, maxplus.cli; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    command = [sys.executable, "-S", "-c", code]
    run = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    loaded = run.stdout.split()
    assert "maxplus.cli" in loaded
    assert START_UP_EXCLUDED.isdisjoint(loaded)


# Where each slot of a TropicalMatrix may be assigned.  Every matrix is made
# by ``_wrap``, the public constructor included: it sets the grid, the
# scale and the shape and marks each cache unknown; only the reader that
# fills a cache assigns it besides.  A matrix never changes after that, so
# its kept +inf flag and arc lists cannot go stale.
MATRIX_STATE = {
    "rows": {"_wrap"},
    "cols": {"_wrap"},
    "_data": {"_wrap"},
    "_scale": {"_wrap"},
    "_finite": {"_wrap", "rmax_valued"},
    "_arc_rows": {"_wrap", "_arcs"},
    "_arc_cols": {"_wrap", "_column_arcs"},
}


def attribute_stores(node: ast.AST, where: str = "<module>") -> set[tuple[str, str]]:
    """``(function, attribute)`` for each attribute ``node`` assigns or deletes.

    ``setattr`` and ``__setattr__`` calls count for each string constant
    they are passed.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    found = set()
    if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
        found.add((where, node.attr))
    elif isinstance(node, ast.Call):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in ("setattr", "__setattr__"):
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    found.add((where, arg.value))
    for child in ast.iter_child_nodes(node):
        found |= attribute_stores(child, where)
    return found


def test_matrix_state_is_set_only_where_it_is_kept():
    stores = set()
    for tree in modules().values():
        stores |= attribute_stores(tree)
    for attr, allowed in MATRIX_STATE.items():
        assert {where for where, name in stores if name == attr} == allowed, attr
    # the public constructor checks and hands over in __new__; no second setter
    assert "__init__" not in vars(maxplus.TropicalMatrix)
