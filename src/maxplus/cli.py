"""Command-line front end.

Subcommands::

    maxplus check FILE       decide consistency; exit 0/2/3 per verdict
    maxplus invariant FILE   run the shrinking iteration, print its class
    maxplus trajectory FILE  synthesize a finite schedule; exit 4 if none
    maxplus graph FILE       emit the unrolled precedence graph as DOT

All numeric output is exact.  ``--param name=value`` substitutes named
entries in the problem file, so one file describes a whole parameter sweep.
The default probe bound is ``10 * n^2``; override it with ``--probe-bound``.
Bad input exits 1; a failed internal invariant exits 5 with one
``error: internal:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys

from .invariance import InvarianceKind, iterate_shrink
from .precedence import export_dot
from .problems import ProblemFormatError, parse_problem_file
from .pteg import (
    ConsistencyKind,
    InfeasibleHorizon,
    PtegSystem,
    check_consistency,
    closure_limit,
    closure_sequence,
    synthesize_trajectory,
    validate_trajectory,
)
from .semiring import format_scalar

EXIT_CODES = {
    ConsistencyKind.CONSISTENT: 0,
    ConsistencyKind.NOT_WEAKLY_CONSISTENT: 2,
    ConsistencyKind.NOT_CONSISTENT_WEAK_OPEN: 3,
}
EXIT_USAGE = 1
EXIT_INFEASIBLE = 4
EXIT_INTERNAL = 5


def _text_rows(rows) -> list[list[str]]:
    """Rows of scalars, such as a matrix or a trajectory's states, as text."""
    return [[format_scalar(v) for v in row] for row in rows]


def _load_system(args) -> PtegSystem:
    params = {}
    for pair in args.param:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"--param expects name=value, got {pair!r}")
        params[name] = value
    return parse_problem_file(args.file).instantiate(params)


def cmd_check(args) -> int:
    system = _load_system(args)
    verdict = check_consistency(system, args.probe_bound)
    code = EXIT_CODES[verdict.kind]
    n = system.size
    closures = None
    if args.emit_pi:
        if verdict.first_divergent is not None:
            upto = verdict.first_divergent
        elif verdict.kind is ConsistencyKind.CONSISTENT:
            upto = n * n + 1
        else:
            upto = verdict.verified_up_to
        closures = closure_sequence(system, upto)

    if args.format == "json":
        doc = {
            "verdict": verdict.kind.value,
            "exit_code": code,
            "n": n,
            "probe_bound": closure_limit(n, args.probe_bound),
            "fixed_closure": (
                _text_rows(verdict.fixed_closure) if verdict.fixed_closure else None
            ),
            "first_divergent": verdict.first_divergent,
            "verified_up_to": verdict.verified_up_to,
        }
        if closures is not None:
            doc["closures"] = [_text_rows(m) for m in closures]
        print(json.dumps(doc, indent=2))
        return code

    print(f"verdict: {verdict.kind.value}")
    if verdict.kind is ConsistencyKind.CONSISTENT:
        print(f"fixed closure (index {n * n}, stable for every larger horizon):")
        print(verdict.fixed_closure)
    elif verdict.kind is ConsistencyKind.NOT_WEAKLY_CONSISTENT:
        print(f"first divergent closure index: {verdict.first_divergent}")
        print("no finite schedule spans that many occurrences")
    else:
        print(f"stabilization failed: closure({n * n}) != closure({n * n + 1})")
        print(
            f"all closures finite up to index {verdict.verified_up_to}"
            " (probe bound); weak consistency undecided"
        )
    if closures is not None:
        for k, matrix in enumerate(closures):
            print(f"closure({k}):")
            print(matrix)
    return code


def cmd_invariant(args) -> int:
    system = _load_system(args)
    report = iterate_shrink(system, args.probe_bound)

    if args.format == "json":
        doc = {
            "classification": report.kind.value,
            "step": report.step,
            "invariant_generator": (
                _text_rows(report.invariant_generator)
                if report.invariant_generator
                else None
            ),
        }
        if args.emit_s:
            doc["generators"] = [_text_rows(m) for m in report.generators]
        print(json.dumps(doc, indent=2))
        return 0

    print(f"{report.kind.value} {report.step}")
    if report.kind is InvarianceKind.CONVERGED_NON_EMPTY:
        print("invariant generator (its image is the maximal controlled-invariant set):")
        print(report.invariant_generator)
    elif report.kind is InvarianceKind.REAL_EMPTY_AT_STEP:
        print(f"no real vector survives {report.step} shrink steps")
    else:
        print(
            "still shrinking at the probe bound;"
            " the maximal invariant contains no real vector"
        )
    if args.emit_s:
        for k, matrix in enumerate(report.generators):
            print(f"generator(step {k}):")
            print(matrix)
    return 0


def cmd_trajectory(args) -> int:
    seed = tuple(args.seed.split(",")) if args.seed else None
    system = _load_system(args)
    try:
        trajectory = synthesize_trajectory(system, args.horizon, seed)
    except InfeasibleHorizon as exc:
        print(f"infeasible ({exc.reason}): {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if not validate_trajectory(system, trajectory):
        raise RuntimeError("synthesized trajectory failed validation")

    states = _text_rows(trajectory.states)  # the inputs u(k) = x(k+1) are states[1:]
    if args.format == "json":
        doc = {"horizon": trajectory.horizon, "states": states, "inputs": states[1:]}
        print(json.dumps(doc, indent=2))
        return 0

    for name, rows in (("x", states), ("u", states[1:])):
        for k, row in enumerate(rows, start=1):
            print(f"{name}({k}) = " + " ".join(row))
    return 0


def cmd_graph(args) -> int:
    system = _load_system(args)
    sys.stdout.write(export_dot(system, args.horizon))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxplus",
        description="Exact max-plus feasibility analysis of time-window"
        " constrained event systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="substitute a named parameter (repeatable)",
        )

    p_check = sub.add_parser("check", help="decide consistency")
    common(p_check)
    p_check.add_argument("--probe-bound", type=int, default=None, metavar="N")
    p_check.add_argument("--format", choices=("human", "json"), default="human")
    p_check.add_argument(
        "--emit-pi",
        action="store_true",
        help="print the full closure-matrix sequence",
    )
    p_check.set_defaults(handler=cmd_check)

    p_inv = sub.add_parser("invariant", help="compute the maximal invariant")
    common(p_inv)
    p_inv.add_argument("--probe-bound", type=int, default=None, metavar="N")
    p_inv.add_argument("--format", choices=("human", "json"), default="human")
    p_inv.add_argument(
        "--emit-s",
        action="store_true",
        help="print the full generator-matrix sequence",
    )
    p_inv.set_defaults(handler=cmd_invariant)

    p_traj = sub.add_parser("trajectory", help="synthesize a finite schedule")
    common(p_traj)
    p_traj.add_argument("--horizon", type=int, required=True, metavar="K")
    p_traj.add_argument(
        "--seed",
        default=None,
        metavar="V1,V2,...",
        help="finite seed vector for the first occurrence (default: zeros)",
    )
    p_traj.add_argument("--format", choices=("human", "json"), default="human")
    p_traj.set_defaults(handler=cmd_trajectory)

    p_graph = sub.add_parser("graph", help="emit the precedence graph as DOT")
    common(p_graph)
    p_graph.add_argument("--horizon", type=int, required=True, metavar="K")
    p_graph.set_defaults(handler=cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else 0
    try:
        return args.handler(args)
    except (ProblemFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
