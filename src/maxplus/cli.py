"""Command-line front end.

Subcommands::

    maxplus check FILE       decide consistency; exit 0/2/3 per verdict
    maxplus invariant FILE   run the shrinking iteration, print its class
    maxplus trajectory FILE  synthesize a finite schedule; exit 4 if none
    maxplus graph FILE       emit the unrolled precedence graph as DOT

All numeric output is exact.  ``--param name=value`` substitutes named
entries in the problem file, so one file describes a whole parameter sweep.
``--probe-bound N`` sets the walk limit P = max(N, n^2 + 1), N defaulting
to ``10 * n^2``, and closures are searched up to P + 2.  Bad input exits 1;
a failed internal invariant exits 5 with one ``error: internal:`` line.  A
reader that closes stdout early (``| head``) ends the output quietly, and
the exit code stays the command's own.  Each ``cmd_*`` handler returns its
exit code and its whole stdout text, or raises.  Only :func:`main` writes
either stream, stdout once, and only it turns a failure into its exit code
(1, 4 or 5), so a failure leaves stdout empty and writes one line to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from json.encoder import encode_basestring_ascii as _encode

from .invariance import InvarianceKind, iterate_shrink
from .precedence import export_dot
from .problems import parse_problem_file
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

EXIT_CODES = {
    ConsistencyKind.CONSISTENT: 0,
    ConsistencyKind.NOT_WEAKLY_CONSISTENT: 2,
    ConsistencyKind.NOT_CONSISTENT_WEAK_OPEN: 3,
}
EXIT_USAGE = 1
EXIT_INFEASIBLE = 4
EXIT_INTERNAL = 5


def _load_system(args) -> PtegSystem:
    params = {}
    for pair in args.param:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"--param expects name=value, got {pair!r}")
        params[name] = value
    return parse_problem_file(args.file).instantiate(params)


def _json_text(doc: dict, key: str | None = None, matrices=None) -> str:
    """``doc``, ``matrices`` under ``key``, as ``json.dumps(doc, indent=2)`` writes it.

    Any indent would send ``json.dumps`` to its pure-Python encoder.
    """
    if matrices is not None:
        doc[key] = [m.text_rows() for m in matrices]
    return _json_value(doc, "\n") + "\n"


def _json_value(value, newline: str) -> str:
    """``value`` (str, int, None, dict or list) at the indent ending ``newline``."""
    if type(value) is str:
        return _encode(value)
    if type(value) is not dict and type(value) is not list:
        return "null" if value is None else str(value)
    if not value:
        return "{}" if type(value) is dict else "[]"
    inner = newline + "  "
    if type(value) is dict:
        items = [f"{_encode(k)}: {_json_value(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    items = [_encode(v) if type(v) is str else _json_value(v, inner) for v in value]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _human_text(lines: list, label: str | None = None, matrices=None) -> str:
    """The report ``lines``, then each of ``matrices`` under ``label.format(k)``."""
    if matrices is not None:
        for k, matrix in enumerate(matrices):
            lines += [label.format(k), str(matrix)]
    return "\n".join(lines) + "\n"


def cmd_check(args, system: PtegSystem) -> tuple[int, str]:
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
                verdict.fixed_closure.text_rows() if verdict.fixed_closure else None
            ),
            "first_divergent": verdict.first_divergent,
            "verified_up_to": verdict.verified_up_to,
        }
        return code, _json_text(doc, "closures", closures)

    lines = [f"verdict: {verdict.kind.value}"]
    if verdict.kind is ConsistencyKind.CONSISTENT:
        lines.append(f"fixed closure (index {n * n}, stable for every larger horizon):")
        lines.append(str(verdict.fixed_closure))
    elif verdict.kind is ConsistencyKind.NOT_WEAKLY_CONSISTENT:
        d = verdict.first_divergent  # closure d spans d + 1 occurrences
        lines.append(f"first divergent closure index: {d}")
        lines.append(f"no schedule over {d + 1} occurrence{'s' if d else ''} exists")
    else:
        lines.append(f"stabilization failed: closure({n * n}) != closure({n * n + 1})")
        lines.append(
            f"all closures finite up to index {verdict.verified_up_to}"
            " (probe bound); weak consistency undecided"
        )
    return code, _human_text(lines, "closure({}):", closures)


def cmd_invariant(args, system: PtegSystem) -> tuple[int, str]:
    report = iterate_shrink(system, args.probe_bound)
    generators = report.generators if args.emit_s else None

    if args.format == "json":
        doc = {
            "classification": report.kind.value,
            "step": report.step,
            "invariant_generator": (
                report.invariant_generator.text_rows()
                if report.invariant_generator
                else None
            ),
        }
        return 0, _json_text(doc, "generators", generators)

    lines = [f"{report.kind.value} {report.step}"]
    if report.kind is InvarianceKind.CONVERGED_NON_EMPTY:
        lines.append(
            "invariant generator (its image is the maximal controlled-invariant set):"
        )
        lines.append(str(report.invariant_generator))
    elif report.kind is InvarianceKind.REAL_EMPTY_AT_STEP:
        lines.append(f"no real vector survives {report.step} shrink steps")
    else:
        lines.append(
            "still shrinking at the probe bound;"
            " the maximal invariant contains no real vector"
        )
    return 0, _human_text(lines, "generator(step {}):", generators)


def cmd_trajectory(args, system: PtegSystem) -> tuple[int, str]:
    seed = None if args.seed is None else tuple(args.seed.split(","))
    trajectory = synthesize_trajectory(system, args.horizon, seed)
    if not validate_trajectory(system, trajectory):
        raise RuntimeError("synthesized trajectory failed validation")

    # the inputs u(k) = x(k+1) are states[1:]
    states = trajectory.table.text_rows()
    if args.format == "json":
        doc = {"horizon": trajectory.horizon, "states": states, "inputs": states[1:]}
        return 0, _json_text(doc)

    return 0, _human_text(
        [
            f"{name}({k}) = " + " ".join(row)
            for name, rows in (("x", states), ("u", states[1:]))
            for k, row in enumerate(rows, start=1)
        ]
    )


def cmd_graph(args, system: PtegSystem) -> tuple[int, str]:
    return 0, export_dot(system, args.horizon)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and each subcommand's own parser by name, built once per process.

    One row a subcommand, its flags in order after ``file`` and ``--param``.
    Parsing leaves them unchanged: ``--param`` appends to a copy of its
    default list, never to the list itself, so no value carries over from
    one :func:`main` call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="maxplus",
        description="Exact max-plus feasibility analysis of time-window"
        " constrained event systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    param = "--param", dict(
        action="append", default=[], metavar="NAME=VALUE",
        help="substitute a named parameter (repeatable)",
    )
    probe = "--probe-bound", dict(type=int, metavar="N")
    fmt = "--format", dict(choices=("human", "json"), default="human")
    horizon = "--horizon", dict(type=int, required=True, metavar="K")
    emit_pi = "--emit-pi", dict(
        action="store_true", help="print the full closure-matrix sequence"
    )
    emit_s = "--emit-s", dict(
        action="store_true", help="print the full generator-matrix sequence"
    )
    seed = "--seed", dict(
        metavar="V1,V2,...",
        help="finite seed vector for the first occurrence (default: zeros)",
    )
    rows = (
        ("check", cmd_check, "decide consistency", (probe, fmt, emit_pi)),
        ("invariant", cmd_invariant, "compute the maximal invariant", (probe, fmt, emit_s)),
        ("trajectory", cmd_trajectory, "synthesize a finite schedule", (horizon, seed, fmt)),
        ("graph", cmd_graph, "emit the precedence graph as DOT", (horizon,)),
    )
    commands = {}
    for name, handler, help_text, flags in rows:
        command = commands[name] = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        command.add_argument("file", help="problem file (JSON)")
        for flag, spec in (param, *flags):
            command.add_argument(flag, **spec)
    return parser, commands


def _parse(argv: list) -> argparse.Namespace:
    """``argv`` parsed as the top-level parser parses it, and mostly without it.

    The top-level parser hands everything after the subcommand's name to
    that subcommand's parser, so when ``argv[0]`` names one and its parser
    reads all the rest, that namespace is the answer.  Otherwise the
    top-level parser runs, and writes its own usage and errors.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else 0
    try:
        code, text = args.handler(args, _load_system(args))
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # point stdout at the null device, so the interpreter's flush at
            # exit does not fail on the unwritten rest again
            devnull = os.open(os.devnull, os.O_WRONLY)
            with contextlib.suppress(OSError):
                os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    except InfeasibleHorizon as exc:
        print(f"infeasible ({exc.reason}): {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
