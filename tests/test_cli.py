import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxplus import (
    TropicalMatrix,
    cli,
    finite_weak_feasibility,
    parse_problem_file,
    parse_scalar,
)
from maxplus.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
RAILWAY = str(SAMPLES / "railway.json")
TWO_NODE = str(SAMPLES / "two_node.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_consistent_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check", RAILWAY)
        assert code == 0
        assert "verdict: Consistent" in out

    def test_module_runs_as_a_script(self):
        env = {**os.environ, "PYTHONPATH": str(SAMPLES.parent / "src")}
        command = [sys.executable, "-m", "maxplus.cli", "check", RAILWAY]
        done = subprocess.run(command, env=env, capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stdout.startswith("verdict: Consistent\n")
        assert done.stderr == ""

    def test_not_weakly_consistent_exit_two(self, capsys):
        code, out, _ = run(capsys, "check", RAILWAY, "--param", "ell=-13")
        assert code == 2
        assert "verdict: NotWeaklyConsistent" in out
        assert "first divergent closure index: 3" in out

    @pytest.mark.parametrize("ell", ["-13.9", "-13.5", "-13"])
    def test_divergence_names_the_least_infeasible_horizon(self, capsys, ell):
        """Closure d spans d + 1 occurrences: H = d + 1 fails, H - 1 does not."""
        code, out, _ = run(capsys, "check", RAILWAY, "--param", f"ell={ell}")
        assert code == 2
        match = re.search(r"^no schedule over (\d+) occurrences exists$", out, re.M)
        horizon = int(match[1])
        system = parse_problem_file(RAILWAY).instantiate({"ell": ell})
        assert not finite_weak_feasibility(system, horizon)
        if horizon > 1:
            assert finite_weak_feasibility(system, horizon - 1)

    def test_divergence_at_closure_zero_names_one_occurrence(self, capsys, tmp_path):
        loop = {"n": 1, "A": [["0"]], "L": [["-inf"]], "C": [["1"]], "Rtilde": [["-inf"]]}
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(loop), encoding="utf-8")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 2
        assert out.endswith(
            "first divergent closure index: 0\nno schedule over 1 occurrence exists\n"
        )

    def test_param_does_not_leak_into_the_next_call(self, capsys):
        # the parser is built once per process and reused by every call
        assert run(capsys, "check", RAILWAY, "--param", "ell=-13")[0] == 2
        code, out, _ = run(capsys, "check", RAILWAY)
        assert code == 0 and out.startswith("verdict: Consistent\n")
        assert run(capsys, "check", RAILWAY, "--param", "ell=-13")[0] == 2
        assert cli._build_parser() is cli._build_parser()

    def test_open_verdict_exit_three(self, capsys):
        code, out, _ = run(capsys, "check", TWO_NODE)
        assert code == 3
        assert "verdict: NotConsistentWeakOpen" in out
        assert "closure(4) != closure(5)" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "check", RAILWAY, "--format", "json")
        doc = json.loads(out)
        assert code == doc["exit_code"] == 0
        assert doc["verdict"] == "Consistent"
        assert doc["fixed_closure"][3] == ["0", "3", "0", "0"]

    def test_emit_closures(self, capsys):
        _, out, _ = run(capsys, "check", TWO_NODE, "--emit-pi", "--probe-bound", "6")
        assert "closure(0):" in out and "closure(6):" in out

    def test_probe_bound_flag(self, capsys):
        _, out, _ = run(
            capsys, "check", TWO_NODE, "--probe-bound", "50", "--format", "json"
        )
        assert json.loads(out)["verified_up_to"] == 50


class TestInvariant:
    def test_converged(self, capsys):
        code, out, _ = run(capsys, "invariant", RAILWAY)
        assert code == 0
        assert out.splitlines()[0] == "ConvergedNonEmpty 2"

    @pytest.mark.parametrize(
        "ell,step", [("-13", 2), ("-13.5", 5), ("-13.9", 20)]
    )
    def test_shrinks_to_empty(self, capsys, ell, step):
        code, out, _ = run(capsys, "invariant", RAILWAY, "--param", f"ell={ell}")
        assert code == 0
        assert out.splitlines()[0] == f"RealEmptyAtStep {step}"

    def test_open(self, capsys):
        _, out, _ = run(capsys, "invariant", TWO_NODE)
        assert out.splitlines()[0] == "NonConvergentWeakOpen 40"

    def test_scale_beyond_float_range(self, capsys):
        # ell = 1e-400 stores the other entries as ints no float can hold
        code, out, err = run(
            capsys, "invariant", RAILWAY, "--param", "ell=1e-400", "--emit-s"
        )
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "RealEmptyAtStep 0"
        assert "generator(step 0):" in out

    def test_json_with_generators(self, capsys):
        _, out, _ = run(
            capsys, "invariant", RAILWAY, "--format", "json", "--emit-s"
        )
        doc = json.loads(out)
        assert doc["classification"] == "ConvergedNonEmpty"
        assert doc["step"] == 2
        assert doc["generators"][-1] == doc["invariant_generator"]
        assert doc["invariant_generator"][0][0] == "0"


class TestTrajectory:
    def test_feasible(self, capsys):
        code, out, _ = run(capsys, "trajectory", RAILWAY, "--horizon", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("x(1) = ")
        assert sum(1 for l in lines if l.startswith("x(")) == 5
        assert sum(1 for l in lines if l.startswith("u(")) == 4

    def test_infeasible_exit_four(self, capsys):
        code, out, err = run(
            capsys, "trajectory", RAILWAY, "--param", "ell=-13", "--horizon", "8"
        )
        assert code == 4
        assert out == ""
        assert err.startswith("infeasible (divergent): ") and err.count("\n") == 1

    def test_unconstrained_stays_at_zero(self, capsys, tmp_path):
        doc = {
            "n": 2,
            "A": [["-inf", "-inf"], ["-inf", "-inf"]],
            "L": [["-inf", "-inf"], ["-inf", "-inf"]],
            "C": [["-inf", "-inf"], ["-inf", "-inf"]],
            "Rtilde": [["-inf", "-inf"], ["-inf", "-inf"]],
        }
        path = tmp_path / "free.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "trajectory", str(path), "--horizon", "2")
        assert code == 0
        assert out.splitlines()[:2] == ["x(1) = 0 0", "x(2) = 0 0"]

    def test_seed_flag(self, capsys):
        code, out, _ = run(
            capsys, "trajectory", RAILWAY, "--horizon", "3", "--seed", "1,2,3,4"
        )
        assert code == 0
        # the schedule dominates the seed; constraints may push it higher
        first = [parse_scalar(v) for v in out.splitlines()[0].split(" = ")[1].split()]
        assert all(a >= b for a, b in zip(first, (1, 2, 3, 4)))

    @pytest.mark.parametrize("seed", ["", " "])
    def test_blank_seed_is_rejected(self, capsys, seed):
        # an empty seed is a seed that does not parse, not a missing one
        code, out, err = run(
            capsys, "trajectory", RAILWAY, "--horizon", "2", "--seed", seed
        )
        assert code == 1 and out == ""
        assert err == f"error: not an exact scalar: {seed!r}\n"

    def test_exact_fractional_output(self, capsys):
        code, out, _ = run(
            capsys,
            "trajectory",
            RAILWAY,
            "--param",
            "ell=-13.999",
            "--horizon",
            "3",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        values = [parse_scalar(v) for row in doc["states"] for v in row]
        assert all(v == Fraction(v) for v in values)
        assert any(Fraction(v).denominator > 1 for v in values)

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_each_state_is_formatted_once(self, capsys, monkeypatch, fmt):
        """One ``text_rows`` call, on the trajectory's table; u(k) is x(k+1)."""
        formatted, synthesized = [], []
        text_rows, synthesize = TropicalMatrix.text_rows, cli.synthesize_trajectory

        def counted(matrix):
            formatted.append(matrix)
            return text_rows(matrix)

        def kept(*args):
            synthesized.append(synthesize(*args))
            return synthesized[-1]

        monkeypatch.setattr(TropicalMatrix, "text_rows", counted)
        monkeypatch.setattr(cli, "synthesize_trajectory", kept)
        code, out, _ = run(
            capsys, "trajectory", RAILWAY, "--horizon", "40", "--format", fmt
        )
        assert code == 0
        assert len(formatted) == 1 and formatted[0] is synthesized[0].table
        if fmt == "json":
            doc = json.loads(out)
            states, inputs = doc["states"], doc["inputs"]
        else:
            rows = [line.split(" = ") for line in out.splitlines()]
            states = [row for name, row in rows if name.startswith("x(")]
            inputs = [row for name, row in rows if name.startswith("u(")]
        assert len(states) == 40 and inputs == states[1:]


# What the CLI's JSON documents hold: strings, ints and None as values, and
# matrices as lists (possibly empty) of lists of strings, nested a few deep.
json_texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
json_leaves = st.one_of(st.none(), st.integers(-(10**30), 10**30), json_texts)
json_values = st.recursive(
    json_leaves, lambda inner: st.lists(inner, max_size=4), max_leaves=40
)


@given(st.dictionaries(json_texts, json_values, max_size=6))
def test_json_text_is_the_standard_librarys(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2) + "\n"


class TestGraph:
    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, "graph", RAILWAY, "--horizon", "7")
        _, second, _ = run(capsys, "graph", RAILWAY, "--horizon", "7")
        assert first == second
        assert first.startswith("digraph precedence {")

    def test_single_stage(self, capsys):
        _, out, _ = run(capsys, "graph", TWO_NODE, "--horizon", "1")
        assert '  x1_1 -> x2_1 [label="0"];' in out
        assert "->" not in out.replace('x1_1 -> x2_1 [label="0"];', "")

    def test_parameter_substitution_shows_in_labels(self, capsys):
        _, out, _ = run(
            capsys, "graph", RAILWAY, "--horizon", "2", "--param", "ell=-13.5"
        )
        assert '  x4_2 -> x4_1 [label="-13.5"];' in out


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.json")
        assert code == 1 and "error:" in err

    def test_parse_error_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 1,,}')
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "line" in err and "column" in err

    def test_deep_nesting_is_a_format_error(self, capsys, tmp_path):
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text('{"n": 1, "A": ' + "[" * depth + "]" * depth + "}")
        code, out, err = run(capsys, "check", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize(
        "extra,message",
        [
            ({"A": [[None]]}, "unexpected entry None in matrix A"),
            ({"params": []}, '"params" must map names to scalar strings'),
        ],
    )
    def test_problem_format_errors(self, capsys, tmp_path, extra, message):
        doc = {"n": 1, "A": [["0"]], "L": [["0"]], "C": [["0"]], "Rtilde": [["0"]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, **extra}))
        code, out, err = run(capsys, "check", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_bad_param_syntax(self, capsys):
        code, _, err = run(capsys, "check", RAILWAY, "--param", "ell")
        assert code == 1 and "name=value" in err

    def test_unknown_parameter_value(self, capsys):
        code, _, err = run(capsys, "check", RAILWAY, "--param", "ell=oops")
        assert code == 1 and "oops" in err

    def test_misspelled_parameter_is_rejected(self, capsys):
        code, out, err = run(capsys, "check", RAILWAY, "--param", "elll=-13")
        assert code == 1 and out == ""
        assert err == "error: unknown parameter 'elll'\n"

    def test_declared_parameter_may_go_unused(self, capsys, tmp_path):
        doc = {
            "n": 1,
            "A": [["1"]],
            "L": [["-inf"]],
            "C": [["-inf"]],
            "Rtilde": [["-inf"]],
            "params": {"spare": "2"},
        }
        path = tmp_path / "spare.json"
        path.write_text(json.dumps(doc))
        plain = run(capsys, "check", str(path))
        assert plain[0] == 0
        assert run(capsys, "check", str(path), "--param", "spare=5") == plain

    def test_bad_probe_bound(self, capsys):
        code, _, err = run(capsys, "check", RAILWAY, "--probe-bound", "0")
        assert code == 1 and "positive" in err

    def test_probe_bound_environment_is_ignored(self, capsys, monkeypatch):
        expected = run(capsys, "check", TWO_NODE, "--format", "json")
        monkeypatch.setenv("MAXPLUS_PROBE_BOUND", "many")
        assert run(capsys, "check", TWO_NODE, "--format", "json") == expected
        monkeypatch.setenv("MAXPLUS_PROBE_BOUND", "60")
        assert run(capsys, "check", TWO_NODE, "--format", "json") == expected

    def test_graph_has_no_format_option(self, capsys):
        code, out, err = run(
            capsys, "graph", RAILWAY, "--horizon", "2", "--format", "dot"
        )
        assert code == 1 and out == ""
        assert "unrecognized arguments: --format dot" in err

    def test_decimal_exponent_limit(self, capsys):
        limit = sys.int_info.default_max_str_digits
        code, _, err = run(capsys, "check", RAILWAY, "--param", f"ell=1e{limit}")
        assert code == 2 and err == ""
        code, out, err = run(
            capsys, "trajectory", TWO_NODE, "--horizon", "2", f"--seed=-1e-{limit},0"
        )
        assert code == 0 and out.startswith("x(1) = -0.000")
        code, out, err = run(capsys, "check", RAILWAY, "--param", f"ell=1e{limit + 1}")
        assert code == 1 and out == ""
        assert err == f"error: parameter 'ell' has non-scalar value '1e{limit + 1}'\n"
        code, out, err = run(
            capsys, "trajectory", TWO_NODE, "--horizon", "2", "--seed=1e-999999999,0"
        )
        assert code == 1 and out == ""
        assert err == "error: not an exact scalar: '1e-999999999'\n"

    def test_value_past_the_digit_limit(self, capsys):
        limit = sys.int_info.default_max_str_digits
        for command in ("check", "invariant"):
            code, out, err = run(capsys, command, RAILWAY, f"--param=ell=-1e{limit}")
            assert code == 1
            assert out == ""
            assert err == (
                f"error: cannot write a number of about {limit + 1} digits exactly:"
                f" the limit is {limit} digits\n"
            )

    @pytest.mark.parametrize("name", ["-inf", "0"])
    def test_parameter_named_like_a_scalar(self, capsys, name):
        code, out, err = run(capsys, "check", RAILWAY, f"--param={name}=3")
        assert code == 1 and out == ""
        assert err == f"error: parameter name {name!r} would shadow a scalar token\n"

    @pytest.mark.parametrize(
        "argv, top_level",
        [
            (("check", RAILWAY, "--format=json", "--probe", "5"), False),
            (("check", "--", RAILWAY), False),
            (("check", RAILWAY, "--bogus"), True),
            (("checks", RAILWAY), True),
            ((), True),
        ],
    )
    def test_top_level_parser_runs_only_when_needed(self, monkeypatch, argv, top_level):
        """Only an argv the named subcommand's parser leaves unread, or none named."""
        parser, _ = cli._build_parser()
        calls = []
        parse_args = parser.parse_args

        def recorded(args):
            calls.append(args)
            return parse_args(args)

        monkeypatch.setattr(parser, "parse_args", recorded)
        with pytest.raises(SystemExit) if top_level else contextlib.nullcontext():
            assert cli._parse(list(argv)).file == RAILWAY
        assert calls == ([list(argv)] if top_level else [])

    def test_usage_error(self, capsys):
        assert main(["check"]) == 1

    def test_horizon_too_short(self, capsys):
        code, _, err = run(capsys, "trajectory", RAILWAY, "--horizon", "1")
        assert code == 1 and "at least 2" in err


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away, as after ``maxplus ... | head -1``."""

    def __init__(self, fd=None):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return super().fileno() if self.fd is None else self.fd


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("check", RAILWAY, "--emit-pi"), 0),
            (("check", RAILWAY, "--param", "ell=-13", "--format", "json"), 2),
            (("check", TWO_NODE, "--emit-pi"), 3),
            (("invariant", RAILWAY, "--emit-s"), 0),
            (("trajectory", RAILWAY, "--horizon", "5"), 0),
            (("graph", RAILWAY, "--horizon", "3"), 0),
        ],
    )
    def test_exit_code_is_the_commands_own(self, capsys, monkeypatch, argv, expected):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(list(argv))
        assert code == expected
        assert capsys.readouterr().err == ""

    def test_unwritten_rest_goes_to_the_null_device(self, monkeypatch, tmp_path):
        # the interpreter flushes stdout once more at exit; that must not fail
        path = tmp_path / "stdout"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
            assert main(["check", RAILWAY]) == 0
            os.write(fd, b"rest of the report")
        finally:
            os.close(fd)
        assert path.read_bytes() == b""


class FullDisk(io.StringIO):
    """A stdout on a full disk: every write fails."""

    def write(self, text):
        raise OSError(28, "No space left on device")


WRITING_COMMANDS = [
    ("check", RAILWAY, "--emit-pi"),
    ("invariant", RAILWAY, "--emit-s", "--format", "json"),
    ("trajectory", RAILWAY, "--horizon", "5"),
    ("graph", RAILWAY, "--horizon", "3"),
]


class TestFailedWrite:
    @pytest.mark.parametrize("argv", WRITING_COMMANDS)
    def test_one_error_line_and_exit_one(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", FullDisk())
        assert main(list(argv)) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    def test_infeasible_horizon_writes_no_stdout(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", FullDisk())
        argv = ["trajectory", RAILWAY, "--param", "ell=-13", "--horizon", "8"]
        assert main(argv) == 4
        assert capsys.readouterr().err.startswith("infeasible (divergent): ")

    @pytest.mark.parametrize("argv", WRITING_COMMANDS)
    def test_handler_returns_its_text_unwritten(self, capsys, monkeypatch, argv):
        code, out, _ = run(capsys, *argv)
        args = cli._parse(list(argv))
        system = cli._load_system(args)
        monkeypatch.setattr(sys, "stdout", FullDisk())
        assert args.handler(args, system) == (code, out)


class TestInternalErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", RAILWAY),
            ("invariant", RAILWAY),
            ("trajectory", RAILWAY, "--horizon", "3"),
        ],
    )
    def test_lost_monotonicity_exits_five(self, capsys, monkeypatch, argv):
        # every closure step now looks smaller than its predecessor
        monkeypatch.setattr(TropicalMatrix, "__le__", lambda a, b: False)
        code, out, err = run(capsys, *argv)
        assert code == 5
        assert out == ""
        assert err == "error: internal: closure sequence lost monotonicity\n"

    def test_failed_validation_exits_five(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "validate_trajectory", lambda system, t: False)
        code, out, err = run(capsys, "trajectory", RAILWAY, "--horizon", "3")
        assert code == 5
        assert out == ""
        assert err == "error: internal: synthesized trajectory failed validation\n"
