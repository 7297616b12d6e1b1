import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from maxplus import TropicalMatrix, cli, format_scalar, parse_scalar
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

    def test_not_weakly_consistent_exit_two(self, capsys):
        code, out, _ = run(capsys, "check", RAILWAY, "--param", "ell=-13")
        assert code == 2
        assert "verdict: NotWeaklyConsistent" in out
        assert "first divergent closure index: 3" in out

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
        assert "infeasible (divergent)" in err

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
        calls = []

        def counted(value):
            calls.append(value)
            return format_scalar(value)

        monkeypatch.setattr(cli, "format_scalar", counted)
        code, out, _ = run(
            capsys, "trajectory", RAILWAY, "--horizon", "40", "--format", fmt
        )
        assert code == 0
        assert len(calls) == 40 * 4  # n = 4 entries per state
        if fmt == "json":
            inputs = json.loads(out)["inputs"]
        else:
            inputs = [line for line in out.splitlines() if line.startswith("u(")]
        assert len(inputs) == 39


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
        code, out, err = run(capsys, "check", RAILWAY, "--param", f"ell=-1e{limit}")
        assert code == 1
        assert out.startswith("verdict: Consistent\n")
        assert err == (
            f"error: cannot write a number of about {limit + 1} digits exactly:"
            f" the limit is {limit} digits\n"
        )

    def test_usage_error(self, capsys):
        assert main(["check"]) == 1

    def test_horizon_too_short(self, capsys):
        code, _, err = run(capsys, "trajectory", RAILWAY, "--horizon", "1")
        assert code == 1 and "at least 2" in err


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
