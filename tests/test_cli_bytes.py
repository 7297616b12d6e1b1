"""Byte-identity of the command line over a fixed list of invocations.

Every invocation runs through ``cli.main`` in-process, and the sha256 of its
exit code, stdout and stderr is compared with ``cli_bytes.json``.  The list
covers both samples, all four subcommands, rational railway windows on both
sides of the consistency threshold ell = -14, every output option, the
error paths and the help text.  The record keeps each invocation's exit code beside its
digest.  A refactoring that keeps verdicts, certificates and messages keeps
every digest; a deliberate output change re-records the file with::

    PYTHONPATH=src python tests/test_cli_bytes.py --record

``--check`` compares with the record using the standard library alone, so
any interpreter the package supports can run it without pytest.  It prints
the interpreter's version and exits non-zero when an invocation differs.
Both options list each invocation that differs (changed, new or dropped)
with its exit code in the record and now and its last stderr line, then
the count, so a re-record reports what it rewrote::

    PYTHONPATH=src python3.10 tests/test_cli_bytes.py --check

argparse quotes the choices of its ``invalid choice`` message on some
interpreters and not on others (3.13.13 does not), so that one clause is
hashed in its quoted form, whichever way it was written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import sys
from pathlib import Path

from maxplus.cli import main

HERE = Path(__file__).resolve().parent
SAMPLES = HERE.parent / "samples"
RECORD = HERE / "cli_bytes.json"

RAILWAY_ELLS = (
    "-20", "-16", "-15", "-14.5", "-85/6", "-14.123", "-14",
    "-13.99", "-13.9", "-13.5", "-41/3", "-13", "0", "7/3",
)
SEEDS = {
    "railway.json": (None, "3,0,-2,1", "1/3,0,0,2/7", "-5/2,1/6,0.25,-7/9"),
    "two_node.json": (None, "3,-2", "1/3,2/7", "-5/2,0.25"),
}

# Files written next to the samples in the working directory of the run.
BROKEN_FILES = {
    "broken.json": '{"n": 1,,}',
    "deep.json": '{"n": 1, "A": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "not_object.json": "[1, 2]",
    "bad_size.json": '{"n": true, "A": [], "L": [], "C": [], "Rtilde": []}',
    "plus_inf.json": json.dumps(
        {"n": 1, "A": [["+inf"]], "L": [["0"]], "C": [["0"]], "Rtilde": [["0"]]}
    ),
    "exponent.json": json.dumps(
        {"n": 1, "A": [["1e3"]], "L": [["-2e-1"]], "C": [["-inf"]], "Rtilde": [["0"]]}
    ),
    # a parameter named "" would fill the blank cells of C
    "empty_param.json": json.dumps(
        {"n": 2, "A": [["0", "-inf"], ["-inf", "0"]], "L": [["-inf"] * 2] * 2,
         "C": [["", "-inf"], ["-inf", "  "]], "Rtilde": [["-inf"] * 2] * 2,
         "params": {"": "7"}}
    ),
}


def _banded(shift: int, offset: int, phase: int, n: int = 8) -> list[list[str]]:
    """Entries (i, i + offset mod n) met with slack by x_i(k) = p_i + 4k; the rest -inf.

    p_i = 5i mod 11, ``shift`` is the block's occurrence gap times 4, and the
    slack is 1 to 3, by ``phase``.
    """
    p = [5 * i % 11 for i in range(n)]
    return [
        [str(p[i] - p[j] + shift - 1 - (i + 2 * j + phase) % 3)
         if (j - i) % n == offset else "-inf" for j in range(n)]
        for i in range(n)
    ]


# A consistent n = 8 system whose closures first repeat at index 3: --emit-pi
# lists its fixed closure 64 times, and --emit-s converges at step 1.
CONSISTENT_FILES = {
    "consistent_8.json": json.dumps(
        {"n": 8, "A": _banded(4, 1, 0), "L": _banded(-4, 1, 1), "C": _banded(0, 3, 2),
         "Rtilde": [["-inf"] * 8] * 8}
    ),
}

ERRORS = (
    [],
    ["frobnicate"],
    ["check"],
    ["check", "missing.json"],
    ["check", "railway.json", "--param", "ell"],
    ["check", "railway.json", "--param", "ell=oops"],
    ["check", "railway.json", "--param", "ell=+inf"],
    ["check", "railway.json", "--param", "ell=1/0"],
    # read by Fraction on newer interpreters only, so rejected on all
    ["check", "railway.json", "--param", "ell=-14_0"],
    ["check", "railway.json", "--param", "ell=-29 /2"],
    ["check", "railway.json", "--probe-bound", "0"],
    ["check", "railway.json", "--probe-bound", "-3"],
    ["check", "railway.json", "--probe-bound", "x"],
    ["check", "railway.json", "--format", "xml"],
    ["invariant", "railway.json", "--probe-bound", "0"],
    ["invariant", "railway.json", "--emit-pi"],
    ["trajectory", "railway.json"],
    ["trajectory", "railway.json", "--horizon", "1"],
    ["trajectory", "railway.json", "--horizon", "3", "--seed", "1,2"],
    ["trajectory", "railway.json", "--horizon", "3", "--seed", "1,2,3,-inf"],
    ["trajectory", "railway.json", "--horizon", "3", "--seed", "1,2,3,x"],
    ["trajectory", "railway.json", "--param", "ell=-13", "--horizon", "8"],
    ["graph", "railway.json", "--horizon", "0"],
    ["graph", "railway.json", "--horizon", "2", "--format", "dot"],
    ["check", "two_node.json", "--param", "ell=1"],
) + tuple(["check", name] for name in BROKEN_FILES)

# Usage and help text, as argparse lays it out at 80 columns.
HELP = (["--help"],) + tuple(
    [command, "--help"] for command in ("check", "invariant", "trajectory", "graph")
)

# One probe bound, one stop: the railway at ell = -13.9 first holds +inf at
# closure 21, which both commands reach at these bounds.
SAME_BOUND = tuple(
    [command, "railway.json", "--param", "ell=-13.9", "--format", "human",
     "--probe-bound", probe]
    for command in ("check", "invariant")
    for probe in ("19", "20")
)


# Ways to spell one request that argparse reads alike: an abbreviated flag,
# values joined by "=", "--" before the file, help after it, an unknown flag.
SHAPES = (
    ["check", "railway.json", "--probe", "5"],
    ["check", "railway.json", "--format=json"],
    ["check", "railway.json", "--param=ell=-13"],
    ["check", "--", "railway.json"],
    ["check", "railway.json", "-h"],
    ["check", "railway.json", "--bogus"],
)


def invocations() -> list[list[str]]:
    """The fixed argument lists, in a stable order."""
    systems = [("two_node.json", [])] + [
        ("railway.json", ["--param", f"ell={ell}"]) for ell in RAILWAY_ELLS
    ]
    out = []
    for name, params in systems:
        for command, emit in (("check", "--emit-pi"), ("invariant", "--emit-s")):
            for fmt in ("human", "json"):
                for probe in (None, "1", "6", "50"):
                    for emitting in (False, True):
                        argv = [command, name, *params, "--format", fmt]
                        if probe is not None:
                            argv += ["--probe-bound", probe]
                        if emitting:
                            argv.append(emit)
                        out.append(argv)
        for horizon in ("2", "5", "9", "40"):
            for seed in SEEDS[name]:
                for fmt in ("human", "json"):
                    argv = ["trajectory", name, *params, "--horizon", horizon]
                    if seed is not None:
                        argv += ["--seed", seed]
                    out.append(argv + ["--format", fmt])
        # 2: no interior stage; 12: two-digit stage numbers
        for horizon in ("1", "2", "3", "12"):
            out.append(["graph", name, *params, "--horizon", horizon])
    for name in CONSISTENT_FILES:
        for command, emit in (("check", "--emit-pi"), ("invariant", "--emit-s")):
            for fmt in ("human", "json"):
                out.append([command, name, "--format", fmt, emit])
    out.extend(list(argv) for argv in ERRORS + SAME_BOUND + HELP + SHAPES)
    return out


# argparse's own clause, e.g. "(choose from 'human', 'json')" or, on some
# interpreters, "(choose from human, json)"
CHOICES = re.compile(r"(: invalid choice: .*) \(choose from (.*)\)$", re.M)


def canonical(stderr: str) -> str:
    """``stderr`` with every choice list of argparse written quoted."""

    def quoted(match):
        names = (repr(name.strip("'")) for name in match.group(2).split(", "))
        return f"{match.group(1)} (choose from {', '.join(names)})"

    return CHOICES.sub(quoted, stderr)


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one invocation."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def digest(outcome: tuple[int, str, str]) -> str:
    code, stdout, stderr = outcome
    payload = json.dumps([code, stdout, canonical(stderr)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def outcomes(workdir: Path) -> dict[str, tuple[int, str, str]]:
    """Run every invocation from ``workdir`` and map its argv to its outcome."""
    for sample in SAMPLES.glob("*.json"):
        shutil.copy(sample, workdir / sample.name)
    for name, text in (BROKEN_FILES | CONSISTENT_FILES).items():
        (workdir / name).write_text(text, encoding="utf-8")
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        return {" ".join(argv): run(argv) for argv in invocations()}
    finally:
        os.chdir(previous)


def digests(ran: dict[str, tuple[int, str, str]]) -> dict[str, list]:
    """Each invocation's ``[exit code, digest]``, as the record keeps it."""
    return {argv: [outcome[0], digest(outcome)] for argv, outcome in ran.items()}


def load_record() -> dict[str, list]:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def differences(actual: dict[str, list], expected: dict[str, list]) -> list[str]:
    """Invocations missing from, added to or changed against ``expected``."""
    return sorted(
        argv for argv in actual.keys() | expected.keys()
        if actual.get(argv) != expected.get(argv)
    )


def describe(argv: str, ran: dict, expected: dict[str, list]) -> str:
    """One differing invocation, its exit code in the record and now."""
    was = f"exit {expected[argv][0]}" if argv in expected else "not recorded"
    if argv not in ran:
        return f"{argv}\n  {was}, now not run"
    code, _, stderr = ran[argv]
    last = stderr.splitlines()[-1] if stderr else ""
    return f"{argv}\n  {was}, now exit {code}, stderr: {last!r}"


def test_cli_bytes_match_the_record(tmp_path, monkeypatch):
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    assert differences(digests(outcomes(tmp_path)), load_record()) == []


def test_differences_name_both_exit_codes():
    ran = {"a": (0, "", ""), "b": (2, "", "error: x\n")}
    expected = {"a": [3, "old"], "c": [1, "gone"]}
    actual = digests(ran)
    assert differences(actual, expected) == ["a", "b", "c"]
    assert describe("a", ran, expected) == "a\n  exit 3, now exit 0, stderr: ''"
    assert describe("b", ran, expected) == (
        "b\n  not recorded, now exit 2, stderr: 'error: x'"
    )
    assert describe("c", ran, expected) == "c\n  exit 1, now not run"
    assert differences(actual, actual) == []


def test_choice_lists_hash_alike_quoted_or_not(monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    shutil.copy(SAMPLES / "railway.json", tmp_path)
    code, out, err = run(["check", "railway.json", "--format", "xml"])
    clause = "argument --format: invalid choice: 'xml' (choose from 'human', 'json')"
    assert canonical(err).splitlines()[-1].endswith(clause)
    head = canonical(err)[: -len(clause) - 1]

    def hashed(line):
        return digest((code, out, head + line + "\n"))

    assert hashed(clause) == hashed(clause.replace("'human', 'json'", "human, json"))
    assert hashed(clause) == digest((code, out, err))
    # the rejected value, the argument and the choices still count, either way
    for old, new in (("xml", "yaml"), ("--format", "--fmt"), ("json", "text")):
        for line in (clause, clause.replace("'human', 'json'", "human, json")):
            assert hashed(line.replace(old, new)) != hashed(clause)
    assert digest(run(["check", "railway.json", "--format", "yaml"])) != hashed(clause)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] not in (["--record"], ["--check"]):
        sys.exit("usage: python tests/test_cli_bytes.py --record | --check")
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        ran = outcomes(Path(tmp))
    record, expected = digests(ran), load_record()
    if sys.argv[1] == "--check":
        print(f"python {sys.version}")
    changed = differences(record, expected)
    for argv in changed:
        print(f"differs: {describe(argv, ran, expected)}")
    print(f"{len(changed)} of {len(record)} invocations differ from {RECORD.name}")
    if sys.argv[1] == "--check":
        sys.exit(1 if changed else 0)
    # one invocation a line, so a re-record's diff shows only what changed
    lines = [f" {json.dumps(argv)}: {json.dumps(record[argv])}" for argv in sorted(record)]
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"recorded {len(record)} invocations in {RECORD}")
