"""Fuzzing the command line over mutated sample documents and arguments.

Whatever the document, parameters, seed or horizon, ``cli.main`` returns
one of the documented exit codes 0-4 and never raises.  Bad input (exit 1)
is reported as exactly one ``error: `` line on stderr.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
DOCS = [
    json.loads(path.read_text(encoding="utf-8"))
    for path in sorted(SAMPLES.glob("*.json"))
]

SCALARS = st.sampled_from(
    [
        "0", "-3", "17", "2.5", "-13", "-13.999", "-14", "7/3", "-1/3", "-inf",
        "ell", "1e4300", "-1e4300", "1e-400", "1e-4300",
    ]
)
JUNK = st.sampled_from(
    [
        "1/0", "+inf", "inf", "nan", "x", "", " ", "1e4301", "0x10", "1_000",
        "--1", "1/3e2",
    ]
)
TOKENS = st.one_of(SCALARS, JUNK)
ENTRIES = st.one_of(
    SCALARS, TOKENS, st.text(max_size=4), st.integers(-10**6, 10**6), st.none(),
    st.booleans(), st.lists(TOKENS, max_size=2),
)
KEYS = ["n", "A", "L", "C", "Rtilde", "params", "extra"]
CHANGES = ["entry", "entry", "entry", "row", "field", "drop"]


@st.composite
def documents(draw) -> str:
    """A sample document with a few entries, rows or fields changed."""
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCS))))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(KEYS))
        grid = doc.get(key) if isinstance(doc.get(key), list) else []
        rows = [row for row in grid if isinstance(row, list) and row]
        change = draw(st.sampled_from(CHANGES))
        if change == "entry" and rows:
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, len(row) - 1))] = draw(ENTRIES)
        elif change == "row" and grid:
            row = draw(st.lists(TOKENS, max_size=5))
            grid[draw(st.integers(0, len(grid) - 1))] = row
        elif change == "field" and key == "params":
            doc["params"] = draw(st.dictionaries(TOKENS, ENTRIES, max_size=2))
        elif change == "field":
            doc[key] = draw(ENTRIES)
        elif change == "drop":
            doc.pop(key, None)
    text = json.dumps(doc)
    if draw(st.integers(0, 15)) == 0:  # now and then, no longer valid JSON
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def arguments(draw) -> list[str]:
    """Syntactically valid options for one subcommand, without the file."""
    command = draw(st.sampled_from(["check", "invariant", "trajectory", "graph"]))
    argv = [command]
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(["ell", "ell", "ell", "x", "", "0", "-inf"]))
        argv.append(f"--param={name}={draw(st.one_of(SCALARS, TOKENS))}")
    if command in ("check", "invariant"):
        argv.append(f"--probe-bound={draw(st.integers(-1, 50))}")
        if draw(st.booleans()):
            argv.append("--emit-pi" if command == "check" else "--emit-s")
    else:
        argv.append(f"--horizon={draw(st.integers(-1, 8))}")
    if command == "trajectory" and draw(st.booleans()):
        seed = st.lists(st.one_of(SCALARS, TOKENS), min_size=1, max_size=5)
        argv.append("--seed=" + ",".join(draw(seed)))
    if command != "graph" and draw(st.booleans()):
        argv.append("--format=json")
    return argv


@settings(max_examples=300)
@given(documents(), arguments())
def test_main_exits_cleanly(tmp_path_factory, text, argv):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    err = err.getvalue()
    assert code in (0, 1, 2, 3, 4)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
    elif code == 4:
        assert err.startswith("infeasible (") and err.count("\n") == 1
    else:
        assert err == ""
