from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from helpers import instantiate_by_matrices, problem_texts
from maxplus import (
    NEG_INF,
    ProblemFile,
    ProblemFormatError,
    parse_problem,
    parse_problem_file,
    parse_scalar,
)
from maxplus import TropicalMatrix, matrix, precedence, problems, semiring

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

MINIMAL = """
{
  "n": 1,
  "A": [["0"]],
  "L": [["-inf"]],
  "C": [["-inf"]],
  "Rtilde": [["-inf"]]
}
"""


def test_parse_minimal():
    problem = parse_problem(MINIMAL)
    assert problem.size == 1
    assert problem.dynamics == (("0",),)
    assert problem.params == {}
    system = problem.instantiate()
    assert system.dynamics[0, 0] == 0
    assert system.backward[0, 0] == NEG_INF


def test_json_numbers_are_captured_exactly():
    text = '{"n": 1, "A": [[0.1]], "L": [["-inf"]], "C": [["-inf"]], "Rtilde": [["-inf"]]}'
    system = parse_problem(text).instantiate()
    assert system.dynamics[0, 0] == Fraction(1, 10)


def test_sample_files_parse(railway):
    problem = parse_problem_file(SAMPLES / "railway.json")
    assert problem.size == 4
    assert problem.params == {"ell": "-14"}
    assert problem.instantiate() == railway(-14)
    assert problem.instantiate({"ell": "-13.5"}) == railway(Fraction("-13.5"))
    assert parse_problem_file(SAMPLES / "two_node.json").size == 2


def test_override_beats_file_default():
    problem = parse_problem_file(SAMPLES / "railway.json")
    system = problem.instantiate({"ell": "-13"})
    assert system.backward[3, 3] == -13


def test_unresolved_parameter_is_an_error():
    text = MINIMAL.replace('"0"', '"delay"')
    with pytest.raises(ProblemFormatError, match="delay"):
        parse_problem(text).instantiate()


def test_plus_inf_rejected_in_entries():
    text = MINIMAL.replace('"0"', '"+inf"')
    with pytest.raises(ProblemFormatError, match=r"\+inf"):
        parse_problem(text)


def test_plus_inf_rejected_via_parameter():
    text = MINIMAL.replace('"0"', '"x"').replace(
        '"Rtilde"', '"params": {"x": "+inf"}, "Rtilde"'
    )
    with pytest.raises(ProblemFormatError, match=r"\+inf"):
        parse_problem(text).instantiate()


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda t: t.replace('"n": 1', '"n": 0'), "positive"),
        (lambda t: t.replace('"A": [["0"]],', ""), "missing matrix A"),
        (lambda t: t.replace('[["0"]]', '[["0", "1"]]'), "entries per row"),
        (lambda t: t.replace('[["0"]]', '[["0"], ["1"]]'), "rows"),
        (lambda t: t.replace('"Rtilde"', '"extra": 1, "Rtilde"'), "unknown"),
        *(
            (lambda t, cell=cell: t.replace('[["0"]]', f"[[{cell}]]"),
             "unexpected entry .* in matrix A")
            for cell in ("null", "true", "[0]", "{}")
        ),
        *(
            (lambda t, params=params: t.replace('"Rtilde"', f'"params": {params}, "Rtilde"'),
             '"params" must map names to scalar strings')
            for params in ("[]", '{"x": null}')
        ),
    ],
)
def test_malformed_documents(mutate, message):
    with pytest.raises(ProblemFormatError, match=message):
        parse_problem(mutate(MINIMAL))


@pytest.mark.parametrize(
    "size",
    [
        "true", "false", "null", "[1]", "1.5", '"1"', '" 4"', '"1_0"',
        pytest.param("9" * 5000, id="5000 digits"),
    ],
)
def test_size_must_be_a_json_integer(size):
    with pytest.raises(ProblemFormatError, match='field "n" must be a positive integer'):
        parse_problem(MINIMAL.replace('"n": 1', f'"n": {size}'))


def test_json_error_carries_position():
    with pytest.raises(ProblemFormatError, match=r"line \d+, column \d+"):
        parse_problem('{"n": 1,,}')


def test_round_trip_preserves_rationals():
    text = """
    {"n": 1, "A": [[-13.999]], "L": [["7/3"]], "C": [["-inf"]],
     "Rtilde": [[0.125]], "params": {"ell": "-1/3"}}
    """
    problem = parse_problem(text)
    assert problem == ProblemFile(
        size=1,
        dynamics=(("-13.999",),),
        backward=(("7/3",),),
        within=(("-inf",),),
        extra_forward=(("0.125",),),
        params={"ell": "-1/3"},
    )
    system = problem.instantiate()
    assert system.dynamics[0, 0] == Fraction(-13999, 1000)
    assert system.backward[0, 0] == Fraction(7, 3)
    assert system.extra_forward[0, 0] == Fraction(1, 8)


def test_huge_decimal_exponent_is_a_format_error():
    text = MINIMAL.replace('[["0"]]', "[[1e999999999]]")
    with pytest.raises(ProblemFormatError, match="1e999999999"):
        parse_problem(text).instantiate()


def test_param_name_cannot_shadow_scalar_token():
    text = MINIMAL.replace('"Rtilde"', '"params": {"-inf": "0"}, "Rtilde"')
    with pytest.raises(ProblemFormatError, match="shadow"):
        parse_problem(text)
    with pytest.raises(ProblemFormatError, match="shadow"):
        parse_problem(MINIMAL).instantiate({"0": "-5"})


def test_param_name_cannot_be_empty():
    """A blank cell strips to "", so a parameter named "" would fill it."""
    blank = MINIMAL.replace('"C": [["-inf"]]', '"C": [["  "]]')
    with pytest.raises(ProblemFormatError, match="entry '' in matrix C is neither"):
        parse_problem(blank).instantiate()
    with pytest.raises(ProblemFormatError) as raised:
        parse_problem(blank.replace('"Rtilde"', '"params": {"": "7"}, "Rtilde"'))
    assert str(raised.value) == "parameter name '' is empty"


def test_underscore_and_spaced_tokens_are_names_not_scalars():
    text = MINIMAL.replace('"Rtilde"', '"params": {"1_000": "2"}, "Rtilde"')
    with pytest.raises(ProblemFormatError, match="neither a scalar"):
        parse_problem(text.replace('[["0"]]', '[["1 /2"]]')).instantiate()
    system = parse_problem(text.replace('[["0"]]', '[["1_000"]]')).instantiate()
    assert system.dynamics[0, 0] == 2


def test_each_distinct_token_is_parsed_once_per_call(monkeypatch):
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse_scalar(text)

    problem = parse_problem_file(SAMPLES / "railway.json")
    monkeypatch.setattr(problems, "parse_scalar", counted)
    for _ in range(2):
        parsed.clear()
        problem.instantiate()
        # 64 entries; "ell" is parsed as its value, "-14", and once as a
        # name, which must not be a scalar
        assert sorted(parsed) == sorted(["-14", "-inf", "0", "11", "14", "17", "9", "ell"])


TWICE_BAD = """
{"n": 2, "A": [["0", "1/2"], ["-inf", "0"]], "L": [["-inf", "delay"], ["-inf", "-1"]],
 "C": [["-inf", "-inf"], ["-inf", "-inf"]], "Rtilde": [["delay", "-inf"], ["1/2", "0"]],
 PARAMS}
"""


@pytest.mark.parametrize(
    "params,message",
    [
        ('"params": {}',
         "entry 'delay' in matrix L is neither a scalar nor a known parameter"),
        ('"params": {"delay": "soon"}', "parameter 'delay' has non-scalar value 'soon'"),
        ('"params": {"delay": "+inf"}', "+inf is rejected in matrix L"),
    ],
)
def test_bad_token_in_two_matrices_fails_at_its_first(params, message):
    """A token that failed is not remembered: the first occurrence raises."""
    problem = parse_problem(TWICE_BAD.replace("PARAMS", params))
    with pytest.raises(ProblemFormatError) as raised:
        problem.instantiate()
    assert str(raised.value) == message
    assert problem.instantiate({"delay": "-3"}).backward[0, 1] == -3


@settings(max_examples=150)
@given(problem_texts())
def test_instantiate_matches_the_four_matrix_route(drawn):
    """Equal systems, equal stored blocks, or the same error text."""
    text, overrides = drawn
    problem = parse_problem(text)
    try:
        expected = instantiate_by_matrices(problem, overrides)
    except ProblemFormatError as exc:
        with pytest.raises(ProblemFormatError) as raised:
            problem.instantiate(overrides)
        assert str(raised.value) == str(exc)
        return
    system = problem.instantiate(overrides)
    assert system == expected
    # the blocks the analysis reads are stored alike; the old route keeps
    # dynamics and extra_forward at their own scales, so those compare by value
    for name in ("within", "backward", "forward"):
        got, want = getattr(system, name), getattr(expected, name)
        assert (got._scale, got._data) == (want._scale, want._data)


def test_instantiate_builds_the_blocks_aligned(monkeypatch):
    """No public TropicalMatrix construction, as_scalar only per distinct
    Fraction-route token, and PtegSystem's alignment hands back the blocks
    it was given."""
    text = TWICE_BAD.replace("PARAMS", '"params": {"delay": "7/3"}')
    problem = parse_problem(text)
    as_scalar, real_aligned = semiring.as_scalar, precedence.aligned

    def no_new(cls, data):
        raise AssertionError("instantiate built a TropicalMatrix through its constructor")

    coerced = []

    def counted(value):
        coerced.append(value)
        return as_scalar(value)

    aligned = []

    def spied(*blocks):
        out = real_aligned(*blocks)
        aligned.append((blocks, out))
        return out

    monkeypatch.setattr(TropicalMatrix, "__new__", no_new)
    monkeypatch.setattr(semiring, "as_scalar", counted)
    monkeypatch.setattr(matrix, "as_scalar", counted)
    monkeypatch.setattr(precedence, "aligned", spied)
    system = problem.instantiate()
    # 16 entries; "1/2" (twice) and "delay" = "7/3" (twice) take the Fraction route
    assert len(coerced) == 2
    ((given, out),) = aligned
    assert all(a is b for a, b in zip(given, out))
    assert all(a is b for a, b in zip((system.within, system.backward, system.forward), out))
    assert {b._scale for b in (system.dynamics, system.extra_forward, *out)} == {6}


def changed(problem: ProblemFile, **fields) -> ProblemFile:
    """A new ``ProblemFile`` with ``problem``'s fields, but for ``fields``."""
    kept = {name: getattr(problem, name) for name in ProblemFile.__match_args__}
    return ProblemFile(**{**kept, **fields})


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda p: changed(p, size=0), 'field "n" must be a positive integer'),
        (lambda p: changed(p, backward=((), ())), "matrix L must be 2 x 2"),
        (lambda p: changed(p, within=(("0",), ("0", "0"))), "matrix C must be 2 x 2"),
        (
            lambda p: changed(p, params={"0": "5"}),
            "parameter name '0' would shadow a scalar token",
        ),
        (lambda p: changed(p, params={"": "7"}), "parameter name '' is empty"),
    ],
)
def test_instantiate_checks_the_shape_of_a_built_problem(mutate, message):
    problem = mutate(parse_problem(TWICE_BAD.replace("PARAMS", '"params": {"delay": "1"}')))
    with pytest.raises(ProblemFormatError) as raised:
        problem.instantiate()
    assert str(raised.value) == message


def test_override_must_name_a_declared_or_used_parameter():
    """Checked after the name and shape checks, before any token is parsed."""
    problem = parse_problem(
        TWICE_BAD.replace("PARAMS", '"params": {"delay": "soon", "spare": "1"}')
    )
    with pytest.raises(ProblemFormatError) as raised:
        problem.instantiate({"dleay": "-3"})
    assert str(raised.value) == "unknown parameter 'dleay'"
    with pytest.raises(ProblemFormatError, match="shadow"):
        problem.instantiate({"dleay": "1", "0": "1"})
    with pytest.raises(ProblemFormatError, match="matrix C must be 2 x 2"):
        changed(problem, within=(("0",), ("0", "0"))).instantiate({"dleay": "1"})
    # used in a grid but not declared, or declared but used nowhere: accepted
    undeclared = parse_problem(TWICE_BAD.replace("PARAMS", '"params": {}'))
    expected = undeclared.instantiate({"delay": "-3"})
    assert expected.backward[0, 1] == -3
    assert problem.instantiate({"delay": "-3", "spare": "5"}) == expected
