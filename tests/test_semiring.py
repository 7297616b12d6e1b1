import sys
from fractions import Fraction

import pytest

from maxplus import (
    NEG_INF,
    POS_INF,
    TropicalMatrix,
    as_scalar,
    format_scalar,
    is_finite,
    parse_scalar,
)


# The semiring operations live in the matrix layer: entrywise max and the
# max-plus product.  Their scalar laws are checked on 1x1 matrices.
def oplus(a, b):
    return (TropicalMatrix([[a]]) + TropicalMatrix([[b]]))[0, 0]


def otimes(a, b):
    return (TropicalMatrix([[a]]) @ TropicalMatrix([[b]]))[0, 0]


class TestOplus:
    def test_max_of_finite(self):
        assert oplus(3, 5) == 5

    def test_neg_inf_neutral(self):
        for x in (NEG_INF, -7, Fraction(1, 3), POS_INF):
            assert oplus(NEG_INF, x) == x
            assert oplus(x, NEG_INF) == x

    def test_pos_inf_absorbs(self):
        assert oplus(POS_INF, 7) == POS_INF

    def test_idempotent(self):
        assert oplus(Fraction(5, 2), Fraction(5, 2)) == Fraction(5, 2)


class TestOtimes:
    def test_sum_of_finite(self):
        assert otimes(2, 3) == 5

    def test_neg_inf_absorbs_even_pos_inf(self):
        assert otimes(NEG_INF, POS_INF) == NEG_INF
        assert otimes(POS_INF, NEG_INF) == NEG_INF
        assert otimes(NEG_INF, 4) == NEG_INF

    def test_zero_neutral(self):
        for x in (NEG_INF, -7, Fraction(1, 3), POS_INF):
            assert otimes(0, x) == x

    def test_pos_inf_absorbs_non_neg_inf(self):
        assert otimes(POS_INF, 7) == POS_INF
        assert otimes(POS_INF, POS_INF) == POS_INF

    def test_exact_rationals(self):
        assert otimes(Fraction("0.1"), Fraction("0.2")) == Fraction(3, 10)


def test_total_order():
    assert NEG_INF < Fraction(-10**9) < -5 < Fraction(1, 3) < 10**9 < POS_INF


class TestAsScalar:
    def test_int_passthrough(self):
        assert as_scalar(7) == 7

    def test_fraction_normalized_to_int(self):
        v = as_scalar(Fraction(6, 2))
        assert v == 3 and isinstance(v, int)

    def test_finite_float_rejected(self):
        with pytest.raises(TypeError):
            as_scalar(0.1)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_scalar(True)

    def test_infinities_pass(self):
        assert as_scalar(float("-inf")) == NEG_INF
        assert as_scalar(float("inf")) == POS_INF

    def test_string_parsed(self):
        assert as_scalar("-13.999") == Fraction(-13999, 1000)


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("-inf", NEG_INF),
            ("+inf", POS_INF),
            ("0", 0),
            ("17", 17),
            ("-13.999", Fraction(-13999, 1000)),
            ("0.1", Fraction(1, 10)),
            ("7/3", Fraction(7, 3)),
            ("-1/8", Fraction(-1, 8)),
        ],
    )
    def test_round_trip(self, text, value):
        parsed = parse_scalar(text)
        assert parsed == value
        assert parse_scalar(format_scalar(parsed)) == value

    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(-13999, 1000), "-13.999"),
            (Fraction(1, 8), "0.125"),
            (Fraction(3, 2), "1.5"),
            (Fraction(1, 3), "1/3"),
            (Fraction(-1, 3), "-1/3"),
            (0, "0"),
            (NEG_INF, "-inf"),
            (POS_INF, "+inf"),
        ],
    )
    def test_canonical_form(self, value, text):
        assert format_scalar(value) == text

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_scalar("ell")
        with pytest.raises(ValueError):
            parse_scalar("1/0")


# Python's own limit on the digits of an int written as text.
EXPONENT_LIMIT = sys.int_info.default_max_str_digits


class TestDecimalExponent:
    @pytest.mark.parametrize("sign", ["", "-", "+"])
    def test_exponent_at_the_limit_is_exact(self, sign):
        assert parse_scalar(f"1e{sign}{EXPONENT_LIMIT}") == Fraction(10) ** int(
            f"{sign}{EXPONENT_LIMIT}"
        )
        assert parse_scalar(f"-2.5E{sign}{EXPONENT_LIMIT}") == Fraction(-25, 10) * (
            Fraction(10) ** int(f"{sign}{EXPONENT_LIMIT}")
        )

    @pytest.mark.parametrize(
        "text",
        [
            f"1e{EXPONENT_LIMIT + 1}",
            f"1e-{EXPONENT_LIMIT + 1}",
            f"-0.5E+{EXPONENT_LIMIT + 1}",
            "1e999999999",
            "1e-999999999",
            "1e" + "9" * (EXPONENT_LIMIT + 1),
        ],
    )
    def test_exponent_past_the_limit_is_rejected(self, text):
        with pytest.raises(ValueError, match="not an exact scalar"):
            parse_scalar(text)


class TestDigitLimit:
    @pytest.mark.parametrize(
        "value",
        [
            10**EXPONENT_LIMIT,
            -(10**EXPONENT_LIMIT),
            Fraction(10**EXPONENT_LIMIT, 3),
            Fraction(1, 3 * 10**EXPONENT_LIMIT),
            Fraction(-1, 2 * 10**EXPONENT_LIMIT),
        ],
        ids=["int", "negative int", "p/q numerator", "p/q denominator", "decimal"],
    )
    def test_value_past_the_limit_names_its_size(self, value):
        message = (
            f"cannot write a number of about {EXPONENT_LIMIT + 1} digits exactly:"
            f" the limit is {EXPONENT_LIMIT} digits"
        )
        with pytest.raises(ValueError) as raised:
            format_scalar(value)
        assert str(raised.value) == message

    def test_decimal_digits_count_not_the_denominator(self):
        # 2**-10000 has a 3011-digit denominator but 10000 decimals
        with pytest.raises(ValueError, match="about 10000 digits"):
            format_scalar(Fraction(1, 2**10000))

    @pytest.mark.parametrize(
        "value",
        [
            10**EXPONENT_LIMIT - 1,
            Fraction(10**EXPONENT_LIMIT - 1, 3),
            Fraction(-1, 10**EXPONENT_LIMIT),
            Fraction(10 ** (2 * EXPONENT_LIMIT) - 1, 10**EXPONENT_LIMIT),
        ],
        ids=["int", "p/q", "decimal", "decimal of two long parts"],
    )
    def test_value_at_the_limit_round_trips(self, value):
        assert parse_scalar(format_scalar(value)) == value


def test_is_finite():
    assert is_finite(0) and is_finite(Fraction(-1, 2))
    assert not is_finite(NEG_INF) and not is_finite(POS_INF)
