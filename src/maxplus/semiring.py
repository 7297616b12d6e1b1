"""Exact scalars of the max-plus (tropical) semiring.

A scalar is an element of the extended reals: a finite rational number,
``-inf`` (the semiring zero, neutral for max and absorbing for +) or
``+inf``.  Finite values are kept exact as ``int`` or
``fractions.Fraction``; the two infinities are the float infinities, which
compare correctly against rationals.  Finite floats are rejected everywhere,
so equality of scalars is always decidable and exact.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Union

NEG_INF: float = float("-inf")
POS_INF: float = float("inf")

#: A max-plus scalar.  ``float`` only ever holds one of the two infinities.
Scalar = Union[int, Fraction, float]


def as_scalar(value) -> Scalar:
    """Coerce ``value`` to a max-plus scalar, keeping finite values exact.

    Accepts ``int``, ``Fraction``, the float infinities and strings
    (see :func:`parse_scalar`).  Finite floats are rejected because they
    would silently lose exactness.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a max-plus scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, float):
        if value == NEG_INF or value == POS_INF:
            return value
        raise TypeError(
            f"finite float {value!r} is inexact; pass an int, Fraction or string"
        )
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot interpret {value!r} as a max-plus scalar")


def parse_scalar(text: str) -> Scalar:
    """Parse an exact decimal ("-13.999"), rational ("7/3") or infinity token.

    A decimal exponent ("1e5") may not exceed Python's limit on the digits
    of an ``int`` in text, ``sys.int_info.default_max_str_digits``, in
    magnitude: the exact value of ``1e999999999`` is a 415 MB ``int``.
    """
    token = text.strip()
    if token == "-inf":
        return NEG_INF
    if token in ("+inf", "inf"):
        return POS_INF
    _, marker, exponent = token.lower().partition("e")
    try:
        if marker and abs(int(exponent)) > sys.int_info.default_max_str_digits:
            raise ValueError("decimal exponent out of range")
        return as_scalar(Fraction(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact scalar: {text!r}") from exc


def format_scalar(value: Scalar) -> str:
    """Render a scalar exactly: infinity token, integer, decimal or ``p/q``.

    The output round-trips through :func:`parse_scalar` to the same value.
    A decimal form is used whenever the denominator divides a power of ten.
    Text with a run of digits past ``sys.get_int_max_str_digits()`` could
    not be parsed back, so it raises ValueError naming the value's size.
    """
    if isinstance(value, float):  # tested first: Fraction == float is slow
        if value == NEG_INF:
            return "-inf"
        if value == POS_INF:
            return "+inf"
    digits = 0  # decimal places; only the decimal form has any
    try:
        if isinstance(value, int):
            return str(value)
        num, den = value.numerator, value.denominator
        if den == 1:
            return str(num)
        rest, twos, fives = den, 0, 0
        while rest % 2 == 0:
            rest //= 2
            twos += 1
        while rest % 5 == 0:
            rest //= 5
            fives += 1
        if rest != 1:
            return f"{num}/{den}"
        digits = max(twos, fives)
        if digits > (sys.get_int_max_str_digits() or digits):
            raise ValueError("the decimal places alone pass the limit")
        scaled = abs(num) * 10**digits // den
        whole, frac = divmod(scaled, 10**digits)
        sign = "-" if num < 0 else ""
        return f"{sign}{whole}.{str(frac).zfill(digits)}"
    except ValueError:  # str() of an int past the limit, or the check above
        widest = max(abs(value.numerator), value.denominator).bit_length()
        size = max(digits, widest * 30103 // 100000 + 1)  # log10(2) ~ 0.30103
        raise ValueError(
            f"cannot write a number of about {size} digits exactly:"
            f" the limit is {sys.get_int_max_str_digits()} digits"
        ) from None


def is_finite(value: Scalar) -> bool:
    return value != NEG_INF and value != POS_INF

