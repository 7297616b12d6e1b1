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

NEG_INF: float = float("-inf")
POS_INF: float = float("inf")

#: A max-plus scalar.  ``float`` only ever holds one of the two infinities.
Scalar = int | Fraction | float

# Text shorter than this never reaches the int digit limit, whatever it is
# set to, so ``int()`` reads it without a ValueError for its length.
_SHORT = sys.int_info.str_digits_check_threshold


def as_scalar(value) -> Scalar:
    """Coerce ``value`` to a max-plus scalar, keeping finite values exact.

    Accepts ``int``, ``Fraction``, the float infinities and strings
    (see :func:`parse_scalar`).  Finite floats are rejected because they
    would silently lose exactness.  Any -inf comes back as the constant
    :data:`NEG_INF` itself, so a stored -inf is always that one object.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a max-plus scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value == NEG_INF or value == POS_INF:
            return NEG_INF if value < 0 else value
        raise TypeError(
            f"finite float {value!r} is inexact; pass an int, Fraction or string"
        )
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot interpret {value!r} as a max-plus scalar")


def parse_scalar(text: str) -> Scalar:
    """Parse an exact decimal ("-13.999"), rational ("7/3") or infinity token.

    A finite token is a sign, digits, "." and exponent ("-2.5e-3"), all but
    the digits optional, or a ratio ``p/q``; no interpreter reads one with
    "_" or an inner space.  The exponent's magnitude is at most
    ``sys.int_info.default_max_str_digits``: ``1e999999999`` is a 415 MB ``int``.

    A short token of ASCII digits, with an optional leading "-" and an
    optional "." between two runs of digits, is read with ``int()``; every
    other token goes through ``Fraction``.  Both give the same value.
    """
    token = text.strip()
    if token == "-inf":
        return NEG_INF
    if token in ("+inf", "inf"):
        return POS_INF
    if len(token) < _SHORT and token.isascii():
        whole, dot, places = token.removeprefix("-").partition(".")
        if whole.isdigit() and (not dot or places.isdigit()):
            if not dot:
                return int(token)
            value = Fraction(int(token.replace(".", "")), 10 ** len(places))
            return value if value.denominator != 1 else value.numerator
    _, marker, exponent = token.lower().partition("e")
    try:
        if "_" in token or len(token.split()) != 1:  # newer Fractions read these
            raise ValueError("underscore or inner space")
        if marker and abs(int(exponent)) > sys.int_info.default_max_str_digits:
            raise ValueError("decimal exponent out of range")
        return as_scalar(Fraction(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact scalar: {text!r}") from exc


def format_scalar(value: Scalar) -> str:
    """Render a scalar exactly: infinity token, integer, decimal or ``p/q``.

    The output round-trips through :func:`parse_scalar` to the same value.
    See :func:`format_ratio` for the finite forms and the digit limit.  A
    bool, a finite float or any other non-scalar raises TypeError.
    """
    if isinstance(value, float):  # tested first: Fraction == float is slow
        if value == NEG_INF:
            return "-inf"
        if value == POS_INF:
            return "+inf"
    elif isinstance(value, int) and not isinstance(value, bool):
        return format_ratio(value, 1)
    elif isinstance(value, Fraction):
        return format_ratio(value.numerator, value.denominator)
    raise TypeError(f"cannot format {value!r} as a max-plus scalar")


def format_ratio(num: int, den: int) -> str:
    """The exact text of ``num / den`` in lowest terms, ``den`` positive.

    An integer, a decimal whenever the denominator divides a power of ten,
    else ``p/q``.  Text with a run of digits past
    ``sys.get_int_max_str_digits()`` could not be parsed back, so it raises
    ValueError naming the value's size.
    """
    digits = 0  # decimal places; only the decimal form has any
    try:
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
        widest = max(abs(num), den).bit_length()
        size = max(digits, widest * 30103 // 100000 + 1)  # log10(2) ~ 0.30103
        raise ValueError(
            f"cannot write a number of about {size} digits exactly:"
            f" the limit is {sys.get_int_max_str_digits()} digits"
        ) from None


def is_finite(value: Scalar) -> bool:
    return value != NEG_INF and value != POS_INF


class _Record:
    """A frozen record over the fields its subclass annotates, in that order.

    ``==``, ``hash``, ``repr`` and ``__match_args__`` are over the fields,
    as a frozen dataclass's are.  Assignment and deletion raise
    AttributeError, so a subclass's ``__init__`` stores the fields with
    ``self.__dict__.update``; ``pickle`` and ``copy`` restore them the same
    way.  A value derived into ``__dict__`` beside them (or cached there by
    ``functools.cached_property``) stays out of ``==``, ``hash`` and ``repr``.
    """

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = zip(self.__match_args__, self._fields())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
