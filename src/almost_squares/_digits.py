"""Decimal I/O of wide ints: one rule, and the conversions behind it.

CPython before 3.12 converts between int and decimal text in quadratic
time.  ``int_from_digits`` and ``to_decimal`` are the divide-and-conquer
conversions of Brent and Zimmermann, *Modern Computer Arithmetic*,
section 1.7, which CPython 3.12 ships as ``Lib/_pylong.py``: each splits
its input in halves and recombines them with one big multiplication, so
its cost follows that of multiplication.  Both are exact for every
input, so they can serve any size; below a few thousand digits the
built-in ``int`` and ``str`` are faster.

The rule: an int of more than _BIG_DIGITS (6000) digits is parsed and
rendered here, and any other by int() and str(); either way the bytes
written are the same.  On a 2-vCPU host with Python 3.11 the two ways
cost about the same at 6000 digits, and at 10^5 digits the conversions
here parse 3x and render a record 10x faster.  On Python 3.12 at 10^5
digits they cost about what the builtins do: int() 24.8 ms against
25.2 ms for ``int_from_digits``, str() 32.5 ms against 23.1 ms for
``to_decimal``.  The CLI and the A-of-x series both write through this
rule.

``parse_int`` reads an argument as int() does.  One of ASCII digits,
bare, padded with whitespace, with one sign or with single underscores
between its digits, goes to ``int_from_digits`` when wide, and unless
negative it keeps its digits, less sign, padding, underscores and
leading zeros, which ``cell`` writes back as they were given.  ``cell``
renders one int, and ``record_cells`` a record from its width and the
excess of its length alone.

``EXACT`` is a decimal context that never rounds: an operation whose
result it cannot hold exactly raises ``decimal.Inexact``.  Sums and
products of the Decimals that ``to_decimal`` returns, taken through its
methods, are exact integers whose ``str`` is their decimal digits.
"""

from __future__ import annotations

import decimal

__all__ = ["EXACT", "cell", "int_from_digits", "parse_int", "record_cells", "to_decimal", "wide"]

_LEAF_DIGITS = 2048  # digit slices up to this long go to int() whole
_LEAF_BITS = 2048  # ints up to this many bits go to Decimal() whole

_BIG_DIGITS = 6000  # ints wider than this many digits convert here

EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact],
)


def int_from_digits(s: str) -> int:
    """``int(s)`` for a string of ASCII decimal digits alone.

    The high half's value times 10^k, for the k digits of the low half, is
    formed as ``(hi * 5**k) << k``; each 5**k is computed once per call.
    """
    pow5: dict[int, int] = {}

    def convert(a: int, b: int) -> int:
        if b - a <= _LEAF_DIGITS:
            return int(s[a:b])
        k = (b - a) // 2
        mid = b - k
        p = pow5.get(k)
        if p is None:
            p = pow5[k] = 5**k
        return ((convert(a, mid) * p) << k) + convert(mid, b)

    return convert(0, len(s))


def to_decimal(n: int) -> decimal.Decimal:
    """n as an exact integral Decimal, so that ``str(to_decimal(n)) == str(n)``.

    The low w bits and the rest, ``n >> w``, are converted apart and
    recombined as ``hi * 2**w + lo`` in EXACT, so a negative n splits
    exactly too; each Decimal 2**w is computed once per call.
    """
    pow2: dict[int, decimal.Decimal] = {}

    def convert(m: int, bits: int) -> decimal.Decimal:
        if bits <= _LEAF_BITS:
            return decimal.Decimal(m)
        w = bits // 2
        hi = m >> w
        p = pow2.get(w)
        if p is None:
            p = pow2[w] = EXACT.power(2, w)
        return EXACT.fma(convert(hi, bits - w), p, convert(m - (hi << w), w))

    return convert(n, n.bit_length())


def wide(bits: int) -> bool:
    """Whether an int of this many bits has more than about _BIG_DIGITS digits."""
    return bits > _BIG_DIGITS * 3.3219  # log2(10), a little under


class _Echo(int):
    """An int parsed from a wide argument of ASCII digits, with its digits.

    Its digits, leading zeros stripped, are str(n) already, so a verb that
    writes the argument back (count, check) need not convert it again.
    Arithmetic on it gives plain ints.
    """

    digits: str


def parse_int(text: str) -> int:
    """int(text), by int_from_digits when text is wide plain digits."""
    digits = text.strip()
    sign = digits[:1] if digits[:1] in ("+", "-") else ""
    digits = digits[len(sign):]
    if not (digits[:1] == "_" or digits[-1:] == "_" or "__" in digits):
        digits = digits.replace("_", "")  # int() takes one '_' between two digits
    if len(digits) > _BIG_DIGITS and digits.isascii() and digits.isdigit():
        if sign == "-":
            return -int_from_digits(digits)
        n = _Echo(int_from_digits(digits))
        n.digits = digits.lstrip("0") or "0"
        return n
    return int(text)  # short text, non-ASCII digits or a refusal


# argparse names a type by its __name__ in its refusal, "invalid int value"
parse_int.__name__ = "int"


def cell(n: int) -> int | str:
    """n as a template cell: itself, or its digits when str(n) would be slow.

    An argument parsed from plain digits gives back the digits it was
    parsed from.
    """
    if isinstance(n, _Echo):
        return n.digits
    if wide(n.bit_length()):
        return str(to_decimal(n))
    return n


def record_cells(
    width: int, length: int, value: int | str | None = None
) -> tuple[int | str, ...]:
    """The cells value, width, length, semiperimeter, flock of a record.

    ``value``, when given, is the value's cell, as ``cell`` renders it.

    A wide record converts its width and the excess of its length, which
    for a member is about sqrt(k) at most, and forms its length, value and
    k (its semiperimeter and flock) in exact Decimal arithmetic.
    """
    if wide(width.bit_length() + length.bit_length()):
        w = to_decimal(width)
        l = EXACT.add(w, to_decimal(length - width))
        semi = str(EXACT.add(w, l))
        return value or str(EXACT.multiply(w, l)), str(w), str(l), semi, semi
    semi = width + length  # also the flock's k
    return value or width * length, width, length, semi, semi
