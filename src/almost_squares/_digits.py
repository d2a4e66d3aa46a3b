"""Subquadratic decimal conversion for very large ints.

CPython before 3.12 converts between int and decimal text in quadratic
time.  These are the divide-and-conquer conversions of Brent and
Zimmermann, *Modern Computer Arithmetic*, section 1.7, which CPython 3.12
ships as ``Lib/_pylong.py``: each splits its input in halves and
recombines them with one big multiplication, so its cost follows that of
multiplication.  Both are exact for every input, so they can serve any
size; below a few thousand digits the built-in ``int`` and ``str`` are
faster.

``EXACT`` is a decimal context that never rounds: an operation whose
result it cannot hold exactly raises ``decimal.Inexact``.  Sums and
products of the Decimals that ``to_decimal`` returns, taken through its
methods, are exact integers whose ``str`` is their decimal digits.
"""

from __future__ import annotations

import decimal

__all__ = ["EXACT", "int_from_digits", "to_decimal"]

_LEAF_DIGITS = 2048  # digit slices up to this long go to int() whole
_LEAF_BITS = 2048  # ints up to this many bits go to Decimal() whole

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
