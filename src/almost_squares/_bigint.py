"""Wide-int arithmetic: exact division and decimal I/O, one rule each.

CPython before 3.12 divides and converts between int and decimal text in
quadratic time.  CPython 3.12 ships subquadratic versions of all three
as ``Lib/_pylong.py``; this module holds the same algorithms for the
interpreters that lack them, and the one rule by which the package
calls them.

Division.  ``divmod(a, b)`` is the builtin on Python 3.12 and later,
which already hands wide operands to ``_pylong``.  Before 3.12 it is
Burnikel and Ziegler's recursive division (MPI-I-98-1-022, 1998; Brent
and Zimmermann, *Modern Computer Arithmetic*, section 1.4.3) whenever
a >= 0 < b and b and the quotient are both wider than _DIV_BITS bits;
other signs take the builtin, as every caller here divides a
non-negative a by a positive b (a root's Newton step, nth's rank within
its block, a leaf's split by 10^k).  The recursion: a 2n-by-n-bit
division becomes two 3n/2-by-n ones, each one n-by-n/2 division and one
n/2-by-n/2 multiplication, so its cost follows that of multiplication.
The recursion stops at quotients of _DIV_LIMIT bits, which the builtin
takes.  On a 2-vCPU host with Python 3.11.7 (best of 21, interleaved
with the builtin), limits of 3000 and 4000 bits cost about the same and
2000 lost up to a quarter near the threshold.  With the 3000-bit limit
the routine was at least as fast as the builtin on each of 25 shapes
once b and the quotient both passed 6000 bits (1.03x and 1.06x at
worst in two runs), while from 4000 bits some shapes ran 12-18%
slower.  It divides 12,000 bits by 6000 1.14x, 66,000 by 33,000 2.1x
and 660,000 by 330,000 6.3x as fast as the builtin.  On Python 3.12.1
the builtin, which goes to ``_pylong`` past 9000-bit divisors, was as
fast as this routine or faster from 24,000 to 200,000 bits (0.84-0.88x
for it), so there it stays.

Decimal I/O.  ``int_from_digits`` and ``to_decimal`` are the
divide-and-conquer conversions of Brent and Zimmermann, section 1.7:
each splits its input in halves and recombines them with one big
multiplication, or splits it by one big division.  Both are exact for
every input, so they can serve any size; below a few thousand digits
the built-in ``int`` and ``str`` are faster.  Each is a plain recursive
function that passes its call's power dicts down as arguments, so a
conversion leaves no reference cycle: its powers are freed when it
returns, not when the cyclic collector next runs.  ``to_decimal`` splits by
Decimal arithmetic above _LEAF_BITS (32768) bits and by ``divmod`` by
powers of ten below, as 3.13's ``int_to_decimal_string`` does.  Against
Decimal splits down to 2048 bits it rendered 6000 to 3*10^5 digits
1.07-1.8x as fast on Python 3.11.7 and 1.03-1.6x on 3.12.1 (best of 7).
Leaves of 65536 bits gained 1-3% more at 10^4 to 3*10^4 digits on
3.11.7, but only 1.01-1.03x at 2*10^5 digits on 3.12.1, and leaves of
131072 bits lost there (0.95-0.98x).

The rule: an int of more than _BIG_DIGITS (6000) digits is parsed and
rendered here, and any other by int() and str(); either way the bytes
written are the same.  Measured again with the renderer above (best of
21): on Python 3.11.7 ``to_decimal`` passes str() near 3000 digits and
``int_from_digits`` passes int() there too, 1.36x and 1.20x as fast at
6000 digits; on 3.12.1 ``to_decimal`` passes str() near 3000-4000
digits, but ``int_from_digits`` costs what int() does from 3000 to
12,000 digits, so a lower threshold would gain in rendering alone, and
_BIG_DIGITS stays.  At 10^5 digits on 3.11.7 the conversions here parse
3.4x and render 6.1x as fast as int() and str() (14.5 against 48.6 ms,
25.1 against 154 ms); on 3.12.1 they cost what the builtins do (15.7
against 15.1 ms, 25.3 against 26.0 ms).  The CLI and the A-of-x series
both write through this rule; a wide A-of-x grid renders its first x
by it and each later x as the one before plus the step, one exact add
in EXACT, so its x cells cost time linear in their digits.

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

The division backport serves Python 3.11 alone: once the
package requires 3.12, the block below the "division before 3.12" line,
_DIV_BITS and _DIV_LIMIT can go, and ``divmod`` becomes the builtin
everywhere; no output byte changes.
"""

from __future__ import annotations

import builtins
import decimal
import sys

__all__ = [
    "EXACT", "cell", "divmod", "int_from_digits", "parse_int", "record_cells", "to_decimal",
    "wide",
]

_LEAF_DIGITS = 2048  # digit slices up to this long go to int(), ints to str(), whole
_LEAF_BITS = 32768  # ints up to this many bits are rendered from their digits whole

_BIG_DIGITS = 6000  # ints wider than this many digits convert here

_DIV_BITS = 6000  # before 3.12, b and quotient both wider than this divide here
_DIV_LIMIT = 3000  # quotients up to this many bits go to the builtin whole

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
    return _from_digits(s, 0, len(s), {})


def _from_digits(s: str, a: int, b: int, pow5: dict[int, int]) -> int:
    # int(s[a:b]), with pow5[k] = 5**k for each split's k low digits
    if b - a <= _LEAF_DIGITS:
        return int(s[a:b])
    k = (b - a) // 2
    mid = b - k
    if k not in pow5:
        pow5[k] = 5**k
    return ((_from_digits(s, a, mid, pow5) * pow5[k]) << k) + _from_digits(s, mid, b, pow5)


def to_decimal(n: int) -> decimal.Decimal:
    """n as an exact integral Decimal, so that ``str(to_decimal(n)) == str(n)``.

    Above _LEAF_BITS bits the low w bits and the rest, ``n >> w``, are
    converted apart and recombined as ``hi * 2**w + lo`` in EXACT, so a
    negative n splits exactly too.  A leaf of b bits is read from its d =
    floor(0.30103 b) + 1 decimal digits, at least as many as it has: the
    quotient and remainder by 10^(d//2), one ``divmod``, are its high
    d - d//2 and low d//2 digits, split the same way down to _LEAF_DIGITS
    digits, which str() renders, padded with zeros to the count asked for.
    Each Decimal 2**w and each 10**k is computed once per call, and above
    _LEAF_BITS bits 2**w by one squaring of the 2**(w // 2) that the level
    below takes.
    """
    return _to_decimal(n, n.bit_length(), {}, {})


def _to_decimal(
    m: int, bits: int, pow2: dict[int, decimal.Decimal], pow10: dict[int, int]
) -> decimal.Decimal:
    # m of at most this many bits, with pow2[w] = 2**w and pow10[k] = 10**k
    if bits <= _LEAF_BITS:
        d = int(bits * 0.30103) + 1  # 0.30103 > log10(2), so 10**d > 2**bits > |m|
        return decimal.Decimal("-" + _digits(-m, d, pow10) if m < 0 else _digits(m, d, pow10))
    w = bits // 2
    hi = m >> w
    lo = _to_decimal(m - (hi << w), w, pow2, pow10)
    return EXACT.fma(_to_decimal(hi, bits - w, pow2, pow10), _power2(w, pow2), lo)


def _digits(m: int, d: int, pow10: dict[int, int]) -> str:
    # the d digits of 0 <= m < 10**d, leading zeros included
    if d <= _LEAF_DIGITS:
        return str(m).zfill(d)
    k = d // 2
    if k not in pow10:
        pow10[k] = 5**k << k
    hi, lo = divmod(m, pow10[k])
    return _digits(hi, d - k, pow10) + _digits(lo, k, pow10)


def _power2(w: int, pow2: dict[int, decimal.Decimal]) -> decimal.Decimal:
    # 2**w; above _LEAF_BITS bits the square of 2**(w // 2), which the low
    # half's split takes too, doubled for an odd w
    if w not in pow2 and w <= _LEAF_BITS:
        pow2[w] = EXACT.power(2, w)
    elif w not in pow2:
        h = EXACT.power(_power2(w // 2, pow2), 2)
        pow2[w] = EXACT.add(h, h) if w % 2 else h
    return pow2[w]


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


# --------------------------------------------------------------------------
# division before 3.12
# --------------------------------------------------------------------------

def _divmod_bz(a: int, b: int) -> tuple[int, int]:
    """``divmod(a, b)`` by Burnikel-Ziegler recursive division, for a >= 0 < b.

    ``divmod`` sends other signs to the builtin.  With n the bits of b, a
    is divided one base-2^n digit at a time from the top, each step a
    2n-by-n division of the last remainder and the next digit.
    """
    n = b.bit_length()
    mask = (1 << n) - 1
    q = r = 0
    for shift in range((a.bit_length() - 1) // n * n, -1, -n):
        digit, r = _div2n1n(r << n | (a >> shift) & mask, b, n)
        q = q << n | digit
    return q, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    # divmod(a, b) for b of n bits and 0 <= a < b << n: the builtin's for a
    # quotient of at most _DIV_LIMIT bits, else two 3n/2-by-n divisions by
    # b's halves (after a shift by one bit for an odd n)
    if a.bit_length() - n <= _DIV_LIMIT:
        return builtins.divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    h = n >> 1
    mask = (1 << h) - 1
    b1, b2 = b >> h, b & mask
    q1, r = _div3n2n(a >> n, a >> h & mask, b, b1, b2, h)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, h)
    return q1 << h | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    # divmod(a12 << n | a3, b) for b = b1 << n | b2 of 2n bits, a3 < 2^n and
    # a12 < b: the quotient of a12 by b1 alone, or 2^n - 1 when that
    # would reach 2^n, is at most 2 too large, as b1's top bit is set
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


if sys.version_info >= (3, 12):
    divmod = builtins.divmod  # it hands wide operands to Lib/_pylong.py
else:

    def divmod(a: int, b: int) -> tuple[int, int]:
        """``divmod(a, b)``, by _divmod_bz when a >= 0 < b and b and the quotient are wide."""
        n = b.bit_length()
        if n > _DIV_BITS and a.bit_length() - n > _DIV_BITS and a >= 0 < b:
            return _divmod_bz(a, b)
        return builtins.divmod(a, b)
