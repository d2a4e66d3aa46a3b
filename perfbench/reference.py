"""Reference answers the benchmark checks the program's output against.

Up to ``ORACLE_LIMIT`` answers come from the brute-force record scan
(``almost_squares.oracle.brute_record_set``), built once per run.  Above
it they come straight from the flock formulas, with work bounded by the
window asked for:

* the flock with semiperimeter ``2m`` holds ``(m-b)(m+b)`` for
  ``0 <= b <= isqrt(m // 2)``;
* the flock with semiperimeter ``2m-1`` (``m >= 2``) holds
  ``(m-a-1)(m+a)`` for ``0 <= a <= (isqrt(2m-1) - 1) // 2``;
* the rank of a member follows from ``count_at_square(m)``, the number of
  members up to ``m**2``.

Remainder-series rows are recomputed in exact integer fixed point
(``isqrt`` of scaled integers), independent of the mpmath code under test.
"""

from __future__ import annotations

from bisect import bisect_right
from math import isqrt, sqrt

from almost_squares.core import count_at_square

ORACLE_LIMIT = 200_000

Rect = tuple[int, int]  # (width, length), width <= length


def ceil_sqrt(n: int) -> int:
    r = isqrt(n)
    return r if r * r == n else r + 1


def even_extent(m: int) -> int:
    return isqrt(m // 2)


def odd_extent(m: int) -> int:
    return (isqrt(2 * m - 1) - 1) // 2


def _least_pronic_index(g: int) -> int:
    """Least a >= 0 with a(a+1) >= g."""
    if g <= 0:
        return 0
    a = isqrt(g)
    return a if a * (a + 1) >= g else a + 1


def _greatest_pronic_index(g: int) -> int:
    """Greatest a with a(a+1) <= g; -1 when g < 0."""
    return -1 if g < 0 else (isqrt(4 * g + 1) - 1) // 2


def rank(w: int, l: int) -> int | None:
    """Rank of w*l among all members if w x l is a member's rectangle, else None."""
    if w < 1 or l < w:
        return None
    k, d = w + l, l - w
    if d % 2 == 0:
        m, b = k // 2, d // 2
        return count_at_square(m) - b if b <= even_extent(m) else None
    m, a = (k + 1) // 2, (d - 1) // 2
    if m < 2 or a > odd_extent(m):
        return None
    return count_at_square(m) - even_extent(m) - 1 - a


def next_member(w: int, l: int) -> Rect:
    """Rectangle of the member that follows the member w x l."""
    k, d = w + l, l - w
    if d % 2 == 0:  # even flock 2m, offset b: next is offset b-1, then flock 2m+1
        m, b = k // 2, d // 2
        if b > 0:
            return m - b + 1, m + b - 1
        a = odd_extent(m + 1)
        return m - a, m + 1 + a
    m, a = (k + 1) // 2, (d - 1) // 2  # odd flock 2m-1, offset a: then flock 2m
    if a > 0:
        return m - a, m + a - 1
    b = even_extent(m)
    return m - b, m + b


def formula_floor(n: int) -> Rect:
    """Rectangle of the largest member <= n, from the flock formulas."""
    m = ceil_sqrt(n)
    if n > m * (m - 1):  # even flock 2m covers (m(m-1), m^2]
        b = ceil_sqrt(m * m - n)
        return (m - b, m + b) if b <= even_extent(m) else (m - 1, m)
    a = _least_pronic_index(m * (m - 1) - n)  # odd flock 2m-1 covers ((m-1)^2, m(m-1)]
    return (m - a - 1, m + a) if a <= odd_extent(m) else (m - 1, m - 1)


def formula_count(n: int) -> int:
    return rank(*formula_floor(n))


def formula_members(lo: int, hi: int) -> list[Rect]:
    """Rectangles of all members in [lo, hi], ascending, in time ~ flocks + output."""
    out: list[Rect] = []
    for m in range(ceil_sqrt(lo), ceil_sqrt(hi) + 1):
        top = m * (m - 1)
        if m >= 2:
            a_hi = min(odd_extent(m), _greatest_pronic_index(top - lo))
            a_lo = _least_pronic_index(top - hi)
            out.extend((m - a - 1, m + a) for a in range(a_hi, a_lo - 1, -1))
        top = m * m
        if top >= lo:
            b_hi = min(even_extent(m), isqrt(top - lo))
            b_lo = ceil_sqrt(max(0, top - hi))
            out.extend((m - b, m + b) for b in range(b_hi, b_lo - 1, -1))
    return out


class Reference:
    """Oracle-backed answers up to ORACLE_LIMIT, flock formulas above it."""

    def __init__(self, record_set) -> None:
        if record_set.limit != ORACLE_LIMIT:
            raise ValueError("reference needs the record set up to ORACLE_LIMIT")
        self.values = record_set.members
        self.rects = [_rect_from(v, r.denominator) for v, r in
                      zip(record_set.members, record_set.ratios)]

    def floor(self, n: int) -> Rect:
        if n <= ORACLE_LIMIT:
            return self.rects[bisect_right(self.values, n) - 1]
        return formula_floor(n)

    def count(self, n: int) -> int:
        if n <= ORACLE_LIMIT:
            return bisect_right(self.values, n)
        return formula_count(n)

    def nth(self, j: int) -> Rect | None:
        """The j-th member's rectangle when the oracle reaches it, else None."""
        return self.rects[j - 1] if j <= len(self.rects) else None

    def members(self, lo: int, hi: int) -> list[Rect]:
        low = []
        if lo <= ORACLE_LIMIT:
            i, j = bisect_right(self.values, lo - 1), bisect_right(self.values, hi)
            low = self.rects[i:j]
        if hi <= ORACLE_LIMIT:
            return low
        return low + formula_members(max(lo, ORACLE_LIMIT + 1), hi)


def _rect_from(value: int, semiperimeter: int) -> Rect:
    w = (semiperimeter - isqrt(semiperimeter * semiperimeter - 4 * value)) // 2
    if w * (semiperimeter - w) != value:
        raise AssertionError(f"oracle semiperimeter {semiperimeter} does not fit {value}")
    return w, semiperimeter - w


# --------------------------------------------------------------------------
# remainder rows in exact fixed point
# --------------------------------------------------------------------------

_FRAC_BITS = 96
_ONE = 1 << _FRAC_BITS
_SQRT2 = sqrt(2.0)


def _g(f: float) -> float:
    return f * (1.0 - f) / _SQRT2


def _h(f: float) -> float:
    return f / _SQRT2 if f <= 0.5 else sqrt(1.0 - f) - (1.0 - f) / _SQRT2


def remainder_row(x: int, count: int) -> tuple[float, float, float, float]:
    """(R, R_norm, g, h) at x, given the exact count A(x) of members <= x.

    R = A - (2*sqrt(2)/3) x^(3/4) - sqrt(x)/2, with (2*sqrt(2)) x^(3/4)
    taken as (64 x^3)^(1/4); g and h sample the fractional parts of
    (4x)^(1/4) and sqrt(4x).  Every root is a floor of a scaled integer
    root, so each quantity is within 2^-96 of the truth before the final
    correctly rounded int/int division.
    """
    quarter = isqrt(isqrt(x << 4 * _FRAC_BITS))
    three_quarters = isqrt(isqrt((64 * x**3) << 4 * _FRAC_BITS))
    half = isqrt(x << 2 * _FRAC_BITS)
    r6 = 6 * count * _ONE - 2 * three_quarters - 3 * half  # 6 * R * 2^P
    g_arg = isqrt(isqrt((4 * x) << 4 * _FRAC_BITS)) % _ONE
    h_arg = isqrt((4 * x) << 2 * _FRAC_BITS) % _ONE
    return (
        r6 / (6 * _ONE),
        r6 / (6 * quarter),
        _g(g_arg / _ONE),
        _h(h_arg / _ONE),
    )
