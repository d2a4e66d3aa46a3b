"""Floating-point counting approximation and remainder-term analysis.

The core module counts almost-squares exactly.  This module carries the
continuous side of the story: the smooth approximation B(x) built from
fractional parts of fourth roots, the oscillating remainder R(x) left
after subtracting the main growth term (2*sqrt(2)/3) * x^(3/4) +
sqrt(x)/2, the two period-1 shapes g and h that explain the large and
small oscillations, probes of the lim inf / lim sup of the normalized
remainder, and CSV emission of the series behind all of it.

Every real quantity here is a root of a rational: x^(1/4), sqrt(x),
(64x^3)^(1/4) = 2*sqrt(2)*x^(3/4), and the fractional parts of
(4x)^(1/4), (x/4)^(1/4) and sqrt(4x).  Each is taken in exact integer
fixed point as floor(root * 2^P).  Every float field but g and h is one
correctly rounded int/int division of integer terms: the B terms, R,
R_norm and z.  g and h are float expressions of such a division: a
remainder row rounds each fractional part f to a float that way, then
the shapes of g_func and h_func are evaluated on f in floats, where
1.0 - f cancels for f near 1, so g and h can be many ulps off (up to
about 8.4e7 ulps against a 400-digit reference).  At a perfect power the
scaled root is an exact multiple of 2^P, so its fractional part is an
exact 0: gamma(4) really is 0 and b_value(4).b really is 4.0, not 3.5
from a fractional part that rounded to 0.999... just below the jump.

One rule yields every root, from two isqrts.  _roots(num, shift, bits)
takes t = isqrt((num << 4*bits) >> shift) and u = isqrt(t), the floors
of sqrt(y) * 2^(2*bits) and y^(1/4) * 2^bits for y = num / 2^shift, and
v, the floor of y^(3/4) * 2^bits, with no third root: one Newton step
toward isqrt(num*t >> shift) from the seed (t*u >> 2*bits) + 1 lands on
that root or one above it at the callers' bits, and v is that root or one
more (Brent and Zimmermann, *Modern Computer Arithmetic*, section 1.5).
Each other root is read off them by a shift, as floor(floor(y) / 2^j) =
floor(y / 2^j) and floor(sqrt(floor(y))) = floor(sqrt(y)) for y >= 0, or
by a multiply.  A remainder row takes t, u, v at y = 4n: sqrt(4n) is t
>> P, sqrt(n) is t >> P + 1, (4n)^(1/4) is u, (64n^3)^(1/4) is v and
n^(1/4) is isqrt(t >> 1), which _isqrt_half reads off u as u / sqrt(2)
by one multiply with a constant and at most one step up: two roots.  A
row's A takes none where it is read off the flock walk: at a member it
is the count of members below the window plus the row's index, and on a
grid whose window holds no more members than rows it is that count plus
the members <= x.  A grid row adds count_le's three only where the
members outnumber the rows.  A plan also takes a fixed few to locate its
window's two ends, and the walk one per flock it enters.  b_value takes
t, u, v at y = 4x with P + 1 bits, its float's ratio p / 2^shift: u is
(64x)^(1/4), u >> 1 and u >> 2 are (4x)^(1/4) and (x/4)^(1/4), v >> 1
is (64x^3)^(1/4) and t >> P + 3 is sqrt(x): two roots.

x and A are exact ints; only the other fields are floats, so each entry
point answers every input whose floats fit, under one bound set by how
fast they grow.  R grows like x^(1/4): R / x^(1/4) stays near
[0.59, 1.12], between limit_probe's two limits, so remainder, a
remainder series and limit_probe answer every x below 2^4092 =
(2^1023)^4 (about 6.5e1231), where R is at most about 1.12 * 2^1023 =
1.0e308.  B grows like (2*sqrt(2)/3) * x^(3/4), so b_value answers
every x below 2^1364 = (2^1023)^(4/3) (about 4.0e410), where B is at
most about 0.943 * 2^1023 = 8.5e307.
"""

from __future__ import annotations

import io
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator
from decimal import Decimal
from itertools import accumulate, chain, count, repeat
from math import isqrt, sqrt
from operator import mul

from ._bigint import EXACT, cbrtrem, cell, wide

# the at-member series reads its samples straight from the flock runs, so
# enumerate_range is not called here; the name stays imported because
# perfbench/tracing.py replaces analysis.enumerate_range by name, and its
# getattr raises AttributeError on a missing name, failing every traced run
from .core import _ROW_CAP, _flock_runs, _joined, count_le, enumerate_range, is_almost_square

__all__ = [
    "AnalysisSample",
    "BTerms",
    "SamplingPlan",
    "b_value",
    "emit_series",
    "g_func",
    "h_func",
    "kite_region_contains",
    "limit_probe",
    "remainder",
    "tri_product_grid",
    "z_bracket",
]

SQRT2 = math.sqrt(2.0)

# remainder answers x below 2^4092 = (2^1023)^4: R / x^(1/4) stays near
# limit_probe's upper limit 19/(12*sqrt(2)) = 1.12, so R is at most about
# 1.12 * 2^1023 = 1.0e308 there, inside the float maximum of about 1.8e308
_R_HI = 1 << 4092

# b_value answers x below 2^1364 = (2^1023)^(4/3): B is about
# (2*sqrt(2)/3) * x^(3/4), at most about 0.943 * 2^1023 = 8.5e307 there
_B_HI = 1 << 1364

# floor(2^6000 / sqrt(2)), C of _isqrt_half at S = 6000 bits, whose shift
# right by 6000 - S is C at S; below 2^4092 a row's S is at most 5280
_HALF_ROOT_BITS = 6000
_HALF_ROOT = isqrt(1 << 2 * _HALF_ROOT_BITS - 1)


def _require_r_range(name: str, x: int) -> None:
    if x >= _R_HI:
        raise ValueError(
            f"{name} must be below 2^4092 (about 6.5e1231), past which R may leave float range"
        )


def _frac_bits(num: int) -> int:
    # A root of a rational with an N-bit numerator that is not an integer
    # lies at least 2^-(N+5) from every integer, so N + 160 fraction bits
    # hold each nonzero fractional part to well over float precision.
    return num.bit_length() + 160


def _roots(num: int, shift: int, bits: int) -> tuple[int, int, int]:
    """The floors t, u, v of sqrt(y)*2^(2b), y^(1/4)*2^b and y^(3/4)*2^b, by two isqrts.

    y = num / 2^shift and b = bits.  t = isqrt(floor(y * 2^(4b))) and u =
    isqrt(t).  With T = sqrt(y)*2^(2b) and V = y^(3/4)*2^b, v = floor(V) =
    floor(sqrt(y*T)), and v0 = isqrt(q) <= v, q = floor(y*t).

    v0 by one Newton step.  From any g >= 1, v1 = floor((g + floor(q/g)) / 2)
    is at least v0, as g + q/g >= 2*sqrt(q), and at most sqrt(q) +
    (g - sqrt(q))^2 / (2g).  The seed g = floor(t*u / 2^(2b)) + 1 lies
    within sqrt(y) + 1 of sqrt(q): t*u <= T*U = V*2^(2b) < (t + 1)(u + 1)
    with U = y^(1/4)*2^b, so V - sqrt(y) - 1 < g <= V + 1, and V^2 - y - 1
    < q <= V^2.  At the callers' bits 2^b >= 2^160 * y >= 2^162, so (sqrt(y)
    + 1)^2 <= 4y is far below 2g, and v1 is v0 or v0 + 1; the loop steps it
    down to v0 (for any bits it steps down to v0, only more often).

    v is v0 or v0 + 1.  As y*T < q + y + 1 and q < (v0 + 1)^2, y*T <
    (v0 + 2)^2 where y <= 2*v0 + 3.  That holds for y < 1, and for y >= 1
    with 2^(4b) >= y: then t >= floor(y), so v0 >= floor(y) > y - 1.
    v0 + 1 is tested, by its fourth power, only if (v0 + 1)^2 < q + y + 1,
    as otherwise it exceeds sqrt(y*T).
    """
    t = isqrt(num << 4 * bits >> shift)
    u = isqrt(t)
    q = num * t >> shift
    g = (t * u >> 2 * bits) + 1
    v = (g + q // g) >> 1
    r = q - v * v  # below 0 while v is above v0
    while r < 0:
        v -= 1
        r += 2 * v + 1
    # (v + 1)^2 - q is 2v + 1 - r
    if (2 * v + 1 - r << shift) < num + (1 << shift) and (
        (v + 1) ** 4 << 3 * shift <= num**3 << 4 * bits
    ):
        v += 1
    return t, u, v


# --------------------------------------------------------------------------
# the smooth counting approximation
# --------------------------------------------------------------------------

class BTerms(namedtuple("BTerms", "x gamma delta b0 b1 b")):
    """The smooth count approximation at x, split into its pieces.

    x is the argument as given, an int or a float.  gamma and delta are
    the fractional parts of sqrt(2)*x^(1/4) and x^(1/4)/sqrt(2); b0
    carries the growth terms, b1 is a bounded correction confined to
    [-2, -1], and b = b0 + b1.
    """

    __slots__ = ()


def b_value(x: int | float) -> BTerms:
    """Evaluate the smooth counting approximation at x >= 1.

    At every perfect square x = m^2 the value agrees with the exact
    count of almost-squares up to m^2 (to the accuracy of the float
    conversion of the result).  Raises ValueError unless 1 <= x < 2^1364
    (about 4.0e410), past which B may leave float range; nan and the
    infinities are refused with the rest.
    """
    if not 1 <= x < _B_HI:
        raise ValueError(
            "x must be >= 1 and below 2^1364 (about 4.0e410), past which B may leave float range"
        )
    p, q = x.as_integer_ratio()
    bits = _frac_bits(4 * p)
    one = 1 << bits
    # t, u, v of the module docstring, from two roots; u is (4x)^(1/4) * 2^(P+1), and
    # v >> 1 is (4x)^(3/4) * 2^P = (64x^3)^(1/4) * 2^P, floored
    t, u, v = _roots(4 * p, q.bit_length() - 1, bits + 1)  # q is a power of two
    gamma = (u >> 1) % one
    delta_root = u >> 2  # (x/4)^(1/4) = x^(1/4)/sqrt(2)
    delta = delta_root % one
    # b0 and b1 scaled by 12*2^(3P), with 2*sqrt(2)*x^(3/4) = (64x^3)^(1/4)
    # and 2*sqrt(2)*x^(1/4) = (64x)^(1/4) = u / 2^P
    b0 = (
        4 * (v >> 1) + 6 * (t >> bits + 3) + 4 * u
    ) * one**2 + 12 * gamma * (one - gamma) * delta_root
    b1 = 2 * gamma**3 - 3 * gamma**2 * one - (5 * gamma + 6 * delta + 12 * one) * one**2
    scale = 12 * one**3
    return BTerms(
        x=x,
        gamma=gamma / one,
        delta=delta / one,
        b0=b0 / scale,
        b1=b1 / scale,
        b=(b0 + b1) / scale,
    )


# --------------------------------------------------------------------------
# the two oscillation shapes
# --------------------------------------------------------------------------

def _frac(t: float) -> float:
    """{t}, refused with ValueError where t is not finite."""
    if not math.isfinite(t):  # math.floor raises OverflowError on inf
        raise ValueError(f"t must be finite, not {t}")
    return t - math.floor(t)


def g_func(t: float) -> float:
    """Period-1 arch {t}(1-{t})/sqrt(2); peaks at 1/(4*sqrt(2)).

    Raises ValueError for t not finite.
    """
    return _g(_frac(t))


# the shapes on a fractional part f in [0, 1), which a remainder row passes directly
def _g(f: float) -> float:
    return f * (1.0 - f) / SQRT2


def h_func(t: float) -> float:
    """Period-1 ramp with a square-root shoulder; peaks at 1/(2*sqrt(2)).

    Raises ValueError for t not finite, as g_func does.
    """
    return _h(_frac(t))


def _h(f: float) -> float:
    return f / SQRT2 if f <= 0.5 else math.sqrt(1.0 - f) - (1.0 - f) / SQRT2


# --------------------------------------------------------------------------
# remainder term
# --------------------------------------------------------------------------

class AnalysisSample(namedtuple("AnalysisSample", "x a_of_x r r_normalized g_val h_val")):
    """One sampled point of the remainder-term series.

    x and a_of_x are exact ints, x the sampled n and a_of_x the count of
    almost-squares up to it; the other fields are floats.
    """

    __slots__ = ()


def remainder(n: int) -> AnalysisSample:
    """Exact count at n minus the smooth main term, plus oscillation inputs.

    g_val samples the large-scale shape at sqrt(2)*n^(1/4); h_val
    samples the small-scale shape at 2*sqrt(n).  Raises ValueError unless
    1 <= n < 2^4092 (about 6.5e1231), past which R may leave float range,
    the bound a remainder series shares.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_r_range("n", n)
    a = count_le(n)
    return AnalysisSample(n, a, *_remainder_fields(n, a))


def _isqrt_half(t: int, u: int) -> int:
    """isqrt(t >> 1), read off u = isqrt(t) < 2^5998 with no root.

    isqrt(t >> 1) is W = floor(sqrt(t) / sqrt(2)).  w0 = floor(u*C / 2^S),
    with S = bits(u) + 2 and C = floor(2^S / sqrt(2)), is at most u /
    sqrt(2) <= sqrt(t) / sqrt(2), so w0 <= W.  As C > 2^S / sqrt(2) - 1
    and u < 2^(S-2), u / sqrt(2) < w0 + 1 + 1/4, so sqrt(t) / sqrt(2) <
    (u + 1) / sqrt(2) < w0 + 1.96 and W <= w0 + 1: one square test steps
    w0 to W.
    """
    s = u.bit_length() + 2
    w = u * (_HALF_ROOT >> _HALF_ROOT_BITS - s) >> s
    return w + 1 if (w + 1) ** 2 <= t >> 1 else w


def _remainder_fields(n: int, a: int) -> tuple[float, float, float, float]:
    """(r, r_normalized, g_val, h_val) at n >= 1 with a = count_le(n), from two roots.

    _roots gives t, u, v at y = 4n and P = _frac_bits(4n), and n^(1/4) *
    2^P, floored, is isqrt(t >> 1), which _isqrt_half reads off u.
    _frac_bits, _g and _h are inlined.
    """
    bits = (4 * n).bit_length() + 160
    one = 1 << bits
    t, u, v = _roots(4 * n, 0, bits)
    # 6*R*2^P, from (2*sqrt(2)/3)*n^(3/4) = (64n^3)^(1/4)/3 = (4n)^(3/4)/3
    r6 = 6 * a * one - 2 * v - 3 * (t >> bits + 1)
    fraction = one - 1  # the low P bits, the fractional part of a root
    f = (u & fraction) / one
    e = (t >> bits & fraction) / one
    return (
        r6 / (6 * one),
        r6 / (6 * _isqrt_half(t, u)),
        f * (1.0 - f) / SQRT2,
        e / SQRT2 if e <= 0.5 else sqrt(1.0 - e) - (1.0 - e) / SQRT2,
    )


def limit_probe(j: int) -> tuple[float, float]:
    """Normalized remainder along the two extremal sequences.

    The first component samples x = 4j^4 + j^2 and tends to
    5/(6*sqrt(2)) from nearby; the second samples x = (2j^2+j)^2 and
    tends to 19/(12*sqrt(2)).  Both x stay below remainder's bound of
    2^4092 for j up to about 2^1022.5; past that it raises ValueError.
    """
    if j < 1:
        raise ValueError("index j must be >= 1")
    low_x = 4 * j**4 + j**2
    high_x = (2 * j * j + j) ** 2
    return remainder(low_x).r_normalized, remainder(high_x).r_normalized


# z_bracket's fixed-point fraction bits: the scaled cube root is within 2^-64
# of (3j)^(1/3) > 2.6, so z is within 2^-64 of it relatively, under a float's
# half unit (2^-54), and its one division rounds it
_Z_BITS = 64


def z_bracket(j: int) -> tuple[float, bool]:
    """Seed estimate z for locating the j-th almost-square, and its bracket check.

    z = (3j)^(2/3)/2 - (3j)^(1/3)/4.  ok reports whether
    b_value((z-1)^2).b < j < b_value(z^2).b, the property that makes z a
    safe starting point for ranked access.  z is taken in fixed point from
    the exact cube root floor((3j)^(1/3) * 2^64) and rounded to a float by
    one division, so it is the exact z to float precision.  Its squares
    and the b values are floats, so ok is decided in floats: it read True
    for 50 of 50 random j in each decade from 10^10 up to 10^23, for 35 of
    50 in [10^23, 10^24), 2 of 50 in [10^24, 10^25) and none from 10^25
    to 10^27, where the float squares and the float b no longer resolve
    j.  Raises ValueError for j above 1.46e231, as z^2 passes the float
    maximum (about 1.8e308) near j = 1.4637e231.
    """
    if j <= 5:
        raise ValueError("index j must be > 5")
    if j > 1.46e231:
        raise ValueError("index j must be <= 1.46e231, or z^2 leaves float range")
    c = cbrtrem(3 * j << 3 * _Z_BITS)[0]  # floor((3j)^(1/3) * 2^64)
    z = (2 * c * c - (c << _Z_BITS)) / (1 << 2 * _Z_BITS + 2)
    ok = b_value((z - 1.0) ** 2).b < j < b_value(z * z).b
    return z, ok


# --------------------------------------------------------------------------
# products of two triangular numbers
# --------------------------------------------------------------------------

def kite_region_contains(m: int, n: int) -> bool:
    """Strict interior of the region where parity alone decides the grid.

    The region is n - 1 > m > 3n - sqrt(8n(n-1)) - 1, tested here in
    exact integer arithmetic.
    """
    if m >= n - 1:
        return False
    d = 3 * n - m - 1
    return d <= 0 or d * d < 8 * n * (n - 1)


def _tested(a: int, tris: list[int]) -> list[bool]:
    # whether each product a * b is a positive almost-square, by the interval test
    return [(p := a * b) > 0 and is_almost_square(p) is not None for b in tris]


def _tri_table(span: range) -> Iterator[list[bool]]:
    """Rows of cells [i][j], whether t_a * t_b is an almost-square, a = span[i], b = span[j].

    t_i = i(i-1)/2.  Strictly inside the kite region a cell is the parity
    of n - m, as the paper proves, so those cells are filled by it; every
    other cell (the diagonal, the bands n = m +- 1, and outside the kite)
    is tested.  For n >= m + 2 the region is (3n - m - 1)^2 < 8n(n - 1),
    that is n^2 - 2(3m - 1)n + (m + 1)^2 < 0, or (n - 3m + 1)^2 <
    8m(m - 1); for n <= m - 2 it holds the mirror cell (n, m), inside when
    (3m - n - 1)^2 < 8m(m - 1), the same condition.  In integers it is
    |n - 3m + 1| <= s = isqrt(8m(m - 1) - 1), so for m >= 2 row m's kite
    cells are the columns L = 3m - 1 - s to m - 2 and m + 2 to U =
    3m - 1 + s (as s >= 2m - 3, L <= m + 2), and for m < 2 there are
    none.  Each row's tested cells right of its kite, from U + 1, are kept
    as bytes: the cells left of a later row's kite, below its L, are
    their mirrors, read from there and not tested again.  Products that
    are not positive come out False.
    """
    lo, hi = span.start, span.stop - 1
    tri = [i * (i - 1) // 2 for i in span]
    alt = [False, True] * (len(span) // 2 + 1)
    # each row's tested cells right of its kite, and the index of the first
    tails: list[tuple[int, bytes]] = []
    for i, (m, a) in enumerate(zip(span, tri)):
        s = isqrt(max(8 * m * (m - 1) - 1, 0))
        up = max(3 * m - 1 + s, m + 1)
        left = max(min(3 * m - 1 - s, m - 1) - lo, 0)  # the columns read from the tails
        below, above = max(i - 1 - left, 0), max(min(up, hi) - m - 1, 0)  # the kite's two runs
        tail = _tested(a, tri[up + 1 - lo:])
        tails.append((up + 1 - lo, bytes(tail)))
        row = [t[i - first] == 1 for first, t in tails[:left]] + alt[below % 2:below % 2 + below]
        yield row + _tested(a, tri[max(i - 1, 0):i + 2]) + alt[1:1 + above] + tail


def tri_product_grid(m_max: int) -> list[list[bool]]:
    """Boolean table: entry [m][n] says whether t_m * t_n is an almost-square.

    Rows and columns are 1-based (index 0 is unused).  Products with
    t_1 = 0 are not positive integers and come out False.  Strictly
    inside the kite region the table equals the parity of n - m, as the
    paper proves, and is filled by it; the diagonal, the band n = m + 1
    and the cells outside the kite are tested with is_almost_square.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    return list(_tri_table(range(m_max + 1)))


# --------------------------------------------------------------------------
# CSV emission
# --------------------------------------------------------------------------

_PLAN_KINDS = ("A-of-x", "R-of-x", "R-normalized", "tri-grid")


class SamplingPlan(namedtuple("SamplingPlan", "kind lo hi step at_members",
                               defaults=(1, True))):
    """What to emit: which series, over which range, sampled how.

    A series samples either the members themselves, read off the flock
    walk (one point every time x passes a member), or the grid lo,
    lo + step, ... up to hi, with A read off the walk or from count_le
    (see emit_series).  The remainder series sample the members while
    at_members is True, the default, and the grid with at_members=False;
    A-of-x always samples the grid, so at_members does not change it.
    step applies only to grid samples.  For tri-grid plans
    lo and hi bound both table indices, and every cell of the window is
    written, a 1x1 window's one cell too.  R-of-x and R-normalized write
    the same header and rows; both names stay because callers use both
    (the demos R-normalized, the benchmark both).
    """

    __slots__ = ()


def _check_rows(expected: int) -> None:
    if expected > _ROW_CAP:
        raise ValueError(f"plan would emit {expected} rows, above the cap of {_ROW_CAP}")


def _remainder_line(x: int, a: int) -> str:
    return "%d,%d,%.17g,%.17g,%.17g,%.17g\n" % (x, a, *_remainder_fields(x, a))


def _members(runs: Iterable[tuple[int, range, range]]) -> Iterator[int]:
    """The values of the runs' members, in order, each the product of its width and length."""
    return chain.from_iterable(map(mul, ws, ls) for _, ws, ls in runs)


def _grid_counts(
    lo: int, step: int, rows: int, below: int, members: Iterator[int]
) -> Iterator[repeat[int]]:
    # A at the rows lo + i*step, i < rows, as one repeat per run of rows between
    # two members: below plus the members <= x, taken from the walk one member
    # at a time.  Member v counts from the first row with x >= v, row
    # ceil((v - lo) / step), so the rows before it keep the count below it
    a, done = below, 0
    for v in members:
        first = (v - lo - 1) // step + 1
        yield repeat(a, first - done)
        a, done = a + 1, first
    yield repeat(a, rows - done)


def emit_series(plan: SamplingPlan, out: io.TextIOBase) -> int:
    """Write the planned series as CSV to out; returns the row count.

    Each plan takes its (x, A) samples from one of three sources: the
    flock walk, one sample per member, for a remainder series at the
    members; and, for A-of-x and for a remainder series with
    at_members=False, the grid range(lo, hi + 1, step) with A read off
    the walk, below plus the members <= x merged lazily against the
    grid, while the window [lo, last x] holds no more members than grid
    rows, or with A from count_le, three roots a row more, where the members
    outnumber the rows.  _flock_runs gives the window's member count and
    below in closed form, so the choice is made before the first sample,
    and no member list is built.  step applies only to the grid.  Each
    source states its row count once, before its first sample: that
    count is checked against the row ceiling core._ROW_CAP, the CLI's
    10,000,000, equals the rows written, and is returned.  A-of-x cells
    are rendered by the decimal-I/O rule of _bigint, chosen once per plan
    from hi's width, the first x from lo itself, so digits that parse_int
    kept are written back.  Past that width each later x is the one
    before plus the step, one exact Decimal add with the step converted
    once, so an x cell costs time linear in its digits; the bytes are
    those of str().

    A remainder row takes its x, R, R_norm, g and h from two roots of 4n
    (_roots and _isqrt_half): the Newton step that gives (64n^3)^(1/4)
    lands on isqrt of its argument or one above it, and n^(1/4) read off
    (4n)^(1/4) is at most one above its first estimate, as their
    docstrings prove.  Rows go out joined into chunks of at most about
    core._JOIN_BYTES (2 KB), one write each: the chunk's row count is set
    once per plan from a bound on a row's bytes, and where that bound
    passes 2 KB, as for wide rows, each row goes out alone.

    Output is deterministic for a fixed plan: header line, then one row
    per sample, LF line endings, reals at 17 significant digits,
    integers exact.  Infeasible plans (a step below 1, for every kind),
    those above the row ceiling and remainder plans with hi >= 2^4092
    (about 6.5e1231), past which R may leave float range, are rejected
    with ValueError before any output is written.
    Below that bound x and A are exact ints, and R and R_norm each come
    from integer roots by one correctly rounded division.  g and h are
    g_func and h_func evaluated in floats on a fractional part rounded
    that way, so they are not correctly rounded: 1.0 - f cancels for f
    near 1.
    """
    if plan.kind not in _PLAN_KINDS:
        raise ValueError(f"unknown plan kind {plan.kind!r}")
    if plan.step < 1:
        raise ValueError("step must be >= 1")
    if plan.kind != "tri-grid" and plan.lo < 1 and plan.hi >= plan.lo:
        raise ValueError("lo must be >= 1")
    if plan.kind in ("R-of-x", "R-normalized"):
        _require_r_range("hi", plan.hi)

    # each source checks its row count before the first sample is drawn.  No
    # int written is wider than hi, so no cell passes `digits` digits
    digits = plan.hi.bit_length() * 31 // 100 + 1
    if plan.kind == "tri-grid":
        span = range(max(plan.lo, 1), plan.hi + 1)
        rows = max(0, plan.hi - span.start + 1) ** 2  # len() overflows past 2**63
        _check_rows(rows)
        header = "m,n,is_member\n"
        # one string per table row: m before each of its cells ",n,0" or ",n,1",
        # picked from column n's pair by the cell's bool
        cells = [(f",{n},0\n", f",{n},1\n") for n in span]
        row_bytes = max(len(span), 1) * (2 * digits + 4)  # a line is a table row
        lines = (
            m + m.join(map(tuple.__getitem__, cells, row))
            for m, row in zip(map(str, span), _tri_table(span))
        )
    elif plan.kind == "A-of-x" or not plan.at_members:  # the grid
        rows = max(0, (plan.hi - plan.lo) // plan.step + 1)
        _check_rows(rows)
        xs = range(plan.lo, plan.hi + 1, plan.step)
        members, below, runs = _flock_runs(plan.lo, plan.lo + (rows - 1) * plan.step)
        if members > rows:  # A from count_le, three roots a row
            counts = map(count_le, xs)
        else:  # A off the walk
            counts = chain.from_iterable(
                _grid_counts(plan.lo, plan.step, rows, below, _members(runs))
            )
    else:  # the flock walk, one sample per member
        rows, below, runs = _flock_runs(plan.lo, plan.hi)
        _check_rows(rows)
        xs = _members(runs)
        counts = count(below + 1)  # the i-th sample is the (below + i)-th member
    if plan.kind == "A-of-x":
        if wide(plan.hi.bit_length()):  # every x is at most hi, and A is below x
            # each x after lo's cell by one exact add of the step, converted once
            step, first = Decimal(cell(plan.step)), Decimal(cell(plan.lo))
            xs = map(str, accumulate(repeat(step, rows - 1), EXACT.add, initial=first))
            counts = map(cell, counts)
        header, lines = "x,A\n", (f"{x},{a}\n" for x, a in zip(xs, counts))
        row_bytes = 2 * digits + 2
    elif plan.kind != "tri-grid":
        header, lines = "x,A,R,R_norm,g,h\n", map(_remainder_line, xs, counts)
        row_bytes = 2 * digits + 102  # and four floats of at most 24 bytes
    out.writelines(_joined(chain((header,), lines), row_bytes))
    return rows

