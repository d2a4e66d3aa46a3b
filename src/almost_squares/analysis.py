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
fixed point as floor(root * 2^P), and each float field is one correctly
rounded int/int division of integer terms.  At a perfect power the
scaled root is an exact multiple of 2^P, so its fractional part is an
exact 0: gamma(4) really is 0 and b_value(4).b really is 4.0, not 3.5
from a fractional part that rounded to 0.999... just below the jump.

One rule yields every root.  _roots(num, den, bits) takes
t = isqrt((num << 4*bits) // den) and u = isqrt(t), the floors of
sqrt(y) * 2^(2*bits) and y^(1/4) * 2^bits for y = num/den, and each
other root is read off them by a shift, or by an isqrt of a shift, as
floor(floor(y) / 2^j) = floor(y / 2^j) and floor(sqrt(floor(y))) =
floor(sqrt(y)) for y >= 0.
A remainder row takes t, u at y = 4n: sqrt(4n) is t >> P, sqrt(n) is
t >> P + 1, (4n)^(1/4) is u and n^(1/4) is isqrt(t >> 1); with the pair
for 64n^3 it takes five roots.  A row's A takes none where it is read
off the flock walk: at a member it is the count of members below the
window plus the row's index, and on a grid whose window holds no more
members than rows it is that count plus the members <= x.  A grid row
adds count_le's three only where the members outnumber the rows.  A plan
also takes a fixed few to locate its window's two ends, and the walk one
per flock it enters.  b_value takes t, u at y = 4x with
P + 1 bits: u is (64x)^(1/4), u >> 1 and u >> 2 are (4x)^(1/4) and
(x/4)^(1/4), t >> P + 3 is sqrt(x), and with the pair for 64x^3 it
takes four roots.

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
from math import isqrt
from operator import mul

from ._bigint import EXACT, cell, wide

# the at-member series reads its samples straight from the flock runs, so
# enumerate_range is not called here; the name stays imported because
# perfbench/tracing.py replaces analysis.enumerate_range by name, and its
# getattr raises AttributeError on a missing name, failing every traced run
from .core import _flock_runs, _icbrt, count_le, enumerate_range, is_almost_square

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


def _roots(num: int, den: int, bits: int) -> tuple[int, int]:
    """floor(sqrt(y) * 2^(2*bits)) and floor(y^(1/4) * 2^bits) for y = num/den, exactly."""
    t = isqrt((num << 4 * bits) // den)
    return t, isqrt(t)


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
    # the four roots of the module docstring; u is (4x)^(1/4) * 2^(P+1)
    t, u = _roots(4 * p, q, bits + 1)
    gamma = (u >> 1) % one
    delta_root = u >> 2  # (x/4)^(1/4) = x^(1/4)/sqrt(2)
    delta = delta_root % one
    # b0 and b1 scaled by 12*2^(3P), with 2*sqrt(2)*x^(3/4) = (64x^3)^(1/4)
    # and 2*sqrt(2)*x^(1/4) = (64x)^(1/4) = u / 2^P
    b0 = (
        4 * _roots(64 * p**3, q**3, bits)[1] + 6 * (t >> bits + 3) + 4 * u
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
    f = _frac(t)
    return f * (1.0 - f) / SQRT2


def h_func(t: float) -> float:
    """Period-1 ramp with a square-root shoulder; peaks at 1/(2*sqrt(2)).

    Raises ValueError for t not finite, as g_func does.
    """
    f = _frac(t)
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


def _remainder_fields(n: int, a: int) -> tuple[float, float, float, float]:
    # (r, r_normalized, g_val, h_val) at n >= 1 with a = count_le(n), from the
    # five roots of the module docstring
    bits = _frac_bits(4 * n)
    one = 1 << bits
    t, u = _roots(4 * n, 1, bits)
    # 6*R*2^P, from (2*sqrt(2)/3)*n^(3/4) = (64n^3)^(1/4)/3
    r6 = 6 * a * one - 2 * _roots(64 * n**3, 1, bits)[1] - 3 * (t >> bits + 1)
    return (
        r6 / (6 * one),
        r6 / (6 * isqrt(t >> 1)),
        g_func((u % one) / one),
        h_func(((t >> bits) % one) / one),
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
    c = _icbrt(3 * j << 3 * _Z_BITS)  # floor((3j)^(1/3) * 2^64)
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


class SamplingPlan(namedtuple("SamplingPlan", "kind lo hi step at_members max_rows",
                               defaults=(1, True, 1_000_000))):
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


def _check_rows(expected: int, plan: SamplingPlan) -> None:
    if expected > plan.max_rows:
        raise ValueError(
            f"plan would emit {expected} rows, above the cap of {plan.max_rows}"
        )


def _remainder_line(x: int, a: int) -> str:
    return "{},{},{:.17g},{:.17g},{:.17g},{:.17g}\n".format(x, a, *_remainder_fields(x, a))


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
    rows, or with A from count_le, three roots a row, where the members
    outnumber the rows.  _flock_runs gives the window's member count and
    below in closed form, so the choice is made before the first sample,
    and no member list is built.  step applies only to the grid.  Each
    source states its row count once, before its first sample: that
    count is checked against max_rows, equals the rows written, and is
    returned.  A-of-x cells are rendered by the decimal-I/O rule of
    _bigint, chosen once per plan from hi's width, the first x from lo
    itself, so digits that parse_int kept are written back.  Past that
    width each later x is the one before plus the step, one exact Decimal
    add with the step converted once, so an x cell costs time linear in
    its digits; the bytes are those of str().

    Output is deterministic for a fixed plan: header line, then one row
    per sample, LF line endings, reals at 17 significant digits,
    integers exact.  Infeasible plans (a step below 1 or a negative
    max_rows, for every kind), those above max_rows and remainder plans
    with hi >= 2^4092 (about 6.5e1231), past which R may leave float
    range, are rejected with ValueError before any output is written.
    Below that bound every remainder row is exact up to the float
    rounding of its reals: x and A are ints, and R, R_norm, g and h come
    from integer roots, each by one correctly rounded division.
    """
    if plan.kind not in _PLAN_KINDS:
        raise ValueError(f"unknown plan kind {plan.kind!r}")
    if plan.step < 1:
        raise ValueError("step must be >= 1")
    if plan.max_rows < 0:
        raise ValueError("max_rows must be >= 0")
    if plan.kind != "tri-grid" and plan.lo < 1 and plan.hi >= plan.lo:
        raise ValueError("lo must be >= 1")
    if plan.kind in ("R-of-x", "R-normalized"):
        _require_r_range("hi", plan.hi)

    # each source checks its row count before the first sample is drawn
    if plan.kind == "tri-grid":
        span = range(max(plan.lo, 1), plan.hi + 1)
        rows = max(0, plan.hi - span.start + 1) ** 2  # len() overflows past 2**63
        _check_rows(rows, plan)
        header = "m,n,is_member\n"
        # one string per table row: m before each of its cells ",n,0" or ",n,1",
        # picked from column n's pair by the cell's bool
        cells = [(f",{n},0\n", f",{n},1\n") for n in span]
        lines = (
            m + m.join(map(tuple.__getitem__, cells, row))
            for m, row in zip(map(str, span), _tri_table(span))
        )
    elif plan.kind == "A-of-x" or not plan.at_members:  # the grid
        rows = max(0, (plan.hi - plan.lo) // plan.step + 1)
        _check_rows(rows, plan)
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
        _check_rows(rows, plan)
        xs = _members(runs)
        counts = count(below + 1)  # the i-th sample is the (below + i)-th member
    if plan.kind == "A-of-x":
        if wide(plan.hi.bit_length()):  # every x is at most hi, and A is below x
            # each x after lo's cell by one exact add of the step, converted once
            step, first = Decimal(cell(plan.step)), Decimal(cell(plan.lo))
            xs = map(str, accumulate(repeat(step, rows - 1), EXACT.add, initial=first))
            counts = map(cell, counts)
        header, lines = "x,A\n", (f"{x},{a}\n" for x, a in zip(xs, counts))
    elif plan.kind != "tri-grid":
        header, lines = "x,A,R,R_norm,g,h\n", map(_remainder_line, xs, counts)
    out.write(header)
    out.writelines(lines)
    return rows

