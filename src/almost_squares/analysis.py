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
fixed point as floor(root * 2^P), an isqrt of a shifted integer (two
nested isqrts for a fourth root), and each float field is one correctly
rounded int/int division of integer terms.  At a perfect power the
scaled root is an exact multiple of 2^P, so its fractional part is an
exact 0: gamma(4) really is 0 and b_value(4).b really is 4.0, not 3.5
from a fractional part that rounded to 0.999... just below the jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from math import isqrt
from operator import mul
from typing import TextIO

# the at-member series reads its samples straight from the flock runs, so
# enumerate_range is not called here; the name stays imported because
# perfbench/tracing.py replaces analysis.enumerate_range by name, and its
# getattr raises AttributeError on a missing name, failing every traced run
from .core import (
    _flock_runs,
    _floor_rect,
    count_le,
    enumerate_range,
    is_almost_square,
)

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


def _digit_count(n: int) -> int:
    return max(1, (abs(n).bit_length() * 30103) // 100000 + 1)


def _as_float(x: int | float) -> float:
    """float(x), refused with ValueError where x is beyond float range."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(
            f"x of about {_digit_count(x)} digits is beyond float range (about 1.8e308)"
        ) from None


def _frac_bits(num: int) -> int:
    # A root of a rational with an N-bit numerator that is not an integer
    # lies at least 2^-(N+5) from every integer, so N + 160 fraction bits
    # hold each nonzero fractional part to well over float precision.
    return num.bit_length() + 160


def _root(num: int, den: int, e: int, bits: int) -> int:
    """floor((num/den)^(1/e) * 2^bits) for e in {2, 4}, exactly."""
    r = isqrt((num << e * bits) // den)
    return isqrt(r) if e == 4 else r


# --------------------------------------------------------------------------
# the smooth counting approximation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BTerms:
    """The smooth count approximation at x, split into its pieces.

    gamma and delta are the fractional parts of sqrt(2)*x^(1/4) and
    x^(1/4)/sqrt(2); b0 carries the growth terms, b1 is a bounded
    correction confined to [-2, -1], and b = b0 + b1.
    """

    x: float
    gamma: float
    delta: float
    b0: float
    b1: float
    b: float


def b_value(x: int | float) -> BTerms:
    """Evaluate the smooth counting approximation at x >= 1.

    At every perfect square x = m^2 the value agrees with the exact
    count of almost-squares up to m^2 (to the accuracy of the float
    conversion of the result).  Raises ValueError for x beyond float
    range or not finite, as remainder does.
    """
    if isinstance(x, float) and not math.isfinite(x):  # inf has no integer ratio
        raise ValueError(f"x must be finite, not {x}")
    p, q = x.as_integer_ratio()
    if p < q:
        raise ValueError("x must be >= 1")
    xf = _as_float(x)
    bits = _frac_bits(4 * p)
    one = 1 << bits
    gamma = _root(4 * p, q, 4, bits) % one
    delta_root = _root(p, 4 * q, 4, bits)  # (x/4)^(1/4) = x^(1/4)/sqrt(2)
    delta = delta_root % one
    # b0 and b1 scaled by 12*2^(3P), with 2*sqrt(2)*x^(3/4) = (64x^3)^(1/4)
    # and 2*sqrt(2)*x^(1/4) = (64x)^(1/4)
    b0 = (
        4 * _root(64 * p**3, q**3, 4, bits)
        + 6 * _root(p, q, 2, bits)
        + 4 * _root(64 * p, q, 4, bits)
    ) * one**2 + 12 * gamma * (one - gamma) * delta_root
    b1 = 2 * gamma**3 - 3 * gamma**2 * one - (5 * gamma + 6 * delta + 12 * one) * one**2
    scale = 12 * one**3
    return BTerms(
        x=xf,
        gamma=gamma / one,
        delta=delta / one,
        b0=b0 / scale,
        b1=b1 / scale,
        b=(b0 + b1) / scale,
    )


# --------------------------------------------------------------------------
# the two oscillation shapes
# --------------------------------------------------------------------------

def g_func(t: float) -> float:
    """Period-1 arch {t}(1-{t})/sqrt(2); peaks at 1/(4*sqrt(2))."""
    f = t - math.floor(t)
    return f * (1.0 - f) / SQRT2


def h_func(t: float) -> float:
    """Period-1 ramp with a square-root shoulder; peaks at 1/(2*sqrt(2))."""
    f = t - math.floor(t)
    if f <= 0.5:
        return f / SQRT2
    return math.sqrt(1.0 - f) - (1.0 - f) / SQRT2


# --------------------------------------------------------------------------
# remainder term
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisSample:
    """One sampled point of the remainder-term series."""

    x: float
    a_of_x: int
    r: float
    r_normalized: float
    g_val: float
    h_val: float


def remainder(n: int) -> AnalysisSample:
    """Exact count at n minus the smooth main term, plus oscillation inputs.

    g_val samples the large-scale shape at sqrt(2)*n^(1/4); h_val
    samples the small-scale shape at 2*sqrt(n).  Raises ValueError for n
    beyond float range, where the sample's float fields cannot hold it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = _as_float(n)
    a = count_le(n)
    bits = _frac_bits(4 * n)
    one = 1 << bits
    # 6*R*2^P, from (2*sqrt(2)/3)*n^(3/4) = (64n^3)^(1/4)/3
    r6 = 6 * a * one - 2 * _root(64 * n**3, 1, 4, bits) - 3 * _root(n, 1, 2, bits)
    return AnalysisSample(
        x=x,
        a_of_x=a,
        r=r6 / (6 * one),
        r_normalized=r6 / (6 * _root(n, 1, 4, bits)),
        g_val=g_func((_root(4 * n, 1, 4, bits) % one) / one),
        h_val=h_func((_root(4 * n, 1, 2, bits) % one) / one),
    )


def limit_probe(j: int) -> tuple[float, float]:
    """Normalized remainder along the two extremal sequences.

    The first component samples x = 4j^4 + j^2 and tends to
    5/(6*sqrt(2)) from nearby; the second samples x = (2j^2+j)^2 and
    tends to 19/(12*sqrt(2)).
    """
    if j < 1:
        raise ValueError("index j must be >= 1")
    low_x = 4 * j**4 + j**2
    high_x = (2 * j * j + j) ** 2
    return remainder(low_x).r_normalized, remainder(high_x).r_normalized


def z_bracket(j: int) -> tuple[float, bool]:
    """Seed estimate z for locating the j-th almost-square, and its bracket check.

    z = (3j)^(2/3)/2 - (3j)^(1/3)/4.  ok reports whether
    b_value((z-1)^2).b < j < b_value(z^2).b, the property that makes z a
    safe starting point for ranked access.
    """
    if j <= 5:
        raise ValueError("index j must be > 5")
    t = 3.0 * j
    z = 0.5 * t ** (2.0 / 3.0) - 0.25 * t ** (1.0 / 3.0)
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


def _tri_table(span: range) -> list[list[bool]]:
    """Cell [i][j] says whether t_a * t_b is an almost-square, a = span[i], b = span[j].

    t_i = i(i-1)/2.  Only the upper triangle is tested; the table is
    symmetric.  Products that are not positive come out False.
    """
    tri = [i * (i - 1) // 2 for i in span]
    table = [[False] * len(tri) for _ in tri]
    for i, a in enumerate(tri):
        for j in range(i, len(tri)):
            product = a * tri[j]
            hit = product > 0 and is_almost_square(product) is not None
            table[i][j] = table[j][i] = hit
    return table


def tri_product_grid(m_max: int) -> list[list[bool]]:
    """Boolean table: entry [m][n] says whether t_m * t_n is an almost-square.

    Rows and columns are 1-based (index 0 is unused).  Products with
    t_1 = 0 are not positive integers and come out False.  Strictly
    inside the kite region the table equals the parity of n - m.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    return _tri_table(range(m_max + 1))


# --------------------------------------------------------------------------
# CSV emission
# --------------------------------------------------------------------------

_PLAN_KINDS = ("A-of-x", "R-of-x", "R-normalized", "tri-grid")


@dataclass(frozen=True)
class SamplingPlan:
    """What to emit: which series, over which range, sampled how.

    The remainder series sample at the almost-square values themselves
    (one point every time x passes a member) while at_members is True,
    the default; at_members=False samples a fixed-step grid instead.
    For tri-grid plans lo and hi bound both table indices.
    """

    kind: str
    lo: int
    hi: int
    step: int = 1
    at_members: bool = True
    max_rows: int = 1_000_000


def _check_rows(expected: int, plan: SamplingPlan) -> None:
    if expected > plan.max_rows:
        raise ValueError(
            f"plan would emit {expected} rows, above the cap of {plan.max_rows}"
        )


def _remainder_line(x: int) -> str:
    s = remainder(x)
    return "{},{},{:.17g},{:.17g},{:.17g},{:.17g}\n".format(
        x, s.a_of_x, s.r, s.r_normalized, s.g_val, s.h_val
    )


def emit_series(plan: SamplingPlan, out: TextIO) -> int:
    """Write the planned series as CSV to out; returns the row count.

    Output is deterministic for a fixed plan: header line, then one row
    per sample, LF line endings, reals at 17 significant digits,
    integers exact.  Infeasible plans (a step below 1 or a negative
    max_rows, for every kind), those above max_rows and remainder plans
    with a sample beyond float range, are rejected with ValueError
    before any output is written.
    """
    if plan.kind not in _PLAN_KINDS:
        raise ValueError(f"unknown plan kind {plan.kind!r}")
    if plan.step < 1:
        raise ValueError("step must be >= 1")
    if plan.max_rows < 0:
        raise ValueError("max_rows must be >= 0")

    if plan.kind == "tri-grid":
        lo = max(plan.lo, 1)
        span = range(lo, plan.hi + 1)
        if span:
            _check_rows((plan.hi - lo + 1) ** 2, plan)  # len() overflows above 2**63
        header, lines = "m,n,is_member\n", ()
        if span and plan.hi >= 2:
            lines = (
                f"{m},{n},{1 if cell else 0}\n"
                for m, row in zip(span, _tri_table(span))
                for n, cell in zip(span, row)
            )
    elif plan.hi >= plan.lo and plan.lo < 1:
        raise ValueError("lo must be >= 1")
    elif plan.kind == "A-of-x":
        _check_rows(max(0, (plan.hi - plan.lo) // plan.step + 1), plan)
        header = "x,A\n"
        lines = (f"{x},{count_le(x)}\n" for x in range(plan.lo, plan.hi + 1, plan.step))
    else:  # a remainder series
        header = "x,A,R,R_norm,g,h\n"
        if plan.at_members:
            count, hi_at, runs = _flock_runs(plan.lo, plan.hi)
            _check_rows(count, plan)
            if count:  # the greatest member <= hi is then the last sample
                last = _floor_rect(*hi_at)
                _as_float(last.width * last.length)
            xs = chain.from_iterable(map(mul, ws, ls) for _, ws, ls in runs)
        else:
            _check_rows((plan.hi - plan.lo) // plan.step + 1, plan)
            xs = range(plan.lo, plan.hi + 1, plan.step)
            if xs:  # samples ascend, so the last one bounds them all
                _as_float(xs[-1])
        lines = map(_remainder_line, xs)
    out.write(header)
    rows = 0
    for line in lines:
        out.write(line)
        rows += 1
    return rows

