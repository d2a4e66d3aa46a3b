"""Tests for the floating-point analysis layer."""

import hashlib
import io
import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import almost_squares
from almost_squares import analysis, core
from almost_squares.analysis import (
    AnalysisSample,
    BTerms,
    SamplingPlan,
    _frac_bits,
    _isqrt_half,
    _remainder_fields,
    _roots,
    b_value,
    emit_series,
    g_func,
    h_func,
    kite_region_contains,
    limit_probe,
    remainder,
    tri_product_grid,
    z_bracket,
)
from almost_squares.core import (
    _flock_extent,
    _rect,
    count_at_square,
    count_le,
    enumerate_range,
    is_almost_square,
    pioneer,
    triangular,
)

SQRT2 = math.sqrt(2.0)

# measured over all members <= 10**7; a regression bound, not a theorem
RESIDUAL_BOUND = 2.0

# repr-exact fields recorded from the earlier extended-precision (mpmath)
# implementation, well beyond the demo range.  4e280+1 and 4e280+4 sit
# next to fourth powers, where g, gamma and delta are about 1e-211 and
# need about as many fraction bits as x itself has bits.
REMAINDER_GOLDEN = [
    pytest.param(
        10**12 + 7,
        AnalysisSample(
            x=10**12 + 7,
            a_of_x=943310102,
            r=1060.412985136664,
            r_normalized=1.060412985134808,
            g_val=0.11876104980143354,
            h_val=4.9497474682971705e-06,
        ),
        id="1e12+7",
    ),
    pytest.param(
        10**40 + 3,
        AnalysisSample(
            x=10**40 + 3,
            a_of_x=942809041632063365878611182654,
            r=10818699847.534615,
            r_normalized=1.0818699847534614,
            g_val=0.13906094335197633,
            h_val=2.1213203435596425e-20,
        ),
        id="1e40+3",
    ),
    pytest.param(
        4908608757122565690308565067218363237132611264780998192685820855842445335770939672175222992610107420,
        AnalysisSample(
            x=4908608757122565690308565067218363237132611264780998192685820855842445335770939672175222992610107420,
            a_of_x=552894859527394875569343557029664471230935979729073119167520324055862885879,
            r=5.851355963301736e+24,
            r_normalized=0.6990639626748218,
            g_val=0.06787315711764405,
            h_val=0.31161823602488564,
        ),
        id="member-100-digits",
    ),
    pytest.param(
        10**300 + 1,
        AnalysisSample(
            x=10**300 + 1,
            a_of_x=942809041582063365867792482806465385713114583584632048784453158660488318975238025900258356218427715156675897487274864683283224037233824808429414331400967616335211156770435199660516707347504889438391488385349566059554160629758,
            r=1.0103953930627128e+75,
            r_normalized=1.0103953930627128,
            g_val=0.06758635148064945,
            h_val=7.071067811865475e-151,
        ),
        id="1e300+1",
    ),
    pytest.param(
        10**308,
        AnalysisSample(
            x=10**308,
            a_of_x=942809041582063365867792482806465385713114583584632048784453158660488318974743025900258356218427715156675897487274864683283224037233824808429414331399957329961342243699670475090110745395808801176286369352643419448973404873359879614,
            r=1.09019193799748e+77,
            r_normalized=1.09019193799748,
            g_val=0.14738289641541663,
            h_val=0.0,
        ),
        id="1e308",
    ),
    pytest.param(
        4 * 10**16 + 10**8,
        AnalysisSample(
            x=4 * 10**16 + 10**8,
            a_of_x=2666766679999,
            r=8332.208334895911,
            r_normalized=0.589176101218162,
            g_val=8.838724271111082e-06,
            h_val=0.3535533903723029,
        ),
        id="limit-probe-low-1e4",
    ),
    pytest.param(
        (2 * 10**8 + 10**4) ** 2,
        AnalysisSample(
            x=(2 * 10**8 + 10**4) ** 2,
            a_of_x=2666966689999,
            r=15832.35416627605,
            r_normalized=1.1194885124491085,
            g_val=0.17677669526901688,
            h_val=0.0,
        ),
        id="limit-probe-high-1e4",
    ),
    pytest.param(
        4 * 10**280 + 1,
        AnalysisSample(
            x=4 * 10**280 + 1,
            a_of_x=2666666666666666666666666666666666666666666666666666666666666666666666766666666666666666666666666666666666666666666666666666666666666666666679999999999999999999999999999999999999999999999999999999999999999999999,
            r=1.3333333333333333e+70,
            r_normalized=0.9428090415820634,
            g_val=8.838834764831843e-212,
            h_val=3.5355339059327376e-141,
        ),
        id="4e280+1",
    ),
]

B_VALUE_GOLDEN = [
    pytest.param(
        20.25,
        BTerms(
            x=20.25,
            gamma=0.0,
            delta=0.5,
            b0=13.25,
            b1=-1.25,
            b=12.0,
        ),
        id="20.25",
    ),
    pytest.param(
        4,
        BTerms(
            x=4,
            gamma=0.0,
            delta=0.0,
            b0=5.0,
            b1=-1.0,
            b=4.0,
        ),
        id="4",
    ),
    pytest.param(
        196,
        BTerms(
            x=196,
            gamma=0.29150262212918115,
            delta=0.6457513110645906,
            b0=60.46145017954556,
            b1=-1.4614501795455577,
            b=59.0,
        ),
        id="196",
    ),
    pytest.param(
        10**30 + 1,
        BTerms(
            x=10**30 + 1,
            gamma=0.5499957939281834,
            delta=0.7749978969640917,
            b0=2.981424019999723e+22,
            b1=-1.6645591754502929,
            b=2.981424019999723e+22,
        ),
        id="1e30+1",
    ),
    pytest.param(
        107420017.8254449,
        BTerms(
            x=107420017.8254449,
            gamma=0.9747399789409527,
            delta=0.9873699894704763,
            b0=1000084.2371474184,
            b1=-1.9830031550659737,
            b=1000082.2541442633,
        ),
        id="z-bracket-1e6",
    ),
    pytest.param(
        4 * 10**280 + 4,
        BTerms(
            x=4 * 10**280 + 4,
            gamma=5e-211,
            delta=2.5e-211,
            b0=2.666666666666667e+210,
            b1=-1.0,
            b=2.666666666666667e+210,
        ),
        id="4e280+4",
    ),
]


class TestBValue:
    def test_x4_exact_corner(self):
        bt = b_value(4)
        assert bt.gamma == 0.0
        assert bt.delta == 0.0
        assert bt.b1 == -1.0
        assert bt.b == pytest.approx(4.0, abs=1e-12)

    def test_x9(self):
        assert b_value(9).b == pytest.approx(7.0, abs=1e-6)

    def test_x196(self):
        assert b_value(196).b == pytest.approx(59.0, abs=1e-6)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            b_value(0.5)

    def test_agreement_at_squares(self):
        for m in range(1, 500):
            exact = count_at_square(m)
            assert b_value(m * m).b == pytest.approx(exact, rel=1e-6)

    def test_b1_range_sampled(self):
        rng = random.Random(4242)
        for _ in range(2000):
            x = rng.randint(1, 10**12)
            assert -2.0 <= b_value(x).b1 <= -1.0

    def test_gamma_is_frac_of_twice_delta(self):
        rng = random.Random(99)
        for _ in range(500):
            x = rng.randint(2, 10**10)
            bt = b_value(x)
            twice = (2.0 * bt.delta) % 1.0
            gap = abs(bt.gamma - twice)
            assert min(gap, 1.0 - gap) < 1e-7

    def test_float_inputs(self):
        assert b_value(20.25).gamma == pytest.approx(0.0, abs=1e-12)

    def test_float_range_edge(self):
        # B is about (2*sqrt(2)/3) * x^(3/4), so 0.943 * 2^1023 just below 2^1364
        top = 2**1364
        bt = b_value(top - 1)
        assert bt.x == top - 1
        assert bt.b == pytest.approx(2 * SQRT2 / 3 * 2.0**1023, rel=1e-12)
        assert b_value(10**310).x == 10**310  # once refused for x's own float
        with pytest.raises(ValueError, match=r"below 2\^1364 .*float range"):
            b_value(top)

    def test_non_finite_floats_refused(self):
        for x in (float("inf"), float("-inf"), float("nan"), 0.5, 0, -(2**1364)):
            with pytest.raises(ValueError, match=r"x must be >= 1 and below 2\^1364"):
                b_value(x)


class TestGoldenValues:
    @pytest.mark.parametrize("n, want", REMAINDER_GOLDEN)
    def test_remainder(self, n, want):
        assert repr(remainder(n)) == repr(want)

    @pytest.mark.parametrize("x, want", B_VALUE_GOLDEN)
    def test_b_value(self, x, want):
        assert repr(b_value(x)) == repr(want)


def _modules_after(statement, names):
    # -S: a site-packages .pth file may import modules the package itself does not
    code = f"import sys; {statement}; print([m for m in {names!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(almost_squares.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_import_leaves_mpmath_unloaded():
    names = ("mpmath", "numpy", "fractions", "dataclasses", "inspect", "typing", "contextlib")
    assert _modules_after("import almost_squares.analysis", names) == "[]\n"


def test_cli_import_leaves_analysis_unloaded():
    names = ("almost_squares.analysis", "dataclasses", "inspect", "typing")
    assert _modules_after("import almost_squares.cli", names) == "[]\n"


class TestOscillationShapes:
    def test_g_zero_at_integers(self):
        for k in (-3, 0, 1, 7, 10**6):
            assert g_func(float(k)) == 0.0

    def test_g_peak(self):
        assert g_func(0.5) == pytest.approx(1 / (4 * SQRT2))

    def test_h_peak_both_branches(self):
        assert h_func(0.5) == pytest.approx(1 / (2 * SQRT2))
        assert h_func(0.5 + 1e-12) == pytest.approx(1 / (2 * SQRT2), abs=1e-6)

    def test_h_zero_at_integers(self):
        assert h_func(3.0) == 0.0

    def test_period_one(self):
        for t in (0.1, 0.37, 0.5, 0.73, 0.99):
            assert g_func(t) == pytest.approx(g_func(t + 1.0))
            assert h_func(t) == pytest.approx(h_func(t + 4.0))

    def test_ranges(self):
        for i in range(1001):
            t = i / 1000.0
            assert 0.0 <= g_func(t) <= 1 / (4 * SQRT2) + 1e-15
            assert 0.0 <= h_func(t) <= 1 / (2 * SQRT2) + 1e-15

    def test_h_continuous_at_wrap(self):
        assert h_func(1.0 - 1e-9) == pytest.approx(0.0, abs=1e-4)

    def test_non_finite_refused(self):
        for f in (g_func, h_func):
            for t in (float("inf"), float("-inf"), float("nan")):
                with pytest.raises(ValueError, match="must be finite"):
                    f(t)
        assert g_func(1e308) == h_func(1e308) == 0.0


class TestRemainder:
    def test_196(self):
        s = remainder(196)
        assert s.a_of_x == 59
        assert s.r == pytest.approx(2.612642193460976, abs=1e-9)

    def test_one(self):
        s = remainder(1)
        assert s.a_of_x == 1
        assert s.r == pytest.approx(-0.4428090415820634, abs=1e-12)

    def test_g_h_fields(self):
        s = remainder(196)
        # 2*sqrt(196) = 28 lands exactly on the period boundary
        assert s.h_val == 0.0
        assert s.g_val == pytest.approx(g_func(SQRT2 * 196 ** 0.25), abs=1e-9)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            remainder(0)

    def test_float_range_edge(self):
        top = 2**4092
        s = remainder(top - 1)
        assert s.x == top - 1
        assert 1e307 < s.r < 1.1e308  # R is about 1.12 * 2^1023 at most
        with pytest.raises(ValueError, match=r"n must be below 2\^4092 .*float range"):
            remainder(top)

    def test_fields_match_the_series_row(self):
        # remainder and a one-step grid row answer the same n under the same bound
        rng = random.Random(4092)
        ns = [rng.randrange(1, 2 ** rng.randrange(2, 4093)) for _ in range(40)]
        for n in [*range(1, 2001), *ns, 2**4092 - 1]:
            plan = SamplingPlan("R-of-x", n, n, at_members=False)
            x, a, *reals = _series_lines(plan)[0].split(",")
            s = remainder(n)
            assert (s.x, s.a_of_x, s.r, s.r_normalized, s.g_val, s.h_val) == (
                int(x), int(a), *map(float, reals)
            ), n

    def test_decomposition_residual_and_normalized_bounds(self):
        # one pass over all members to 1e7: the residual after removing
        # the g/h oscillation stays under the recorded bound, and the
        # normalized remainder on [1e6, 1e7] stays inside the limit band
        c = 2 * SQRT2 / 3
        lo_band = 5 / (6 * SQRT2) - 0.05
        hi_band = 19 / (12 * SQRT2) + 0.05
        for rec in enumerate_range(1, 10_000_000):
            s = remainder(rec.area)
            resid = abs(s.r - (c + s.g_val - s.h_val) * s.x**0.25)
            assert resid <= RESIDUAL_BOUND, rec.area
            if rec.area >= 1_000_000:
                assert lo_band <= s.r_normalized <= hi_band, rec.area


class TestLimitProbe:
    def test_j1(self):
        low, high = limit_probe(1)
        assert low == pytest.approx(-0.18089827748384173, abs=1e-9)

    def test_j100_near_limits(self):
        low, high = limit_probe(100)
        assert low == pytest.approx(5 / (6 * SQRT2), abs=0.01)
        assert high == pytest.approx(19 / (12 * SQRT2), abs=0.01)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            limit_probe(0)

    def test_thousand_bit_j_at_limits(self):
        j = random.Random(1000).getrandbits(999) | 1 << 999
        low, high = limit_probe(j)
        assert low == pytest.approx(5 / (6 * SQRT2), abs=1e-12)
        assert high == pytest.approx(19 / (12 * SQRT2), abs=1e-12)

    def test_inherits_remainder_bound(self):
        # (2j^2 + j)^2 passes 2^4092 at j = 2^1023
        with pytest.raises(ValueError, match=r"below 2\^4092"):
            limit_probe(2**1023)


class TestZBracket:
    def test_j6(self):
        z, ok = z_bracket(6)
        assert z == pytest.approx(2.779, abs=1e-3)
        assert ok

    def test_j100(self):
        assert z_bracket(100)[1]

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            z_bracket(5)

    def test_brackets_random_j_to_1e23(self):
        # the seed z is exact to float precision, so ok holds where the float
        # b values still resolve j; a float z was more than 1 off from 10^22 on
        rng = random.Random(2123)
        for lo in (10**21, 10**22):
            for _ in range(25):
                j = rng.randrange(lo, 10 * lo)
                z, ok = z_bracket(j)
                assert ok, j
                assert z == pytest.approx((3 * j) ** (2 / 3) / 2 - (3 * j) ** (1 / 3) / 4)

    def test_float_range_edge(self):
        # z^2 is about 1.08e308 at j = 10^231 and overflows a float at
        # 2 * 10^231; 3.0 * j itself overflows at 10^400
        edge = int(1.46e231)
        for j in (10**231, edge):
            z, _ = z_bracket(j)
            assert math.isfinite(z * z) and math.isfinite((z - 1.0) ** 2)
        for j in (edge + 1, 2 * 10**231, 10**308, 10**400):
            with pytest.raises(ValueError, match="float range"):
                z_bracket(j)


class TestKiteRegion:
    def test_examples(self):
        assert kite_region_contains(4, 6)
        assert kite_region_contains(4, 7)
        assert not kite_region_contains(5, 6)   # m >= n - 1
        assert not kite_region_contains(1, 4)   # below the lower boundary

    def test_boundary_is_excluded(self):
        # the lower curve at n = 9: 27 - sqrt(576) - 1 = 2, so m = 2 is out
        assert 8 * 9 * 8 == 24 * 24
        assert not kite_region_contains(2, 9)
        assert kite_region_contains(3, 9)


class TestTriProductGrid:
    def test_spot_values(self):
        grid = tri_product_grid(8)
        assert grid[4][6]          # 6 * 15 = 90
        assert not grid[4][7]      # 6 * 21 = 126

    def test_symmetry(self):
        grid = tri_product_grid(20)
        assert grid == [list(c) for c in zip(*grid)]

    def test_central_diagonals_true(self):
        grid = tri_product_grid(30)
        for m in range(2, 31):
            assert grid[m][m]
            if m + 1 <= 30:
                assert grid[m][m + 1]
            if m + 2 <= 30:
                assert grid[m][m + 2]

    def test_parity_inside_kite(self):
        # the table fills the kite by this parity rule, so each cell is also
        # tested on its product directly
        size = 30
        grid = tri_product_grid(size)
        for n in range(2, size + 1):
            for m in range(2, n):
                if kite_region_contains(m, n):
                    member = is_almost_square(triangular(m) * triangular(n)) is not None
                    assert grid[m][n] == member == ((n - m) % 2 == 0), (m, n)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            tri_product_grid(1)

    # these test every cell, in the kite and out of it, by the interval test
    # alone
    def test_every_cell_against_the_interval_test(self):
        size = 300
        grid = tri_product_grid(size)
        for m in range(size + 1):
            for n in range(size + 1):
                product = triangular(max(m, 1)) * triangular(max(n, 1))
                want = product > 0 and is_almost_square(product) is not None
                assert grid[m][n] == want, (m, n)

    @pytest.mark.parametrize("lo", [10**5, 10**12])
    def test_wide_window_far_out_against_the_interval_test(self, lo):
        out = io.StringIO()
        assert emit_series(SamplingPlan("tri-grid", lo, lo + 39), out) == 40 * 40
        for line in out.getvalue().splitlines()[1:]:
            m, n, flag = map(int, line.split(","))
            member = is_almost_square(triangular(m) * triangular(n)) is not None
            assert flag == int(member), (m, n)

    @pytest.mark.parametrize("lo", [10**5, 10**40])
    def test_narrow_window_far_out(self, lo):
        # the table covers the plan's window only, not [1..hi]^2
        out = io.StringIO()
        t0 = time.perf_counter()
        rows = emit_series(SamplingPlan("tri-grid", lo, lo + 3), out)
        assert time.perf_counter() - t0 < 1.0
        lines = out.getvalue().splitlines()
        assert rows == 16 and lines[0] == "m,n,is_member"
        for line in lines[1:]:
            m, n, flag = map(int, line.split(","))
            assert lo <= m <= lo + 3 and lo <= n <= lo + 3
            member = is_almost_square(triangular(m) * triangular(n)) is not None
            assert flag == int(member), (m, n)


def _kite_ends(m):
    # row m's kite columns are L..m-2 and m+2..U, by _tri_table's closed form
    s = math.isqrt(8 * m * (m - 1) - 1)
    return 3 * m - 1 - s, 3 * m - 1 + s


class TestTriTableRows:
    def test_closed_form_against_the_region_for_every_small_m(self):
        # every n: below m the kite holds (n, m), from m on (m, n); past
        # 6m - 2 the region's quadratic in n is positive, so 6m bounds the scan
        for m in range(1500):
            low, up = _kite_ends(m) if m >= 2 else (m - 1, m + 1)
            below = list(map(kite_region_contains, range(m), itertools.repeat(m)))
            above = list(map(kite_region_contains, itertools.repeat(m), range(m, 6 * m + 2)))
            assert below == [low <= n <= m - 2 for n in range(m)], m
            assert above == [m + 2 <= n <= up for n in range(m, 6 * m + 2)], m

    @pytest.mark.parametrize("e", [5, 12, 40, 300])
    def test_closed_form_at_the_boundary_far_out(self, e):
        for m in range(10**e - 2, 10**e + 3):
            low, up = _kite_ends(m)
            assert kite_region_contains(m, up) and not kite_region_contains(m, up + 1), m
            assert kite_region_contains(low, m) and not kite_region_contains(low - 1, m), m

    # windows off 0 where L(m) falls inside, so the cells left of a row's
    # kite are read from earlier rows' tails at an offset
    @pytest.mark.parametrize("lo, hi", [(37, 400), (13, 150)])
    def test_window_off_zero_against_the_interval_test(self, lo, hi):
        assert _kite_ends(hi)[0] > lo
        out = io.StringIO()
        assert emit_series(SamplingPlan("tri-grid", lo, hi), out) == (hi - lo + 1) ** 2
        lines = out.getvalue().splitlines()[1:]
        tri = {m: triangular(m) for m in range(lo, hi + 1)}
        for i, line in enumerate(lines):
            m, n, flag = map(int, line.split(","))
            assert (m, n) == (lo + i // (hi - lo + 1), lo + i % (hi - lo + 1))
            assert flag == (is_almost_square(tri[m] * tri[n]) is not None), (m, n)

    def test_grid_is_a_list_of_lists_of_bool(self):
        grid = tri_product_grid(40)
        assert type(grid) is list and len(grid) == 41
        assert all(type(row) is list and len(row) == 41 for row in grid)
        assert {type(cell) for row in grid for cell in row} == {bool}


class TestEmitSeries:
    def test_a_of_x(self):
        out = io.StringIO()
        rows = emit_series(SamplingPlan("A-of-x", 1, 50), out)
        lines = out.getvalue().splitlines()
        assert rows == 50
        assert lines[0] == "x,A"
        assert len(lines) == 51
        for line in lines[1:]:
            x, a = line.split(",")
            assert int(a) == count_le(int(x))

    def test_remainder_series_at_members(self):
        out = io.StringIO()
        rows = emit_series(SamplingPlan("R-normalized", 1, 200), out)
        lines = out.getvalue().splitlines()
        assert rows == 59
        assert lines[0] == "x,A,R,R_norm,g,h"
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"
        # reals round-trip at 17 significant digits
        assert float(first[2]) == pytest.approx(remainder(1).r, abs=0)

    def test_grid_sampling(self):
        out = io.StringIO()
        rows = emit_series(
            SamplingPlan("R-of-x", 100, 200, step=10, at_members=False), out
        )
        assert rows == 11

    def test_empty_range_header_only(self):
        out = io.StringIO()
        rows = emit_series(SamplingPlan("R-of-x", 10, 5), out)
        assert rows == 0
        assert out.getvalue() == "x,A,R,R_norm,g,h\n"

    def test_tri_grid(self):
        out = io.StringIO()
        rows = emit_series(SamplingPlan("tri-grid", 1, 8), out)
        lines = out.getvalue().splitlines()
        assert rows == 64
        assert lines[0] == "m,n,is_member"
        cells = {
            (int(m), int(n)): flag
            for m, n, flag in (line.split(",") for line in lines[1:])
        }
        assert cells[(4, 6)] == "1"
        assert cells[(4, 7)] == "0"

    def test_cap_rejected_before_output(self):
        out = io.StringIO()
        with pytest.raises(ValueError):
            emit_series(SamplingPlan("A-of-x", 1, 10**7 + 1), out)
        assert out.getvalue() == ""

    def test_plans_up_to_the_ceiling_run(self):
        # the library's ceiling is the CLI's 10^7 rows: a 1001 x 1001 tri-grid,
        # 1,002,001 rows, runs (into a writer that keeps nothing)
        class Discard(io.TextIOBase):
            def write(self, s):
                return len(s)

        assert core._ROW_CAP == 10**7
        assert emit_series(SamplingPlan("tri-grid", 1, 1001), Discard()) == 1001**2

    @pytest.mark.parametrize("plan", [
        SamplingPlan("tri-grid", 1, 10**6),
        SamplingPlan("tri-grid", 0, 10**40),
        SamplingPlan("A-of-x", 1, 10**7 + 1),
        SamplingPlan("A-of-x", 1, 10**40, step=10**30),
        SamplingPlan("R-of-x", 1, 10**7 + 1, at_members=False),
        SamplingPlan("R-normalized", 1, 10**13),
        SamplingPlan("R-of-x", 10**40, 10**40 + 10**12, at_members=False),
    ], ids=["tri-grid", "tri-grid-wide", "A-of-x", "A-of-x-step", "R-grid", "R-members",
            "R-grid-sparse"])
    def test_cap_checked_before_the_first_sample(self, monkeypatch, plan):
        # a refused plan builds no tri-grid table and takes no count or row:
        # each spy raises, so a sample drawn before the cap check fails here
        def no_sample(*args):
            raise AssertionError("a sample was drawn before the cap check")

        for name in ("_tri_table", "count_le", "_remainder_fields"):
            monkeypatch.setattr(analysis, name, no_sample)
        out = io.StringIO()
        with pytest.raises(ValueError, match="above the cap of"):
            emit_series(plan, out)
        assert out.getvalue() == ""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["A-of-x", "R-of-x", "R-normalized", "tri-grid"]),
        st.integers(-5, 3000),
        st.integers(-10, 40),
        st.integers(1, 20),
        st.booleans(),
    )
    @example("R-of-x", -5, -5, 1, True)
    @example("A-of-x", 10, -5, 3, False)
    @example("tri-grid", -3, 6, 1, True)
    @example("tri-grid", 0, -2, 1, True)
    def test_returned_count_is_the_rows_written(self, kind, lo, width, step, at_members):
        # hi = lo + width: a negative width is an empty window, and tri-grid
        # windows may start at or below 0; the other kinds refuse lo < 1 otherwise
        if kind != "tri-grid" and width >= 0:
            lo = max(lo, 1)
        plan = SamplingPlan(kind, lo, lo + width, step=step, at_members=at_members)
        out = io.StringIO()
        rows = emit_series(plan, out)
        assert rows == out.getvalue().count("\n") - 1
        # and it is the count the cap was checked against
        if rows:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(analysis, "_ROW_CAP", rows - 1)
                with pytest.raises(ValueError, match=f"would emit {rows} rows, above"):
                    emit_series(plan, io.StringIO())

    def test_beyond_float_range_rejected_before_output(self):
        # a row holds x exactly, so the bound is on R: hi must be below 2^4092
        big = 2**4092  # a perfect square, so a member too
        for plan in (
            SamplingPlan("R-of-x", big, big, at_members=False),
            SamplingPlan("R-normalized", big - 10, big),
            SamplingPlan("R-normalized", big - 10, 10**1300, at_members=False),
        ):
            out = io.StringIO()
            with pytest.raises(ValueError, match=r"below 2\^4092 .*float range"):
                emit_series(plan, out)
            assert out.getvalue() == ""
        out = io.StringIO()
        assert emit_series(SamplingPlan("A-of-x", big, big + 2), out) == 3
        # 10^310, once refused for x's own float, is answered at members and on a grid
        b = 10**310
        assert emit_series(SamplingPlan("R-of-x", b, b, at_members=False), out) == 1
        assert emit_series(SamplingPlan("R-normalized", b - 10, b), out) == 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            emit_series(SamplingPlan("B-of-x", 1, 10), io.StringIO())

    def test_deterministic(self):
        a, b = io.StringIO(), io.StringIO()
        plan = SamplingPlan("R-of-x", 1, 500)
        emit_series(plan, a)
        emit_series(plan, b)
        assert a.getvalue() == b.getvalue()


def _root(num, den, e, bits):
    # floor((num/den)^(1/e) * 2^bits) for e in {2, 4} by nested isqrts: the
    # independent reference for the shared roots of the row and of b_value
    r = math.isqrt((num << e * bits) // den)
    return math.isqrt(r) if e == 4 else r


def _eight_root_fields(n, a):
    # the remainder row as five separate _root calls, eight isqrts: the
    # reference the shared-root row helper must match bit for bit
    bits = _frac_bits(4 * n)
    one = 1 << bits
    r6 = 6 * a * one - 2 * _root(64 * n**3, 1, 4, bits) - 3 * _root(n, 1, 2, bits)
    return (
        r6 / (6 * one),
        r6 / (6 * _root(n, 1, 4, bits)),
        g_func((_root(4 * n, 1, 4, bits) % one) / one),
        h_func((_root(4 * n, 1, 2, bits) % one) / one),
    )


def _rounds_up(n):
    # whether isqrt(4n * 2^(4P)) is 2s + 1 rather than 2s, s = isqrt(n * 2^(4P));
    # either way s = t >> 1, the identity the row helper reads sqrt(n) by
    shifted = n << 4 * _frac_bits(4 * n)
    s = math.isqrt(shifted)
    t = math.isqrt(shifted << 2)
    assert s == t >> 1, n
    assert t - 2 * s == (s * (s + 1) < shifted), n
    return t == 2 * s + 1


def _assert_fields_match(n):
    a = count_le(n)
    got = _remainder_fields(n, a)
    assert list(map(float.hex, got)) == list(map(float.hex, _eight_root_fields(n, a))), n
    return got


def _member(k, offset):
    return _rect(k, offset).area


def _assert_a_column_is_count_le(lo, hi):
    out = io.StringIO()
    rows = emit_series(SamplingPlan("R-of-x", lo, hi), out)
    samples = [tuple(map(int, line.split(",")[:2])) for line in out.getvalue().splitlines()[1:]]
    assert [a for _, a in samples] == [count_le(x) for x, _ in samples], (lo, hi)
    below = count_le(lo - 1) if lo > 1 else 0
    assert rows == len(samples) == (count_le(hi) - below if hi >= lo else 0), (lo, hi)
    return rows


# n = j^2, j^4 and 4j^4 make sqrt(n), n^(1/4) and (4n)^(1/4) integers
_POWERS = st.tuples(
    st.sampled_from([2, 4]), st.sampled_from([1, 4]), st.integers(1, 10**75), st.integers(-1, 1)
).map(lambda p: p[1] * p[2] ** p[0] + p[3]).filter(lambda n: 1 <= n <= 10**300)


class TestSharedRoots:
    """The remainder row's four shared roots against the eight-root formula."""

    def test_every_small_n(self):
        outcomes = set()
        for n in range(1, 2 * 10**4 + 1):
            _assert_fields_match(n)
            outcomes.add(_rounds_up(n))
        assert outcomes == {False, True}

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(1, 10**300), _POWERS))
    @example(10**300)
    @example(4 * (10**75 - 1) ** 4 + 1)
    def test_matches_eight_root_formula(self, n):
        _assert_fields_match(n)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10**75))
    def test_zero_fractional_parts_at_perfect_powers(self, j):
        # sqrt(4n) is an integer at n = j^2, and (4n)^(1/4) too at n = 4j^4 = (2j)^4 / 4
        _, _, _, h = _assert_fields_match(j * j)
        assert h == 0.0
        _, _, g, h = _assert_fields_match(4 * j**4)
        assert g == h == 0.0

    def test_both_rounding_outcomes_at_power_neighbours(self):
        outcomes = set()
        for j in (3, 10**6 + 1, 10**40 + 7, 10**75 - 3):
            for n in (j * j - 1, j * j + 1, 4 * j**4 - 1, 4 * j**4 + 1):
                _assert_fields_match(n)
                outcomes.add(_rounds_up(n))
        assert outcomes == {False, True}

    # at-member rows read A as the count below lo plus the row's index
    def test_a_column_from_one(self):
        for lo in range(1, 201):
            _assert_a_column_is_count_le(lo, 200)
        assert _assert_a_column_is_count_le(1, 5000) == count_le(5000)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.integers(2, 2 * 10**15),
            st.integers(1, 4 * 10**7).map(lambda j: (j + 1) ** 2 - 1),  # before a pioneer
        ),
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(-1, 1),
    )
    @example(2, 0, 0, 0)  # lo = 1
    @example(8, 1, 0, 0)
    @example(99**2 - 1, 0, 0, 1)
    def test_a_column_across_flock_ends(self, k, back, into, nudge):
        # from flock k's member at offset back, nudged one below, at or one
        # past it, into flock k + 1 up to its member at its extent - into
        lo = max(1, _member(k, min(back, _flock_extent(k))) + nudge)
        hi = _member(k + 1, max(_flock_extent(k + 1) - into, 0))
        assert _assert_a_column_is_count_le(lo, hi) >= 1
        if math.isqrt(k + 1) ** 2 == k + 1 and k > 2:
            j = math.isqrt(k + 1) - 1
            assert pioneer(j).area == _member(k + 1, _flock_extent(k + 1))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(10**6, 2 * 10**15), st.integers(1, 20))
    def test_a_column_empty_windows(self, k, offset):
        # strictly between two adjacent members of flock k, and hi < lo
        offset = min(offset, _flock_extent(k))
        lo, hi = _member(k, offset) + 1, _member(k, offset - 1) - 1
        assert _assert_a_column_is_count_le(lo, hi) == 0
        assert _assert_a_column_is_count_le(hi + 1, hi) == 0

    # grid rows read A off the walk while [lo, last x] holds no more members
    # than rows, and take count_le past that; either way A is count_le(x)
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["A-of-x", "R-of-x"]),
        st.one_of(
            st.integers(1, 10**4),
            st.integers(1, 10**40),
            st.tuples(st.integers(2, 2 * 10**20), st.integers(0, 3), st.integers(-2, 1)).map(
                lambda p: max(1, _member(p[0], min(p[1], _flock_extent(p[0]))) + p[2])
            ),
        ),
        st.integers(1, 1000),
        st.integers(0, 60),
    )
    @example("A-of-x", 10**6, 45, 46)  # 46 members in 46 rows: the walk
    @example("R-of-x", 10**6, 45, 46)
    @example("A-of-x", 10**6, 46, 45)  # 46 members in 45 rows: count_le
    @example("R-of-x", 10**6, 46, 45)
    @example("A-of-x", 1, 1, 60)
    def test_a_column_on_a_grid(self, kind, lo, step, rows):
        plan = SamplingPlan(kind, lo, lo + (rows - 1) * step, step=step, at_members=False)
        out = io.StringIO()
        assert emit_series(plan, out) == rows
        lines = out.getvalue().splitlines()[1:]
        samples = [tuple(map(int, line.split(",")[:2])) for line in lines]
        assert [x for x, _ in samples] == list(range(plan.lo, plan.hi + 1, step))
        assert [a for _, a in samples] == [count_le(x) for x, _ in samples], plan

    @staticmethod
    def _roots_per_row(monkeypatch, plan):
        calls = []

        def counted(n):
            calls.append(n)
            return math.isqrt(n)

        monkeypatch.setattr(analysis, "isqrt", counted)
        monkeypatch.setattr(core, "isqrt", counted)
        monkeypatch.setattr(core, "_JOIN_BYTES", 1)  # one row a write, the header too
        marks = []

        class Out(io.StringIO):
            def write(self, text):
                marks.append(len(calls))
                return super().write(text)

        emit_series(plan, Out())
        return [b - a for a, b in zip(marks, marks[1:])]

    def test_two_roots_per_member_row(self, monkeypatch):
        k = 2 * 10**15  # flock 2m with m = 10^15: offsets 40..0, all in one flock
        plan = SamplingPlan("R-of-x", _member(k, 40), _member(k, 0))
        assert self._roots_per_row(monkeypatch, plan) == [2] * 41

    def test_two_roots_per_sparse_grid_row(self, monkeypatch):
        # one member in 41 rows, all in one flock: A is read off the walk
        v = _member(2 * 10**15 + 1, 1000)  # 2000 and 2002 from its neighbours
        plan = SamplingPlan("R-normalized", v - 140, v + 140, step=7, at_members=False)
        assert self._roots_per_row(monkeypatch, plan) == [2] * 41

    def test_two_plus_three_roots_per_grid_row(self, monkeypatch):
        # 889 members in 41 rows: each row takes count_le's three roots for A
        plan = SamplingPlan("R-normalized", 10**6, 10**6 + 40000, step=1000, at_members=False)
        assert self._roots_per_row(monkeypatch, plan) == [2 + 3] * 41


def _newton(num, shift, bits, t, u):
    # _roots' one Newton step toward isqrt(q), q = floor(y * t), from its seed
    q = num * t >> shift
    g = (t * u >> 2 * bits) + 1
    return (g + q // g) >> 1


def _assert_roots(num, shift, bits):
    # _roots against nested isqrts, v against y^3's fourth root; returns whether
    # v needed its one step past isqrt(floor(y * t)), y = num / 2^shift, and
    # whether the Newton step landed above isqrt(floor(y * t))
    t, u, v = _roots(num, shift, bits)
    den = 1 << shift
    want = _root(num, den, 2, 2 * bits), _root(num, den, 4, bits), _root(num**3, den**3, 4, bits)
    assert (t, u, v) == want, (num, shift, bits)
    v0 = math.isqrt(num * t >> shift)
    return v != v0, _newton(num, shift, bits, t, u) > v0


class TestRoots:
    """_roots' three floors: t and u by isqrt, v = floor(y^(3/4) * 2^b) by one Newton step."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(1, 10**300), _POWERS, st.floats(1.0, 1e300)))
    @example(20.25)
    @example(4 * (10**75 - 1) ** 4 + 1)
    def test_at_the_callers_bits(self, x):
        # y = 4x, at the remainder row's P and at b_value's P + 1; a float's
        # ratio has a power of two below, as b_value reads it
        p, q = x.as_integer_ratio()
        _assert_roots(4 * p, q.bit_length() - 1, _frac_bits(4 * p))
        _assert_roots(4 * p, q.bit_length() - 1, _frac_bits(4 * p) + 1)

    def test_one_step_at_the_least_bits_the_bound_admits(self):
        # the least b with 2^(4b) >= y and one more, where the step fires
        # often, y < 1 too; at the callers' bits it fired for none of 48,000
        # seeded n up to 10^1231
        rng = random.Random(34)
        ys = [(num, shift) for shift in (*range(21), 30) for num in range(1, 400)]
        ys += [(rng.randrange(1, 10**60), rng.randrange(67)) for _ in range(1000)]
        ys += [(k**4 + d, 0) for k in (2, 3, 10**6 + 3, 10**15) for d in (-1, 0, 1)]
        fired = above = 0
        for num, shift in ys:
            bits = 0
            while 1 << shift + 4 * bits < num:
                bits += 1
            for b in (bits, bits + 1):
                step, landed = _assert_roots(num, shift, b)
                fired += step
                above += landed
        assert fired > 0 and above > 0  # both the step up and the loop down ran


def _assert_row_roots(n):
    # at the row's P: the Newton step lands on isqrt(q) or one above it, v is
    # the floor that isqrt(q) and its one step give, and n^(1/4) * 2^P read
    # off u is isqrt(t >> 1)
    bits = _frac_bits(4 * n)
    t, u, v = _roots(4 * n, 0, bits)
    v0 = math.isqrt(4 * n * t)
    assert _newton(4 * n, 0, bits, t, u) - v0 in (0, 1), n
    assert v == v0 + ((v0 + 1) ** 4 <= 64 * n**3 << 4 * bits), n
    assert _isqrt_half(t, u) == math.isqrt(t >> 1), n


def _near_powers(j):
    # j^2, j^2 +- 1, j^4, j^4 - 1, 4j^4 + j^2 and (2j^2 + j)^2: the powers, their
    # neighbours and limit_probe's two sequences
    return (j * j, j * j - 1, j * j + 1, j**4, j**4 - 1, 4 * j**4 + j * j, (2 * j * j + j) ** 2)


class TestRowRoots:
    """The row's v by one Newton step and its n^(1/4) from u, against isqrt."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(1, 2**4092 - 1), _POWERS, st.integers(1, 10**6)))
    @example(2**4092 - 1)
    @example(1)
    def test_seeded_n_below_the_bound(self, n):
        _assert_row_roots(n)

    def test_near_powers(self):
        ns = {n for j in range(1, 3000) for n in _near_powers(j) if n >= 1}
        ns.update(n for j in (10**40 + 7, 2**1000 + 1, 2**1022) for n in _near_powers(j))
        for n in ns:
            _assert_row_roots(n)
        assert len(ns) > 20000

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.integers(0, 2**11995),
            st.integers(0, 2**5997).map(lambda k: 2 * k * k),  # t >> 1 a square
            st.integers(1, 2**5997).map(lambda k: 2 * k * k - 1),
            st.integers(0, 2**5996).map(lambda k: k * k),
            st.integers(1, 2**5996).map(lambda k: k * k - 1),
        )
    )
    @example(0)
    @example(2**11995)
    @example(2 * (2**5997 - 1) ** 2 + 1)
    def test_half_root_from_u(self, t):
        u = math.isqrt(t)
        assert u < 2**5998
        assert _isqrt_half(t, u) == math.isqrt(t >> 1), t


def _reference_line(x):
    a = count_le(x)
    return "{},{},{:.17g},{:.17g},{:.17g},{:.17g}".format(x, a, *_eight_root_fields(x, a))


def _series_lines(plan):
    out = io.StringIO()
    rows = emit_series(plan, out)
    lines = out.getvalue().splitlines()
    assert rows == len(lines) - 1 and lines[0] == "x,A,R,R_norm,g,h", plan
    return lines[1:]


class TestSeriesRange:
    """Remainder rows up to just below 2^4092, against the root-formula reference."""

    TOP = 2**4092

    def _last_j(self, x_of):
        j = math.isqrt(math.isqrt(self.TOP // 4)) + 2  # 4j^4 is about x
        while x_of(j) >= self.TOP:
            j -= 1
        return j

    @pytest.mark.parametrize(
        "x_of, limit",
        [
            (lambda j: 4 * j**4 + j**2, 5 / (6 * SQRT2)),
            (lambda j: (2 * j * j + j) ** 2, 19 / (12 * SQRT2)),
        ],
        ids=["low", "high"],
    )
    def test_limit_probe_sequences_below_top(self, x_of, limit):
        j = self._last_j(x_of)
        x = x_of(j)
        assert x < self.TOP <= x_of(j + 1)
        line = _reference_line(x)
        plan = SamplingPlan("R-normalized", x, x, at_members=False)
        assert _series_lines(plan) == [line]
        r, r_norm = map(float, line.split(",")[2:4])
        assert r_norm == pytest.approx(limit, rel=1e-12)
        assert 1e307 < r < 1.1e308  # R is about 1.12 * 2^1023 at most
        if is_almost_square(x):  # (2j^2 + j)^2 is a square, so a member
            assert _series_lines(SamplingPlan("R-of-x", x - 10, x))[-1] == line

    def test_seeded_grid_points_below_top(self):
        rng = random.Random(4092)
        for _ in range(5):
            step = rng.randrange(1, 2**3000)
            lo = rng.randrange(self.TOP // 2, self.TOP - 8 * step)
            plan = SamplingPlan("R-of-x", lo, lo + 7 * step, step=step, at_members=False)
            want = [_reference_line(lo + i * step) for i in range(8)]
            assert _series_lines(plan) == want


def _five_root_b_value(x):
    # b_value as five separate _root calls, nine isqrts: the reference the
    # three-root b_value must match bit for bit
    p, q = x.as_integer_ratio()
    bits = _frac_bits(4 * p)
    one = 1 << bits
    gamma = _root(4 * p, q, 4, bits) % one
    delta_root = _root(p, 4 * q, 4, bits)
    delta = delta_root % one
    b0 = (
        4 * _root(64 * p**3, q**3, 4, bits)
        + 6 * _root(p, q, 2, bits)
        + 4 * _root(64 * p, q, 4, bits)
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


class TestBValueRoots:
    """b_value's three shared roots against the five-root formula."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(1, 10**300), _POWERS, st.floats(1.0, 1e300)))
    @example(20.25)
    @example(6.25)
    @example(1e308)
    @example(10**300)
    def test_matches_five_root_formula(self, x):
        assert repr(b_value(x)) == repr(_five_root_b_value(x))

    def test_two_roots_per_call(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return math.isqrt(n)

        monkeypatch.setattr(analysis, "isqrt", counted)
        for x in (1, 4, 20.25, 10**6 + 1, 4 * 10**80, 1e308):
            calls.clear()
            b_value(x)
            assert len(calls) == 2, x


B = 10**310  # beyond float range
F = 2**1024 - 2**970  # the least int that float() refuses
H = 2**4092  # the least hi a remainder plan refuses

# (plan, rows, sha256 of the output) or (plan, exception type, message), with
# a fourth item where the entry sets the row ceiling, for every plan kind:
# empty windows, lo <= 0, step 0, the ceiling exactly at the row count and one
# below it (at members from lo = 1, from a member lo past 1 and from a lo
# that is no member), one row past the real ceiling, tri-grid windows that
# start past 1 or below 2, a 1x1 window writing its one cell, and remainder
# plans past float range, answered up to H - 1 and refused from H on.
EMIT_MATRIX = [
    (SamplingPlan("A-of-x", 1, 50), 50,
     "f71066e51364de52115b7bf1ea44ae86bffba1ad15f12149b886f0851fbc34e8"),
    (SamplingPlan("A-of-x", 10, 100, step=7), 13,
     "3d94ebbad7f56da0bc9bf2506b6b807882a47a93dfaa024f1707f617d1bd3e4c"),
    (SamplingPlan("A-of-x", 10**40, 10**40 + 30, step=10), 4,
     "64420b0f0f41c8761d986e07bd8dd741db53864f5f5c325e21bb5d891898dff7"),
    (SamplingPlan("A-of-x", B, B + 2), 3,
     "9a9f34cff9150e9449149bc23ac47a04c639a857a68d02abae536c1b0f5c37c4"),
    (SamplingPlan("A-of-x", 0, 5), ValueError,
     "lo must be >= 1"),
    (SamplingPlan("A-of-x", 10, 5), 0,
     "186f7250ee2b6b6918b55faf8407d717efb1ea5c04a37e51e2afe439780a1ad4"),
    (SamplingPlan("A-of-x", -10, -5), ValueError,
     "lo must be >= 1"),
    (SamplingPlan("A-of-x", 1, 10, step=0), ValueError,
     "step must be >= 1"),
    (SamplingPlan("A-of-x", 1, 10), 10,
     "0abb259023721ee114c36d6499a9aaf4091b374702e3bdd6fb206a4c22ccd45e", 10),
    (SamplingPlan("A-of-x", 1, 10), ValueError,
     "plan would emit 10 rows, above the cap of 9", 9),
    (SamplingPlan("A-of-x", 1, 10**7 + 1), ValueError,
     "plan would emit 10000001 rows, above the cap of 10000000"),
    (SamplingPlan("R-of-x", 1, 200), 59,
     "951a3e3057a4009c78ce1ae314fd95a038b69c8ef59f5971720afee00ff8f717"),
    (SamplingPlan("R-of-x", 100, 200, step=10, at_members=False), 11,
     "a01b8d1136ca22b02408e53c89e52358d6e8a0349fcc800feea93abebea54931"),
    (SamplingPlan("R-of-x", 10**308, 10**308, at_members=False), 1,
     "315684735cf741d1ea0870fa4a3c3818b8d8acd7f43cbb05a824fe88de85957a"),
    (SamplingPlan("R-of-x", 10, 5), 0,
     "a2cb2d96d9114b410fc269241e98ee1d55bb324441f76216f4671a206fd8e112"),
    (SamplingPlan("R-of-x", 10, 5, at_members=False), 0,
     "a2cb2d96d9114b410fc269241e98ee1d55bb324441f76216f4671a206fd8e112"),
    (SamplingPlan("R-of-x", -5, -10), 0,
     "a2cb2d96d9114b410fc269241e98ee1d55bb324441f76216f4671a206fd8e112"),
    (SamplingPlan("R-of-x", 0, 10), ValueError,
     "lo must be >= 1"),
    (SamplingPlan("R-of-x", 1, 10, step=0, at_members=False), ValueError,
     "step must be >= 1"),
    (SamplingPlan("R-of-x", B, B, at_members=False), 1,
     "85cb580c5df3713f4f87a4e4c816572cb92fb515abfa00dee696d23d1dfb4f72"),
    (SamplingPlan("R-of-x", H - 1, H - 1, at_members=False), 1,
     "2d43edd45c5fd7383a6fb1b92b0a27c21370621deab2ec21ed13c858ea635f38"),
    (SamplingPlan("R-of-x", H, H, at_members=False), ValueError,
     "hi must be below 2^4092 (about 6.5e1231), past which R may leave float range"),
    (SamplingPlan("R-normalized", 1, 500, at_members=True), 113,
     "4ab9ed22d62e0067d9706bea5f4d12be188ce98ad7e288388bad193561dcfe73"),
    (SamplingPlan("R-normalized", 1, 59, step=3, at_members=False), 20,
     "c7e6a6ca172fa90223b73575d246d28c08416525cfa212d8cfea29123c5dc111"),
    (SamplingPlan("R-normalized", 1, 196), 59,
     "951a3e3057a4009c78ce1ae314fd95a038b69c8ef59f5971720afee00ff8f717", 59),
    (SamplingPlan("R-normalized", 1, 196), ValueError,
     "plan would emit 59 rows, above the cap of 58", 58),
    (SamplingPlan("R-normalized", 182, 196), 4,
     "ecdffa7b6e8b5d81cade4bc93552c9e671cb6a114c3dfb972b552c468931a20a", 4),
    (SamplingPlan("R-normalized", 182, 196), ValueError,
     "plan would emit 4 rows, above the cap of 3", 3),
    (SamplingPlan("R-normalized", 183, 196), 3,
     "862dcac14f78a50e74637f58c1473e586a5b99cc211ce5514fb6166fc1ecf3d4", 3),
    (SamplingPlan("R-normalized", 183, 196), ValueError,
     "plan would emit 3 rows, above the cap of 2", 2),
    (SamplingPlan("R-normalized", B - 10, B), 4,
     "a6adff6da94bfc28eb1b3e53ba2b5e3503a1d6a43ee5a8de882e0fb6aa11437a"),
    # windows across F: the last member about 1.2e72 below F, then members past F
    (SamplingPlan("R-normalized", F - 2 * 10**72, F), 1,
     "01bcc539d898f0f43f503727a486972d72834229d5325e3cdf7b3a688fcc69e8"),
    (SamplingPlan("R-normalized", F - 10**75, F + 10**73), 524,
     "f0d6455cc3fde31447c9489cc0c498cc2cf45c36619000e690115d44e7649b55"),
    (SamplingPlan("R-normalized", H - 10, H - 1), 3,
     "b980fa1d8415ce6da6fa2e5e670c35ff5ae685e6834a8aded15f467384ce374c"),
    (SamplingPlan("R-normalized", H - 10, H), ValueError,
     "hi must be below 2^4092 (about 6.5e1231), past which R may leave float range"),
    (SamplingPlan("tri-grid", 1, 1), 1,
     "4ea3efd39d4bc75469ad12cba29db92d1bf02daad068fc6879ca03bbac5e2d40"),
    (SamplingPlan("tri-grid", 1, 8), 64,
     "e9a940d39859f3b3362acbb0a0e1b1fd908daee99c6701e5e7a16833af88f08e"),
    (SamplingPlan("tri-grid", 2, 2), 1,
     "9d38a8a99c16f72df63458af3243d01e5d554fcaf4d5bed3d9f19ba9c08d14a2"),
    (SamplingPlan("tri-grid", 0, 3), 9,
     "63272df94046f32eab866e6965d968df8e1404ef7a370c7e2f9c8f46343beb36"),
    (SamplingPlan("tri-grid", 5, 9), 25,
     "6a7113a87c594dd92a44a5313d1c0d68ea4ac360400709c5326e13f64d069662"),
    (SamplingPlan("tri-grid", 5, 3), 0,
     "cc83703100a23e0e1b55b1b1b1a82ffdf947790ddd4df284255412b1bb338100"),
    (SamplingPlan("tri-grid", -3, -1), 0,
     "cc83703100a23e0e1b55b1b1b1a82ffdf947790ddd4df284255412b1bb338100"),
    (SamplingPlan("tri-grid", 1, 8), 64,
     "e9a940d39859f3b3362acbb0a0e1b1fd908daee99c6701e5e7a16833af88f08e", 64),
    (SamplingPlan("tri-grid", 1, 8), ValueError,
     "plan would emit 64 rows, above the cap of 63", 63),
    (SamplingPlan("tri-grid", 1, 8, step=0), ValueError,
     "step must be >= 1"),
    (SamplingPlan("B-of-x", 1, 10), ValueError,
     "unknown plan kind 'B-of-x'"),
]


def test_emit_series_matrix_is_pinned(monkeypatch):
    for plan, want, pinned, *cap in EMIT_MATRIX:
        out = io.StringIO()
        with monkeypatch.context() as patch:
            if cap:  # an entry's fourth item is the row ceiling it probes
                patch.setattr(analysis, "_ROW_CAP", *cap)
            if isinstance(want, int):
                assert emit_series(plan, out) == want, plan
                assert hashlib.sha256(out.getvalue().encode()).hexdigest() == pinned, plan
            else:
                with pytest.raises(want) as info:
                    emit_series(plan, out)
                assert str(info.value) == pinned, plan
                assert out.getvalue() == "", plan


class TestIncrementPrediction:
    def test_small_shift_tracks_derivative(self):
        # B(x+y) - B(x) stays within 5 of y / (sqrt(2) x^(1/4))
        rng = random.Random(777)
        for _ in range(500):
            x = rng.uniform(1, 1e8)
            y = rng.uniform(0, min(x / 2, 3 * math.sqrt(x)))
            predicted = y / (SQRT2 * x**0.25)
            actual = b_value(x + y).b - b_value(x).b
            assert abs(actual - predicted) < 5.0
