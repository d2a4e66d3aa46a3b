"""Tests for the floating-point analysis layer."""

import hashlib
import io
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import almost_squares
from almost_squares.analysis import (
    AnalysisSample,
    BTerms,
    SamplingPlan,
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
    count_at_square,
    count_le,
    enumerate_range,
    is_almost_square,
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
            x=1000000000007.0,
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
            x=1e+40,
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
            x=4.908608757122565e+99,
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
            x=1e+300,
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
            x=1e+308,
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
            x=4.00000001e+16,
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
            x=4.00040001e+16,
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
            x=4e+280,
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
            x=4.0,
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
            x=196.0,
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
            x=1e+30,
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
            x=4e+280,
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
        assert b_value(10**308).x == 1e308
        with pytest.raises(ValueError, match="beyond float range"):
            b_value(10**310)

    def test_non_finite_floats_refused(self):
        for x in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="must be finite"):
                b_value(x)


class TestGoldenValues:
    @pytest.mark.parametrize("n, want", REMAINDER_GOLDEN)
    def test_remainder(self, n, want):
        assert repr(remainder(n)) == repr(want)

    @pytest.mark.parametrize("x, want", B_VALUE_GOLDEN)
    def test_b_value(self, x, want):
        assert repr(b_value(x)) == repr(want)


def _modules_after(statement, names):
    code = f"import sys; {statement}; print([m for m in {names!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(almost_squares.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_import_leaves_mpmath_unloaded():
    names = ("mpmath", "numpy", "fractions")
    assert _modules_after("import almost_squares.analysis", names) == "[]\n"


def test_cli_import_leaves_analysis_unloaded():
    names = ("almost_squares.analysis",)
    assert _modules_after("import almost_squares.cli", names) == "[]\n"


def test_package_exports():
    # the lazily loaded names are listed by hand, so they must track analysis
    from almost_squares import analysis

    assert almost_squares._ANALYSIS_NAMES == set(analysis.__all__)
    assert len(set(almost_squares.__all__)) == len(almost_squares.__all__)
    for name in almost_squares.__all__:
        getattr(almost_squares, name)


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
        assert remainder(10**308).x == 1e308
        with pytest.raises(ValueError, match="beyond float range"):
            remainder(10**310)

    def test_decomposition_residual_and_normalized_bounds(self):
        # one pass over all members to 1e7: the residual after removing
        # the g/h oscillation stays under the recorded bound, and the
        # normalized remainder on [1e6, 1e7] stays inside the limit band
        c = 2 * SQRT2 / 3
        lo_band = 5 / (6 * SQRT2) - 0.05
        hi_band = 19 / (12 * SQRT2) + 0.05
        for rec in enumerate_range(1, 10_000_000):
            s = remainder(rec.value)
            resid = abs(s.r - (c + s.g_val - s.h_val) * s.x**0.25)
            assert resid <= RESIDUAL_BOUND, rec.value
            if rec.value >= 1_000_000:
                assert lo_band <= s.r_normalized <= hi_band, rec.value


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
        size = 30
        grid = tri_product_grid(size)
        for n in range(2, size + 1):
            for m in range(2, n):
                if kite_region_contains(m, n):
                    assert grid[m][n] == ((n - m) % 2 == 0), (m, n)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            tri_product_grid(1)

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
            emit_series(SamplingPlan("A-of-x", 1, 10**7, max_rows=100), out)
        assert out.getvalue() == ""

    def test_beyond_float_range_rejected_before_output(self):
        big = 10**310  # a perfect square, so a member too
        for plan in (
            SamplingPlan("R-of-x", big, big, at_members=False),
            SamplingPlan("R-normalized", big - 10, big),
        ):
            out = io.StringIO()
            with pytest.raises(ValueError, match="beyond float range"):
                emit_series(plan, out)
            assert out.getvalue() == ""
        out = io.StringIO()
        assert emit_series(SamplingPlan("A-of-x", big, big + 2), out) == 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            emit_series(SamplingPlan("B-of-x", 1, 10), io.StringIO())

    def test_deterministic(self):
        a, b = io.StringIO(), io.StringIO()
        plan = SamplingPlan("R-of-x", 1, 500)
        emit_series(plan, a)
        emit_series(plan, b)
        assert a.getvalue() == b.getvalue()


B = 10**310  # beyond float range
F = 2**1024 - 2**970  # the least int that float() refuses

# (plan, rows, sha256 of the output) or (plan, exception type, message) for
# every plan kind: empty windows, lo <= 0, step 0, cap exactly at the row
# count (at members from lo = 1, from a member lo past 1 and from a lo that
# is no member) and a negative cap (refused for every kind and window), tri-grid
# windows that start past 1 or below 2, and remainder plans at and beyond
# float range.
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
    (SamplingPlan("A-of-x", 1, 10, max_rows=10), 10,
     "0abb259023721ee114c36d6499a9aaf4091b374702e3bdd6fb206a4c22ccd45e"),
    (SamplingPlan("A-of-x", 1, 10, max_rows=9), ValueError,
     "plan would emit 10 rows, above the cap of 9"),
    (SamplingPlan("A-of-x", 1, 10, max_rows=-1), ValueError,
     "max_rows must be >= 0"),
    (SamplingPlan("A-of-x", 10, 5, max_rows=-1), ValueError,
     "max_rows must be >= 0"),
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
    (SamplingPlan("R-of-x", 10, 5, max_rows=-1), ValueError,
     "max_rows must be >= 0"),
    (SamplingPlan("R-of-x", 0, 10), ValueError,
     "lo must be >= 1"),
    (SamplingPlan("R-of-x", 1, 10, step=0, at_members=False), ValueError,
     "step must be >= 1"),
    (SamplingPlan("R-of-x", B, B, at_members=False), ValueError,
     "x of about 311 digits is beyond float range (about 1.8e308)"),
    (SamplingPlan("R-normalized", 1, 500, at_members=True), 113,
     "4ab9ed22d62e0067d9706bea5f4d12be188ce98ad7e288388bad193561dcfe73"),
    (SamplingPlan("R-normalized", 1, 59, step=3, at_members=False), 20,
     "c7e6a6ca172fa90223b73575d246d28c08416525cfa212d8cfea29123c5dc111"),
    (SamplingPlan("R-normalized", 1, 196, max_rows=59), 59,
     "951a3e3057a4009c78ce1ae314fd95a038b69c8ef59f5971720afee00ff8f717"),
    (SamplingPlan("R-normalized", 1, 196, max_rows=58), ValueError,
     "plan would emit 59 rows, above the cap of 58"),
    (SamplingPlan("R-normalized", 182, 196, max_rows=4), 4,
     "ecdffa7b6e8b5d81cade4bc93552c9e671cb6a114c3dfb972b552c468931a20a"),
    (SamplingPlan("R-normalized", 182, 196, max_rows=3), ValueError,
     "plan would emit 4 rows, above the cap of 3"),
    (SamplingPlan("R-normalized", 183, 196, max_rows=3), 3,
     "862dcac14f78a50e74637f58c1473e586a5b99cc211ce5514fb6166fc1ecf3d4"),
    (SamplingPlan("R-normalized", 183, 196, max_rows=2), ValueError,
     "plan would emit 3 rows, above the cap of 2"),
    (SamplingPlan("R-normalized", 1, 196, max_rows=-1), ValueError,
     "max_rows must be >= 0"),
    (SamplingPlan("R-normalized", B - 10, B), ValueError,
     "x of about 311 digits is beyond float range (about 1.8e308)"),
    # hi beyond float range while the window's last member, about 1.2e72
    # below F, is not; then a window whose last member is past F as well
    (SamplingPlan("R-normalized", F - 2 * 10**72, F), 1,
     "01bcc539d898f0f43f503727a486972d72834229d5325e3cdf7b3a688fcc69e8"),
    (SamplingPlan("R-normalized", F - 10**75, F + 10**73), ValueError,
     "x of about 309 digits is beyond float range (about 1.8e308)"),
    (SamplingPlan("tri-grid", 1, 1), 0,
     "cc83703100a23e0e1b55b1b1b1a82ffdf947790ddd4df284255412b1bb338100"),
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
    (SamplingPlan("tri-grid", 1, 8, max_rows=64), 64,
     "e9a940d39859f3b3362acbb0a0e1b1fd908daee99c6701e5e7a16833af88f08e"),
    (SamplingPlan("tri-grid", 1, 8, max_rows=63), ValueError,
     "plan would emit 64 rows, above the cap of 63"),
    (SamplingPlan("tri-grid", 1, 1, max_rows=-1), ValueError,
     "max_rows must be >= 0"),
    (SamplingPlan("tri-grid", 5, 3, max_rows=-1), ValueError,
     "max_rows must be >= 0"),
    (SamplingPlan("tri-grid", 1, 8, step=0), ValueError,
     "step must be >= 1"),
    (SamplingPlan("B-of-x", 1, 10), ValueError,
     "unknown plan kind 'B-of-x'"),
]


def test_emit_series_matrix_is_pinned():
    for plan, want, pinned in EMIT_MATRIX:
        out = io.StringIO()
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
