"""Unit tests for the exact integer core."""

import operator
import random
import time

import pytest

from almost_squares import _bigint
from almost_squares.core import (
    RatioValue,
    Rectangle,
    _count_located,
    _flock_window,
    _locate,
    count_at_square,
    count_le,
    count_triangular_le,
    enumerate_range,
    flock_members,
    floor_almost_square,
    is_almost_square,
    isqrt,
    nth,
    pioneer,
    seq_a,
    seq_b,
    tri_decompose,
    triangular,
)
from reference_data import FIRST_59, FIRST_59_DIMS


class TestIsqrt:
    def test_zero(self):
        assert isqrt(0) == 0

    def test_190(self):
        assert isqrt(190) == 13

    def test_huge_perfect_square(self):
        assert isqrt(10**100) == 10**50

    def test_bracketing_near_square(self):
        n = 10**40 - 1
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)


def _icbrt(n):
    # the floor cube root by _bigint.cbrtrem, whose remainder is checked too
    c, r = _bigint.cbrtrem(n)
    assert r == n - c**3, n
    return c


class TestIcbrt:
    def test_small(self):
        assert [_icbrt(n) for n in range(9)] == [0, 1, 1, 1, 1, 1, 1, 1, 2]

    def test_cube_boundaries(self):
        for k in (7, 10, 10**20):
            assert _icbrt(k**3) == k
            assert _icbrt(k**3 - 1) == k - 1
            assert _icbrt(k**3 + 1) == k

    def test_float_base(self):
        # below 2^60 the root starts from round(n ** (1/3)); pin it at every
        # small n and at the cubes up to the top of that range, c < 2^20
        roots = map(_icbrt, range(1 << 16))
        assert all(r**3 <= n < (r + 1) ** 3 for n, r in enumerate(roots))
        for cs in (range(1, 1 << 17), range((1 << 20) - (1 << 14), 1 << 20)):
            assert all(_icbrt(c**3 - 1) == c - 1 and _icbrt(c**3) == c for c in cs)

    def test_recursion_threshold(self):
        # 2^60 is where the recursion on the top bits takes over
        assert _icbrt(2**60 - 1) == 2**20 - 1
        assert _icbrt(2**60) == 2**20
        assert _icbrt(2**60 + 1) == 2**20

    def test_cube_neighbours_across_the_threshold(self):
        # r^3 - 1, r^3 and r^3 + 1 for roots r on both sides of 2^20, where n
        # crosses 2^60 and the recursion on the top bits takes over
        rng = random.Random(17)
        roots = [*range((1 << 20) - 64, (1 << 20) + 64)]
        roots += [rng.randrange(2, 1 << 40) for _ in range(500)]
        for r in roots:
            for n in (r**3 - 1, r**3, r**3 + 1):
                x = _icbrt(n)
                assert x**3 <= n < (x + 1) ** 3

    def test_wide_random_n(self):
        # n of 10^3 to 10^5 digits, and the cubes about them: each level
        # divides by _bigint.divmod, Burnikel-Ziegler on wide operands before 3.12
        rng = random.Random(18)
        for digits in (1000, 3000, 10_000, 31_000, 100_000):
            n = rng.randrange(10 ** (digits - 1), 10**digits)
            x = _icbrt(n)
            assert x**3 <= n < (x + 1) ** 3
            for m in (x**3 - 1, x**3, x**3 + 1):
                y = _icbrt(m)
                assert y**3 <= m < (y + 1) ** 3

    def test_hundred_digit_cube(self):
        k = 10**100
        assert _icbrt(k**3 - 1) == k - 1
        assert _icbrt(k**3) == k
        assert _icbrt(k**3 + 1) == k

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _icbrt(-1)


class TestTriangular:
    def test_zero_first_convention(self):
        assert triangular(1) == 0
        assert triangular(2) == 1

    def test_sixth(self):
        assert triangular(6) == 15

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            triangular(0)


class TestCountTriangularLe:
    def test_one(self):
        assert count_triangular_le(1) == 2

    def test_ten(self):
        # {0, 1, 3, 6, 10} counted directly
        assert count_triangular_le(10) == 5

    def test_zero(self):
        assert count_triangular_le(0) == 1

    def test_matches_direct_count(self):
        values = [triangular(i) for i in range(1, 100)]
        for x in range(0, 2000):
            assert count_triangular_le(x) == sum(1 for t in values if t <= x)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count_triangular_le(-1)


class TestSeqA:
    def test_base(self):
        assert seq_a(2) == 0

    def test_three_member_flock(self):
        assert seq_a(13) == 2

    def test_first_appearance(self):
        # value k first shows up at m = 2k^2 + 2k + 1
        for k in range(1, 40):
            m = 2 * k * k + 2 * k + 1
            assert seq_a(m) == k
            assert seq_a(m - 1) == k - 1

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            seq_a(1)


class TestSeqB:
    def test_base(self):
        assert seq_b(2) == 1

    def test_three_member_flock(self):
        assert seq_b(14) == 2

    def test_first_appearance(self):
        # value k first shows up at m = 2k^2
        for k in range(2, 40):
            m = 2 * k * k
            assert seq_b(m) == k
            assert seq_b(m - 1) == k - 1

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            seq_b(1)


class TestFlockMembers:
    def test_flock_27(self):
        recs = flock_members(27)
        assert [(r.area, r.width, r.length) for r in recs] == [
            (176, 11, 16),
            (180, 12, 15),
            (182, 13, 14),
        ]

    def test_flock_16(self):
        recs = flock_members(16)
        assert [(r.area, r.width, r.length) for r in recs] == [
            (60, 6, 10),
            (63, 7, 9),
            (64, 8, 8),
        ]

    def test_smallest_flocks(self):
        assert flock_members(1) == []
        assert [(r.area, str(r)) for r in flock_members(2)] == [(1, "1x1")]
        assert [(r.area, str(r)) for r in flock_members(3)] == [(2, "1x2")]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            flock_members(0)

    def test_record_consistency(self):
        from almost_squares.core import _flock_extent

        for k in (2, 3, 16, 27, 100, 101, 9999):
            lo, hi = _flock_window(k)
            members = flock_members(k)
            assert len(members) == 1 + _flock_extent(k)
            for rec in members:
                assert rec.semiperimeter == k
                assert lo <= rec.area <= hi
            assert [r.area for r in members] == sorted(r.area for r in members)


class TestIsAlmostSquare:
    def test_190_is_not(self):
        assert is_almost_square(190) is None

    def test_182(self):
        assert is_almost_square(182) == Rectangle(13, 14)

    def test_one(self):
        assert is_almost_square(1) == Rectangle(1, 1)

    def test_50_is_not(self):
        assert is_almost_square(50) is None

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            is_almost_square(0)

    def test_matches_reference_list(self):
        members = dict(zip(FIRST_59, FIRST_59_DIMS))
        for n in range(1, 201):
            rect = is_almost_square(n)
            if n in members:
                assert rect is not None
                assert (rect.width, rect.length) == members[n]
            else:
                assert rect is None

    def test_near_square_families(self):
        for m in range(2, 200):
            assert is_almost_square(m * m) == Rectangle(m, m)
            assert is_almost_square(m * (m - 1)) == Rectangle(m - 1, m)
            assert is_almost_square(m * m - 1) == Rectangle(m - 1, m + 1)


class TestWideRoots:
    """The views of n whose roots are wide, against every root by math.isqrt."""

    @staticmethod
    def _views(n):
        return _locate(n), count_le(n), floor_almost_square(n), is_almost_square(n)

    @pytest.mark.parametrize("bits", [
        _bigint._ROOT_BITS + 2,  # n's and the gap's roots by sqrtrem
        _bigint._ROOT_BITS + 64,
        2 * _bigint._ROOT_BITS + 2,  # and k's roots too
        2 * _bigint._ROOT_BITS + 64,
    ])
    def test_match_math_isqrt_just_above_the_threshold(self, monkeypatch, bits):
        # each m's square and pronic m(m - 1), one either side, and the first
        # members of flocks 2m and 2m - 1, one either side: the flock ends;
        # for a random m, and for the m whose flock 2m - 1 or 2m is a square,
        # where a root of k one too small shows
        rng = random.Random(bits)
        ns = []
        for _ in range(8):
            m0 = isqrt(rng.getrandbits(bits) | 1 << bits - 1)
            s = isqrt(2 * m0) | 1
            for m in (m0, (s * s + 1) // 2, (s + 1) ** 2 // 2):
                e, f = isqrt(2 * m) // 2, (isqrt(2 * m - 1) - 1) // 2
                for x in (m * m, m * (m - 1), m * m - e * e, m * (m - 1) - f * (f + 1)):
                    ns += [x - 1, x, x + 1]
        assert min(n.bit_length() for n in ns) > _bigint._ROOT_BITS
        wide = [self._views(n) for n in ns]
        monkeypatch.setattr(_bigint, "_ROOT_BITS", 10**9)  # no root is wide
        assert [self._views(n) for n in ns] == wide


class TestTriDecompose:
    def test_48(self):
        k, h = tri_decompose(48)
        assert (k, h) == (6, 2)
        assert count_triangular_le(k) >= h

    def test_one(self):
        assert tri_decompose(1) == (1, 0)

    def test_60_boundary(self):
        # h exactly equal to the triangular count of k
        k, h = tri_decompose(60)
        assert (k, h) == (6, 4)
        assert count_triangular_le(k) == h

    def test_rejects_nonmember(self):
        with pytest.raises(ValueError):
            tri_decompose(190)

    def test_reconstruction(self):
        for n in FIRST_59:
            k, h = tri_decompose(n)
            assert n == k * (k + h)
            assert 0 <= h <= count_triangular_le(k)


class TestCountAtSquare:
    def test_m14(self):
        assert count_at_square(14) == 59

    def test_m1(self):
        assert count_at_square(1) == 1

    def test_m4(self):
        assert count_at_square(4) == 10

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            count_at_square(0)

    def test_against_reference(self):
        for m in range(1, 15):
            assert count_at_square(m) == sum(1 for v in FIRST_59 if v <= m * m)


class TestCountLe:
    def test_200(self):
        assert count_le(200) == 59

    def test_190(self):
        assert count_le(190) == 56

    def test_one(self):
        assert count_le(1) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            count_le(0)

    def test_every_n_up_to_200(self):
        running = 0
        members = set(FIRST_59)
        for n in range(1, 201):
            if n in members:
                running += 1
            assert count_le(n) == running


def _before(mu):
    # the members before block mu, the m with isqrt(2m) = mu: those up to
    # the square of the block's first m less one, by count_at_square's root
    return count_at_square((mu * mu - 1) // 2) if mu > 1 else 0


def _block_base(mu):
    # the closed form's intercept on block mu, the m >= 1 with isqrt(2m) = mu:
    # the members up to m^2 number m(mu + 1) + _block_base(mu) there; core's
    # forms, which take no cube of mu, are tested against it
    twelve = 6 * mu - 12 - mu * (mu + 1) * (2 * mu + 1) + 6 * (mu // 2)
    assert twelve % 12 == 0, mu
    return twelve // 12


def _nth_reference(j, mu):
    # nth by the intercept, for j in block mu or below: step mu down while
    # j <= before(mu), then divide in block mu
    while mu > 1 and j <= (mu * mu - 1) // 2 * (mu + 1) + _block_base(mu):
        mu -= 1
    m, r = divmod(j - _block_base(mu) + mu, mu + 1)
    k, offset = 2 * m, mu - r
    if offset > mu // 2:
        k, offset = k - 1, offset - mu // 2 - 1
    return k // 2 - offset, (k + 1) // 2 + offset


def _count_reference(k, offset):
    # _count_located by the intercept, with a cube of mu and math.isqrt
    mu = isqrt(k)
    size = (mu - k % 2) // 2 + 1
    count = k // 2 * (mu + 1) + _block_base(mu) + max(size - offset, 0)
    return count if k & 1 else count - size


class TestCountLocated:
    """The count at a flock position, against the intercept's arithmetic."""

    @staticmethod
    def _positions(mus):
        # k = mu^2 - 1, mu^2 and mu^2 + 2mu, the ends of isqrt(k) = mu, for
        # odd and even mu, so for odd and even k, at the offsets 0, the
        # extent and one past it
        for mu in mus:
            for k in (mu * mu - 1, mu * mu, mu * mu + 2 * mu):
                extent = (isqrt(k) - k % 2) // 2
                for offset in (0, extent, extent + 1):
                    yield k, offset

    def test_narrow(self):
        for k, offset in self._positions(range(2, 600)):
            assert _count_located(k, offset) == _count_reference(k, offset), (k, offset)

    def test_wide(self):
        # mu of about half _ROOT_BITS and more, so that k is rooted by
        # _bigint.sqrtrem, whose remainder enters the count
        rng = random.Random(21)
        half = _bigint._ROOT_BITS // 2
        mus = [rng.getrandbits(bits) | 1 << bits - 1
               for bits in (half - 2, half + 1, half + 2, half + 64, 3 * half) for _ in range(6)]
        mus += [mu | 1 for mu in mus] + [mu & ~1 for mu in mus]
        assert any(k.bit_length() > _bigint._ROOT_BITS for k, _ in self._positions(mus))
        for k, offset in self._positions(mus):
            assert _count_located(k, offset) == _count_reference(k, offset), (k, offset)


class TestNth:
    def test_59(self):
        rec = nth(59)
        assert rec.area == 196
        assert str(rec) == "14x14"

    def test_first(self):
        rec = nth(1)
        assert rec.area == 1
        assert str(rec) == "1x1"

    def test_56(self):
        rec = nth(56)
        assert rec.area == 182
        assert str(rec) == "13x14"

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            nth(0)

    def test_against_reference(self):
        for j, (v, dims) in enumerate(zip(FIRST_59, FIRST_59_DIMS), start=1):
            rec = nth(j)
            assert rec.area == v
            assert (rec.width, rec.length) == dims

    def test_round_trip(self):
        for j in list(range(1, 500)) + [10**4, 10**8, 10**12]:
            rec = nth(j)
            assert count_le(rec.area) == j
            assert is_almost_square(rec.area) == rec

    def test_second(self):
        rec = nth(2)  # block 2, where icbrt(3j) = 1 is one below the block
        assert rec.area == 2
        assert str(rec) == "1x2"

    def test_hundred_thousand_digit_index(self):
        # nth takes about 0.13 s on a 2-vCPU host with Python 3.11; with a
        # full-width Newton loop for the cube root it takes about 5 s
        bits = 332_193  # 10^5 decimal digits
        j = random.Random(5).getrandbits(bits) | 1 << (bits - 1)
        t0 = time.perf_counter()
        rec = nth(j)
        assert time.perf_counter() - t0 < 2.5
        assert count_le(rec.area) == j

    def test_block_ends(self):
        # the first and last j of block mu, and the last j before it, on the
        # closed-form branches nth takes; count_le takes no cube root, so the
        # round trip checks nth independently
        rng = random.Random(15)
        mus = [*range(2, 10**4), *(rng.randrange(2, 10**300) for _ in range(200))]
        for mu in mus:
            before, last = _before(mu), _before(mu + 1)
            for j in (before, before + 1, last):
                rec = nth(j)
                assert count_le(rec.area) == j
                assert is_almost_square(rec.area) == rec

    def test_block_edges_against_the_intercept(self):
        # j = before(mu) - 1, before(mu) and before(mu) + 1, the last two of
        # block mu - 1 and the first of block mu, where J' changes sign, for
        # every mu up to 500 and for mu of 10 to 1400 digits
        rng = random.Random(22)
        mus = [*range(2, 501)]
        mus += [
            rng.randrange(10 ** (d - 1), 10**d) for d in (10, 11, 100, 101, 1400) for _ in range(8)
        ]
        for mu in mus:
            before = (mu * mu - 1) // 2 * (mu + 1) + _block_base(mu)
            for j in (before - 1, before, before + 1):
                if j >= 1:
                    assert tuple(nth(j)) == _nth_reference(j, mu), (mu, j - before)

    def test_block_is_the_cube_root_or_one_below(self):
        # nth's one-sided bound: j's block mu is c or c - 1 for
        # c = max(2, icbrt(3j)), which rises with j, so checking each block's
        # first and last j covers every j through before(10^4 + 1)
        rng = random.Random(16)
        mus = [*range(1, 10**4 + 1), *(rng.randrange(2, 10**300) for _ in range(200))]
        for mu in mus:
            first, last = _before(mu) + 1, _before(mu + 1)
            assert max(2, _icbrt(3 * first)) >= mu
            assert max(2, _icbrt(3 * last)) <= mu + 1

    def test_before_block_closed_form(self):
        # the counts before block mu that nth's docstring bounds, and the
        # meeting of the lines of blocks mu - 1 and mu that nth compares on
        for mu in range(2, 2000):
            twelve = 4 * mu**3 + 3 * mu**2 + (2 * mu - 21 if mu % 2 else -4 * mu - 24)
            assert 12 * _before(mu) == twelve
            last = (mu * mu - 1) // 2
            assert _block_base(mu - 1) == _block_base(mu) + last
            assert _before(mu) == last * (mu + 1) + _block_base(mu)

    def test_against_the_sieve(self, record_set_full):
        members = record_set_full.members
        assert [nth(j).area for j in range(1, len(members) + 1)] == members

    def test_flock_field(self):
        for j in range(1, 300):
            rec = nth(j)
            lo, hi = _flock_window(rec.semiperimeter)
            assert lo <= rec.area <= hi


class TestFloorAlmostSquare:
    def test_190(self):
        rec = floor_almost_square(190)
        assert rec.area == 182
        assert str(rec) == "13x14"

    def test_supercoop(self):
        rec = floor_almost_square(8675309)
        assert rec.area == 8675268
        assert str(rec) == "2919x2972"

    def test_member_input(self):
        assert floor_almost_square(4).area == 4

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            floor_almost_square(0)

    def test_no_member_skipped(self):
        for n in range(1, 300):
            rec = floor_almost_square(n)
            assert rec.area <= n
            assert count_le(n) == count_le(rec.area)


class TestPioneer:
    def test_first(self):
        rect = pioneer(1)
        assert rect == Rectangle(1, 3)
        assert (rect.area, rect.semiperimeter) == (3, 4)

    def test_third(self):
        rect = pioneer(3)
        assert rect == Rectangle(6, 10)
        assert (rect.area, rect.semiperimeter) == (60, 16)

    def test_fourth(self):
        rect = pioneer(4)
        assert rect == Rectangle(10, 15)
        assert (rect.area, rect.semiperimeter) == (150, 25)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            pioneer(0)

    def test_structure_through_20(self):
        for j in range(1, 21):
            rect = pioneer(j)
            assert rect == Rectangle(triangular(j + 1), triangular(j + 2))
            flock = rect.semiperimeter
            assert flock == (j + 1) ** 2
            members = flock_members(flock)
            assert members[0] == rect
            # the flock is one longer than the previous one of its parity
            prev = flock_members(flock - 2)
            assert len(members) == len(prev) + 1
            # flock (j+1)^2 is k = 2m (even j+1) or 2m-1 (odd j+1), m = (k+1)//2
            m = (flock + 1) // 2
            if j % 2:
                assert flock % 2 == 0
                k = (j + 1) // 2
                assert m == 2 * k * k
            else:
                assert flock % 2 == 1
                k = j // 2
                assert m == 2 * k * k + 2 * k + 1


class TestEnumerateRange:
    def test_prefix(self):
        assert [r.area for r in enumerate_range(1, 20)] == [
            1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 18, 20,
        ]

    def test_tail(self):
        assert [r.area for r in enumerate_range(170, 200)] == [
            176, 180, 182, 192, 195, 196,
        ]

    def test_empty(self):
        assert enumerate_range(5, 5) == []

    def test_rejects_swapped(self):
        with pytest.raises(ValueError):
            enumerate_range(10, 9)

    def test_count_identity(self):
        for lo, hi in [(1, 1), (2, 500), (137, 4096), (50_000, 60_000)]:
            recs = enumerate_range(lo, hi)
            expected = count_le(hi) - (count_le(lo - 1) if lo > 1 else 0)
            assert len(recs) == expected
            values = [r.area for r in recs]
            assert values == sorted(values)

    def test_sparse_window_work_tracks_output(self):
        # flocks near 10^30 hold about 2*10^7 members; the window holds one
        t0 = time.perf_counter()
        recs = enumerate_range(10**30, 10**30 + 1000)
        assert time.perf_counter() - t0 < 1.0
        assert [r.area for r in recs] == [10**30]


class TestRatioValue:
    def test_cross_multiplication(self):
        assert RatioValue(1, 2) == RatioValue(2, 4)
        assert RatioValue(18, 9) == RatioValue(16, 8)
        assert RatioValue(3, 4) < RatioValue(4, 5)
        assert RatioValue(4, 5) <= RatioValue(8, 10)

    def test_hash_consistent_with_eq(self):
        assert hash(RatioValue(1, 2)) == hash(RatioValue(3, 6))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RatioValue(0, 1)

    def test_monotone_with_ties_at_even_pioneers(self):
        recs = enumerate_range(1, 20_000)
        even_pioneer_values = set()
        j = 2
        while True:
            value = pioneer(j).area
            if value > 20_000:
                break
            even_pioneer_values.add(value)
            j += 2
        ties = set()
        for prev, cur in zip(recs, recs[1:]):
            assert prev.ratio <= cur.ratio
            if prev.ratio == cur.ratio:
                ties.add(cur.area)
        assert ties == even_pioneer_values


class TestDomainTypes:
    def test_rectangle_validation(self):
        with pytest.raises(ValueError):
            Rectangle(3, 2)
        with pytest.raises(ValueError):
            Rectangle(0, 5)

    def test_flock_window(self):
        # a flock is its k alone; its window of values follows from k
        cases = [
            (1, (1, 0)),
            (4, (3, 4)),
            (5, (5, 6)),
            (10**40, (25 * 10**78 - 5 * 10**39 + 1, 25 * 10**78)),
        ]
        for k, window in cases:
            assert _flock_window(k) == window
        for k in (0, -3):
            with pytest.raises(ValueError, match="^flock semiperimeter k must be >= 1$"):
                flock_members(k)

    def test_record_ratio(self):
        rec = Rectangle(13, 14)
        assert rec.ratio == RatioValue(182, 27)
        assert float(rec.ratio) == 182 / 27
        assert repr(rec.ratio) == "RatioValue(182, 27)"
        # a comparison with another type is left to it: == is False, < raises
        assert RatioValue.__eq__(rec.ratio, 182 / 27) is NotImplemented
        assert RatioValue.__lt__(rec.ratio, 7) is NotImplemented
        assert rec.ratio != 182 / 27
        with pytest.raises(TypeError):
            rec.ratio < 7
        assert (rec.area, rec.semiperimeter) == (182, 27)

    def test_record_is_its_rectangle(self):
        # a member is its two sides; everything else is read off them
        assert Rectangle._fields == ("width", "length")
        for name in ("area", "semiperimeter", "ratio"):
            assert isinstance(getattr(Rectangle, name), property)

    def test_records_and_rectangles_have_no_order_and_no_setters(self):
        # as plain tuples nth(11) = 18 = 3x6 would sort before nth(10) = 16 = 4x4
        rec10, rec11 = nth(10), nth(11)
        assert (rec10, rec11) == (Rectangle(4, 4), Rectangle(3, 6))
        ops = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
        for sym, op in ops.items():
            text = f"^'{sym}' not supported between instances of 'Rectangle' and 'Rectangle'$"
            with pytest.raises(TypeError, match=text):
                op(rec11, rec10)
        for field in ("width", "length"):
            with pytest.raises(AttributeError):
                setattr(rec10, field, 3)
        # _replace builds through the validating constructor
        assert Rectangle(4, 4)._replace(length=5) == Rectangle(4, 5)
        with pytest.raises(ValueError):
            Rectangle(4, 4)._replace(width=5)

    def test_record_equal_across_views(self):
        # the same member from membership, floor, nth, a one-value window and
        # its flock's list is one Rectangle, by == and by hash
        for j in range(1, 2001):
            rect = nth(j)
            v = rect.area
            views = [
                is_almost_square(v),
                floor_almost_square(v),
                nth(count_le(v)),
                enumerate_range(v, v)[0],
                next(r for r in flock_members(rect.semiperimeter) if r.area == v),
            ]
            for other in views:
                assert type(other) is Rectangle
                assert other == rect and hash(other) == hash(rect)
        assert nth(1) != nth(2)

    def test_views_agree_at_thirty_thousand_digits(self):
        # members of 3*10^4 digits, where every root is _bigint.sqrtrem's and
        # nth's cube root _bigint.cbrtrem's; their flocks are too long to list
        rng = random.Random(37)
        for _ in range(3):
            rect = floor_almost_square(rng.randrange(10**29_999, 10**30_000))
            v = rect.area
            views = [is_almost_square(v), nth(count_le(v)), enumerate_range(v, v)[0]]
            for other in views:
                assert type(other) is Rectangle and other == rect
