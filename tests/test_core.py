"""Unit tests for the exact integer core."""

import operator
import random
import time

import pytest

from almost_squares.core import (
    AlmostSquareRecord,
    FlockId,
    RatioValue,
    Rectangle,
    _block_base,
    _icbrt,
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
        # 2^60 is where the precision-doubling path takes over
        assert _icbrt(2**60 - 1) == 2**20 - 1
        assert _icbrt(2**60) == 2**20
        assert _icbrt(2**60 + 1) == 2**20

    def test_cube_neighbours_across_the_threshold(self):
        # r^3 - 1, r^3 and r^3 + 1 for roots r on both sides of 2^20, where n
        # crosses 2^60 and the Newton step on the shifted n takes over
        rng = random.Random(17)
        roots = [*range((1 << 20) - 64, (1 << 20) + 64)]
        roots += [rng.randrange(2, 1 << 40) for _ in range(500)]
        for r in roots:
            for n in (r**3 - 1, r**3, r**3 + 1):
                x = _icbrt(n)
                assert x**3 <= n < (x + 1) ** 3

    def test_wide_random_n(self):
        # n of 10^3 to 10^5 digits, and the cubes about them: the step divides
        # by _bigint.divmod, Burnikel-Ziegler on wide operands before 3.12
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
        assert [(r.value, r.rect.width, r.rect.length) for r in recs] == [
            (176, 11, 16),
            (180, 12, 15),
            (182, 13, 14),
        ]

    def test_flock_16(self):
        recs = flock_members(16)
        assert [(r.value, r.rect.width, r.rect.length) for r in recs] == [
            (60, 6, 10),
            (63, 7, 9),
            (64, 8, 8),
        ]

    def test_smallest_flocks(self):
        assert flock_members(1) == []
        assert [(r.value, str(r.rect)) for r in flock_members(2)] == [(1, "1x1")]
        assert [(r.value, str(r.rect)) for r in flock_members(3)] == [(2, "1x2")]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            flock_members(0)

    def test_record_consistency(self):
        from almost_squares.core import _flock_extent

        for k in (2, 3, 16, 27, 100, 101, 9999):
            fid = FlockId(k)
            lo, hi = fid.value_interval()
            members = flock_members(fid)
            assert len(members) == 1 + _flock_extent(k)
            for rec in members:
                assert rec.semiperimeter == k == rec.rect.semiperimeter
                assert rec.value == rec.rect.area
                assert lo < rec.value <= hi
            assert [r.value for r in members] == sorted(r.value for r in members)


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


class TestNth:
    def test_59(self):
        rec = nth(59)
        assert rec.value == 196
        assert str(rec.rect) == "14x14"

    def test_first(self):
        rec = nth(1)
        assert rec.value == 1
        assert str(rec.rect) == "1x1"

    def test_56(self):
        rec = nth(56)
        assert rec.value == 182
        assert str(rec.rect) == "13x14"

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            nth(0)

    def test_against_reference(self):
        for j, (v, dims) in enumerate(zip(FIRST_59, FIRST_59_DIMS), start=1):
            rec = nth(j)
            assert rec.value == v
            assert (rec.rect.width, rec.rect.length) == dims

    def test_round_trip(self):
        for j in list(range(1, 500)) + [10**4, 10**8, 10**12]:
            rec = nth(j)
            assert count_le(rec.value) == j
            assert is_almost_square(rec.value) == rec.rect

    def test_second(self):
        rec = nth(2)  # block 2, where icbrt(3j) = 1 is one below the block
        assert rec.value == 2
        assert str(rec.rect) == "1x2"

    def test_hundred_thousand_digit_index(self):
        # nth takes about 0.13 s on a 2-vCPU host with Python 3.11; with a
        # full-width Newton loop for the cube root it takes about 5 s
        bits = 332_193  # 10^5 decimal digits
        j = random.Random(5).getrandbits(bits) | 1 << (bits - 1)
        t0 = time.perf_counter()
        rec = nth(j)
        assert time.perf_counter() - t0 < 2.5
        assert count_le(rec.value) == j

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
                assert count_le(rec.value) == j
                assert is_almost_square(rec.value) == rec.rect

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
        assert [nth(j).value for j in range(1, len(members) + 1)] == members

    def test_flock_field(self):
        for j in range(1, 300):
            rec = nth(j)
            lo, hi = rec.flock.value_interval()
            assert lo < rec.value <= hi
            assert rec.flock.k == rec.semiperimeter


class TestFloorAlmostSquare:
    def test_190(self):
        rec = floor_almost_square(190)
        assert rec.value == 182
        assert str(rec.rect) == "13x14"

    def test_supercoop(self):
        rec = floor_almost_square(8675309)
        assert rec.value == 8675268
        assert str(rec.rect) == "2919x2972"

    def test_member_input(self):
        assert floor_almost_square(4).value == 4

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            floor_almost_square(0)

    def test_no_member_skipped(self):
        for n in range(1, 300):
            rec = floor_almost_square(n)
            assert rec.value <= n
            assert count_le(n) == count_le(rec.value)


class TestPioneer:
    def test_first(self):
        value, fid = pioneer(1)
        assert value == 3
        assert fid.k == 4

    def test_third(self):
        value, fid = pioneer(3)
        assert value == 60
        assert fid.k == 16

    def test_fourth(self):
        value, fid = pioneer(4)
        assert value == 150
        assert fid.k == 25

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            pioneer(0)

    def test_structure_through_20(self):
        for j in range(1, 21):
            value, fid = pioneer(j)
            assert value == triangular(j + 1) * triangular(j + 2)
            assert fid.k == (j + 1) ** 2
            members = flock_members(fid)
            assert members[0].value == value
            # the flock is one longer than the previous one of its parity
            prev = flock_members(fid.k - 2)
            assert len(members) == len(prev) + 1
            # flock (j+1)^2 is k = 2m (even j+1) or 2m-1 (odd j+1), m = (k+1)//2
            m = (fid.k + 1) // 2
            if j % 2:
                assert fid.k % 2 == 0
                k = (j + 1) // 2
                assert m == 2 * k * k
            else:
                assert fid.k % 2 == 1
                k = j // 2
                assert m == 2 * k * k + 2 * k + 1


class TestEnumerateRange:
    def test_prefix(self):
        assert [r.value for r in enumerate_range(1, 20)] == [
            1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 18, 20,
        ]

    def test_tail(self):
        assert [r.value for r in enumerate_range(170, 200)] == [
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
            values = [r.value for r in recs]
            assert values == sorted(values)

    def test_sparse_window_work_tracks_output(self):
        # flocks near 10^30 hold about 2*10^7 members; the window holds one
        t0 = time.perf_counter()
        recs = enumerate_range(10**30, 10**30 + 1000)
        assert time.perf_counter() - t0 < 1.0
        assert [r.value for r in recs] == [10**30]


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
            value, _ = pioneer(j)
            if value > 20_000:
                break
            even_pioneer_values.add(value)
            j += 2
        ties = set()
        for prev, cur in zip(recs, recs[1:]):
            assert prev.ratio <= cur.ratio
            if prev.ratio == cur.ratio:
                ties.add(cur.value)
        assert ties == even_pioneer_values


class TestDomainTypes:
    def test_rectangle_validation(self):
        with pytest.raises(ValueError):
            Rectangle(3, 2)
        with pytest.raises(ValueError):
            Rectangle(0, 5)

    def test_flock_id_consistency(self):
        # a flock is its k alone; its interval follows from k
        assert FlockId._fields == ("k",)
        cases = [
            (1, (0, 0)),
            (4, (2, 4)),
            (5, (4, 6)),
            (10**40, (25 * 10**78 - 5 * 10**39, 25 * 10**78)),
        ]
        for k, interval in cases:
            fid = FlockId(k=k)
            assert FlockId(k) == fid and fid.k == k
            assert fid.value_interval() == interval
        for k in (0, -3):
            with pytest.raises(ValueError):
                FlockId(k=k)

    def test_record_ratio(self):
        rec = AlmostSquareRecord(Rectangle(13, 14))
        assert rec.ratio == RatioValue(182, 27)
        assert float(rec.ratio) == 182 / 27
        assert repr(rec.ratio) == "RatioValue(182, 27)"
        # a comparison with another type is left to it: == is False, < raises
        assert RatioValue.__eq__(rec.ratio, 182 / 27) is NotImplemented
        assert RatioValue.__lt__(rec.ratio, 7) is NotImplemented
        assert rec.ratio != 182 / 27
        with pytest.raises(TypeError):
            rec.ratio < 7
        assert (rec.value, rec.semiperimeter, rec.flock) == (182, 27, FlockId(27))

    def test_record_is_its_rectangle(self):
        assert AlmostSquareRecord._fields == ("rect",)
        for name in ("value", "semiperimeter", "flock", "ratio"):
            assert isinstance(getattr(AlmostSquareRecord, name), property)

    def test_records_and_rectangles_have_no_order_and_no_setters(self):
        # as plain tuples nth(11) = 18 = 3x6 would sort before nth(10) = 16 = 4x4
        rec10, rec11 = nth(10), nth(11)
        assert (rec10.rect, rec11.rect) == (Rectangle(4, 4), Rectangle(3, 6))
        ops = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
        for a, b in ((rec11, rec10), (rec11.rect, rec10.rect)):
            name = type(a).__name__
            for sym, op in ops.items():
                text = f"^'{sym}' not supported between instances of '{name}' and '{name}'$"
                with pytest.raises(TypeError, match=text):
                    op(a, b)
        fields = ((rec10, "rect", rec11.rect), (rec10.rect, "width", 3), (FlockId(8), "k", 9))
        for obj, field, value in fields:
            with pytest.raises(AttributeError):
                setattr(obj, field, value)
        # _replace builds through the validating constructor
        assert Rectangle(4, 4)._replace(length=5) == Rectangle(4, 5)
        with pytest.raises(ValueError):
            Rectangle(4, 4)._replace(width=5)
        with pytest.raises(ValueError):
            FlockId(8)._replace(k=0)

    def test_record_equal_across_views(self):
        # the same member built by nth, floor, a one-value window and its
        # flock's list is one record, by == and by hash
        for j in range(1, 2001):
            rec = nth(j)
            v, k = rec.value, rec.semiperimeter
            views = [
                floor_almost_square(v),
                enumerate_range(v, v)[0],
                next(r for r in flock_members(k) if r.value == v),
                AlmostSquareRecord(is_almost_square(v)),
            ]
            for other in views:
                assert other == rec and hash(other) == hash(rec)
        assert nth(1) != nth(2)
