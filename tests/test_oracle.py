"""Tests for the brute-force oracle, plus the slow-path identities it anchors."""

import random
import tracemalloc
from math import isqrt

import pytest

from almost_squares.core import (
    count_le,
    count_triangular_le,
    enumerate_range,
    flock_members,
    is_almost_square,
    seq_a,
    seq_b,
)
from almost_squares.oracle import _FILL, _divisors, brute_record_set, factorial_membership_scan
from brute import DivisorPair, brute_divisor_pair, brute_is_member, brute_semiperimeter
from reference_data import FACTORIAL_MEMBERS, FIRST_59


class TestBruteDivisorPair:
    def test_12(self):
        assert brute_divisor_pair(12) == DivisorPair(3, 4)

    def test_190(self):
        assert brute_divisor_pair(190) == DivisorPair(10, 19)

    def test_primes(self):
        for p in (2, 3, 31, 101, 9973):
            assert brute_divisor_pair(p) == DivisorPair(1, p)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            brute_divisor_pair(0)

    def test_maximality(self):
        for n in range(1, 2000):
            pair = brute_divisor_pair(n)
            assert pair.small * pair.large == n
            assert pair.small <= pair.large
            assert all(n % d for d in range(pair.small + 1, isqrt(n) + 1))


class TestBruteSemiperimeter:
    def test_182(self):
        assert brute_semiperimeter(182) == 27

    def test_squares(self):
        assert brute_semiperimeter(49) == 14

    def test_pronics(self):
        assert brute_semiperimeter(56) == 15

    def test_amgm_bound_small(self):
        for n in range(1, 5000):
            s = brute_semiperimeter(n)
            assert s * s >= 4 * n


class TestBruteRecordSet:
    def test_limit_20(self):
        assert brute_record_set(20).members == [
            1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 18, 20,
        ]

    def test_limit_200(self):
        rs = brute_record_set(200)
        assert rs.members == FIRST_59
        assert rs.members[-1] == 196

    def test_limit_1(self):
        assert brute_record_set(1).members == [1]

    def test_limit_above_scan_cap_refused(self):
        # refused before the sieve is built, so this takes no time or memory
        with pytest.raises(ValueError, match="above the oracle scan cap of 10000000"):
            brute_record_set(10**7 + 1)

    def test_ratios_nondecreasing(self, record_set_small):
        ratios = record_set_small.ratios
        assert all(a <= b for a, b in zip(ratios, ratios[1:]))


class TestBruteIsMember:
    def test_absent(self, record_set_small):
        assert not brute_is_member(190, record_set_small)

    def test_present(self, record_set_small):
        assert brute_is_member(195, record_set_small)

    def test_one(self, record_set_small):
        assert brute_is_member(1, record_set_small)

    def test_rejects_beyond_limit(self, record_set_small):
        with pytest.raises(ValueError):
            brute_is_member(record_set_small.limit + 1, record_set_small)


class TestFactorialScan:
    def test_through_15(self):
        assert factorial_membership_scan(15) == FACTORIAL_MEMBERS

    def test_through_9(self):
        assert factorial_membership_scan(9) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_one(self):
        assert factorial_membership_scan(1) == [1]

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_rejects_below_one(self, n_max):
        with pytest.raises(ValueError, match="^n_max must be >= 1$"):
            factorial_membership_scan(n_max)


class TestFlockForms:
    def test_odd_flock_semiperimeters(self):
        # (m-a-1)(m+a) really has semiperimeter 2m-1 for every in-flock offset
        for m in range(2, 451):
            for a in range(seq_a(m) + 1):
                assert brute_semiperimeter((m - a - 1) * (m + a)) == 2 * m - 1

    def test_even_flock_semiperimeters(self):
        for m in range(2, 451):
            for b in range(seq_b(m) + 1):
                assert brute_semiperimeter(m * m - b * b) == 2 * m

    def test_flock_assignment_matches_brute(self):
        for k in range(2, 901):
            for rec in flock_members(k):
                assert brute_semiperimeter(rec.area) == k


class TestFullRangeAgreement:
    def test_membership_and_counts(self, record_set_full):
        members = record_set_full.members
        idx = 0
        running = 0
        for n in range(1, record_set_full.limit + 1):
            brute = idx < len(members) and members[idx] == n
            if brute:
                idx += 1
                running += 1
            assert (is_almost_square(n) is not None) == brute, n
            assert count_le(n) == running, n

    def test_sieve_matches_trial_division(self, record_set_full, small_divisor_table):
        # the same record scan, over d(n) from trial division
        members, ratios = [], []
        best_num, best_den = 0, 1
        for n in range(1, record_set_full.limit + 1):
            d = small_divisor_table[n]
            s = d + n // d
            if n * best_den >= best_num * s:
                members.append(n)
                ratios.append((n, s))
                best_num, best_den = n, s
        assert members == record_set_full.members
        assert ratios == [(r.numerator, r.denominator) for r in record_set_full.ratios]

    def test_window_sieve_matches_trial_division(self, small_divisor_table):
        # windows from 1, at squares and one past, and seeded elsewhere
        rng = random.Random(41)
        starts = [1, 2, 3, 4, 5, 10_000, 10_001, 199_809, 199_810]
        starts += [rng.randint(1, 199_000) for _ in range(20)]
        for a in starts:
            b = min(a + rng.randint(0, 1000), len(small_divisor_table) - 1)
            assert list(_divisors(a, b)) == small_divisor_table[a:b + 1], a

    def test_wide_window_sieve_writes_whole_runs(self, small_divisor_table):
        # windows where j = 2, 3, ... have more than _FILL multiples, written
        # in whole runs of _FILL and a rest, each run's end at or past b
        b = len(small_divisor_table) - 1
        for a in (1, 2, 3, 5, 9, 4 * _FILL - 1, 4 * _FILL, 4 * _FILL + 1, b - 2 * _FILL):
            assert list(_divisors(a, b)) == small_divisor_table[a:], a
        for width in (2 * _FILL - 1, 2 * _FILL, 2 * _FILL + 1, 2 * _FILL + 2, 4 * _FILL):
            assert list(_divisors(7, 6 + width)) == small_divisor_table[7:7 + width], width

    def test_window_sieve_peak_stays_near_the_sieve(self):
        # the sieve of 2*10^6 n is 4 MB of typecode "H"; a j's temporary
        # arrays of its multiples add at most 128 KB, where one array of all
        # of j = 2's multiples would add 2 MB
        _divisors(1, 1000)
        tracemalloc.start()
        try:
            small = _divisors(1, 2 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sieve = 2 * 10**6 * small.itemsize
        assert sieve <= peak < sieve + 256 * 1024, peak

    def test_enumeration_and_counts_to_ten_million(self):
        limit = 10**7
        members = brute_record_set(limit).members
        assert [r.area for r in enumerate_range(1, limit)] == members
        for i, m in enumerate(members):
            assert count_le(m) == i + 1, m
            assert m == 1 or count_le(m - 1) == i, m

    def test_amgm_bound(self, small_divisor_table):
        for n in range(1, len(small_divisor_table)):
            d = small_divisor_table[n]
            s = d + n // d
            assert s * s >= 4 * n

    def test_product_form_characterization(self, record_set_full, small_divisor_table):
        # member iff n = k(k+h) with k = d(n) and h <= count_triangular_le(k)
        member_set = set(record_set_full.members)
        for n in range(1, record_set_full.limit + 1):
            k = small_divisor_table[n]
            h = n // k - k
            assert (h <= count_triangular_le(k)) == (n in member_set), n
