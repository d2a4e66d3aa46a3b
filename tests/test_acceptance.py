"""Acceptance suite: one test per criterion, printed pass/fail per line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import time
from contextlib import contextmanager
from math import isqrt

from almost_squares.analysis import (
    b_value,
    kite_region_contains,
    limit_probe,
    tri_product_grid,
    z_bracket,
)
from almost_squares.cli import main
from almost_squares.core import (
    count_at_square,
    count_le,
    count_triangular_le,
    enumerate_range,
    flock_members,
    is_almost_square,
    pioneer,
    seq_a,
    seq_b,
    triangular,
)
from almost_squares.oracle import factorial_membership_scan
from reference_data import FACTORIAL_MEMBERS, FIRST_59, FIRST_59_DIMS

SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"acceptance {number} ({title}): FAIL")
        raise
    print(f"acceptance {number} ({title}): PASS")


def test_criterion_1_paper_value_regressions(capsys):
    with criterion(1, "headline value regressions"):
        start = time.perf_counter()
        assert main(["floor", "190"]) == 0
        out1 = capsys.readouterr().out
        assert main(["count", "200"]) == 0
        out2 = capsys.readouterr().out
        assert main(["floor", "8675309"]) == 0
        out3 = capsys.readouterr().out
        elapsed = time.perf_counter() - start
        assert out1.startswith("182 = 13 x 14")
        assert out2.strip() == "59"
        assert out3.startswith("8675268 = 2919 x 2972")
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_list_regression():
    with criterion(2, "full list through 200"):
        recs = enumerate_range(1, 200)
        assert [r.value for r in recs] == FIRST_59
        assert [(r.rect.width, r.rect.length) for r in recs] == FIRST_59_DIMS


def test_criterion_3_oracle_equivalence(record_set_full):
    with criterion(3, "oracle equivalence to 2e5"):
        members = record_set_full.members
        idx = 0
        running = 0
        mismatches = 0
        for n in range(1, record_set_full.limit + 1):
            brute = idx < len(members) and members[idx] == n
            if brute:
                idx += 1
                running += 1
            if (is_almost_square(n) is not None) != brute:
                mismatches += 1
            if count_le(n) != running:
                mismatches += 1
        assert mismatches == 0


def test_criterion_4_lemma_suite():
    with criterion(4, "floor identities and counts to 1e6"):
        prev = count_at_square(1)
        for m in range(2, 1_000_001):
            a, b = seq_a(m), seq_b(m)
            assert a <= b <= a + 1
            assert b * b * (2 * m - 1) <= m * m < (b + 1) * (b + 1) * (2 * m - 1)
            assert a + b == isqrt(2 * m) - 1
            cur = count_at_square(m)
            assert cur - prev == 1 + isqrt(2 * m)
            prev = cur

        i = 1
        for x in range(0, 1_000_001):
            while i * (i - 1) // 2 <= x:
                i += 1
            assert count_triangular_le(x) == i - 1

        # near-square families are members, and they are exactly the
        # integers divisible by their floored square root
        forms = set()
        limit = 200_000
        for m in range(1, isqrt(limit) + 2):
            for n in (m * m, m * (m - 1), m * m - 1):
                if 1 <= n <= limit:
                    forms.add(n)
                    assert is_almost_square(n) is not None
        divisible = {n for n in range(1, limit + 1) if n % isqrt(n) == 0}
        assert forms == divisible


def test_criterion_5_pioneer_suite(record_set_full):
    with criterion(5, "pioneers and record ties"):
        for j in range(1, 21):
            value, fid = pioneer(j)
            assert value == triangular(j + 1) * triangular(j + 2)
            assert fid.k == (j + 1) ** 2
            assert flock_members(fid)[0].value == value

        # cross-check against brute enumeration: group members by brute
        # semiperimeter, find the flocks that grew past the previous flock
        # of their parity, take their openers; flocks 2 and 3 (the first
        # nonempty one of each parity) are the baseline
        from almost_squares.oracle import brute_semiperimeter

        by_flock: dict[int, list[int]] = {}
        for v in record_set_full.members:
            by_flock.setdefault(brute_semiperimeter(v), []).append(v)
        lengths = {0: len(by_flock[2]), 1: len(by_flock[3])}
        observed = []
        for k in sorted(by_flock):
            if k < 4:
                continue
            parity = k % 2
            if len(by_flock[k]) > lengths[parity]:
                observed.append(by_flock[k][0])
                lengths[parity] = len(by_flock[k])
        for j in range(1, 9):
            assert pioneer(j)[0] == observed[j - 1]

        # ties in the running ratio record happen exactly at even pioneers
        even_pioneers = set()
        j = 2
        while pioneer(j)[0] <= record_set_full.limit:
            even_pioneers.add(pioneer(j)[0])
            j += 2
        ties = set()
        ratios = record_set_full.ratios
        values = record_set_full.members
        for i in range(1, len(values)):
            if ratios[i] == ratios[i - 1]:
                ties.add(values[i])
        assert ties == even_pioneers


def test_criterion_6_counting_analysis():
    with criterion(6, "smooth count against exact count"):
        for m in range(1, 10_001):
            exact = count_at_square(m)
            assert abs(b_value(m * m).b - exact) <= 1e-6 * exact

        rng = random.Random(20260810)
        for _ in range(100_000):
            x = rng.randint(1, 10**12)
            assert -2.0 <= b_value(x).b1 <= -1.0

        for j in range(6, 10_001):
            assert z_bracket(j)[1], j

        low, high = limit_probe(1000)
        assert abs(low - 5 / (6 * SQRT2)) < 0.01
        assert abs(high - 19 / (12 * SQRT2)) < 0.01


def test_criterion_7_triangular_grid():
    with criterion(7, "parity inside the kite region"):
        size = 60
        grid = tri_product_grid(size)
        checked = 0
        for n in range(2, size + 1):
            for m in range(2, size + 1):
                if kite_region_contains(min(m, n), max(m, n)) and m != n:
                    assert grid[m][n] == ((n - m) % 2 == 0), (m, n)
                    checked += 1
        assert checked > 1000


def test_criterion_8_factorial_regression():
    with criterion(8, "factorial members through 100"):
        start = time.perf_counter()
        result = factorial_membership_scan(100)
        elapsed = time.perf_counter() - start
        assert result == [n for n in FACTORIAL_MEMBERS if n <= 100]
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_9_polynomial_time_smoke(capsys):
    with criterion(9, "thousand-digit inputs under a second"):
        n = str(10**999 + 12345)
        for verb in ("check", "floor", "count"):
            start = time.perf_counter()
            assert main([verb, n]) == 0
            elapsed = time.perf_counter() - start
            capsys.readouterr()
            assert elapsed < 1.0, f"{verb} took {elapsed:.3f}s"
