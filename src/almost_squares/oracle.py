"""Brute-force ground truth for almost-squares.

Everything here computes straight from the definitions: n is a member
when its ratio n/s(n) ties or beats every smaller n's, with s(n) = d(n)
+ n/d(n) and d(n) the largest divisor of n with d(n)^2 <= n.  The record
set is a single ascending scan with exact cross-multiplied ratio
comparisons (ties kept), over d(n) from a divisor sieve, about
O(limit log limit): 0.03 s at 2*10^5 and 1.7 s at 10^7 (59 MB peak RSS)
with CPython 3.11 on a 2-vCPU host.

The lead-in rule: a scan need not start at 1.  s(n) >= 2*sqrt(n), so
n/s(n) <= sqrt(n)/2, with equality exactly at squares.  For lo >= 2 and
m = isqrt(lo - 1), every n < m^2 has a ratio below m^2's, m/2, so the
record before lo is set in [m^2, lo), and a scan from m^2 decides every
n >= m^2 exactly as the scan from 1 does.  oracle-verify's slices sieve
and scan so.

The tests keep trial division downward from the integer square root,
O(sqrt(n)) per n, in tests/brute.py, outside the package, and pin the
sieve against it.  All of it exists so the closed-form routines in core
can be checked, by oracle-verify and by the tests, against something
with no cleverness in it.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from math import factorial, isqrt

from .core import RatioValue, is_almost_square

__all__ = [
    "DEFAULT_SCAN_CAP",
    "RecordSet",
    "brute_record_set",
    "factorial_membership_scan",
]

# oracle-verify's default limit: nearly all of its time is the fast side
# (count_le and is_almost_square) checked at every n, which it splits over
# the usable CPUs; best of 9 in-process calls, 0.23 s with one sweep and
# 0.12 s on two CPUs (3.11.7, 2-vCPU host)
DEFAULT_SCAN_CAP = 200_000

# at this limit (169,281 members) oracle-verify ran 6.7-7.5 s on two usable
# CPUs, against 14.5 s for one sweep; each process sieves its own slice, so
# the parent peaked at 30 MB RSS on two (3.11.7, 2-vCPU host);
# brute_record_set refuses anything above
_MAX_SCAN_LIMIT = 10_000_000


# all ratio record-breakers (ties included) up to limit, ascending
RecordSet = namedtuple("RecordSet", "limit members ratios")


def _check_limit(limit: int) -> None:
    """Refuse a scan limit below 1 or above the scan cap with ValueError."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > _MAX_SCAN_LIMIT:
        raise ValueError(f"limit {limit} is above the oracle scan cap of {_MAX_SCAN_LIMIT}")


def _divisors(a: int, b: int) -> array:
    """d(n) for every n in [a, b], at index n - a, for 1 <= a <= b.

    Each j from 2 to isqrt(b), in ascending order, overwrites its
    multiples from max(j^2, a) on, so the last j written at n is the
    largest divisor with j^2 <= n, that is d(n).  Typecode "H" (16 bits)
    holds every such j while b < 2^32.
    """
    small = array("H", [1]) * (b - a + 1)
    for j in range(2, isqrt(b) + 1):
        first = max(j * j, -(-a // j) * j)
        small[first - a::j] = array("H", [j]) * len(range(first, b + 1, j))
    return small


def brute_record_set(limit: int) -> RecordSet:
    """Scan 1..limit keeping every value whose ratio ties or beats the record.

    Raises ValueError for limit below 1 or above the scan cap of 10^7.
    """
    _check_limit(limit)
    members, ratios = [], []
    best_num, best_den = 0, 1
    for n, d in enumerate(_divisors(1, limit), 1):
        s = d + n // d
        if n * best_den >= best_num * s:
            members.append(n)
            ratios.append(RatioValue(n, s))
            best_num, best_den = n, s
    return RecordSet(limit, members, ratios)


def factorial_membership_scan(n_max: int) -> list[int]:
    """All n <= n_max whose factorial is an almost-square.

    Uses the fast membership test from core; a brute record scan is
    hopeless at factorial scale.  This is a regression check, not an
    independent oracle.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [n for n in range(1, n_max + 1) if is_almost_square(factorial(n)) is not None]
