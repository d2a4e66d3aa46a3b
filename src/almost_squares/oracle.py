"""Brute-force ground truth for almost-squares.

Everything here computes straight from the definitions.  The record set
is a single ascending scan with exact cross-multiplied ratio comparisons
(ties kept) over s(n) = d(n) + n/d(n), where d(n) is the largest divisor
of n with d(n)^2 <= n.  A divisor sieve writes d(n) for every n up to the
limit at once, so the whole scan costs about O(limit log limit): 0.03 s
at 2*10^5 and 1.4 s at 10^7 (58 MB peak RSS) with CPython 3.11 on a
2-vCPU host.  Trial division downward from the integer square root,
O(sqrt(n)) per n, is kept as brute_divisor_pair, and the tests pin the
sieve against it.  All of it exists so the closed-form routines in core
can be tested against something with no cleverness in it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import namedtuple
from math import factorial, isqrt

from .core import RatioValue, is_almost_square

__all__ = [
    "DEFAULT_SCAN_CAP",
    "DivisorPair",
    "RecordSet",
    "brute_divisor_pair",
    "brute_is_member",
    "brute_record_set",
    "brute_semiperimeter",
    "factorial_membership_scan",
]

# oracle-verify's default limit: about 0.2 s in all, most of it the fast
# side (count_le and is_almost_square) being checked at every n
DEFAULT_SCAN_CAP = 200_000

# the record scan takes about 1.4 s at 10^7 (169,281 members) and the
# fast side about 1 us per n, so oracle-verify at this limit runs about
# 10 s in about 60 MB; brute_record_set refuses anything above
_MAX_SCAN_LIMIT = 10_000_000


# d(n) and its cofactor: small is the largest divisor with small^2 <= n
DivisorPair = namedtuple("DivisorPair", "small large")

# all ratio record-breakers (ties included) up to limit, ascending
RecordSet = namedtuple("RecordSet", "limit members ratios")


def brute_divisor_pair(n: int) -> DivisorPair:
    if n < 1:
        raise ValueError("n must be >= 1")
    for d in range(isqrt(n), 0, -1):
        if n % d == 0:
            return DivisorPair(d, n // d)
    raise AssertionError("unreachable: 1 divides every positive integer")


def brute_semiperimeter(n: int) -> int:
    """Least width + length over integer rectangles of area n."""
    pair = brute_divisor_pair(n)
    return pair.small + pair.large


def brute_record_set(limit: int) -> RecordSet:
    """Scan 1..limit keeping every value whose ratio ties or beats the record.

    Raises ValueError for limit below 1 or above the scan cap of 10^7.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > _MAX_SCAN_LIMIT:
        raise ValueError(f"limit {limit} is above the oracle scan cap of {_MAX_SCAN_LIMIT}")
    # divisor sieve: each j in ascending order overwrites its multiples
    # from j^2 on, so the last j written at n is the largest divisor with
    # j^2 <= n, that is d(n); typecode "H" (16 bits) holds every
    # j <= isqrt(limit) while limit < 2^32
    small = array("H", [1]) * (limit + 1)
    for j in range(2, isqrt(limit) + 1):
        small[j * j::j] = array("H", [j]) * len(range(j * j, limit + 1, j))
    members, ratios = [], []
    best_num, best_den = 0, 1
    for n in range(1, limit + 1):
        d = small[n]
        s = d + n // d
        if n * best_den >= best_num * s:
            members.append(n)
            ratios.append(RatioValue(n, s))
            best_num, best_den = n, s
    return RecordSet(limit, members, ratios)


def brute_is_member(n: int, record_set: RecordSet) -> bool:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > record_set.limit:
        raise ValueError(f"n={n} exceeds the record set limit {record_set.limit}")
    members = record_set.members
    i = bisect_left(members, n)
    return i < len(members) and members[i] == n


def factorial_membership_scan(n_max: int) -> list[int]:
    """All n <= n_max whose factorial is an almost-square.

    Uses the fast membership test from core; a brute record scan is
    hopeless at factorial scale.  This is a regression check, not an
    independent oracle.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [n for n in range(1, n_max + 1) if is_almost_square(factorial(n)) is not None]
