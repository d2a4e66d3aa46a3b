"""Brute-force ground truth for almost-squares.

Everything here computes straight from the definitions: semiperimeters
by descending trial division from the integer square root, and the
record set by a single ascending scan with exact cross-multiplied ratio
comparisons (ties kept).  It is deliberately slow, O(limit * sqrt(limit))
for the full scan, and exists so the closed-form routines in core can be
tested against something with no cleverness in it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
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

# full scans above this take more than a couple of desk-side minutes
DEFAULT_SCAN_CAP = 200_000

# the scan grows like limit^1.5 (0.8 s at 10^5, 6 s at 4*10^5); at this
# limit it takes about a minute, and oracle-verify refuses anything above
_MAX_SCAN_LIMIT = 2_000_000


@dataclass(frozen=True)
class DivisorPair:
    """d(n) and its cofactor: small is the largest divisor with small^2 <= n."""

    small: int
    large: int


@dataclass
class RecordSet:
    """All ratio record-breakers (ties included) up to limit, ascending."""

    limit: int
    members: list[int] = field(default_factory=list)
    ratios: list[RatioValue] = field(default_factory=list)


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
    """Scan 1..limit keeping every value whose ratio ties or beats the record."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    result = RecordSet(limit=limit)
    best_num, best_den = 0, 1
    for n in range(1, limit + 1):
        s = brute_semiperimeter(n)
        if n * best_den >= best_num * s:
            result.members.append(n)
            result.ratios.append(RatioValue(n, s))
            best_num, best_den = n, s
    return result


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
