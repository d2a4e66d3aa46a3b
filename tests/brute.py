"""Per-n brute-force references that only the tests use.

Trial division downward from the integer square root, O(sqrt(n)) per n,
and a membership lookup in a record set.  The tests pin the divisor
sieve of almost_squares.oracle against brute_divisor_pair, and check the
flock forms and membership against the other two.
"""

from bisect import bisect_left
from collections import namedtuple
from math import isqrt

from almost_squares.oracle import RecordSet

# d(n) and its cofactor: small is the largest divisor with small^2 <= n
DivisorPair = namedtuple("DivisorPair", "small large")


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


def brute_is_member(n: int, record_set: RecordSet) -> bool:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > record_set.limit:
        raise ValueError(f"n={n} exceeds the record set limit {record_set.limit}")
    members = record_set.members
    i = bisect_left(members, n)
    return i < len(members) and members[i] == n
