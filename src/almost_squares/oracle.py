"""Brute-force ground truth for almost-squares.

Everything here computes straight from the definitions: n is a member
when its ratio n/s(n) ties or beats every smaller n's, with s(n) = d(n)
+ n/d(n) and d(n) the largest divisor of n with d(n)^2 <= n.  The record
set is a single ascending scan with exact cross-multiplied ratio
comparisons (ties kept), over d(n) from a divisor sieve, about
O(limit log limit): 0.03 s at 2*10^5 and 1.6 s at 10^7 (54 MB peak RSS)
with CPython 3.11 on a 2-vCPU host.

The lead-in rule: a scan need not start at 1.  s(n) >= 2*sqrt(n), so
n/s(n) <= sqrt(n)/2, with equality exactly at squares.  For lo >= 2 and
m = isqrt(lo - 1), every n < m^2 has a ratio below m^2's, m/2, so the
record before lo is set in [m^2, lo), and a scan from m^2 decides every
n >= m^2 exactly as the scan from 1 does.  _records scans so, and it
alone holds the record test: brute_record_set is its scan from 1.

verify(limit), the check behind oracle-verify, holds the fast
membership and count against the brute records at every n in contiguous
slices of [1, limit]: one per usable CPU, each of at least _MIN_SLICE n,
the first in this process and each other in a forked child.  Each sieves
and scans its own slice and sends back its members, mismatch counts and
first witnesses.  A child anchors its count at its first n, and a slice whose
anchor the earlier slices' members contradict is swept again here, so the
result does not depend on how many slices there are.

The tests keep trial division downward from the integer square root,
O(sqrt(n)) per n, in tests/brute.py, outside the package, and pin the
sieve against it.  All of it exists so the closed-form routines in core
can be checked, by oracle-verify and by the tests, against something
with no cleverness in it.
"""

from __future__ import annotations

import os
from array import array
from collections import namedtuple
from math import factorial, isqrt

from .core import RatioValue, count_le, is_almost_square

__all__ = [
    "DEFAULT_SCAN_CAP",
    "RecordSet",
    "brute_record_set",
    "factorial_membership_scan",
    "verify",
]

# oracle-verify's default limit: nearly all of its time is the fast side
# (count_le and is_almost_square) checked at every n, which it splits over
# the usable CPUs; best of 9 in-process calls, 0.23 s with one sweep and
# 0.12 s on two CPUs (3.11.7, 2-vCPU host)
DEFAULT_SCAN_CAP = 200_000

# at this limit (169,281 members) oracle-verify ran 6.7-7.5 s on two usable
# CPUs, against 14.5 s for one sweep; each process sieves its own slice, so
# the parent peaked at 25 MB RSS on two and 35 MB in one (3.11.7, 2-vCPU
# host);
# brute_record_set and verify refuse anything above
_MAX_SCAN_LIMIT = 10_000_000

# verify returns at most this many mismatching n
_WITNESS_LINES = 5

# verify sweeps [1, limit] in one forked process per usable CPU, but gives
# each at least this many n.  A fork, pipe and reap round trip took 1.49 ms
# median (p90 2.66 ms) from a 3.11.7 process with the package loaded
# (2-vCPU host), and the sweep about 1.1 us per n, so a slice this long
# keeps that overhead at or below about 15%
_MIN_SLICE = 10_000

# all ratio record-breakers (ties included) up to limit, ascending
RecordSet = namedtuple("RecordSet", "limit members ratios")


def _check_limit(limit: int) -> None:
    """Refuse a scan limit below 1 or above the scan cap with ValueError."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > _MAX_SCAN_LIMIT:
        raise ValueError(f"limit {limit} is above the oracle scan cap of {_MAX_SCAN_LIMIT}")


# _divisors writes at most this many multiples of one j from one temporary
# array, 64 KB of typecode "H", so its peak stays near the sieve's own
_FILL = 1 << 15


def _divisors(a: int, b: int) -> array:
    """d(n) for every n in [a, b], at index n - a, for 1 <= a <= b.

    Each j from 2 to isqrt(b), in ascending order, overwrites its
    multiples from max(j^2, a) on, so the last j written at n is the
    largest divisor with j^2 <= n, that is d(n).  Typecode "H" (16 bits)
    holds every such j while b < 2^32.  A j with more than _FILL multiples
    writes whole runs of _FILL from one array of j's, then the rest, so at
    most two such arrays, 128 KB, live beside the sieve.
    """
    size = b - a + 1
    small = array("H", [1]) * size
    for j in range(2, isqrt(b) + 1):
        first = max(j * j, -(-a // j) * j) - a
        runs, rest = divmod(len(range(first, size, j)), _FILL)
        if runs:
            fill, span = array("H", [j]) * _FILL, _FILL * j
            for start in range(first, first + runs * span, span):
                small[start:start + span:j] = fill
            first += runs * span
        small[first::j] = array("H", [j]) * rest
    return small


def _records(lo: int, hi: int) -> tuple[array, array]:
    """The record members in [lo, hi], ascending, and their s, for 1 <= lo <= hi.

    Sieves d(n) on [m^2, hi], m = isqrt(lo - 1), and scans it with exact
    cross-multiplied ratio comparisons, ties kept; by the lead-in rule the
    records from m^2 on are those of one scan from 1.  Both come back as
    array("L"), which holds them in a fraction of a list of ints' memory.
    """
    start = max(isqrt(lo - 1) ** 2, 1)
    members, sums = array("L"), array("L")
    best_num, best_den = 0, 1
    for n, d in enumerate(_divisors(start, hi), start):
        s = d + n // d
        if n * best_den >= best_num * s:
            best_num, best_den = n, s
            if n >= lo:
                members.append(n)
                sums.append(s)
    return members, sums


def brute_record_set(limit: int) -> RecordSet:
    """Scan 1..limit keeping every value whose ratio ties or beats the record.

    Raises ValueError for limit below 1 or above the scan cap of 10^7.
    """
    _check_limit(limit)
    members, sums = _records(1, limit)
    return RecordSet(limit, list(members), list(map(RatioValue, members, sums)))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slices(limit: int) -> list[tuple[int, int]]:
    """[1, limit] as contiguous slices (lo, hi), one per process of the sweep.

    As many as there are usable CPUs and whole _MIN_SLICE runs of n, at
    least one.  One slice, and no fork, where os.fork is missing or the
    process runs threads besides this one: a forked child holds only the
    forking thread, so a lock another thread held stays held in it.
    """
    import threading

    workers = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        workers = max(1, min(_usable_cpus(), limit // _MIN_SLICE))
    bounds = [limit * i // workers for i in range(workers + 1)]
    return [(bounds[i] + 1, bounds[i + 1]) for i in range(workers)]


def _sweep(lo: int, hi: int, below: int | None = None) -> tuple:
    """Check both fast calls against the brute records at every n in [lo, hi].

    The brute flags come from _records(lo, hi).  below is the brute count
    of members under lo.  None anchors it at lo's fast count less lo's
    brute flag, read from the first n's own calls, so a fast call raises
    at the n and in the order of one sweep.  Returns that anchor, the
    members in [lo, hi], the membership and count mismatches and the
    first _WITNESS_LINES witnesses.
    """
    members = _records(lo, hi)[0]
    flags = bytearray(hi - lo + 1)  # 1 at each brute member, made once the sieve is freed
    for n in members:
        flags[n - lo] = 1
    running = below  # the brute count up to n
    membership_bad = count_bad = 0
    witnesses = []
    for n, brute_member in enumerate(flags, lo):
        fast_member = is_almost_square(n) is not None
        fast_count = count_le(n)
        if running is None:
            running = below = fast_count - brute_member
        # a branch, not running += brute_member: adding the flag took about
        # 25 ns more per n (Python 3.11, 2-vCPU host)
        if brute_member:
            running += 1
        if fast_member != brute_member or fast_count != running:
            membership_bad += fast_member != brute_member
            count_bad += fast_count != running
            if len(witnesses) < _WITNESS_LINES:
                witnesses.append((n, fast_member, fast_count, brute_member == 1, running))
    return below, running - below, membership_bad, count_bad, witnesses


def _fork_sweep(lo: int, hi: int) -> tuple[int, int]:
    """Start _sweep(lo, hi) in a forked child: its pid and its pipe's read end.

    The child sends back, pickled, (True, its result) or (False, the
    exception its sweep raised).  It always leaves by os._exit, so it runs
    no atexit handler and flushes no stdio buffer it inherited.
    """
    import pickle

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        try:
            os.close(read)
            try:
                result = True, _sweep(lo, hi)
            except BaseException as exc:  # the parent raises it in the sweep's place
                result = False, exc
            with open(write, "wb") as pipe:
                pipe.write(pickle.dumps(result))
        finally:
            os._exit(0)
    os.close(write)
    return pid, read


def verify(limit: int) -> tuple[int, int, list[tuple[int, bool, int, bool, int]]]:
    """Check is_almost_square and count_le against the brute records at every n <= limit.

    Returns the membership mismatches, the count mismatches and the first
    _WITNESS_LINES mismatching n in n order, each as (n, fast member, fast
    count, brute member, brute count).  Raises ValueError, before any
    fork, for limit below 1 or above the scan cap of 10^7.

    _sweep runs over each slice of _slices(limit), the first here and each
    other in a child (_fork_sweep).  A child's exception is raised here as
    the one sweep would have raised it: the first slice's in n order, this
    process's own first of all.  Every child is reaped before this returns
    or raises, and killed first when it raises, on KeyboardInterrupt too.
    A child's anchor is then held against the members of the slices before
    it, and a slice whose anchor differs, as where count_le is wrong at its
    first n, is swept again here from the true count.
    """
    import pickle
    import signal

    _check_limit(limit)
    slices = _slices(limit)
    children = []  # (pid, read end of its pipe), in slice order
    try:
        for lo, hi in slices[1:]:
            children.append(_fork_sweep(lo, hi))
        results = [_sweep(*slices[0], 0)]
        for pid, read in children:
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:  # killed, or its exception could not be pickled
                raise ChildProcessError(f"oracle-verify's worker {pid} sent no result")
            done, result = pickle.loads(data)
            if not done:
                raise result
            results.append(result)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in children:
            os.close(read)
            os.waitpid(pid, 0)
    below = 0
    for i, (lo, hi) in enumerate(slices):
        if results[i][0] != below:
            results[i] = _sweep(lo, hi, below)
        below += results[i][1]
    witnesses = [w for result in results for w in result[4]][:_WITNESS_LINES]
    return sum(r[2] for r in results), sum(r[3] for r in results), witnesses


def factorial_membership_scan(n_max: int) -> list[int]:
    """All n <= n_max whose factorial is an almost-square.

    Uses the fast membership test from core; a brute record scan is
    hopeless at factorial scale.  This is a regression check, not an
    independent oracle.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [n for n in range(1, n_max + 1) if is_almost_square(factorial(n)) is not None]
