"""Exact integer machinery for almost-squares.

An almost-square is a positive integer n whose optimal integer-sided
rectangle (area n, least semiperimeter s(n)) sets or ties the running
record for the ratio n / s(n) among all integers up to n.  The
almost-squares organize themselves into "flocks": maximal runs of
members sharing one semiperimeter k.  The largest area of an integer
rectangle with semiperimeter k is floor(k^2/4), so flock k holds the n
whose least possible semiperimeter ceil(2 sqrt(n)) is k, the interval

    (floor((k-1)^2/4), floor(k^2/4)]

and within it the members form an explicit family indexed by how far
the rectangle is from square:

    floor(k^2/4) - o(o + k%2) = (k//2 - o) x ((k+1)//2 + o)

for o = e_k down to 0, where the extent e_k = (isqrt(k) - k%2) // 2.
For odd k = 2m-1 this is (m+a)(m-a-1) with a up to
floor((sqrt(2m-1)-1)/2), for even k = 2m it is (m+b)(m-b) with b up to
floor(sqrt(m/2)).  One primitive, _locate(n), turns that structure into
a position: n's flock k, the least offset whose member is <= n, and
whether n hits it exactly.  The queries are views on that position:
membership checks the offset is exact and within the extent, count_le
is the one located count, _count_located(k, offset), the closed form in
floor(sqrt(2m)) plus n's place in its flock (count_at_square is that
count at a square), and the floor is the member at an offset (or the
last member of flock k-1).  With k = mu^2 + r, its root and remainder,
the closed form is linear in k and r, so the count forms no cube.  nth
inverts the closed form exactly: on each block of m sharing
floor(sqrt(2m)) = mu the count is linear in m, and j's block is the cube
root c of 3j or one below it.  With c's remainder, 3j - c^3, j's rank in
its block is linear in that remainder and c^2, and one division of the
rank, about two thirds of j's width, by mu + 1 gives m and the offset:
nth takes one cube root, one square of c and one division, no square
root, and no operand as wide as j.

Enumeration is one walk, _flock_runs(lo, hi), over runs of offsets, one
run per flock: it starts at lo's located offset, stops at hi's, and takes
every flock between whole, so both ends are known in closed form.  The
same two positions give the window's count before the walk starts, by
count_le's closed form at each: the members up to hi's offset, less those
below lo, which are the members of lo's flock past the first run's start
and those of every earlier flock.  A run is a flock's k with the range
of its members' widths and the range of their lengths, so a member's
cells are arithmetic on two ranges and need no object: the CLI's list
and flock take their row cap and their rows from one call, the
at-member remainder series its row cap, its values and, from the count
below lo, each value's rank; and enumerate_range and flock_members (the
window of a flock's interval) build their member lists from the runs.

A member is its optimal rectangle, as in the paper's n = k(k+h): every
view that answers with members, is_almost_square, floor_almost_square,
nth, pioneer, enumerate_range and flock_members, returns the Rectangle,
whose area (width * length) is the member and whose semiperimeter
(width + length) is its flock's k; its ratio is read off the same two
ints.  A flock is its int k alone.

Rectangle is a named tuple: it unpacks, compares equal (with an equal
hash) to the tuple (width, length), and offers _fields and _replace,
which validates as the constructor does.  Rectangles refuse <, <=, >
and >=, since tuple order would rank a 3x6 rectangle (area 18) before a
4x4 one (area 16).

Everything in this module is exact integer arithmetic, so results are
bit-exact for integers of any size and run in time polynomial in the
digit count.  No routine here ever factors its input.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import total_ordering
from math import gcd, isqrt

from . import _bigint

__all__ = [
    "RatioValue",
    "Rectangle",
    "count_at_square",
    "count_le",
    "count_triangular_le",
    "enumerate_range",
    "flock_members",
    "floor_almost_square",
    "is_almost_square",
    "nth",
    "pioneer",
    "seq_a",
    "seq_b",
    "tri_decompose",
    "triangular",
]

# the one row ceiling of every streaming verb and series: list, flock,
# pioneers, analyze and trigrid, and analysis.emit_series for every plan,
# refuse up front a request for more rows than this
_ROW_CAP = 10_000_000


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

class Rectangle(namedtuple("Rectangle", "width length")):
    """An optimal factorization of an almost-square, width <= length.

    The width is the largest divisor of the area not exceeding its
    square root; the semiperimeter width + length is the least possible
    over all integer-sided rectangles of the same area, and is the k of
    the flock that holds it.
    """

    __slots__ = ()

    def __new__(cls, width: int, length: int) -> Rectangle:
        if width < 1 or length < width:
            raise ValueError(f"invalid rectangle {width}x{length}")
        return tuple.__new__(cls, (width, length))

    # namedtuple's _make, which _replace calls, would skip the check in __new__
    _make = classmethod(lambda cls, fields: cls(*fields))
    # tuple order would rank 3x6 before 4x4; rectangles have no order
    __lt__ = __le__ = __gt__ = __ge__ = object.__lt__

    @property
    def area(self) -> int:
        return self.width * self.length

    @property
    def semiperimeter(self) -> int:
        return self.width + self.length

    @property
    def ratio(self) -> RatioValue:
        return RatioValue(self.area, self.semiperimeter)

    def __str__(self) -> str:
        return f"{self.width}x{self.length}"


@total_ordering
class RatioValue:
    """Area-to-semiperimeter ratio kept as an unreduced integer pair.

    Comparisons cross-multiply, so records and ties are decided exactly
    no matter how large the operands get.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int) -> None:
        if numerator < 1 or denominator < 1:
            raise ValueError("ratio numerator and denominator must be positive")
        self.numerator = numerator
        self.denominator = denominator

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatioValue):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __lt__(self, other: "RatioValue") -> bool:
        if not isinstance(other, RatioValue):
            return NotImplemented
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __hash__(self) -> int:
        g = gcd(self.numerator, self.denominator)
        return hash((self.numerator // g, self.denominator // g))

    def __float__(self) -> float:
        return self.numerator / self.denominator

    def __repr__(self) -> str:
        return f"RatioValue({self.numerator}, {self.denominator})"


# --------------------------------------------------------------------------
# integer root helpers
# --------------------------------------------------------------------------

# the largest offset in flock k: (isqrt(2m-1) - 1) // 2 for k = 2m-1 and
# isqrt(m // 2) = isqrt(2m) // 2 for k = 2m; unguarded so the edge flocks
# (k = 1 empty, k = 2 holding just 1x1) reuse the same formula; a k wider
# than _bigint._ROOT_BITS bits is rooted by _bigint.sqrtrem, tested as in
# _locate
def _flock_extent(k: int) -> int:
    if k > (1 << 30) - 1 and k >> _bigint._ROOT_BITS:
        return (_bigint.sqrtrem(k)[0] - k % 2) // 2
    return (isqrt(k) - k % 2) // 2


# --------------------------------------------------------------------------
# supporting sequences
# --------------------------------------------------------------------------

def triangular(i: int) -> int:
    """The i-th triangular number under the zero-first convention.

    triangular(1) = 0, triangular(2) = 1, triangular(3) = 3, and in
    general i*(i-1)/2.
    """
    if i < 1:
        raise ValueError("index i must be >= 1")
    return i * (i - 1) // 2


def count_triangular_le(x: int) -> int:
    """How many triangular numbers 0, 1, 3, 6, 10, ... are <= x."""
    if x < 0:
        raise ValueError("x must be >= 0")
    return (1 + isqrt(8 * x + 1)) // 2


def seq_a(m: int) -> int:
    """Largest offset a for which (m+a)(m-a-1) still joins the odd flock 2m-1.

    The odd flock with parameter m has exactly 1 + seq_a(m) members.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    return _flock_extent(2 * m - 1)


def seq_b(m: int) -> int:
    """Largest offset b for which (m+b)(m-b) still joins the even flock 2m.

    The even flock with parameter m has exactly 1 + seq_b(m) members.
    Equivalently the largest b with b*b*(2m-1) <= m*m.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    return _flock_extent(2 * m)


# --------------------------------------------------------------------------
# flocks and membership
# --------------------------------------------------------------------------

def _locate(n: int) -> tuple[int, int, bool]:
    """Where n >= 1 sits in the flock structure: (k, offset, exact).

    k is n's flock, the one whose interval (floor((k-1)^2/4),
    floor(k^2/4)] holds n.  offset is the least offset o whose member
    floor(k^2/4) - o(o + k%2) is <= n, and exact says whether that
    member is n itself.  The offset may exceed the flock's extent
    (isqrt(k) - k%2) // 2, in which case no member of flock k is <= n.
    Raises ValueError for n < 1, the one refusal of the point queries
    that locate n.

    n's ceiling root m splits its flocks at m(m-1), and the gap m^2 - n
    gives the offset.  When n is wider than _bigint._ROOT_BITS bits, each
    root is ``_bigint.sqrtrem``'s, with its remainder: with s, r =
    sqrtrem(n - 1), m = s + 1 and the gap is 2s - r, as n - 1 = s^2 + r,
    so no full-width square is formed; the gap's own remainder then says
    whether o is exact, 0 in flock 2m and o in flock 2m - 1.
    """
    # a narrow n pays one comparison here, with an int below 2^30, which
    # CPython specialises; n < 1 is refused by isqrt's domain error below,
    # as a try costs nothing until it raises
    if n > (1 << 30) - 1 and n >> _bigint._ROOT_BITS:
        s, r = _bigint.sqrtrem(n - 1)
        m, gap = s + 1, 2 * s - r
        if gap < m:
            o, r = _bigint.sqrtrem(gap)
            return 2 * m, o + (r > 0), r == 0
        o, r = _bigint.sqrtrem(gap - m)  # o(o + 1) < gap - m exactly when o < r
        return 2 * m - 1, o + (o < r), o == r
    # k is isqrt(4n - 1) + 1, but reaching it through m, which splits at
    # m(m-1) into flocks 2m - 1 and 2m, made this about 15% faster per call
    # at n < 2*10^4 (Python 3.11, 2-vCPU host)
    try:
        m = isqrt(n - 1) + 1  # the ceiling square root, as (m-1)^2 < n <= m^2
    except ValueError:
        raise ValueError("n must be >= 1") from None
    gap = m * m - n
    if gap < m:  # n > m(m-1): flock 2m, whose members are m^2 - o^2
        o = isqrt(gap)
        if o * o == gap:
            return 2 * m, o, True
        return 2 * m, o + 1, False
    gap -= m  # flock 2m - 1, whose members are m(m-1) - o(o+1)
    o = isqrt(gap)
    if o * (o + 1) < gap:
        o += 1
    return 2 * m - 1, o, o * (o + 1) == gap


def _rect(k: int, offset: int) -> Rectangle:
    """Flock k's member at offset: (k//2 - offset) x ((k+1)//2 + offset)."""
    return Rectangle(k // 2 - offset, (k + 1) // 2 + offset)


def _flock_run(k: int, start: int, stop: int) -> tuple[int, range, range]:
    """Flock k's members from offset start down to stop, in increasing value order.

    A run is (k, widths, lengths): the member at offset o is (k//2 - o) x
    ((k+1)//2 + o), so widths rise and lengths fall along it and the
    values are the products of the two ranges, taken pairwise.  The
    rectangle check is made once per run: its first width is its least.
    """
    width0, length0 = k // 2, (k + 1) // 2  # the rectangle at offset 0
    if width0 - start < 1:
        raise AssertionError(f"flock {k} has no member at offset {start}")
    widths = range(width0 - start, width0 - stop + 1)
    return k, widths, range(length0 + start, length0 + stop - 1, -1)


def _flock_runs(lo: int, hi: int) -> tuple[int, int, Iterator[tuple[int, range, range]]]:
    """The count of the members in [lo, hi], the count below lo and their runs.

    The runs come one per flock in order.  lo and hi are located once
    each, and every answer comes from those two positions; a window with
    hi < lo is (0, 0, no runs), and only then may lo be below 1.  The
    first run starts at the least member >= lo, and the last stops at hi's
    located offset, where the greatest member <= hi is.  When that offset
    is past the extent of hi's flock, that flock has no run, as a run's
    start is at most the extent, and the walk ends with flock k - 1, whole.
    Every flock between is whole.  The members below lo are those of lo's
    flock past the first run's start and every earlier flock, one closed
    form whether lo is a member or not, and the window's count is the
    closed form at hi's position less that.
    """
    if hi < lo:
        return 0, 0, iter(())
    k, offset, exact = _locate(lo)
    start = min(offset if exact else offset - 1, _flock_extent(k))
    last, stop, _ = _locate(hi)
    below = _count_located(k, start + 1)
    return _count_located(last, stop) - below, below, _walk(k, start, last, stop)


def _walk(k: int, start: int, last: int, stop: int) -> Iterator[tuple[int, range, range]]:
    # the runs of _flock_runs, from flock k at offset start to flock last at stop
    while k < last:
        yield _flock_run(k, start, 0)
        k += 1
        start = _flock_extent(k)
    if start >= stop:
        yield _flock_run(k, start, stop)


def _run_rects(runs: Iterable[tuple[int, range, range]]) -> list[Rectangle]:
    """The rectangles of the runs' members, in run order."""
    return [Rectangle(w, l) for _, ws, ls in runs for w, l in zip(ws, ls)]


def _flock_window(k: int) -> tuple[int, int]:
    """The window [lo, hi] of the values flock k may hold.

    It is the interval (floor((k-1)^2/4), floor(k^2/4)]: for odd k = 2m-1
    that is ((m-1)^2, m(m-1)], for even k = 2m it is (m(m-1), m^2].
    """
    return (k - 1) ** 2 // 4 + 1, k * k // 4


def flock_members(k: int) -> list[Rectangle]:
    """All members of flock k, those of semiperimeter k, in increasing value order.

    The members are the window of the flock's interval, so flock 1 is an
    empty window; flocks 2 and 3 hold the single members 1 and 2.
    """
    if k < 1:
        raise ValueError("flock semiperimeter k must be >= 1")
    return _run_rects(_flock_runs(*_flock_window(k))[2])


def is_almost_square(n: int) -> Rectangle | None:
    """Return the optimal rectangle of n if n is an almost-square, else None.

    Pure interval test: with k the flock whose interval holds n,
    membership means floor(k^2/4) - n is o(o + k%2) for an offset o
    within the flock's extent: a perfect square b^2 with b <= seq_b(m)
    for even k = 2m, a pronic number a(a+1) with a <= seq_a(m) for odd
    k = 2m-1.  Runs in time polynomial in the digit count of n and never
    factors n.

    The extent test takes no root of k: o <= (isqrt(k) - k%2) // 2
    exactly when 2o + k%2 <= isqrt(k), that is when (2o + k%2)^2 <= k.
    """
    k, offset, exact = _locate(n)
    if exact and (2 * offset + (k & 1)) ** 2 <= k:
        return _rect(k, offset)
    return None


def tri_decompose(n: int) -> tuple[int, int]:
    """Write an almost-square n as k*(k+h) with 0 <= h <= count_triangular_le(k).

    k is the width of the optimal rectangle and h the excess of its
    length.  Raises ValueError if n is not an almost-square.
    """
    rect = is_almost_square(n)
    if rect is None:
        raise ValueError(f"{n} is not an almost-square")
    return rect.width, rect.length - rect.width


# --------------------------------------------------------------------------
# counting and ranked access
# --------------------------------------------------------------------------

def count_at_square(m: int) -> int:
    """Number of almost-squares not exceeding m**2, in closed form.

    m^2 is flock 2m's member at offset 0, so this is the located count
    there, _count_located(2m, 0): m(mu + 1) plus the closed form's
    intercept on the block of m sharing mu = floor(sqrt(2m)), linear in 2m
    and its root's remainder, the one count every query shares.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _count_located(2 * m, 0)


def count_le(n: int) -> int:
    """Number of almost-squares not exceeding n (exact, polynomial time)."""
    k, offset, _ = _locate(n)
    return _count_located(k, offset)


def _count_located(k: int, offset: int) -> int:
    # the members up to flock k's member at offset: those of every earlier
    # flock and flock k's from offset to its extent, none where it is past.
    # With m = k // 2 and mu = floor(sqrt(2m)), the members up to m^2, which
    # are those through flock k - 1 for odd k and through k for even k, number
    # m(mu + 1) + B(mu), where 12 B(mu) = 5mu - 12 - 2mu^3 - 3mu^2 +
    # 6 floor(mu/2) is the closed form's intercept on the block of m sharing
    # mu.  One root, isqrt(k), serves as mu and for flock k's extent.  It is
    # isqrt(2m) except at odd k = s^2, where isqrt(2m) = isqrt(k - 1) = s - 1;
    # there the closed form's step from mu to mu + 1, (12m + 6 - 6(mu+1)^2 +
    # 6[mu odd]) / 12, is 0 at mu = s - 1, as 2m = s^2 - 1 and s - 1 is even,
    # so isqrt(k) serves too.  With k = mu^2 + rk, the root's remainder, and
    # 2m = k - k%2, twelve times that count is k(4mu + 3) + rk(2mu + 3) + 8mu
    # - 12 - 3(mu%2) - 6(k%2)(mu + 1), with no cube of mu; its divisibility by
    # 12 is asserted as an internal consistency check.  A wide k's root is
    # _bigint.sqrtrem's, tested as in _locate
    if k > (1 << 30) - 1 and k >> _bigint._ROOT_BITS:
        mu, rk = _bigint.sqrtrem(k)
    else:
        mu = isqrt(k)
        rk = k - mu * mu
    twelve = k * (4 * mu + 3) + rk * (2 * mu + 3) + 8 * mu - 12 - 3 * (mu & 1)
    if k & 1:  # through flock k - 1, and flock k's members from offset on
        twelve -= 6 * mu + 6
        size = (mu + 1) // 2  # _flock_extent(k) + 1
        count = twelve // 12 + (size - offset if offset < size else 0)
    else:  # through flock k, less its members before offset
        size = mu // 2 + 1
        count = twelve // 12 - (offset if offset < size else size)
    if twelve % 12:
        raise AssertionError(f"closed-form count not divisible by 12 at k={k}")
    return count


def _rank(mu: int, square: int, r: int) -> int:
    # nth's J' = j - B(mu) + mu - M0(mu + 1) for 3j = mu^3 + r, square = mu^2
    # and M0 = ceil(mu^2/2), block mu's first m, with B as in _count_located:
    # twelve times it, less 12mu, is linear in r and mu^2, as the cube of mu
    # cancels; its divisibility by 12 is asserted as an internal consistency
    # check
    twelve = 4 * r - 3 * square - 5 * mu + 12 - 6 * (mu // 2) - 6 * (mu & 1) * (mu + 1)
    if twelve % 12:
        raise AssertionError(f"closed-form rank not divisible by 12 at mu={mu}")
    return twelve // 12 + mu


def nth(j: int) -> Rectangle:
    """The optimal rectangle of the j-th almost-square in increasing order.

    The closed form is inverted exactly.  Call the m with floor(sqrt(2m))
    = mu block mu: it runs from M0 = ceil(mu^2/2) to ((mu+1)^2 - 1) // 2,
    and on it the members up to m^2 number L_mu(m) = m(mu + 1) + B(mu),
    linear in m with slope mu + 1, for the intercept 12 B(mu) = 5mu - 12
    - 2mu^3 - 3mu^2 + 6 floor(mu/2).  The members before block mu, those
    up to the square of its first m less one, M0 - 1 = (mu^2 - 1) // 2,
    number

        before(mu) = (4mu^3 + 3mu^2 + 2mu - 21) / 12    for odd mu >= 3,
                     (4mu^3 + 3mu^2 - 4mu - 24) / 12    for even mu >= 2,

    about mu^3/3 + mu^2/4, with before(1) = 0.  The lines of blocks mu - 1
    and mu meet at M0 - 1, so before(mu) = L_mu(M0 - 1) for mu >= 2.  j's
    block is the mu with before(mu) < j <= before(mu + 1), and with c =
    max(2, icbrt(3j)) it is c - 1 or c:

    * mu >= c - 1, as 3j <= 3 before(mu + 1) < (mu + 2)^3, so icbrt(3j)
      <= mu + 1, and c = 2 <= mu + 1 as well;
    * mu <= c, as 3 before(mu) >= mu^3 for mu >= 3 (3mu^2 + 2mu >= 21 and
      3mu^2 >= 4mu + 24), so 3j > mu^3 and icbrt(3j) >= mu; blocks 1 and 2
      hold j = 1 and j = 2 to 10, where mu <= 2 <= c.

    The first m whose count reaches j is ceil((j - B(mu)) / (mu + 1)), and
    with J' = j - B(mu) + mu - M0(mu + 1) it is M0 + t for t, rem =
    divmod(J', mu + 1).  J' is negative exactly when that m is below M0,
    that is when j <= L_mu(M0 - 1) = before(mu), so J' at mu = c tells the
    two blocks apart.  _bigint.cbrtrem gives c with r = 3j - c^3, and as
    12j = 4c^3 + 4r, the cube cancels from 12 J': it is 4r - 3c^2 + 7c + 12
    - 6 floor(c/2) - 6(c mod 2)(c + 1), linear in r and c^2.  At mu = c - 1
    the same form takes mu^2 = c^2 - 2c + 1 and r' = 3j - (c - 1)^3 = r +
    3c^2 - 3c + 1.  The division's remainder gives the offset down from
    m^2, the count there less j, as mu - rem: the member at that offset in
    flock 2m, whose extent is mu // 2, or past it in flock 2m - 1, as the
    two flocks hold the mu + 1 members in ((m-1)^2, m^2].  So nth takes one
    cube root, of 3j, one square, of c, and one division, of 0 <= J' <
    (mu + 1)^2 by mu + 1; the root's divisions and this one are
    ``_bigint.divmod``'s, subquadratic before Python 3.12 too.  No operand
    is as wide as j, and no square root is taken.
    """
    if j < 1:
        raise ValueError("index must be >= 1")
    # c = max(2, icbrt(3j)), where r = 3j - c^3 is negative at j <= 2
    c, r = _bigint.cbrtrem(3 * j) if j > 2 else (2, 3 * j - 8)
    mu, square = c, c * c
    jp = _rank(mu, square, r)
    if jp < 0:  # j <= before(c): in block c - 1
        mu, square, r = c - 1, square - 2 * c + 1, r + 3 * square - 3 * c + 1
        jp = _rank(mu, square, r)
    t, rem = _bigint.divmod(jp, mu + 1)
    m = (square + (mu & 1)) // 2 + t
    k, offset = 2 * m, mu - rem  # m^2 is the (j + offset)-th member
    extent = mu // 2  # flock 2m's, as isqrt(2m) = mu
    if offset > extent:  # past flock 2m, so in flock 2m - 1
        k, offset = k - 1, offset - extent - 1
    return _rect(k, offset)


def floor_almost_square(n: int) -> Rectangle:
    """The optimal rectangle of the largest almost-square not exceeding n.

    It is the member at n's located offset; when that offset is past the
    flock's extent, as is_almost_square tests it, it is the last member of
    flock k - 1, floor((k-1)^2/4).
    """
    k, offset, _ = _locate(n)
    if (2 * offset + (k & 1)) ** 2 > k:
        k, offset = k - 1, 0
    return _rect(k, offset)


def pioneer(j: int) -> Rectangle:
    """The optimal rectangle of the j-th flock-lengthening almost-square.

    A pioneer starts the first flock that is longer than the preceding
    flock of the same parity.  The j-th pioneer is t(j+1) x t(j+2), the
    (j+1)-st and (j+2)-nd triangular numbers, and as t(j+1) + t(j+2) =
    (j+1)^2 its semiperimeter is the flock it opens, (j+1)^2.
    """
    if j < 1:
        raise ValueError("index j must be >= 1")
    return Rectangle(triangular(j + 1), triangular(j + 2))


def enumerate_range(lo: int, hi: int) -> list[Rectangle]:
    """The optimal rectangles of all almost-squares in [lo, hi], in increasing order.

    The rectangles are built from the flock walk: one run of offsets per
    flock from lo's to hi's, with both ends found in closed form by
    locating lo and hi, so the work is in proportion to the members
    returned.
    """
    if lo < 1:
        raise ValueError("lo must be >= 1")
    if hi < lo:
        raise ValueError("lo must not exceed hi")
    return _run_rects(_flock_runs(lo, hi)[2])
