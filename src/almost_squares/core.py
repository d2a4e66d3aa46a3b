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
last member of flock k-1).  nth inverts the closed form exactly: on each
block of m sharing floor(sqrt(2m)) = mu the count is linear in m, j's
block is the cube root of 3j or one below it, and one division gives m,
so it takes one cube root and no square root.

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
window of a flock's interval) build their record lists from the runs.

A record is its optimal rectangle, as in the paper's n = k(k+h): an
AlmostSquareRecord holds the rectangle alone, and its value (width *
length), semiperimeter and flock (both width + length) and ratio are
read off it, so no record can disagree with its own witness.

Rectangle, FlockId and AlmostSquareRecord are named tuples: they unpack,
compare equal (with equal hashes) to the tuple of their fields, and offer
_fields and _replace, which validates as the constructor does.  Records
and rectangles refuse <, <=, > and >=, since tuple order would rank a
3x6 rectangle (area 18) before a 4x4 one (area 16).

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
    "AlmostSquareRecord",
    "FlockId",
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


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

class Rectangle(namedtuple("Rectangle", "width length")):
    """An optimal factorization of an almost-square, width <= length.

    The width is the largest divisor of the area not exceeding its
    square root; the semiperimeter width + length is the least possible
    over all integer-sided rectangles of the same area.
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

    def __str__(self) -> str:
        return f"{self.width}x{self.length}"


class FlockId(namedtuple("FlockId", "k")):
    """A flock addressed by its common semiperimeter k.

    The k-th flock holds the almost-squares whose optimal rectangle has
    semiperimeter exactly k, all in (floor((k-1)^2/4), floor(k^2/4)]:
    for odd k = 2m-1 that is ((m-1)^2, m(m-1)], for even k = 2m it is
    (m(m-1), m^2].  Flock 1 is empty; flocks 2 and 3 hold the single
    members 1 and 2.
    """

    __slots__ = ()

    def __new__(cls, k: int) -> FlockId:
        if k < 1:
            raise ValueError("flock semiperimeter k must be >= 1")
        return tuple.__new__(cls, (k,))

    _make = classmethod(lambda cls, fields: cls(*fields))

    def value_interval(self) -> tuple[int, int]:
        """Bounds (lo, hi] of the values this flock may contain."""
        return (self.k - 1) ** 2 // 4, self.k * self.k // 4


class AlmostSquareRecord(namedtuple("AlmostSquareRecord", "rect")):
    """One almost-square, held as its optimal rectangle.

    The rectangle is the record's only field, so a record cannot
    disagree with its own witness: the value is width * length, and the
    semiperimeter, which is also the flock's k, is width + length.  Two
    records are equal, with equal hashes, exactly when their rectangles
    are, whichever query built them.  Records have no order: as tuples,
    the 11th member, 18 = 3x6, would sort before the 10th, 16 = 4x4.
    """

    __slots__ = ()
    __lt__ = __le__ = __gt__ = __ge__ = object.__lt__

    @property
    def value(self) -> int:
        return self.rect.area

    @property
    def semiperimeter(self) -> int:
        return self.rect.semiperimeter

    @property
    def flock(self) -> FlockId:
        return FlockId(self.semiperimeter)

    @property
    def ratio(self) -> "RatioValue":
        return RatioValue(self.value, self.semiperimeter)


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

def _icbrt(n: int) -> int:
    """Floor cube root, exact for arbitrary magnitude.

    Below 2^60 the base is round(n ** (1/3)): there the float cube root
    is within 10^-8 of the real root r, so rounding gives floor(r) or
    floor(r) + 1.  Above it the root doubles its precision, the scheme
    math.isqrt uses for square roots: with s = bits // 6 - 1, the root
    r0 of the top bits n >> 3s, taken recursively, gives y = r0 + 1 and
    the start x = y << s, which lies above the real root r by at most 2^s.
    One Newton step (2x + n // x^2) // 3 cannot fall below floor(r), by
    AM-GM, and it overshoots the real root by less than 2^2s / r <=
    2^(-5/3) < 1/3.  Either way a single decrement finishes the floor root
    whenever one is needed at all.  The step's quotient n // (y^2 << 2s)
    is taken as (n >> 2s) // y^2, the same floor with half the divisor's
    width, by ``_bigint.divmod``, subquadratic before Python 3.12 too.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >> 60:
        s = n.bit_length() // 6 - 1
        y = _icbrt(n >> 3 * s) + 1
        x = ((2 * y << s) + _bigint.divmod(n >> 2 * s, y * y)[0]) // 3
    else:
        x = round(n ** (1 / 3))
    while x * x * x > n:
        x -= 1
    return x


# the largest offset in flock k: (isqrt(2m-1) - 1) // 2 for k = 2m-1 and
# isqrt(m // 2) = isqrt(2m) // 2 for k = 2m; unguarded so the edge flocks
# (k = 1 empty, k = 2 holding just 1x1) reuse the same formula
def _flock_extent(k: int) -> int:
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
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # k is isqrt(4n - 1) + 1, but reaching it through m, which splits at
    # m(m-1) into flocks 2m - 1 and 2m, made this about 15% faster per call
    # at n < 2*10^4 (Python 3.11, 2-vCPU host)
    m = isqrt(n - 1) + 1  # the ceiling square root, as (m-1)^2 < n <= m^2
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


def _run_records(runs: Iterable[tuple[int, range, range]]) -> list[AlmostSquareRecord]:
    """The records of the runs' members, in run order."""
    return [
        AlmostSquareRecord(Rectangle(w, l)) for _, ws, ls in runs for w, l in zip(ws, ls)
    ]


def flock_members(flock: FlockId | int) -> list[AlmostSquareRecord]:
    """All members of a flock in increasing value order.

    Accepts a FlockId or a bare semiperimeter k >= 1.  The members are the
    window of the flock's value interval, so flock 1 is an empty window.
    """
    fid = flock if isinstance(flock, FlockId) else FlockId(flock)
    lo, hi = fid.value_interval()
    return _run_records(_flock_runs(lo + 1, hi)[2])


def is_almost_square(n: int) -> Rectangle | None:
    """Return the optimal rectangle of n if n is an almost-square, else None.

    Pure interval test: with k the flock whose interval holds n,
    membership means floor(k^2/4) - n is o(o + k%2) for an offset o
    within the flock's extent: a perfect square b^2 with b <= seq_b(m)
    for even k = 2m, a pronic number a(a+1) with a <= seq_a(m) for odd
    k = 2m-1.  Runs in time polynomial in the digit count of n and never
    factors n.
    """
    k, offset, exact = _locate(n)
    if exact and offset <= _flock_extent(k):
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
    there, _count_located(2m, 0), whose closed form in mu = floor(sqrt(2m))
    is the one count every query shares.
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
    # m(mu + 1) + _block_base(mu).  One root, isqrt(k), serves as mu and for
    # flock k's extent.  It is isqrt(2m) except at odd k = s^2, where
    # isqrt(2m) = isqrt(k - 1) = s - 1; there the closed form's step from mu
    # to mu + 1, (12m + 6 - 6(mu+1)^2 + 6[mu odd]) / 12, is 0 at mu = s - 1,
    # as 2m = s^2 - 1 and s - 1 is even, so isqrt(k) serves too
    m, mu = k // 2, isqrt(k)
    size = (mu - k % 2) // 2 + 1  # _flock_extent(k) + 1
    kept = size - offset if offset < size else 0  # members of flock k from offset on
    count = m * (mu + 1) + _block_base(mu) + kept
    return count if k & 1 else count - size


def _block_base(mu: int) -> int:
    # the closed form's intercept on block mu, the m >= 1 with floor(sqrt(2m))
    # = mu: the members up to m^2 number m(mu + 1) + _block_base(mu) there, and
    # 12 _block_base(mu) = 6mu - 12 - mu(mu+1)(2mu+1) + 6*floor(mu/2); the
    # divisibility by 12 is asserted as an internal consistency check
    twelve = 6 * mu - 12 - mu * (mu + 1) * (2 * mu + 1) + 6 * (mu // 2)
    if twelve % 12:
        raise AssertionError(f"closed-form count not divisible by 12 at mu={mu}")
    return twelve // 12


def nth(j: int) -> AlmostSquareRecord:
    """The j-th almost-square in increasing order, with its rectangle.

    The closed form is inverted exactly.  Call the m with floor(sqrt(2m))
    = mu block mu: it runs from ceil(mu^2/2) to ((mu+1)^2 - 1) // 2, and on
    it the members up to m^2 number L_mu(m) = m(mu + 1) + _block_base(mu),
    linear in m with slope mu + 1.  The members before block mu, those up
    to the square of its last m less one, M = (mu^2 - 1) // 2, number

        before(mu) = (4mu^3 + 3mu^2 + 2mu - 21) / 12    for odd mu >= 3,
                     (4mu^3 + 3mu^2 - 4mu - 24) / 12    for even mu >= 2,

    about mu^3/3 + mu^2/4, with before(1) = 0.  The lines of blocks mu - 1
    and mu meet at M, as _block_base(mu - 1) = _block_base(mu) + M, so
    before(mu) = L_mu(M) for mu >= 2.  j's block is the mu with before(mu)
    < j <= before(mu + 1), and with c = max(2, icbrt(3j)) it is c - 1 or c:

    * mu >= c - 1, as 3j <= 3 before(mu + 1) < (mu + 2)^3, so icbrt(3j)
      <= mu + 1, and c = 2 <= mu + 1 as well;
    * mu <= c, as 3 before(mu) >= mu^3 for mu >= 3 (3mu^2 + 2mu >= 21 and
      3mu^2 >= 4mu + 24), so 3j > mu^3 and icbrt(3j) >= mu; blocks 1 and 2
      hold j = 1 and j = 2 to 10, where mu <= 2 <= c.

    One exact comparison, j > L_c(M), tells the two apart.  Then the first
    m whose count reaches j is ceil((j - _block_base(mu)) / (mu + 1)), one
    exact division, which is in block mu because j > before(mu) = L_mu of
    the block's first m less one (and L_1(0) = -1 < j).  At a wide j,
    the cube root and this division are nth's cost, and both divide by
    ``_bigint.divmod``, subquadratic before Python 3.12 too.  The division's
    remainder r gives the offset down from m^2, the count there less j, as
    mu - r: the member at that offset in flock 2m, whose extent is mu // 2,
    or past it in flock 2m - 1, as the two flocks hold the mu + 1 members
    in ((m-1)^2, m^2].  So nth takes one cube root, of 3j, and no square
    root.
    """
    if j < 1:
        raise ValueError("index must be >= 1")
    c = max(2, _icbrt(3 * j))
    last = (c * c - 1) // 2  # block c - 1's last m, where the two lines meet
    mu, base = c, _block_base(c)
    if j <= last * (c + 1) + base:  # j <= before(c): in block c - 1
        mu, base = c - 1, base + last
    m, r = _bigint.divmod(j - base + mu, mu + 1)
    k, offset = 2 * m, mu - r  # m^2 is the (j + offset)-th member
    extent = mu // 2  # flock 2m's, as isqrt(2m) = mu
    if offset > extent:  # past flock 2m, so in flock 2m - 1
        k, offset = k - 1, offset - extent - 1
    return AlmostSquareRecord(_rect(k, offset))


def floor_almost_square(n: int) -> AlmostSquareRecord:
    """The largest almost-square not exceeding n.

    It is the member at n's located offset; when that offset is past the
    flock's extent, it is the last member of flock k - 1, floor((k-1)^2/4).
    """
    k, offset, _ = _locate(n)
    if offset > _flock_extent(k):
        k, offset = k - 1, 0
    return AlmostSquareRecord(_rect(k, offset))


def pioneer(j: int) -> tuple[int, FlockId]:
    """The j-th flock-lengthening almost-square and the flock it opens.

    A pioneer starts the first flock that is longer than the preceding
    flock of the same parity.  The j-th pioneer is the product of the
    (j+1)-st and (j+2)-nd triangular numbers and opens flock (j+1)^2.
    """
    if j < 1:
        raise ValueError("index j must be >= 1")
    value = triangular(j + 1) * triangular(j + 2)
    return value, FlockId((j + 1) ** 2)


def enumerate_range(lo: int, hi: int) -> list[AlmostSquareRecord]:
    """All almost-squares in [lo, hi] in increasing order.

    The records are built from the flock walk: one run of offsets per
    flock from lo's to hi's, with both ends found in closed form by
    locating lo and hi, so the work is in proportion to the members
    returned.
    """
    if lo < 1:
        raise ValueError("lo must be >= 1")
    if hi < lo:
        raise ValueError("lo must not exceed hi")
    return _run_records(_flock_runs(lo, hi)[2])
