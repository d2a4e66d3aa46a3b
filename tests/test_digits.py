"""The wide-int routines of _bigint against int(), str() and divmod()."""

import builtins
import gc
import random
import sys
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from almost_squares import _bigint
from almost_squares._bigint import (
    _BIG_DIGITS,
    _DIV_BITS,
    _DIV_LIMIT,
    _LEAF_BITS,
    _LEAF_DIGITS,
    _ROOT_BITS,
    _divmod_bz,
    cbrtrem,
    cell,
    int_from_digits,
    record_cells,
    sqrtrem,
    to_decimal,
)
from almost_squares.core import nth

pytestmark = pytest.mark.usefixtures("no_int_digit_limit")

# digit counts from one to 4*10^4, with the leaf and the threshold edges
_LENGTHS = st.one_of(
    st.integers(1, 40_000),
    st.sampled_from([_LEAF_DIGITS, _LEAF_DIGITS + 1, 2 * _LEAF_DIGITS + 1,
                     _BIG_DIGITS, _BIG_DIGITS + 1]),
)


def _digits(length: int, seed: int) -> str:
    return "".join(random.Random(seed).choices("0123456789", k=length))


@settings(max_examples=20, deadline=None)
@given(_LENGTHS, st.integers(0, 2**32), st.integers(0, 50))
@example(_LEAF_DIGITS, 0, 0)
@example(_LEAF_DIGITS + 1, 0, _LEAF_DIGITS)  # every digit of the first leaf a zero
@example(40_000, 0, 0)
def test_conversions_match_int_and_str(length, seed, zeros):
    s = "0" * zeros + _digits(length, seed)
    n = int(s)
    assert int_from_digits(s) == n
    power = 2 ** (3 * length)
    for m in (n, -n, 10**length, 10**length - 1, power, -power):
        assert str(to_decimal(m)) == str(m)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 20_000), st.integers(0, 2**32), st.integers(0, 10**6))
@example(_BIG_DIGITS // 2, 0, 1)  # the record's value near the threshold
@example(10_000, 0, 0)  # a square
@example(_BIG_DIGITS, 1, 0)  # length == width at the threshold
@example(15_000, 2, 12_345)  # an odd k
def test_record_cells_match_str(digits, seed, gap):
    width = int("1" + _digits(digits - 1, seed))
    length = width + gap
    semi = str(width + length)
    want = (str(width * length), str(width), str(length), semi, semi)
    assert tuple(map(str, record_cells(width, length))) == want


# -- rendering across the leaf size ------------------------------------------

# bit widths on both sides of _LEAF_BITS, where a leaf is read from its
# digits whole, and of twice it, where the Decimal recursion splits once
_LEAF_EDGES = [_LEAF_BITS - 1, _LEAF_BITS, _LEAF_BITS + 1, 2 * _LEAF_BITS + 1]


@pytest.mark.parametrize("bits", _LEAF_EDGES)
def test_leaf_edges_render_as_str(bits):
    rng = random.Random(bits)
    top = 1 << bits - 1
    for m in (top, 2 * top - 1, top | rng.getrandbits(bits - 1)):
        for n in (m, -m):
            assert str(to_decimal(n)) == str(n)
            assert str(cell(n)) == str(n)


# the least k with 10^k wider than _LEAF_BITS bits is _K or _K + 1
_K = int(_LEAF_BITS * 0.30103)


@pytest.mark.parametrize("k", [2 * _LEAF_DIGITS, _K - 1, _K, _K + 1, _K + 2, 3 * _K])
def test_powers_of_ten_render_as_str(k):
    # 10^k - 1 is all nines, 10^k and 10^k + 1 a one and zeros
    for n in (10**k, 10**k - 1, 10**k + 1, -(10**k), 1 - 10**k):
        assert str(to_decimal(n)) == str(n)
        assert str(cell(n)) == str(n)


@pytest.mark.parametrize("d", [_LEAF_DIGITS + 1, 3 * _LEAF_DIGITS, _K, 2 * _K + 7])
def test_leaf_halves_keep_their_leading_zeros(d):
    # a leaf of about d digits is split near its middle digit, and a run of
    # zeros across the middle starts its low half with zeros, which str() of
    # the half alone would drop
    third = d // 3
    for zeros in (third, 2 * third, d - 2):
        n = int("9" * (d - zeros - 1) + "0" * zeros + "7")
        for m in (n, -n, n * 10**third):
            assert str(to_decimal(m)) == str(m)
            assert str(cell(m)) == str(m)


def test_conversions_leave_no_cyclic_garbage(monkeypatch):
    # a conversion whose power tables sat in a reference cycle would leave
    # them to the cyclic collector after every call.  Leaves this small keep
    # every int(), str() and divmod() below the sizes at which CPython 3.12
    # and later hand them to Lib/_pylong.py, whose own garbage would count
    monkeypatch.setattr(_bigint, "_LEAF_BITS", 8192)
    monkeypatch.setattr(_bigint, "_LEAF_DIGITS", 500)
    rng = random.Random(31)
    ints = [rng.getrandbits(bits) | 1 << bits - 1 for bits in (40_000, 100_000, 170_000)]
    ints.append(-ints[1])
    s = _digits(30_000, 31)
    width = ints[0]
    length = width + 987_654_321
    semi = str(width + length)
    cells = (str(width * length), str(width), str(length), semi, semi)
    want = ([str(n) for n in ints], int(s), cells)
    gc.collect()
    gc.disable()
    try:
        got = (
            [str(to_decimal(n)) for n in ints],
            int_from_digits(s),
            tuple(map(str, record_cells(width, length))),
        )
        garbage = gc.collect()
    finally:
        gc.enable()
    assert got == want
    assert garbage == 0


# -- square roots ----------------------------------------------------------------

# four consecutive widths about _ROOT_BITS, where sqrtrem starts to recurse,
# and about 2, 4 and 8 times it, where the top bits its recursion ends on are
# about _ROOT_BITS wide again; the four residues mod 4 take both shifts, by 0
# bits (to 4b - 1 or 4b bits) and by 2
_ROOT_WIDTHS = [k * _ROOT_BITS + d for k in (1, 2, 4, 8) for d in (-1, 0, 1, 2)]


def _at_widths(widths):
    # one example (bits, seed 0) at each of these widths
    def add(test):
        for bits in widths:
            test = example(bits, 0)(test)
        return test
    return add


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8 * _ROOT_BITS + 2), st.integers(0, 2**32))
@_at_widths(_ROOT_WIDTHS)
def test_sqrtrem_matches_isqrt(bits, seed):
    # a random n of this width and, for its root s, s^2 - 1, s^2 and s^2 + 2s,
    # the last with the largest remainder a root s can have
    n = random.Random(seed).getrandbits(bits) | 1 << bits - 1
    s = isqrt(n)
    for m in (n, s * s - 1, s * s, s * s + 2 * s):
        r = isqrt(m)
        assert sqrtrem(m) == (r, m - r * r), m.bit_length()


def test_sqrtrem_of_small_ints():
    assert [sqrtrem(n) for n in range(65)] == [(isqrt(n), n - isqrt(n) ** 2) for n in range(65)]


# -- cube roots ----------------------------------------------------------------

def _cbrt_levels(bits: int) -> int:
    # the levels of cbrtrem's recursion above its float root for an int this wide
    return 0 if bits <= 60 else 1 + _cbrt_levels(bits - 3 * (bits // 6 - 1))


# the widths about 61 bits, where the recursion starts, and about the least
# width of its second and third levels (112 and 214 bits)
_CBRT_WIDTHS = [
    next(w for w in range(1, 1000) if _cbrt_levels(w) == level) + d
    for level in (1, 2, 3) for d in (-2, -1, 0, 1, 2)
]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 2**32))
@_at_widths(_CBRT_WIDTHS)
def test_cbrtrem_brackets(bits, seed):
    # a random n of this width; for its root c, c^3 - 1, c^3 and c^3 + 3c^2 +
    # 3c, the last with the largest remainder a root c can have; and, above
    # 60 bits, n with its top bits n >> 3b replaced by the largest int with
    # their root, whose remainder is maximal, so that the quotient is at its
    # largest and the root one too large, which the correction mends
    n = random.Random(seed).getrandbits(bits) | 1 << bits - 1
    c = cbrtrem(n)[0]
    ms = [n, c**3 - 1, c**3, c**3 + 3 * c * c + 3 * c]
    if bits > 60:
        b = bits // 6 - 1
        y = cbrtrem(n >> 3 * b)[0]
        ms.append(((y + 1) ** 3 - 1) << 3 * b | n & (1 << 3 * b) - 1)
    for m in ms:
        x, r = cbrtrem(m)
        assert x**3 <= m < (x + 1) ** 3 and r == m - x**3, m.bit_length()


# -- division ------------------------------------------------------------------

def _shapes(bits: int, rng: random.Random) -> list[int]:
    """Divisors of about this many bits, in the shapes that stress the 3n/2n step."""
    half = bits // 2
    return [
        1 << bits,
        (1 << bits) - 1,
        (((1 << bits - half) - 1) << half) | rng.getrandbits(half),  # top limb all ones
        (1 << bits - 1) | ((1 << half) - 1),  # least top limb, low limb all ones
        (1 << bits - 1) | rng.getrandbits(bits - 1),
    ]


@pytest.mark.parametrize("limit", [8, 61, _DIV_LIMIT])
def test_divmod_bz_matches_divmod_in_every_shape(monkeypatch, limit):
    # with a small recursion limit the recursion runs many levels deep on
    # small ints; with the real one it runs on both sides of that limit
    monkeypatch.setattr(_bigint, "_DIV_LIMIT", limit)
    rng = random.Random(limit)
    sizes = [limit - 1, limit, limit + 1, 2 * limit + 1, 5 * limit]
    if limit < _DIV_LIMIT:
        sizes += rng.sample(range(2, 400), 12)
    for bits in sizes:
        for b in _shapes(bits, rng):
            for qbits in (0, limit, limit + 1, 2 * bits, rng.randrange(1, 4 * bits)):
                q = rng.getrandbits(qbits) | 1 << qbits
                for a in (b * q, b * q + rng.randrange(b), b * q + b - 1):  # multiples, and past
                    assert _divmod_bz(a, b) == builtins.divmod(a, b)
            for a in (0, rng.randrange(b), -(b * q) - 1):  # a < b, and a negative a
                if a >= 0:  # _divmod_bz takes a >= 0 < b alone
                    assert _divmod_bz(a, b) == builtins.divmod(a, b)
                # divmod sends the other signs to the builtin
                assert _bigint.divmod(a, b) == builtins.divmod(a, b)
                assert _bigint.divmod(a, -b) == builtins.divmod(a, -b)


@pytest.mark.parametrize("limit", [8, 64])
def test_divmod_bz_corrects_twice(monkeypatch, limit):
    # a top limb of b at its least and a low limb all ones make the 3n/2n
    # step's first quotient 2 too large now and then; a step that corrected
    # at most once would be off by one on those
    monkeypatch.setattr(_bigint, "_DIV_LIMIT", limit)
    rng = random.Random(limit + 1)
    for _ in range(300):
        bits = rng.randrange(4 * limit, 12 * limit)
        b = (1 << bits - 1) | ((1 << bits // 2) - 1)
        a = b * rng.getrandbits(rng.randrange(bits, 3 * bits)) + rng.randrange(b)
        assert _divmod_bz(a, b) == builtins.divmod(a, b)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3 * _DIV_BITS),
    st.integers(0, 3 * _DIV_BITS),
    st.integers(0, 2**32),
)
@example(_DIV_BITS, _DIV_BITS, 0)
@example(_DIV_BITS + 1, _DIV_BITS + 1, 0)
@example(_DIV_BITS + 1, _DIV_BITS, 0)
@example(_DIV_BITS, _DIV_BITS + 1, 0)
def test_divmod_matches_builtin_across_the_threshold(bbits, qbits, seed):
    rng = random.Random(seed)
    b = rng.getrandbits(bbits) | 1 << bbits - 1
    a = (b << qbits) + rng.getrandbits(bbits + qbits)  # quotient of qbits + 1 bits
    for x, y in ((a, b), (-a, b), (a, -b), (-a, -b)):
        assert _bigint.divmod(x, y) == builtins.divmod(x, y)
    assert _divmod_bz(a, b) == builtins.divmod(a, b)


def test_divmod_dispatch(monkeypatch):
    if sys.version_info >= (3, 12):
        assert _bigint.divmod is builtins.divmod
        return
    taken = []
    monkeypatch.setattr(_bigint, "_divmod_bz", lambda a, b: taken.append(b) or divmod(a, b))
    wide = (1 << _DIV_BITS) + 1  # _DIV_BITS + 1 bits
    narrow = (1 << _DIV_BITS - 1) + 1  # _DIV_BITS bits
    # the quotient's bits are counted as a's less b's, and a wide pair of
    # any other signs than a >= 0 < b goes to the builtin
    for a, b, bz in (
        (1 << 2 * _DIV_BITS, wide, False),
        (1 << 2 * _DIV_BITS + 1, wide, True),
        (1 << 10 * _DIV_BITS, narrow, False),
        (-(1 << 2 * _DIV_BITS + 1), wide, False),
        (1 << 2 * _DIV_BITS + 1, -wide, False),
        (-(1 << 2 * _DIV_BITS + 1), -wide, False),
    ):
        taken.clear()
        assert _bigint.divmod(a, b) == divmod(a, b)
        assert taken == ([b] if bz else [])


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="divmod is the builtin from 3.12 on")
def test_every_caller_divides_wide_ints_with_a_non_negative_and_b_positive(monkeypatch):
    # cbrtrem's quotient by 3y^2, nth's rank in its block, to_decimal's leaf
    # splits by 10^k, a negative n's too, and sqrtrem's quotient by 2s each
    # reach _divmod_bz
    signs = []
    monkeypatch.setattr(
        _bigint, "_divmod_bz", lambda a, b: signs.append(a >= 0 < b) or divmod(a, b)
    )
    n = random.Random(3).getrandbits(40_000) | 1 << 40_000
    for f, x in ((cbrtrem, n), (nth, n), (to_decimal, n), (to_decimal, -n), (sqrtrem, n)):
        signs.clear()
        f(x)
        assert signs and all(signs), f.__name__
