"""Property-based tests pitting the closed forms against slow definitions."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from almost_squares.core import (
    AlmostSquareRecord,
    FlockId,
    RatioValue,
    _flock_extent,
    _icbrt,
    _locate,
    count_at_square,
    count_le,
    count_triangular_le,
    enumerate_range,
    flock_members,
    floor_almost_square,
    is_almost_square,
    isqrt,
    nth,
    seq_a,
    seq_b,
    tri_decompose,
    triangular,
)
from almost_squares.oracle import brute_is_member, brute_semiperimeter


@given(st.integers(min_value=0, max_value=10**80))
def test_isqrt_brackets(n):
    r = isqrt(n)
    assert r * r <= n < (r + 1) * (r + 1)


@given(st.integers(min_value=0, max_value=10**60))
def test_icbrt_brackets(n):
    r = _icbrt(n)
    assert r**3 <= n < (r + 1) ** 3


@given(st.integers(min_value=0, max_value=10**600))
def test_icbrt_brackets_past_recursion_threshold(n):
    r = _icbrt(n)
    assert r**3 <= n < (r + 1) ** 3


@given(
    st.integers(min_value=2, max_value=10**200),
    st.integers(min_value=-3, max_value=3),
)
def test_icbrt_near_cubes(k, d):
    assert _icbrt(k**3 + d) == (k if d >= 0 else k - 1)


@given(st.integers(min_value=0, max_value=100_000))
def test_triangular_count_closed_form(x):
    i = 1
    count = 0
    while triangular(i) <= x:
        count += 1
        i += 1
    assert count_triangular_le(x) == count


@given(st.integers(min_value=2, max_value=10**9))
def test_flock_extent_identities(m):
    a, b = seq_a(m), seq_b(m)
    assert a <= b <= a + 1
    assert b * b * (2 * m - 1) <= m * m < (b + 1) * (b + 1) * (2 * m - 1)
    assert a + b == isqrt(2 * m) - 1


@given(
    st.integers(min_value=1, max_value=10**600),
    st.integers(min_value=-2, max_value=2),
)
def test_flock_extent_matches_side_formulas(x, d):
    # the per-side formulas it replaced, at x and next to the squares r^2
    # and (r+1)^2, one even and one odd, where the extents step
    r = isqrt(x)
    for k in (x, r * r + d, (r + 1) ** 2 + d):
        if k >= 1:
            m = (k + 1) // 2
            side = (isqrt(2 * m - 1) - 1) // 2 if k % 2 else isqrt(m // 2)
            assert _flock_extent(k) == side


def _check_locate(n):
    def member(offset):
        return k * k // 4 - offset * (offset + k % 2)

    k, offset, exact = _locate(n)
    lo, hi = FlockId(k).value_interval()
    assert lo < n <= hi
    assert offset >= 0 and member(offset) <= n
    assert offset == 0 or member(offset - 1) > n
    assert exact == (member(offset) == n)


@given(st.integers(min_value=1, max_value=10**300))
def test_locate_contract(n):
    _check_locate(n)


@given(
    st.integers(min_value=1, max_value=10**150),
    st.integers(min_value=-2, max_value=2),
)
def test_locate_contract_at_flock_ends(m, d):
    for n in (m * m + d, m * (m - 1) + d):
        if n >= 1:
            _check_locate(n)


@given(
    st.tuples(
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=1, max_value=10**12),
    ),
    st.tuples(
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=1, max_value=10**12),
    ),
)
def test_ratio_value_agrees_with_fraction(p, q):
    lhs, rhs = RatioValue(*p), RatioValue(*q)
    lf, rf = Fraction(*p), Fraction(*q)
    assert (lhs == rhs) == (lf == rf)
    assert (lhs < rhs) == (lf < rf)
    assert (lhs <= rhs) == (lf <= rf)


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=5000))
def test_membership_matches_oracle(record_set_small, n):
    assert (is_almost_square(n) is not None) == brute_is_member(n, record_set_small)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=5000))
def test_count_matches_oracle(record_set_small, n):
    expected = sum(1 for v in record_set_small.members if v <= n)
    assert count_le(n) == expected


@given(st.integers(min_value=1, max_value=10**6))
def test_rank_round_trip(j):
    rec = nth(j)
    assert count_le(rec.value) == j
    assert is_almost_square(rec.value) == rec.rect


@given(st.integers(min_value=1, max_value=10**300))
def test_rank_round_trip_full_size(j):
    # count_le takes no cube root, so it checks nth independently
    rec = nth(j)
    assert count_le(rec.value) == j
    assert is_almost_square(rec.value) == rec.rect


@given(st.integers(min_value=1, max_value=5 * 10**299))
def test_count_le_at_odd_square_flock_ends(t):
    # flock k = s^2 with s odd is the one where count_le's shared root
    # isqrt(k) = s is one above count_at_square(k // 2)'s own isqrt(k - 1),
    # so the two counts agree here only through the closed form itself
    s = 2 * t + 1
    k = s * s
    m = (k + 1) // 2  # k = 2m - 1, so sqrt(2m - 1) = s exactly
    first, last = (m - 1) ** 2 + 1, m * (m - 1)  # the ends of flock k
    # the members m(m-1) - a(a+1) for a = 0 .. (sqrt(2m-1) - 1)/2, counted
    # from the paper's formula, all lie above first
    size = (s - 1) // 2 + 1
    assert m * (m - 1) - (size - 1) * size > first
    through_previous_flock = count_at_square(k // 2)
    assert count_le(first) == through_previous_flock
    assert count_le(last) == through_previous_flock + size


@given(st.integers(min_value=1, max_value=10**300))
def test_record_equal_across_views_full_size(j):
    # flocks this far out are too long to list, so the flock-side view is
    # the record rebuilt from the membership rectangle
    rec = nth(j)
    v = rec.value
    views = [
        floor_almost_square(v),
        enumerate_range(v, v)[0],
        AlmostSquareRecord(is_almost_square(v)),
    ]
    for other in views:
        assert other == rec and hash(other) == hash(rec)


@given(st.integers(min_value=1, max_value=10**9))
def test_floor_is_tight(n):
    rec = floor_almost_square(n)
    assert rec.value <= n
    assert count_le(n) == count_le(rec.value)
    assert is_almost_square(rec.value) == rec.rect


@given(st.integers(min_value=1, max_value=10**200))
def test_floor_is_member_of_rank_count(n):
    # the definition floor_almost_square was computed by before it became
    # a view on the located offset
    assert floor_almost_square(n) == nth(count_le(n))


@settings(max_examples=150)
@given(
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=0, max_value=20_000),
)
def test_enumerate_range_matches_filtered_flocks(lo, width):
    # the whole-flock filter enumerate_range used before it walked from
    # the located offset
    hi = lo + width
    expected = [
        rec
        # m runs over the ceiling square roots from lo's to hi's
        for m in range(isqrt(lo - 1) + 1, isqrt(hi - 1) + 2)
        for k in (2 * m - 1, 2 * m)
        for rec in flock_members(k)
        if lo <= rec.value <= hi
    ]
    assert enumerate_range(lo, hi) == expected


@given(st.integers(min_value=1, max_value=10**6))
def test_tri_decompose_round_trip(j):
    value = nth(j).value
    k, h = tri_decompose(value)
    assert value == k * (k + h)
    assert 0 <= h <= count_triangular_le(k)


@settings(max_examples=100)
@given(st.integers(min_value=4, max_value=400))
def test_flock_members_agree_with_brute_semiperimeter(k):
    members = flock_members(k)
    expected = 1 + (seq_a((k + 1) // 2) if k % 2 else seq_b(k // 2))
    assert len(members) == expected
    for rec in members:
        assert brute_semiperimeter(rec.value) == k


@given(st.integers(min_value=1, max_value=10**18))
def test_membership_certificate(n):
    rect = is_almost_square(n)
    if rect is not None:
        assert rect.area == n
        assert rect.width <= rect.length
        # certificate optimality spot check: the square-nearest divisor
        # can be no closer than the one reported
        assert rect.width <= isqrt(n) <= rect.length
