"""The divide-and-conquer decimal conversions against int() and str()."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

# by name: the helper _digits below would shadow the module
from almost_squares._digits import (
    _BIG_DIGITS,
    _LEAF_DIGITS,
    int_from_digits,
    record_cells,
    to_decimal,
)

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
