import sys

import pytest

from almost_squares.oracle import brute_record_set
from brute import brute_divisor_pair

ORACLE_LIMIT = 200_000


@pytest.fixture(scope="session")
def record_set_small():
    return brute_record_set(5_000)


@pytest.fixture(scope="session")
def record_set_full():
    """The record set up to the oracle cap, from the divisor-sieve scan."""
    return brute_record_set(ORACLE_LIMIT)


@pytest.fixture(scope="session")
def small_divisor_table():
    """d(n) for every n up to the oracle cap, by descending trial division.

    Independent of the sieve behind record_set_full, which is pinned
    against it.
    """
    smalls = [0] * (ORACLE_LIMIT + 1)
    for n in range(1, ORACLE_LIMIT + 1):
        smalls[n] = brute_divisor_pair(n).small
    return smalls


@pytest.fixture(scope="module")
def no_int_digit_limit():
    """Lift the int/str digit limit, as cli.main does, for ints past 4300 digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)
