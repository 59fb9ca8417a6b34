from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from girthforge.exactmath import (
    _MR_LIMIT,
    ceil_pow,
    floor_pow,
    int_nth_root,
    is_prime,
    next_prime,
    prime_in_window,
)


class TestIntNthRoot:
    def test_exact_cube(self):
        assert int_nth_root(64, 3) == 4

    def test_zero(self):
        assert int_nth_root(0, 5) == 0

    def test_one_below_power(self):
        # 1**6 = 1 <= 63 < 64 = 2**6
        assert int_nth_root(63, 6) == 1

    def test_first_root_is_identity(self):
        assert int_nth_root(123456789, 1) == 123456789

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            int_nth_root(10, 0)
        with pytest.raises(ValueError):
            int_nth_root(-1, 2)

    @given(st.integers(min_value=0, max_value=10**60), st.integers(min_value=1, max_value=12))
    def test_bracketing_property(self, x, r):
        t = int_nth_root(x, r)
        assert t >= 0
        assert t**r <= x < (t + 1) ** r

    @given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=8))
    def test_perfect_powers_are_exact(self, t, r):
        assert int_nth_root(t**r, r) == t


class TestFloorCeilPow:
    def test_exact_sixth_root(self):
        assert floor_pow(64, Fraction(1, 6)) == 2

    def test_scale_multiplies(self):
        assert floor_pow(64, Fraction(1, 6), 2) == 4

    def test_unreduced_exponent(self):
        # 3 * 64**(1/3) = 12, via the 6th root of 3**6 * 64**2
        assert floor_pow(64, Fraction(2, 6), 3) == 12

    def test_ceil_on_exact_value_equals_floor(self):
        assert ceil_pow(64, Fraction(1, 6), 2) == floor_pow(64, Fraction(1, 6), 2) == 4

    def test_ceil_on_inexact_value(self):
        # 63**(1/6) is irrational, just under 2
        assert floor_pow(63, Fraction(1, 6)) == 1
        assert ceil_pow(63, Fraction(1, 6)) == 2

    def test_integer_exponent_zero(self):
        assert floor_pow(7, Fraction(0), 5) == 5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            floor_pow(0, Fraction(1, 2))
        with pytest.raises(ValueError):
            floor_pow(4, Fraction(-1, 2))
        with pytest.raises(ValueError):
            floor_pow(4, Fraction(1, 2), 0)

    @given(
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=1, max_value=5000),
        st.fractions(min_value=0, max_value=4, max_denominator=20),
        st.integers(min_value=1, max_value=50),
    )
    def test_monotone_in_n(self, n1, n2, e, scale):
        if n1 > n2:
            n1, n2 = n2, n1
        assert floor_pow(n1, e, scale) <= floor_pow(n2, e, scale)

    @given(
        st.integers(min_value=1, max_value=5000),
        st.fractions(min_value=0, max_value=4, max_denominator=20),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
    )
    def test_monotone_in_scale(self, n, e, s1, s2):
        if s1 > s2:
            s1, s2 = s2, s1
        assert floor_pow(n, e, s1) <= floor_pow(n, e, s2)

    @given(st.integers(min_value=1, max_value=10**9), st.fractions(min_value=0, max_value=3, max_denominator=12))
    def test_floor_le_ceil(self, n, e):
        lo, hi = floor_pow(n, e), ceil_pow(n, e)
        assert lo <= hi <= lo + 1


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


class TestPrimes:
    def test_is_prime_against_sieve(self):
        primes = set(_sieve(10_000))
        for m in range(10_000):
            assert is_prime(m) == (m in primes), m

    def test_is_prime_large(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**32 + 1)

    def test_witnesses_decide_beyond_2_64(self):
        # Both lie above 2**64, where trial division needs 5e8 steps or more.
        start = perf_counter()
        assert is_prime(2**64 + 13)
        assert not is_prime(1000000007 * 1000000000039)
        assert perf_counter() - start < 1.0

    def test_witness_limit_is_the_least_strong_pseudoprime(self):
        # psi_12: composite, yet a strong probable prime to every base 2..37.
        assert _MR_LIMIT == 399165290221 * 798330580441 == 318665857834031151167461

    def test_is_prime_refuses_the_witness_limit(self):
        # _MR_LIMIT - 2 = 137 * 1619 * 111519523 * 12883006211; _MR_LIMIT - 20 is prime
        assert is_prime(_MR_LIMIT - 2) is False
        assert is_prime(_MR_LIMIT - 20) is True
        with pytest.raises(ValueError, match="limit"):
            is_prime(_MR_LIMIT)
        with pytest.raises(ValueError, match="limit"):
            is_prime(10**60)

    def test_next_prime_examples(self):
        assert next_prime(32) == 37
        assert next_prime(2) == 3
        assert next_prime(1) == 2

    def test_next_prime_above_2_18(self):
        # frozen from a deterministic scan: 262145, 262146 composite
        assert next_prime(262144) == 262147

    def test_next_prime_scan_property(self):
        primes = _sieve(2000)
        for x in range(1, 1000):
            p = next_prime(x)
            assert p > x
            assert p in primes
            assert all(q <= x for q in primes if q < p)

    def test_next_prime_rejects_zero(self):
        with pytest.raises(ValueError):
            next_prime(0)

    def test_next_prime_stops_at_the_witness_limit(self):
        assert next_prime(2**64) == 2**64 + 13
        with pytest.raises(ValueError, match="limit"):
            next_prime(_MR_LIMIT - 2)
        with pytest.raises(ValueError, match="limit"):
            next_prime(10**60)

    def test_window_examples(self):
        assert prime_in_window(4, 8) == 5
        assert prime_in_window(24, 25) is None
        assert prime_in_window(262144, 524288) == next_prime(262144)

    def test_window_is_exclusive(self):
        assert prime_in_window(6, 8) == 7
        assert prime_in_window(7, 11) is None
        with pytest.raises(ValueError):
            prime_in_window(8, 8)

    def test_bertrand_windows_are_never_empty(self):
        for x in range(1, 500):
            assert prime_in_window(x, 2 * x + 1) is not None
