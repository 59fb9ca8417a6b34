"""Exact integer arithmetic: nth roots, fractional-power bounds, primes.

Every quantity of the form ``scale * n**(a/b)`` that bounds a coordinate box
is floored or ceiled here with pure integer arithmetic, so coordinate ranges
never depend on floating point.  Primality is decided deterministically.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "int_nth_root",
    "floor_pow",
    "ceil_pow",
    "is_prime",
    "next_prime",
    "prime_in_window",
]

# First twelve primes: deterministic Miller-Rabin witnesses below psi_12 =
# 318665857834031151167461 = 399165290221 * 798330580441, the least composite
# that is a strong probable prime to all of them (Sorenson & Webster 2015).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def int_nth_root(x: int, r: int) -> int:
    """Return the unique t >= 0 with t**r <= x < (t + 1)**r.

    Args:
        x: nonnegative integer, arbitrary size.
        r: root degree, at least 1.
    """
    if r < 1:
        raise ValueError(f"root degree must be >= 1, got {r}")
    if x < 0:
        raise ValueError(f"radicand must be >= 0, got {x}")
    if x == 0:
        return 0
    if r == 1:
        return x
    # Newton iteration on integers, starting above the root.
    t = 1 << ((x.bit_length() + r - 1) // r)
    while True:
        s = ((r - 1) * t + x // t ** (r - 1)) // r
        if s >= t:
            break
        t = s
    # Newton converges to the floor, but guard both directions exactly.
    while t**r > x:
        t -= 1
    while (t + 1) ** r <= x:
        t += 1
    return t


def floor_pow(n: int, exponent: Fraction, scale: int = 1) -> int:
    """Exact ``floor(scale * n**exponent)`` for a nonnegative rational exponent.

    Computed as ``int_nth_root(scale**b * n**a, b)`` where exponent = a/b in
    lowest terms; no approximate arithmetic is involved at any size.
    """
    a, b = _exponent_parts(n, exponent, scale)
    return int_nth_root(scale**b * n**a, b)


def ceil_pow(n: int, exponent: Fraction, scale: int = 1) -> int:
    """Exact ``ceil(scale * n**exponent)``, the counterpart of :func:`floor_pow`."""
    a, b = _exponent_parts(n, exponent, scale)
    radicand = scale**b * n**a
    t = int_nth_root(radicand, b)
    return t if t**b == radicand else t + 1


def _exponent_parts(n: int, exponent: Fraction, scale: int) -> tuple[int, int]:
    if n < 1:
        raise ValueError(f"base must be >= 1, got {n}")
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    a, b = exponent.numerator, exponent.denominator
    if a < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    return a, b


def is_prime(m: int) -> bool:
    """Deterministic primality test.

    Miller-Rabin with a fixed witness set, exact below _MR_LIMIT (about
    3.2e23).  Raises ValueError at or above it, where no answer is exact.
    """
    if m >= _MR_LIMIT:
        raise ValueError(f"{m} is at or above the exact primality limit {_MR_LIMIT}")
    if m < 2:
        return False
    for p in _MR_WITNESSES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def next_prime(x: int) -> int:
    """Smallest prime strictly greater than x (x >= 1).

    Raises ValueError, through is_prime, when the scan reaches _MR_LIMIT,
    where is_prime has no exact answer.
    """
    if x < 1:
        raise ValueError(f"expected x >= 1, got {x}")
    c = x + 1
    if c <= 2:
        return 2
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c


def prime_in_window(lo: int, hi: int) -> int | None:
    """Smallest prime p with lo < p < hi, or None when the open window is empty.

    Windows of the shape (x, 2x) with x >= 1 always contain a prime by
    Bertrand's postulate; None can only happen for narrower artificial windows.
    """
    if lo >= hi:
        raise ValueError(f"window bounds must satisfy lo < hi, got ({lo}, {hi})")
    if lo < 1:
        lo = 1
    p = next_prime(lo)
    return p if p < hi else None
