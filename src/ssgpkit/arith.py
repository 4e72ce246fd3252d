"""Exact rational arithmetic: primes, p-adic valuations, and the localized
subgroups Q_pi of rationals whose reduced denominators factor over a fixed
finite prime set pi.  Z lies in every Q_pi, and Q_{} = Z.

Rationals are ``fractions.Fraction`` throughout (always reduced, positive
denominator), vectors are tuples of them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

QVec = tuple[Fraction, ...]
PrimeSet = frozenset[int]

EMPTY_PRIMES: PrimeSet = frozenset()


def is_prime(n: int) -> bool:
    """Trial division; every prime this package touches is small."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_upto(n: int) -> list[int]:
    """All primes p <= n, ascending."""
    return [p for p in range(2, n + 1) if is_prime(p)]


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    p = n + 1
    while not is_prime(p):
        p += 1
    return p


def prime_set(primes: Iterable[int]) -> PrimeSet:
    """Validate and freeze a finite set of primes."""
    ps = frozenset(int(p) for p in primes)
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"not a prime: {p}")
    return ps


def prime_factors(n: int) -> PrimeSet:
    """Prime divisors of a nonzero integer."""
    n = abs(int(n))
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.add(n)
    return frozenset(out)


def valuation(p: int, q: Union[Fraction, int]) -> Union[int, float]:
    """p-adic valuation of a rational; ``math.inf`` for 0."""
    if not is_prime(p):
        raise ValueError(f"valuation requires a prime, got {p}")
    q = Fraction(q)
    if q == 0:
        return math.inf
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def denom_support(q: Union[Fraction, int]) -> PrimeSet:
    """Primes dividing the reduced denominator."""
    den = Fraction(q).denominator
    return prime_factors(den) if den > 1 else EMPTY_PRIMES


def vec_support(x: Iterable[Union[Fraction, int]]) -> PrimeSet:
    """Union of the coordinates' denominator supports."""
    out: set[int] = set()
    for q in x:
        out |= denom_support(q)
    return frozenset(out)


def _coords(x) -> tuple[Fraction, ...]:
    if isinstance(x, (Fraction, int)):
        return (Fraction(x),)
    return tuple(Fraction(q) for q in x)


def qpi_member(x, pi: Iterable[int]) -> bool:
    """Whether x lies in Q_pi (coordinatewise): every reduced denominator
    has all its prime divisors in pi.  At pi = {} this is x in Z^m."""
    ps = frozenset(pi)
    return all(denom_support(q) <= ps for q in _coords(x))


def cap_multiplier(g, pi: Iterable[int]) -> int:
    """Least D >= 1 with <g> intersect Q_pi^m = Z*(D*g).

    D is the product over primes p outside pi of p**max_i(-v_p(g_i)), so
    n*g lands in Q_pi^m exactly when D | n.  At pi = {} it is the lcm of
    the denominators of g.
    """
    coords = _coords(g)
    ps = frozenset(pi)
    D = 1
    for p in sorted(vec_support(coords) - ps):
        e = max(max(0, -valuation(p, q)) for q in coords)
        D *= p**e
    return D
