"""Arithmetic layer: frozen examples plus property tests.

Brute-force oracles are written inline and kept independent of the
implementations they check.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ssgpkit.arith import (
    cap_multiplier,
    denom_support,
    is_integral,
    is_prime,
    next_prime,
    prime_factors,
    prime_set,
    primes_upto,
    qpi_member,
    qpi_or_integral,
    valuation,
    vec_support,
)


def sieve(n):
    """Independent primality oracle."""
    flags = [True] * (n + 1)
    flags[0:2] = [False, False]
    for i in range(2, n + 1):
        if flags[i]:
            for j in range(i * i, n + 1, i):
                flags[j] = False
    return [i for i in range(n + 1) if flags[i]]


def test_is_prime_matches_sieve():
    s = set(sieve(2000))
    for n in range(-5, 2001):
        assert is_prime(n) == (n in s)


def test_primes_upto():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1) == []


def test_next_prime():
    assert next_prime(0) == 2
    assert next_prime(2) == 3
    assert next_prime(13) == 17
    assert next_prime(89) == 97


def test_prime_set_validates():
    assert prime_set([3, 5]) == frozenset({3, 5})
    assert prime_set([]) == frozenset()
    with pytest.raises(ValueError):
        prime_set([4])
    with pytest.raises(ValueError):
        prime_set([1])


def test_prime_factors():
    assert prime_factors(12) == frozenset({2, 3})
    assert prime_factors(-35) == frozenset({5, 7})
    assert prime_factors(1) == frozenset()
    with pytest.raises(ValueError):
        prime_factors(0)


def test_valuation_examples():
    assert valuation(5, F(2, 5)) == -1
    assert valuation(2, F(12)) == 2
    assert valuation(3, F(12)) == 1
    assert valuation(7, F(12)) == 0
    assert valuation(2, 0) == math.inf
    with pytest.raises(ValueError):
        valuation(4, F(1, 2))


@given(
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=1, max_value=500),
    st.sampled_from([2, 3, 5, 7]),
)
def test_valuation_against_brute_force(num, den, p):
    q = F(num, den)
    got = valuation(p, q)
    if q == 0:
        assert got == math.inf
        return
    # Oracle: largest e with q / p**e still having no p left, counted directly.
    e = 0
    n, d = q.numerator, q.denominator
    while n % p == 0:
        n //= p
        e += 1
    while d % p == 0:
        d //= p
        e -= 1
    assert got == e


@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=60),
    st.fractions(min_value=-100, max_value=100, max_denominator=60),
    st.sampled_from([2, 3, 5]),
)
def test_valuation_additivity(a, b, p):
    if a == 0 or b == 0:
        return
    assert valuation(p, a * b) == valuation(p, a) + valuation(p, b)


def test_denom_support():
    assert denom_support(F(3, 4)) == frozenset({2})
    assert denom_support(F(1, 6)) == frozenset({2, 3})
    assert denom_support(F(5)) == frozenset()
    assert denom_support(0) == frozenset()
    assert vec_support((F(1, 2), F(1, 3), F(4))) == frozenset({2, 3})


def test_qpi_member_examples():
    assert qpi_member(F(3, 4), {2})
    assert not qpi_member(F(1, 6), {2})
    assert qpi_member(F(1, 6), {2, 3})
    assert qpi_member(F(7), {5})
    # Empty prime set: only 0.
    assert qpi_member(F(0), set())
    assert qpi_member((F(0), F(0)), set())
    assert not qpi_member(F(1), set())
    assert not qpi_member((F(0), F(2)), set())


def test_qpi_or_integral_differs_only_at_empty():
    assert qpi_or_integral(F(1), set())
    assert qpi_or_integral((F(2), F(-3)), set())
    assert not qpi_or_integral(F(1, 2), set())
    assert qpi_or_integral(F(1, 2), {2})
    assert not qpi_or_integral(F(1, 2), {3})


def test_is_integral():
    assert is_integral((F(1), F(-4)))
    assert not is_integral((F(1), F(1, 2)))


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.sets(st.sampled_from([2, 3, 5]), max_size=3),
)
def test_qpi_subgroup_closure(a, b, pi):
    if qpi_member(a, pi) and qpi_member(b, pi):
        assert qpi_member(a + b, pi)
        assert qpi_member(-a, pi)


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.sets(st.sampled_from([2, 3, 5]), min_size=1, max_size=2),
    st.sampled_from([7, 11]),
)
def test_qpi_monotone_in_pi(a, pi, extra):
    if qpi_member(a, pi):
        assert qpi_member(a, pi | {extra})


def brute_cap(g, pi):
    """Oracle: least D >= 1 with D*g in Q_pi^m, by scanning; 0 if none.

    The n with n*g in Q_pi^m form a subgroup D*Z of Z, and L*g is integral
    for L the lcm of g's denominators, so the least D divides L: scanning
    the divisors of L in increasing order is exact."""
    L = 1
    for q in g:
        L = L * q.denominator // math.gcd(L, q.denominator)
    for D in range(1, L + 1):
        if L % D == 0 and qpi_member(tuple(D * q for q in g), pi):
            return D
    return 0


def test_cap_multiplier_examples():
    assert cap_multiplier((F(1, 3),), {3}) == 1
    assert cap_multiplier((F(1, 3),), {2}) == 3
    assert cap_multiplier((F(1, 6), F(1, 4)), {3}) == 4
    assert cap_multiplier((F(5),), set()) == 0
    assert cap_multiplier((F(0), F(0)), set()) == 1


@given(
    st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=36),
        min_size=1,
        max_size=3,
    ),
    st.sets(st.sampled_from([2, 3, 5]), max_size=2),
)
# The 3D+1 sweep below dominates: the largest D the strategy can reach,
# 36890 for (1/31, 1/34, 1/35) with pi = {3}, takes about 2 s for the whole
# body on a 2-core x86 host, far past Hypothesis's default 200 ms.
@settings(deadline=10_000)
def test_cap_multiplier_against_brute_force(coords, pi):
    g = tuple(coords)
    D = cap_multiplier(g, pi)
    if not pi and any(q != 0 for q in g):
        assert D == 0
        return
    assert D == brute_cap(g, pi)
    # Divisibility characterization: n*g in Q_pi^m iff D | n.
    for n in range(1, 3 * D + 2):
        assert qpi_member(tuple(n * q for q in g), pi) == (n % D == 0)
