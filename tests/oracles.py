"""Reference computations that only tests use.

Each one decides a question the library answers another way (or no
longer asks), so tests can hold the library's answer against it.
"""

import math
from typing import Sequence

from ssgpkit.arith import PrimeSet, QVec, cap_multiplier, valuation, vec_support
from ssgpkit.groups import Instance
from ssgpkit.symsets import snf_solve


def cyclic_cap_qpi(g: QVec, pi: PrimeSet) -> QVec:
    """Generator of <g> cap Q_pi^m, namely D*g with D the product of
    outside-pi prime powers clearing the denominators (at pi = {}, all of
    them: Q_{} = Z)."""
    D = cap_multiplier(g, pi)
    return tuple(D * c for c in g)


def count_upto_height(inst: Instance, bound: int) -> int:
    """N(bound): how many enumeration indices cover all heights <= bound
    (the enumeration runs in order of height)."""
    n = 0
    while inst.height(inst.enumerate_k(n)) <= bound:
        n += 1
    return n


def member_mod_qpi(x: QVec, gens: Sequence[QVec], pi: PrimeSet) -> bool:
    """Exact decision of x in Z*gens[0] + ... + Z*gens[r-1] + Q_pi^m.

    Only valuations at primes outside pi constrain anything.  Clearing all
    outside-pi denominator content by one multiplier M turns the condition
    into a linear congruence system modulo M; inside-pi denominators are
    units modulo M and are cleared per row.  At pi = {} this decides
    x in span + Z^m, since Q_{} = Z.
    """
    m = len(x)
    if any(len(g) != m for g in gens):
        raise ValueError("generator length mismatch")
    pi = frozenset(pi)
    outside = vec_support(x) - pi
    for g in gens:
        outside |= vec_support(g) - pi
    if not outside:
        return True  # x and all generators already in Q_pi^m: take n = 0
    M = 1
    for p in sorted(outside):
        worst = 0
        for vec in (x, *gens):
            for c in vec:
                v = valuation(p, c)
                if v != math.inf and -v > worst:
                    worst = -v
        M *= p**worst
    rows = []
    rhs = []
    for i in range(m):
        # M*x_i and M*g_{j,i} have no outside-pi denominators left; the
        # remaining inside-pi denominator lcm is a unit mod M, so clearing
        # it per row preserves the congruence system modulo M.
        vals = [M * g[i] for g in gens]
        tgt = M * x[i]
        denlcm = tgt.denominator
        for val in vals:
            denlcm = denlcm * val.denominator // math.gcd(denlcm, val.denominator)
        if math.gcd(denlcm, M) != 1:
            raise AssertionError("inside-pi denominator shares a factor with M")
        row = [int(val * denlcm) % M for val in vals] + [0] * m
        row[len(gens) + i] = M
        rows.append(row)
        rhs.append(int(tgt * denlcm) % M)
    return snf_solve(rows, rhs) is not None
