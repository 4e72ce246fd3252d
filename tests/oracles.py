"""Reference computations that only tests use.

Each one decides a question the library answers another way (or no
longer asks), so tests can hold the library's answer against it.
"""

import math
from typing import Iterator, Optional, Sequence

from ssgpkit.arith import PrimeSet, QVec, cap_multiplier, qpi_member, valuation, vec_support
from ssgpkit.groups import Instance, KElem
from ssgpkit.symsets import Atom, SumPart, SymSet, atom_add, expansion, snf_solve


def atom_contains_snf(inst: Instance, x: KElem, a: Atom) -> bool:
    """Exact x in a as integer feasibility of one linear system,
    x - base = sum n_j*g_j + mod*z (+ torsion slack), solved by snf_solve:
    a reference that shares nothing with the library's residue lookup."""
    r = len(a.gens)
    m = inst.m
    tors = inst.h.torsion_orders
    ncols = r + m + len(tors)
    rows: list[list[int]] = []
    rhs: list[int] = []

    # q-part: rational rows scaled to integers
    for i in range(m):
        coeffs = [g.q[i] for g in a.gens]
        target = x.q[i] - a.base.q[i]
        denlcm = 1
        for val in coeffs + [target]:
            denlcm = denlcm * val.denominator // math.gcd(denlcm, val.denominator)
        row = [0] * ncols
        for j, val in enumerate(coeffs):
            row[j] = int(val * denlcm)
        row[r + i] = a.mod * denlcm
        rows.append(row)
        rhs.append(int(target * denlcm))

    # free part: lattice contributes nothing
    for f in range(inst.h.free_rank):
        rows.append([g.free[f] for g in a.gens] + [0] * (m + len(tors)))
        rhs.append(x.free[f] - a.base.free[f])

    # torsion part: congruence via slack variable
    for t, d in enumerate(tors):
        row = [g.tor[t] for g in a.gens] + [0] * (m + len(tors))
        row[r + m + t] = d
        rows.append(row)
        rhs.append(x.tor[t] - a.base.tor[t])

    if not rows:
        return True
    return snf_solve(rows, rhs) is not None


def atom_subsumes(a: Atom, b: Atom) -> bool:
    """Syntactic a >= b: same base and generators, lattice at least as coarse."""
    return (
        a.key()[0] == b.key()[0]
        and a.key()[1] == b.key()[1]
        and b.mod % a.mod == 0
    )


def superset_scan(big: SymSet, small: SymSet) -> bool:
    """symset_superset_syntactic by scanning: every atom of small is
    subsumed by some atom of big (atom_subsumes), every sum part of small
    equals or is covered by some sum part of big (lattice at least as
    coarse, children recursively superset)."""
    atoms, sums = remainder_scan(big, small)
    return not atoms and not sums


def remainder_scan(big: SymSet, small: SymSet) -> tuple[list[Atom], list[SumPart]]:
    """syntactic_remainder by scanning every item of big for each item of small."""
    def sum_covers(sa: SumPart, sb: SumPart) -> bool:
        latt_ok = (sb.latt == 0 and sa.latt == 0) or (
            sa.latt != 0 and sb.latt != 0 and sb.latt % sa.latt == 0
        )
        return sa.key() == sb.key() or (
            latt_ok and superset_scan(sa.left, sb.left) and superset_scan(sa.right, sb.right)
        )

    return (
        [b for b in small.atoms if not any(atom_subsumes(a, b) for a in big.atoms)],
        [sb for sb in small.sums if not any(sum_covers(sa, sb) for sa in big.sums)],
    )


def walk_atoms(S: SymSet, seen: Optional[set] = None) -> Iterator[Atom]:
    """Every atom syntactically reachable, including sum-part children,
    without materializing any sums."""
    if seen is None:
        seen = set()
    if id(S) in seen:
        return
    seen.add(id(S))
    yield from S.atoms
    for sp in S.sums:
        yield from walk_atoms(sp.left, seen)
        yield from walk_atoms(sp.right, seen)


def atoms_in_ambient(inst: Instance, S: SymSet, pi: PrimeSet) -> bool:
    """The (4_p) support half by walking: every reachable atom's base and
    generators lie in (G cap Q_pi^m) + H, asked of contains_vec and
    qpi_member element by element, with nothing kept between calls."""
    for a in walk_atoms(S):
        for x in (a.base, *a.gens):
            if not inst.group.contains_vec(x.q):
                return False
            if not qpi_member(x.q, pi):
                return False
    return True


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


def _sum_buckets(inst: Instance, S: SymSet) -> dict:
    """Expansion atoms of S grouped by denominator support."""
    buckets: dict[PrimeSet, list] = {}
    for a in expansion(inst, S):
        buckets.setdefault(a.supp(), []).append(a)
    return buckets


def sumpart_contains_pair_scan(inst: Instance, x: KElem, sp: SumPart) -> bool:
    """Exact x in left + right + latt*Z^m, pair by pair: each pair atom
    a + b + latt*Z^m is built with atom_add and its membership system
    solved by SNF (atom_contains_snf).

    Any element of a + b has denominator support inside supp(a) | supp(b),
    so only right buckets covering supp(x) - supp(a) are solved.  The scan
    asks nothing of the library's sum-part search, not even its zero fast
    paths: it reads only expansion, atom_add and snf_solve."""
    xsupp = vec_support(x.q)
    right = _sum_buckets(inst, sp.right)
    ordered = sorted(expansion(inst, sp.left), key=lambda a: len(a.supp() - xsupp))
    for la in ordered:
        needed = xsupp - la.supp()
        for rsupp, batoms in right.items():
            if not needed <= rsupp:
                continue
            for rb in batoms:
                if atom_contains_snf(inst, x, atom_add(inst, la, rb, sp.latt)):
                    return True
    return False
