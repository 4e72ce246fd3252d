"""Conditions of the forcing-style poset: a finite prime set, a tower of
symbolic sets U_0 >= ... >= U_n with lattice scales s_0 | ... | s_n, the
structural validator, the order checker, and the one-step extension that
appends a shrunken pure-lattice level avoiding a given element.

Every check of the validator is exact.  Its semantic inclusions (level
sums, nesting, the base lattice in each level) pass only on a syntactic
certificate read off the set data; the constructions in this package
always provide one, and a condition without one fails by name.  The
order's intersection equality is the one check still sampled: its
superset half is syntactic, its subset half a seeded sampling monitor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .arith import PrimeSet, is_prime, qpi_member, qpi_or_integral
from .groups import Instance, KElem
from .symsets import (
    Atom,
    SumPart,
    SymSet,
    is_symmetric_syntactic,
    lattice_set,
    member,
    sample_point,
    symset_from_json,
    symset_superset_syntactic,
    symset_to_json,
)


@dataclass(frozen=True)
class Condition:
    """(pi, n, U_0..U_n, s_0..s_n)."""

    pi: PrimeSet
    n: int
    u: tuple[SymSet, ...]
    s: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "pi": sorted(self.pi),
            "n": self.n,
            "u": [symset_to_json(S) for S in self.u],
            "s": list(self.s),
        }

    @staticmethod
    def from_json(inst: Instance, obj: dict, table: dict) -> "Condition":
        """Parse one condition; levels are hash-consed through table (see
        symset_from_json)."""
        return Condition(
            frozenset(int(p) for p in obj["pi"]),
            int(obj["n"]),
            tuple(symset_from_json(inst, S, table) for S in obj["u"]),
            tuple(int(x) for x in obj["s"]),
        )


@dataclass
class CheckReport:
    """Named pass/fail results of one validate or leq run."""

    checks: dict[str, bool] = field(default_factory=dict)

    def ok(self) -> bool:
        return all(self.checks.values())

    def failures(self) -> list[str]:
        return [k for k, v in self.checks.items() if not v]

    def __bool__(self):
        return self.ok()


def root(inst: Instance) -> Condition:
    """The top condition: no primes, one level Z^m, scale 1."""
    return Condition(frozenset(), 0, (lattice_set(inst, 1),), (1,))


def _walk_atoms(S: SymSet, seen: Optional[set] = None) -> Iterator[Atom]:
    """Every atom syntactically reachable, including sum-part children,
    without materializing any sums."""
    if seen is None:
        seen = set()
    if id(S) in seen:
        return
    seen.add(id(S))
    yield from S.atoms
    for sp in S.sums:
        yield from _walk_atoms(sp.left, seen)
        yield from _walk_atoms(sp.right, seen)


def _atoms_in_ambient(inst: Instance, S: SymSet, pi: PrimeSet) -> bool:
    """Syntactic (4_p) core: all reachable atom data lies in
    (G cap Q_pi^m) + H.  Q_pi is read as containing Z^m at pi = {} since
    the base level of every tower is Z^m itself."""
    for a in _walk_atoms(S):
        for x in (a.base, *a.gens):
            if not inst.group.contains_vec(x.q):
                return False
            if not qpi_or_integral(x.q, pi):
                return False
    return True


def _is_pure_lattice_set(S: SymSet) -> Optional[list[int]]:
    """The moduli if every atom is 0 + mod*Z^m and there are no sums."""
    if S.sums:
        return None
    mods = []
    for a in S.atoms:
        if a.gens or not a.base.is_zero():
            return None
        mods.append(a.mod)
    return mods


def sum_subset_syntactic(inst: Instance, A: SymSet, B: SymSet, U: SymSet) -> bool:
    """Certificate for A + B subset U, if one is visible: either U carries a
    sum part covering A and B, or both are pure lattices absorbed by a
    base-0 lattice atom of U."""
    for sp in U.sums:
        if symset_superset_syntactic(inst, sp.left, A) and symset_superset_syntactic(
            inst, sp.right, B
        ):
            return True
    amods = _is_pure_lattice_set(A)
    bmods = _is_pure_lattice_set(B)
    if amods is not None and bmods is not None:
        for am in amods:
            for bm in bmods:
                g = math.gcd(am, bm)
                if not any(
                    a.base.is_zero() and not a.gens and g % a.mod == 0 for a in U.atoms
                ):
                    return False
        return True
    return False


def nested_subset_syntactic(inst: Instance, small: SymSet, big: SymSet) -> bool:
    """Certificate for small subset big: plain syntactic superset, or a sum
    part of big with one side covering small and the other containing 0."""
    if symset_superset_syntactic(inst, big, small):
        return True
    zero = inst.zero()
    for sp in big.sums:
        if symset_superset_syntactic(inst, sp.left, small) and member(inst, zero, sp.right):
            return True
        if symset_superset_syntactic(inst, sp.right, small) and member(inst, zero, sp.left):
            return True
    return False


def validate(
    inst: Instance, p: Condition, sample_budget: int = 200, rng_seed: int = 0
) -> CheckReport:
    """Check (1_p)..(8_p) plus the two nested-subgroup corollaries, exactly.

    Structural conditions are read off the data.  The level-sum condition
    (7_p) and the nesting corollary (r72i) pass only on a syntactic
    certificate (sum_subset_syntactic, nested_subset_syntactic), and the
    lattice corollary (r72ii) only on a base-0 lattice atom with modulus
    dividing s_i; a level that is semantically fine but carries no such
    certificate fails.  Nothing is sampled, so sample_budget and rng_seed
    are ignored; they stay in the signature because existing callers,
    perfbench/pipeline.py among them, still pass them.
    """
    r = CheckReport()
    checks = r.checks

    checks["1p"] = all(is_prime(q) for q in p.pi)
    checks["2p"] = p.n >= 0 and len(p.u) == p.n + 1
    checks["3p"] = len(p.s) == p.n + 1 and all(si >= 1 for si in p.s)
    if not (checks["2p"] and checks["3p"]):
        return r

    ok4 = True
    for S in p.u:
        if not member(inst, inst.zero(), S) or not _atoms_in_ambient(inst, S, p.pi):
            ok4 = False
            break
    checks["4p"] = ok4

    checks["5p"] = all(is_symmetric_syntactic(inst, S) for S in p.u)

    ok6 = True
    for S, si in zip(p.u, p.s):
        for a in S.atoms:
            if si % a.mod != 0:
                ok6 = False
        for sp in S.sums:
            if sp.latt < 1 or si % sp.latt != 0:
                ok6 = False
    checks["6p"] = ok6

    checks["7p"] = all(
        sum_subset_syntactic(inst, p.u[i + 1], p.u[i + 1], p.u[i]) for i in range(p.n)
    )

    checks["8p"] = all(p.s[i + 1] % p.s[i] == 0 for i in range(p.n))

    checks["r72i"] = all(
        nested_subset_syntactic(inst, p.u[i + 1], p.u[i]) for i in range(p.n)
    )

    checks["r72ii"] = all(
        any(a.base.is_zero() and not a.gens and si % a.mod == 0 for a in S.atoms)
        for S, si in zip(p.u, p.s)
    )

    return r


def leq(
    inst: Instance,
    q: Condition,
    p: Condition,
    sample_budget: int = 200,
    rng_seed: int = 0,
) -> CheckReport:
    """Check q <= p: primes grow, levels extend, shared levels agree after
    intersecting with Q_{pi^p}^m + H, shared scales are equal.

    The intersection equality is checked in two directions: containment of
    p's level in q's is syntactic (the constructions copy or union, never
    rewrite); the reverse is a sampling monitor that filters q-samples into
    Q_{pi^p}^m + H and demands membership in p's level.
    """
    rng = random.Random(rng_seed)
    r = CheckReport()
    r.checks["i"] = p.pi <= q.pi
    r.checks["ii"] = p.n <= q.n
    if not r.checks["ii"]:
        return r

    r.checks["iii_sup"] = all(
        symset_superset_syntactic(inst, q.u[i], p.u[i]) for i in range(p.n + 1)
    )

    ok_sub = True
    for i in range(p.n + 1):
        for _ in range(max(1, sample_budget)):
            x = sample_point(inst, q.u[i], rng)
            if qpi_member(x.q, p.pi) and not member(inst, x, p.u[i]):
                ok_sub = False
                break
        if not ok_sub:
            break
    r.checks["iii_sub"] = ok_sub

    r.checks["iv"] = q.s[: p.n + 1] == p.s[: p.n + 1]
    return r


def extend_with_avoidance(inst: Instance, p: Condition, x: KElem) -> Condition:
    """One level deeper with the new level a pure lattice missing x:
    s_{n+1} = k*s_n for the least k >= 1 with x outside Z[k*s_n]^m, and
    U_{n+1} = Z[s_{n+1}]^m."""
    if x.is_zero():
        raise ValueError("cannot avoid 0: every level contains it")
    if not inst.group.contains_vec(x.q):
        raise ValueError("element's rational part lies outside G")
    if not qpi_or_integral(x.q, p.pi):
        raise ValueError("element's rational part lies outside Q_pi^m")

    sn = p.s[p.n]
    if not x.hpart_is_zero() or not all(c.denominator == 1 for c in x.q):
        k = 1  # lattices have zero h-part and integral q-part
    else:
        k = 1
        while all(c % (k * sn) == 0 for c in x.q):
            k += 1
    s_new = k * sn
    new_level = lattice_set(inst, s_new)
    q = Condition(p.pi, p.n + 1, p.u + (new_level,), p.s + (s_new,))
    if member(inst, x, new_level):
        raise AssertionError("avoidance level still contains the element")
    return q
