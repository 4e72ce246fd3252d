"""The ambient group K = G + H: wide subgroups G of Q^m with their witness
oracles, finitely generated H, element arithmetic, deterministic enumeration,
and the constructive finders for elements whose cyclic subgroup meets Q_pi
only inside s*Z^m.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .arith import (
    PrimeSet,
    QVec,
    cap_multiplier,
    denom_support,
    is_prime,
    next_prime,
    prime_set,
    primes_upto,
    qpi_member,
    vec_support,
)


class ConstructionError(Exception):
    """A witness oracle or element finder could not deliver what the
    configured group promises."""


@dataclass(frozen=True)
class HSpec:
    """Shape of the finitely generated summand H = Z^a + Z/d_1 + ... + Z/d_b."""

    free_rank: int
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free_rank must be >= 0")
        object.__setattr__(self, "torsion_orders", tuple(int(d) for d in self.torsion_orders))
        for d in self.torsion_orders:
            if d < 2:
                raise ValueError(f"torsion order must be >= 2, got {d}")

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion_orders": list(self.torsion_orders)}

    @staticmethod
    def from_json(obj: dict) -> "HSpec":
        return HSpec(
            json_int(obj["free_rank"], "free_rank"),
            json_ints(obj["torsion_orders"], "torsion_orders"),
        )


@dataclass(frozen=True)
class KElem:
    """Element of K = G + H: rational part plus free and torsion coordinates.

    Torsion entries are stored reduced; arithmetic lives on Instance, which
    knows the orders.
    """

    q: QVec
    free: tuple[int, ...] = ()
    tor: tuple[int, ...] = ()

    def hpart_is_zero(self) -> bool:
        return not any(self.free) and not any(self.tor)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.q) and self.hpart_is_zero()


def _fr_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _fr_parse(s: str) -> Fraction:
    return Fraction(s)


def json_int(value, field: str) -> int:
    """An integer field of a chain file or config, taken as it was written:
    a JSON integer, never a bool, float or string that int() would coerce."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, got {value!r}")
    return value


def json_ints(value, field: str) -> tuple[int, ...]:
    """A list-of-integers field of a chain file or config (see json_int)."""
    if not isinstance(value, list):
        raise TypeError(f"{field} must be a list of integers, got {value!r}")
    return tuple(json_int(v, field) for v in value)


def elem_to_json(x: KElem) -> dict:
    return {
        "q": [_fr_str(c) for c in x.q],
        "free": list(x.free),
        "tor": list(x.tor),
    }


@dataclass(frozen=True)
class WideGroup:
    """A subgroup G of Q^m containing Z^m and escaping every Q_pi^m.

    kind "full" is all of Q^m.  kind "residue" keeps exactly the vectors
    whose coordinate denominators factor over sigma = {primes p : p = r mod
    mod}; by Dirichlet sigma is infinite when gcd(r, mod) = 1, which makes
    the group wide.
    """

    m: int
    kind: str = "full"
    r: int = 0
    mod: int = 0

    _WITNESS_SCAN_LIMIT = 10**6

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.kind == "full":
            if self.r or self.mod:
                raise ValueError("full group takes no residue parameters")
        elif self.kind == "residue":
            if self.mod < 2 or not (0 <= self.r < self.mod):
                raise ValueError("residue group needs 0 <= r < mod, mod >= 2")
            if math.gcd(self.r, self.mod) != 1:
                raise ValueError(
                    f"gcd(r, mod) = {math.gcd(self.r, self.mod)} != 1: "
                    "the residue class holds finitely many primes"
                )
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")

    def sigma(self, p: int) -> bool:
        """Whether prime p is allowed in denominators."""
        if self.kind == "full":
            return True
        return p % self.mod == self.r

    def contains_vec(self, x: QVec) -> bool:
        if len(x) != self.m:
            return False
        if self.kind == "full":
            return True
        return all(self.sigma(p) for p in vec_support(x))

    def witness(self, pi: PrimeSet) -> QVec:
        """A vector of G outside Q_pi^m: (1/p)e_1 for the smallest usable
        prime p not in pi."""
        p = 2
        while p in pi or not self.sigma(p):
            p = next_prime(p)
            if p > self._WITNESS_SCAN_LIMIT:
                raise ConstructionError(
                    f"no denominator prime outside {sorted(pi)} below "
                    f"{self._WITNESS_SCAN_LIMIT}; group not wide as configured"
                )
        return (Fraction(1, p),) + (Fraction(0),) * (self.m - 1)

    def to_json(self) -> dict:
        if self.kind == "full":
            return {"m": self.m, "kind": "full"}
        return {"m": self.m, "kind": "residue", "r": self.r, "mod": self.mod}

    @staticmethod
    def from_json(obj: dict) -> "WideGroup":
        m = json_int(obj["m"], "m")
        if obj["kind"] == "full":
            return WideGroup(m, "full")
        return WideGroup(m, "residue", json_int(obj["r"], "r"), json_int(obj["mod"], "mod"))


def _rats_of_height_at_most(h: int) -> list[Fraction]:
    """All rationals q with max(|num|, den) <= h for reduced num/den, plus 0."""
    out = [Fraction(0)]
    for den in range(1, h + 1):
        for num in range(-h, h + 1):
            if num != 0 and math.gcd(abs(num), den) == 1:
                out.append(Fraction(num, den))
    return out


def rat_height(x: Fraction) -> int:
    return 0 if x == 0 else max(abs(x.numerator), x.denominator)


@dataclass(frozen=True)
class Instance:
    """One fixed ambient K = G + H with element arithmetic and enumeration."""

    group: WideGroup
    h: HSpec
    _blocks: list = field(default_factory=list, compare=False, repr=False)

    @property
    def m(self) -> int:
        return self.group.m

    # -- element construction ------------------------------------------------

    def zero(self) -> KElem:
        return KElem(
            (Fraction(0),) * self.m,
            (0,) * self.h.free_rank,
            (0,) * len(self.h.torsion_orders),
        )

    def make(self, q, free=(), tor=()) -> KElem:
        q = tuple(Fraction(c) for c in q)
        free = tuple(int(c) for c in free)
        tor = tuple(int(c) for c in tor)
        if len(q) != self.m:
            raise ValueError(f"qpart length {len(q)} != m = {self.m}")
        if len(free) != self.h.free_rank:
            raise ValueError("free part has wrong length")
        if len(tor) != len(self.h.torsion_orders):
            raise ValueError("torsion part has wrong length")
        tor = tuple(c % d for c, d in zip(tor, self.h.torsion_orders))
        return KElem(q, free, tor)

    def from_qvec(self, q: QVec) -> KElem:
        return self.make(q, (0,) * self.h.free_rank, (0,) * len(self.h.torsion_orders))

    def contains(self, x: KElem) -> bool:
        return (
            len(x.q) == self.m
            and len(x.free) == self.h.free_rank
            and len(x.tor) == len(self.h.torsion_orders)
            and all(0 <= c < d for c, d in zip(x.tor, self.h.torsion_orders))
            and self.group.contains_vec(x.q)
        )

    # -- arithmetic ----------------------------------------------------------

    def add(self, x: KElem, y: KElem) -> KElem:
        return KElem(
            tuple(a + b for a, b in zip(x.q, y.q)),
            tuple(a + b for a, b in zip(x.free, y.free)),
            tuple((a + b) % d for a, b, d in zip(x.tor, y.tor, self.h.torsion_orders)),
        )

    def neg(self, x: KElem) -> KElem:
        return KElem(
            tuple(-a for a in x.q),
            tuple(-a for a in x.free),
            tuple((-a) % d for a, d in zip(x.tor, self.h.torsion_orders)),
        )

    def smul(self, n: int, x: KElem) -> KElem:
        return KElem(
            tuple(n * a for a in x.q),
            tuple(n * a for a in x.free),
            tuple((n * a) % d for a, d in zip(x.tor, self.h.torsion_orders)),
        )

    # -- enumeration ---------------------------------------------------------

    def height(self, x: KElem) -> int:
        parts = [rat_height(c) for c in x.q]
        parts += [abs(c) for c in x.free]
        parts += list(x.tor)
        return max(parts) if parts else 0

    def _block(self, hgt: int) -> list[KElem]:
        """All elements of height exactly hgt with qpart in G, sorted."""
        while len(self._blocks) <= hgt:
            h = len(self._blocks)
            rats = [r for r in _rats_of_height_at_most(h) if rat_height(r) <= h]
            ints = range(-h, h + 1)
            tors = [range(0, min(h, d - 1) + 1) for d in self.h.torsion_orders]
            block = []
            for q in itertools.product(rats, repeat=self.m):
                if not self.group.contains_vec(q):
                    continue
                for free in itertools.product(ints, repeat=self.h.free_rank):
                    for tor in itertools.product(*tors):
                        x = KElem(q, free, tor)
                        if self.height(x) == h:
                            block.append(x)
            key = lambda x: tuple(
                (c.numerator, c.denominator) for c in x.q
            ) + x.free + x.tor
            block.sort(key=key)
            self._blocks.append(block)
        return self._blocks[hgt]

    def enumerate_k(self, i: int) -> KElem:
        """i-th element in the height-then-lexicographic order; index 0 is 0."""
        if i < 0:
            raise ValueError("index must be >= 0")
        h = 0
        while True:
            block = self._block(h)
            if i < len(block):
                return block[i]
            i -= len(block)
            h += 1

    def enumerate_first(self, n: int) -> list[KElem]:
        return [self.enumerate_k(i) for i in range(n)]

    # -- text and JSON forms -------------------------------------------------

    def format_elem(self, x: KElem) -> str:
        qs = ",".join(
            str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            for c in x.q
        )
        hs = ",".join(str(c) for c in x.free + x.tor)
        return f"{qs};{hs}" if hs else qs

    def parse_elem(self, text: str) -> KElem:
        """Inverse of format_elem; grammar 'a/b,...;h1,h2,...', hpart optional."""
        text = text.strip()
        if text.count(";") > 1:
            raise ValueError(
                f"one ';' separates the rational part from the H part, got {text!r}"
            )
        qtext, _, htext = text.partition(";")
        qparts = [t.strip() for t in qtext.split(",")] if qtext.strip() else []
        if len(qparts) != self.m:
            raise ValueError(f"expected {self.m} rational coordinates, got {len(qparts)}")
        try:
            q = tuple(_fr_parse(t) for t in qparts)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational coordinate in {text!r}: {exc}") from None
        hcount = self.h.free_rank + len(self.h.torsion_orders)
        if htext.strip():
            hparts = [t.strip() for t in htext.split(",")]
            if len(hparts) != hcount:
                raise ValueError(f"expected {hcount} H coordinates, got {len(hparts)}")
            try:
                hvals = [int(t) for t in hparts]
            except ValueError as exc:
                raise ValueError(f"bad H coordinate in {text!r}: {exc}") from None
        else:
            hvals = [0] * hcount
        if not self.group.contains_vec(q):
            raise ValueError("rational part lies outside the configured group G")
        return self.make(q, hvals[: self.h.free_rank], hvals[self.h.free_rank :])

    def elem_from_json(self, obj: dict) -> KElem:
        q = obj["q"]
        if not isinstance(q, list) or not all(type(s) is str for s in q):
            raise TypeError(f"q must be a list of rationals written as strings, got {q!r}")
        x = self.make(
            tuple(_fr_parse(s) for s in q),
            json_ints(obj.get("free", []), "free"),
            json_ints(obj.get("tor", []), "tor"),
        )
        if not self.group.contains_vec(x.q):
            raise ValueError("rational part lies outside the configured group G")
        return x

    def to_json(self) -> dict:
        return {"group": self.group.to_json(), "h": self.h.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "Instance":
        return Instance(WideGroup.from_json(obj["group"]), HSpec.from_json(obj["h"]))


# -- element finders ---------------------------------------------------------


def find_g(G: WideGroup, pi: PrimeSet, k: int, s: int) -> QVec:
    """An element g of G with <g> meeting Q_pi^m only inside s*Z^m while
    l*g stays outside Q_pi^m for all 0 < |l| <= k.

    Recipe: enlarge pi by all primes up to max(k, |s|), take the witness h
    of G outside the enlarged Q_pi'^m, strip the denominators of h down to
    powers of one prime p left outside pi', and scale by s times the
    stripped cofactors.  Both conclusions are re-verified exactly before
    returning.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if s == 0:
        raise ValueError("s must be nonzero")
    pi = prime_set(pi)
    varpi = frozenset(primes_upto(max(k, abs(s))))
    pi_prime = pi | varpi
    h = G.witness(pi_prime)
    if not G.contains_vec(h) or qpi_member(h, pi_prime):
        raise ConstructionError("witness oracle returned a vector inside Q_pi'^m")
    dens = [c.denominator for c in h]
    p = None
    for t in range(len(h)):
        outside = denom_support(h[t]) - pi_prime
        if outside:
            p = min(outside)
            break
    if p is None:
        raise ConstructionError("witness has no denominator prime outside pi'")
    n = [0] * len(dens)
    c = list(dens)
    for i, b in enumerate(dens):
        while c[i] % p == 0:
            c[i] //= p
            n[i] += 1
    m0 = s
    for ci in c:
        m0 *= ci
    g = tuple(m0 * hi for hi in h)

    # (i) <g> cap Q_pi^m = Z*(D*g) must sit inside s*Z^m.
    D = cap_multiplier(g, pi)
    capped = tuple(D * gi for gi in g)
    if any((ci / s).denominator != 1 for ci in capped):
        raise ConstructionError("cyclic intersection with Q_pi^m escapes s*Z^m")
    # (ii) small multiples stay outside Q_pi^m.
    for l in range(1, k + 1):
        if qpi_member(tuple(l * gi for gi in g), pi) or qpi_member(
            tuple(-l * gi for gi in g), pi
        ):
            raise ConstructionError(f"{l}*g lies in Q_pi^m")
    return g


def find_g_sequence(
    G: WideGroup, pi0: PrimeSet, k: int, s: int
) -> tuple[list[PrimeSet], list[QVec]]:
    """Iterate find_g, growing the prime set by each new element's
    denominator support: returns ([pi_1..pi_k], [g_1..g_k]) with, for each j,
    g_j inside Q_{pi_j}^m, <g_j> meeting Q_{pi_{j-1}}^m only inside s*Z^m,
    and l*g_j outside Q_{pi_{j-1}}^m for 0 < |l| <= k.
    """
    pi0 = prime_set(pi0)
    pis: list[PrimeSet] = []
    gs: list[QVec] = []
    prev = pi0
    for _ in range(k):
        g = find_g(G, prev, k, s)
        cur = prev | vec_support(g)
        if not qpi_member(g, cur):
            raise ConstructionError("g_j escapes Q_{pi_j}^m")
        pis.append(cur)
        gs.append(g)
        prev = cur
    return pis, gs
