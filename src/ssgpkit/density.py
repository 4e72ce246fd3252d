"""Constructors for the four dense classes of conditions.

Each extension recipe lands an arbitrary condition inside one target class
while keeping it below the input in the order: reach a prescribed level
count, absorb a prime set, push an element out of the top level, or capture
an element in U + <Cyc(U)>_k at the top level without adding a level.  The
capture step is the delicate one; poset.check_lemma_iterative decides the
span properties it relies on exactly, from prime supports and valuations,
and poset.leq runs it on every capture it is asked to order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import PrimeSet, prime_set, qpi_member, vec_support
from .groups import (
    ConstructionError,
    Instance,
    KElem,
    elem_to_json,
    find_g_sequence,
    json_int,
)
from .poset import Condition, extend_with_avoidance
from .symsets import (
    SSGPWitness,
    cyclic_in_set,
    make_atom,
    member,
    sum_sets,
    symset_from_atoms,
    union_sets,
)

KIND_AVOID = "avoid"
KIND_SSGP = "ssgp"


@dataclass(frozen=True)
class DenseRequest:
    """One met dense class with its payload: an avoid request carries the
    element pushed out of the top level, which must be nonzero since every
    condition keeps 0 at every level; an ssgp request carries the element
    captured and the level it is certified at."""

    kind: str
    level: int = 0
    elem: Optional[KElem] = None

    def __post_init__(self):
        if self.kind not in (KIND_AVOID, KIND_SSGP):
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.level < 0:
            raise ValueError("levels are non-negative")
        if self.elem is None:
            raise ValueError(f"{self.kind} request needs an element payload")
        if self.kind == KIND_AVOID and self.elem.is_zero():
            raise ValueError("cannot request avoidance of 0")

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind, "elem": elem_to_json(self.elem)}
        if self.kind == KIND_SSGP:
            # a capture request names the stage it certifies at
            obj["level"] = self.level
        return obj

    @staticmethod
    def from_json(inst: Instance, obj: dict) -> "DenseRequest":
        kind = obj["kind"]
        if kind == KIND_AVOID:
            return DenseRequest(kind, elem=inst.elem_from_json(obj["elem"]))
        if kind == KIND_SSGP:
            return DenseRequest(
                kind,
                level=json_int(obj.get("level", 0), "level"),
                elem=inst.elem_from_json(obj["elem"]),
            )
        raise ValueError(f"unknown request kind {kind!r}")


# -- the four constructors ---------------------------------------------------


def extend_to_level(inst: Instance, p: Condition, n: int) -> Condition:
    """Extension with at least n levels, added one at a time.

    The element avoided at each step plays a dummy role; the first standard
    basis vector of Z^m with zero h-part works at every step because new
    levels are integer-scaled lattices.
    """
    if n < 0:
        raise ValueError("level count must be non-negative")
    q = p
    if q.n >= n:
        return q
    dummy = inst.from_qvec(
        (Fraction(1),) + (Fraction(0),) * (inst.m - 1)
    )
    while q.n < n:
        q = extend_with_avoidance(inst, q, dummy)
    return q


def extend_primes(inst: Instance, p: Condition, pi: PrimeSet) -> Condition:
    """Same data over the enlarged prime set.

    Levels and scales are copied, so the order relation holds with set
    equality at every level.
    """
    new_pi = p.pi | prime_set(pi)
    if new_pi == p.pi:
        return p
    return Condition(new_pi, p.n, p.u, p.s)


def extend_avoid(inst: Instance, p: Condition, x: KElem) -> Condition:
    """Push x out of the top level.

    First absorbs the denominator support of the rational part, then adds
    an avoidance level; afterwards x lies in Q_{pi^q}^m + H but not in the
    top-level set, which is the separation the chain driver certifies.
    """
    if x.is_zero():
        raise ValueError("cannot avoid 0: every level contains it")
    if not inst.contains(x):
        raise ValueError("element lies outside K")
    q = extend_primes(inst, p, vec_support(x.q))
    q = extend_with_avoidance(inst, q, x)
    if not qpi_member(x.q, q.pi):
        raise AssertionError("denominator support not absorbed")
    return q


def extend_ssgp(inst: Instance, p: Condition, x: KElem) -> tuple[Condition, SSGPWitness]:
    """Capture x = g + h in U_n + <Cyc(U_n)>_k without adding a level.

    Here n = n^p and k = 2^n + 1.  The parts g_1..g_k come from
    find_g_sequence at scale s_n over the prime set enlarged by the
    denominator support of g; the head g_0 + h with g_0 = g - sum(g_j)
    closes the telescope.  The top level gains the two head classes and one
    cyclic atom per part, each modulo Z[s_n]^m; every lower level gains the
    sum of the level above with itself modulo its own scale, which keeps
    the level tower nested and the result below p.
    """
    if not inst.contains(x):
        raise ValueError("element lies outside K")
    base = extend_primes(inst, p, vec_support(x.q))
    if x.is_zero():
        # 0 = 0 + empty sum, and 0 already sits in every level.
        return base, SSGPWitness(x, base.n, inst.zero(), ())

    n = base.n
    k = 2**n + 1
    s = base.s[n]
    pis, gs = find_g_sequence(inst.group, base.pi, k, s)
    g0 = tuple(
        c - sum((g[i] for g in gs), Fraction(0)) for i, c in enumerate(x.q)
    )
    head = KElem(g0, x.free, x.tor)
    parts = tuple(inst.from_qvec(g) for g in gs)
    zero = inst.zero()

    new_atoms = [make_atom(inst, head, (), s), make_atom(inst, inst.neg(head), (), s)]
    new_atoms += [make_atom(inst, zero, (g,), s) for g in parts]
    top = union_sets(inst, base.u[n], symset_from_atoms(inst, new_atoms))

    levels = [top]
    for i in range(n - 1, -1, -1):
        below = levels[0]
        grown = sum_sets(inst, below, below, latt=base.s[i])
        levels.insert(0, union_sets(inst, base.u[i], grown))

    q = Condition(pis[-1], n, tuple(levels), base.s)
    w = SSGPWitness(x, n, head, parts)
    if not member(inst, head, top):
        raise ConstructionError("head escaped the rebuilt top level")
    for g in parts:
        if not cyclic_in_set(inst, g, top):
            raise ConstructionError("part lost its cyclic atom")
    if not w.verify_identity(inst):
        raise ConstructionError("telescope identity broke")
    return q, w

