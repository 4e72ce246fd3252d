"""Constructors for the four dense classes of conditions.

Each extension recipe lands an arbitrary condition inside one target class
while keeping it below the input in the order: reach a prescribed level
count, absorb a prime set, push an element out of the top level, or capture
an element in U + <Cyc(U)>_k at the top level without adding a level.  The
capture step is the delicate one; check_lemma_iterative decides the span
properties it relies on exactly, from prime supports and valuations, and
poset.leq runs it on every capture it is asked to order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .arith import (
    EMPTY_PRIMES,
    PrimeSet,
    QVec,
    cap_multiplier,
    prime_set,
    qpi_or_integral,
    valuation,
    vec_support,
)
from .groups import (
    ConstructionError,
    Instance,
    KElem,
    elem_to_json,
    find_g_sequence,
)
from .poset import CheckReport, Condition, extend_with_avoidance
from .symsets import (
    SSGPWitness,
    cyclic_in_set,
    make_atom,
    member,
    sum_sets,
    symset_from_atoms,
    union_sets,
)

KIND_LEVEL = "level"
KIND_PRIMES = "primes"
KIND_AVOID = "avoid"
KIND_SSGP = "ssgp"
_KINDS = (KIND_LEVEL, KIND_PRIMES, KIND_AVOID, KIND_SSGP)


@dataclass(frozen=True)
class DenseRequest:
    """One target dense class with its payload.

    level requests carry a level count, primes requests a prime set, and
    avoid/ssgp requests an element; an avoid payload must be nonzero since
    every condition keeps 0 at every level.
    """

    kind: str
    level: int = 0
    primes: PrimeSet = EMPTY_PRIMES
    elem: Optional[KElem] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.level < 0:
            raise ValueError("levels are non-negative")
        if self.kind in (KIND_AVOID, KIND_SSGP) and self.elem is None:
            raise ValueError(f"{self.kind} request needs an element payload")
        if self.kind == KIND_AVOID and self.elem.is_zero():
            raise ValueError("cannot request avoidance of 0")

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.kind == KIND_LEVEL:
            obj["level"] = self.level
        elif self.kind == KIND_PRIMES:
            obj["primes"] = sorted(self.primes)
        elif self.kind == KIND_AVOID:
            obj["elem"] = elem_to_json(self.elem)
        else:
            # a capture request names the stage it certifies at
            obj["elem"] = elem_to_json(self.elem)
            obj["level"] = self.level
        return obj

    @staticmethod
    def from_json(inst: Instance, obj: dict) -> "DenseRequest":
        kind = obj["kind"]
        if kind == KIND_LEVEL:
            return DenseRequest(kind, level=int(obj["level"]))
        if kind == KIND_PRIMES:
            return DenseRequest(kind, primes=prime_set(obj["primes"]))
        if kind == KIND_AVOID:
            return DenseRequest(kind, elem=inst.elem_from_json(obj["elem"]))
        return DenseRequest(
            kind, level=int(obj.get("level", 0)), elem=inst.elem_from_json(obj["elem"])
        )


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
    if not qpi_or_integral(x.q, q.pi):
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


# -- exact check of the span properties -------------------------------------


def check_lemma_iterative(
    pis: list[PrimeSet], gs: list[QVec], s: int, head: Optional[QVec]
) -> CheckReport:
    """Decide the span properties the capture step relies on, exactly.

    pis = [pi_0, ..., pi_k], gs = [g_1, ..., g_k], and head is the rational
    part g_0 of the capture head (None when there is none).  Q_pi is read
    with Z inside it, as qpi_or_integral reads it, so pi_0 = {} means Z.

    A_i: g_j lies in Q_{pi_j}^m.
    A_ii: D_j*g_j lies in s*Z^m, where D_j*g_j generates
    <g_j> cap Q_{pi_{j-1}}^m: D_j = cap_multiplier(g_j, pi_{j-1}), or at
    pi_{j-1} = {} the lcm of the denominators of g_j, which is what the
    integral reading gives there.
    B: for each part t, some denominator prime r of g_0 lies outside pi_0
    and outside the supports of the other parts, and no l*g_0 with
    0 < |l| <= k clears it, which holds iff r**e > k for e the largest
    power of r in a denominator of g_0.

    What they give, for integers c_j and l with 0 <= |l| <= k: if
    l*g_0 + sum c_j*g_j lies in Q_{pi_0}^m and some part t has c_t = 0,
    then l = 0 (B: the r-adic valuation of the sum is that of l*g_0, which
    is negative); and if sum c_j*g_j lies in Q_{pi_0}^m then every c_j*g_j
    lies in s*Z^m (A, descending from the largest j with c_j != 0: the
    earlier terms lie in Q_{pi_{j-1}}^m by A_i, so D_j | c_j).
    """
    k = len(gs)
    if len(pis) != k + 1:
        raise ValueError("need k+1 prime sets for k elements")
    if s == 0:
        raise ValueError("need a nonzero scale")
    m = len(gs[0]) if gs else len(head or ())
    if any(len(gj) != m for gj in gs) or (head is not None and len(head) != m):
        raise ValueError("mixed vector lengths")
    pis = [prime_set(p) for p in pis]
    if any(not (a <= b) for a, b in zip(pis, pis[1:])):
        raise ValueError("prime sets must be increasing")

    ok_ai = all(qpi_or_integral(gj, pi) for gj, pi in zip(gs, pis[1:]))
    ok_aii = True
    for gj, prev in zip(gs, pis):
        D = cap_multiplier(gj, prev) if prev else lcm(*(c.denominator for c in gj))
        if any((D * c / s).denominator != 1 for c in gj):
            ok_aii = False

    ok_b = True
    if head is not None:
        deep = set()
        for r in vec_support(head) - pis[0]:
            e = max(max(0, -valuation(r, c)) for c in head)
            if r**e > k:
                deep.add(r)
        supps = [vec_support(gj) for gj in gs]
        for t in range(k):
            others = set().union(*(sp for j, sp in enumerate(supps) if j != t))
            if not deep - others:
                ok_b = False
    return CheckReport({"A_i": ok_ai, "A_ii": ok_aii, "B": ok_b})
