"""Constructors for the four dense classes of conditions.

Each extension recipe lands an arbitrary condition inside one target class
while keeping it below the input in the order: reach a prescribed level
count, absorb a prime set, push an element out of the top level, or capture
an element in U + <Cyc(U)>_k at the top level without adding a level.  The
capture step is the delicate one; check_lemma_iterative re-checks the span
properties it relies on by bounded enumeration plus an exact residue test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

import numpy as np

from .arith import (
    EMPTY_PRIMES,
    PrimeSet,
    QVec,
    prime_set,
    qpi_member,
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
    member_mod_qpi,
    sum_sets,
    symset_from_atoms,
    union_sets,
)

# Numerators and modular products must fit in int64 for the vectorized path.
INT64_DEN_LIMIT = 2**31

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


# -- bounded re-check of the span properties ---------------------------------


def _pi_part(D: int, pi: PrimeSet) -> int:
    """Largest divisor of D supported on pi; 0 encodes the empty prime set,
    whose denominator subgroup is just {0}."""
    if not pi:
        return 0
    P = 1
    for p in pi:
        P *= p ** valuation(p, Fraction(D))
    return P


def _qpi_rows(V, D: int, P: int):
    """Row mask: V/D lies in Q_pi^m, with P the pi-part of D (0 for empty pi)."""
    if P == 0:
        return np.all(V == 0, axis=1)
    return np.all((V % D) * (P % D) % D == 0, axis=1)


def check_lemma_iterative(
    pis: list[PrimeSet], gs: list[QVec], s: int, g: QVec, bound: int
) -> CheckReport:
    """Re-check the three span properties the capture step relies on.

    pis = [pi_0, ..., pi_k] and gs = [g_1, ..., g_k].  A_i: every sum of
    the g_j with coefficients in [-bound, bound], shifted by a Q_{pi_0}
    sample, lies in Q_{pi_i}^m for i the largest index used.  A_ii: such a
    sum over indices >= i that lands in Q_{pi_{i-1}}^m lies in s*Z^m.
    B: exact, via membership modulo Q_{pi_0}: with g_0 = g - sum(g_j), no
    l*g_0 with 0 < |l| <= k lies in <{g_j : j in J}> + Q_{pi_0}^m for a
    proper subset J of the indices.
    """
    k = len(gs)
    if len(pis) != k + 1:
        raise ValueError("need k+1 prime sets for k elements")
    if s == 0 or bound < 0:
        raise ValueError("need nonzero scale and non-negative bound")
    m = len(g)
    if any(len(gj) != m for gj in gs):
        raise ValueError("mixed vector lengths")
    pis = [prime_set(p) for p in pis]
    if any(not (a <= b) for a, b in zip(pis, pis[1:])):
        raise ValueError("prime sets must be increasing")
    ss = abs(s)

    # Common denominator covering the g_j and one 1/p shift per pi_0 prime.
    D = 1
    for gj in gs:
        for c in gj:
            D = lcm(D, c.denominator)
    for p in pis[0]:
        D = lcm(D, p)
    N = [[int(c * D) for c in gj] for gj in gs]
    shifts = [0] + [D // p for p in sorted(pis[0])]
    Pparts = [_pi_part(D, pi) for pi in pis]

    radix = 2 * bound + 1
    total = radix**k
    if total > 200_000_000:
        raise ValueError("coefficient enumeration too large")
    maxabs = max((abs(v) for row in N for v in row), default=0)
    small = (
        D < INT64_DEN_LIMIT
        and k * bound * maxabs + D < 2**62
        and D * ss < 2**62
    )

    ok_ai = True
    ok_aii = True
    if small:
        Nmat = np.array(N, dtype=np.int64).reshape(k, m)
        pows = np.array([radix**j for j in range(k)], dtype=np.int64)
        ladder = np.arange(1, k + 1, dtype=np.int64)
        chunk = 200_000
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            C = (idx[:, None] // pows) % radix - bound
            V = C @ Nmat
            nz = C != 0
            top = np.max(nz * ladder, axis=1)
            bot = np.min(np.where(nz, ladder, k + 1), axis=1)
            for t in range(0, k + 1):
                sel = top == t
                if not sel.any():
                    continue
                Vt = V[sel]
                for sh in shifts:
                    if not _qpi_rows(Vt + sh, D, Pparts[t]).all():
                        ok_ai = False
            for b in range(1, k + 1):
                sel = bot == b
                if not sel.any():
                    continue
                Vb = V[sel]
                hyp = _qpi_rows(Vb, D, Pparts[b - 1])
                if hyp.any():
                    conc = np.all(Vb % (D * ss) == 0, axis=1)
                    if not conc[hyp].all():
                        ok_aii = False
    else:
        # Exact fallback for numerators beyond the int64 safety margin.
        shift_fracs = [Fraction(sh, D) for sh in shifts]
        for coeffs in itertools.product(range(-bound, bound + 1), repeat=k):
            val = tuple(
                sum((n * gj[i] for n, gj in zip(coeffs, gs)), Fraction(0))
                for i in range(m)
            )
            used = [j + 1 for j, n in enumerate(coeffs) if n != 0]
            t = used[-1] if used else 0
            for sh in shift_fracs:
                shifted = tuple(c + sh for c in val)
                if not qpi_member(shifted, pis[t]):
                    ok_ai = False
            b = used[0] if used else k + 1
            if b <= k and qpi_member(val, pis[b - 1]):
                if not all(c.denominator == 1 and c % ss == 0 for c in val):
                    ok_aii = False

    g0 = tuple(c - sum((gj[i] for gj in gs), Fraction(0)) for i, c in enumerate(g))
    ok_b = True
    for r in range(k):
        for J in itertools.combinations(range(k), r):
            gensJ = [gs[j] for j in J]
            for l in range(-k, k + 1):
                if l == 0:
                    continue
                if member_mod_qpi(tuple(l * c for c in g0), gensJ, pis[0]):
                    ok_b = False
    return CheckReport({"A_i": ok_ai, "A_ii": ok_aii, "B": ok_b})
