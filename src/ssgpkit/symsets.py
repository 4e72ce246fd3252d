"""Symbolic subsets of K with exact decidable membership.

A set is a finite union of atoms  base + Z*g_1 + ... + Z*g_r + mod*Z^m
together with structural sum parts  left + right + latt*Z^m  kept unexpanded.
Sum parts exist because the level-tower construction squares set sizes per
level: materializing every pairwise atom sum across a whole chain is
exponential in tower height, while membership only ever needs the pairwise
sums of the (much smaller) child sets, searched lazily with a
denominator-support prune.  Membership stays exact either way: the prune is
a necessary condition, never a filter on correctness.

Atom membership reduces to integer feasibility of one linear system (gen
coefficients, lattice vector, torsion slacks), solved by exact diagonal
reduction of the integer matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .arith import (
    PrimeSet,
    QVec,
    cap_multiplier,
    valuation,
    vec_support,
)
from .groups import Instance, KElem, elem_to_json

SUM_MATERIALIZE_LIMIT = 32  # max atom pairs expanded eagerly by sum_sets
EXPAND_LIMIT = 500_000  # hard cap on lazy expansion size


class ExpansionLimitError(RuntimeError):
    """A lazy expansion outgrew EXPAND_LIMIT; the tower is too deep for
    exact membership at this level."""


def _elem_key(x: KElem):
    return tuple((c.numerator, c.denominator) for c in x.q) + x.free + x.tor


class Atom:
    """base + Z*g_1 + ... + Z*g_r + mod*Z^m (lattice in the q-part only)."""

    __slots__ = ("base", "gens", "mod", "_key", "_supp")

    def __init__(self, base: KElem, gens: tuple[KElem, ...], mod: int):
        if mod < 1:
            raise ValueError("lattice modulus must be >= 1")
        self.base = base
        self.gens = gens
        self.mod = mod
        self._key = None
        self._supp = None

    def key(self):
        if self._key is None:
            self._key = (
                _elem_key(self.base),
                tuple(_elem_key(g) for g in self.gens),
                self.mod,
            )
        return self._key

    def supp(self) -> PrimeSet:
        if self._supp is None:
            s = set(vec_support(self.base.q))
            for g in self.gens:
                s |= vec_support(g.q)
            self._supp = frozenset(s)
        return self._supp

    def __eq__(self, other):
        return isinstance(other, Atom) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Atom(base={self.base}, gens={self.gens}, mod={self.mod})"


def make_atom(inst: Instance, base: KElem, gens: Iterable[KElem], mod: int) -> Atom:
    """Canonical form: zero generators dropped, each generator replaced by
    the key-smaller of g and -g (same cyclic subgroup), deduplicated,
    sorted."""
    canon = []
    seen = set()
    for g in gens:
        if g.is_zero():
            continue
        ng = inst.neg(g)
        g = g if _elem_key(g) <= _elem_key(ng) else ng
        k = _elem_key(g)
        if k not in seen:
            seen.add(k)
            canon.append(g)
    canon.sort(key=_elem_key)
    return Atom(base, tuple(canon), int(mod))


def atom_neg(inst: Instance, a: Atom) -> Atom:
    """-(a): same generators and lattice, negated base."""
    return make_atom(inst, inst.neg(a.base), a.gens, a.mod)


def atom_add(inst: Instance, a: Atom, b: Atom, latt: int = 0) -> Atom:
    """a + b (+ latt*Z^m): bases add, generators union, moduli gcd."""
    mod = math.gcd(math.gcd(a.mod, b.mod), latt)
    return make_atom(inst, inst.add(a.base, b.base), a.gens + b.gens, mod)


def atom_subsumes(a: Atom, b: Atom) -> bool:
    """Syntactic a >= b: same base and generators, lattice at least as coarse."""
    return (
        a.key()[0] == b.key()[0]
        and a.key()[1] == b.key()[1]
        and b.mod % a.mod == 0
    )


class SumPart:
    """left + right + latt*Z^m, unexpanded; latt = 0 means no lattice term."""

    __slots__ = ("left", "right", "latt", "_key")

    def __init__(self, left: "SymSet", right: "SymSet", latt: int):
        if latt < 0:
            raise ValueError("lattice term must be >= 0")
        self.left = left
        self.right = right
        self.latt = latt
        self._key = None

    def key(self):
        if self._key is None:
            self._key = (self.left.key(), self.right.key(), self.latt)
        return self._key

    def __eq__(self, other):
        return isinstance(other, SumPart) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class SymSet:
    """Finite union of atoms and sum parts."""

    __slots__ = ("atoms", "sums", "_key", "_hash", "_expanded", "_buckets", "_memo")

    def __init__(self, atoms: Sequence[Atom] = (), sums: Sequence[SumPart] = ()):
        self.atoms = tuple(atoms)
        self.sums = tuple(sums)
        self._key = None
        self._hash = None
        self._expanded = None
        self._buckets = None
        self._memo = {}

    def key(self):
        if self._key is None:
            self._key = (
                tuple(a.key() for a in self.atoms),
                tuple(s.key() for s in self.sums),
            )
        return self._key

    def __eq__(self, other):
        return isinstance(other, SymSet) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        return f"SymSet({len(self.atoms)} atoms, {len(self.sums)} sums)"


# -- integer linear algebra --------------------------------------------------


def snf_solve(A: list[list[int]], c: list[int]) -> Optional[list[int]]:
    """One integer solution of A*y = c, or None.

    Diagonalizes A by exact integer row and column operations, applying row
    operations to c and tracking column operations in V so a diagonal
    solution maps back via y = V*y'.  The returned solution is re-checked
    against the original system.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if any(len(r) != cols for r in A):
        raise ValueError("ragged matrix")
    if len(c) != rows:
        raise ValueError("rhs length mismatch")
    a = [list(r) for r in A]
    rhs = list(c)
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        rhs[i], rhs[j] = rhs[j], rhs[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        v[i], v[j] = v[j], v[i]

    def addmul_row(dst, src, q):
        # row_dst += q * row_src
        ad, asrc = a[dst], a[src]
        for t in range(cols):
            ad[t] += q * asrc[t]
        rhs[dst] += q * rhs[src]

    def addmul_col(dst, src, q):
        for r in a:
            r[dst] += q * r[src]
        vd, vs = v[dst], v[src]
        for t in range(cols):
            vd[t] += q * vs[t]

    t = 0
    while t < min(rows, cols):
        # pivot: entry of smallest nonzero magnitude in the remaining block
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                addmul_row(i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                addmul_col(j, t, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # remainder left nonzero entries: re-pivot on a smaller one
        t += 1

    y_diag = [0] * cols
    for i in range(rows):
        d = a[i][i] if i < cols else 0
        if d == 0:
            if rhs[i] != 0:
                return None
        else:
            if rhs[i] % d != 0:
                return None
            y_diag[i] = rhs[i] // d

    # v holds the transpose of the accumulated column-operation matrix V,
    # since column ops on A were mirrored as row ops on v; y = V * y_diag.
    y = [sum(v[i][j] * y_diag[i] for i in range(cols)) for j in range(cols)]
    for i in range(rows):
        if sum(A[i][j] * y[j] for j in range(cols)) != c[i]:
            raise AssertionError("diagonal reduction produced a non-solution")
    return y


def atom_contains(inst: Instance, x: KElem, a: Atom) -> bool:
    """Exact membership x in a: integer feasibility of
    x - base = sum n_j*g_j + mod*z (+ torsion slack)."""
    r = len(a.gens)
    m = inst.m
    fr = inst.h.free_rank
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
    for f in range(fr):
        row = [0] * ncols
        for j, g in enumerate(a.gens):
            row[j] = g.free[f]
        rows.append(row)
        rhs.append(x.free[f] - a.base.free[f])

    # torsion part: congruence via slack variable
    for t, d in enumerate(tors):
        row = [0] * ncols
        for j, g in enumerate(a.gens):
            row[j] = g.tor[t]
        row[r + m + t] = d
        rows.append(row)
        rhs.append(x.tor[t] - a.base.tor[t])

    if not rows:
        return True
    return snf_solve(rows, rhs) is not None


# -- lazy expansion and membership -------------------------------------------


def _dedup_atoms(atoms: Iterable[Atom]) -> list[Atom]:
    """Ordered dedup plus subsumption prune: within one (base, generators)
    group, a coarser lattice absorbs every multiple of itself."""
    groups: dict[tuple, list[Atom]] = {}
    order: list[tuple] = []
    for a in atoms:
        bg = (a.key()[0], a.key()[1])
        if bg not in groups:
            groups[bg] = []
            order.append(bg)
        groups[bg].append(a)
    out: list[Atom] = []
    for bg in order:
        kept: list[Atom] = []
        for a in groups[bg]:
            if any(a.mod % k.mod == 0 for k in kept):
                continue
            kept = [k for k in kept if k.mod % a.mod != 0]
            kept.append(a)
        out.extend(kept)
    return out


def expansion(inst: Instance, S: SymSet) -> list[Atom]:
    """Flat atom list with the same union semantics, materializing sum parts
    recursively; cached on the SymSet."""
    if S._expanded is None:
        out = list(S.atoms)
        for sp in S.sums:
            left = expansion(inst, sp.left)
            right = expansion(inst, sp.right)
            if len(left) * len(right) + len(out) > EXPAND_LIMIT:
                raise ExpansionLimitError(
                    f"expansion needs {len(left) * len(right)} atom pairs; "
                    f"limit is {EXPAND_LIMIT}"
                )
            for a in left:
                for b in right:
                    out.append(atom_add(inst, a, b, sp.latt))
        S._expanded = tuple(_dedup_atoms(out))
    return list(S._expanded)


def _sum_buckets(inst: Instance, S: SymSet):
    """Expansion atoms grouped by denominator support, for the pair prune."""
    if S._buckets is None:
        buckets: dict[PrimeSet, list[Atom]] = {}
        for a in expansion(inst, S):
            buckets.setdefault(a.supp(), []).append(a)
        S._buckets = buckets
    return S._buckets


def _sumpart_contains(inst: Instance, x: KElem, sp: SumPart) -> bool:
    # Fast path: x = x + 0 (+ latt*0) whenever one side contains x and the
    # other contains 0.
    zero = inst.zero()
    if member(inst, zero, sp.right) and member(inst, x, sp.left):
        return True
    if member(inst, zero, sp.left) and member(inst, x, sp.right):
        return True
    # Exact search over expansion pairs.  Any element of a + b has
    # denominator support inside supp(a) | supp(b): integer combinations
    # cannot manufacture new denominator primes.  So only bucket pairs
    # covering supp(x) need solving.  Atoms whose support sticks out of
    # supp(x) least go first: queries are overwhelmingly positive, and the
    # witnessing pair usually lives inside the query's own support.
    xsupp = vec_support(x.q)
    right = _sum_buckets(inst, sp.right)
    ordered = sorted(
        expansion(inst, sp.left), key=lambda a: len(a.supp() - xsupp)
    )
    for la in ordered:
        needed = xsupp - la.supp()
        for rsupp, batoms in right.items():
            if not needed <= rsupp:
                continue
            for rb in batoms:
                if atom_contains(inst, x, atom_add(inst, la, rb, sp.latt)):
                    return True
    return False


def member(inst: Instance, x: KElem, S: SymSet) -> bool:
    """Exact membership in the union."""
    hit = S._memo.get(x)
    if hit is not None:
        return hit
    ans = False
    for a in S.atoms:
        if atom_contains(inst, x, a):
            ans = True
            break
    if not ans:
        for sp in S.sums:
            if _sumpart_contains(inst, x, sp):
                ans = True
                break
    S._memo[x] = ans
    return ans


# -- constructors ------------------------------------------------------------


def symset_from_atoms(inst: Instance, atoms: Iterable[Atom]) -> SymSet:
    return SymSet(_dedup_atoms(atoms), ())


def lattice_set(inst: Instance, s: int) -> SymSet:
    """Z[s]^m with zero h-part, as one atom."""
    return SymSet((make_atom(inst, inst.zero(), (), s),), ())


def symset_superset_syntactic(inst: Instance, big: SymSet, small: SymSet) -> bool:
    """Syntactic big >= small: every atom of small is subsumed by an atom of
    big, every sum part of small by a sum part of big (children recursively
    syntactic-superset, lattice at least as coarse)."""
    for b in small.atoms:
        if not any(atom_subsumes(a, b) for a in big.atoms):
            return False
    for sb in small.sums:
        ok = False
        for sa in big.sums:
            if sa.key() == sb.key() or _sumpart_superset(inst, sa, sb):
                ok = True
                break
        if not ok:
            return False
    return True


def _sumpart_superset(inst: Instance, big: SumPart, small: SumPart) -> bool:
    latt_ok = (small.latt == 0 and big.latt == 0) or (
        big.latt != 0 and small.latt != 0 and small.latt % big.latt == 0
    )
    return (
        latt_ok
        and symset_superset_syntactic(inst, big.left, small.left)
        and symset_superset_syntactic(inst, big.right, small.right)
    )


def union_sets(inst: Instance, *sets: SymSet) -> SymSet:
    """Union; atoms deduplicated, sum parts pruned when another sum part
    syntactically subsumes them (ties keep the earliest)."""
    atoms: list[Atom] = []
    sums: list[SumPart] = []
    seen_sums = set()
    for S in sets:
        atoms.extend(S.atoms)
        for sp in S.sums:
            if sp.key() not in seen_sums:
                seen_sums.add(sp.key())
                sums.append(sp)
    kept: list[SumPart] = []
    for i, sp in enumerate(sums):
        redundant = False
        for j, other in enumerate(sums):
            if i == j:
                continue
            if _sumpart_superset(inst, other, sp):
                if _sumpart_superset(inst, sp, other) and j > i:
                    continue  # mutual subsumption: the earlier one stays
                redundant = True
                break
        if not redundant:
            kept.append(sp)
    return SymSet(_dedup_atoms(atoms), kept)


def sum_sets(inst: Instance, S: SymSet, T: SymSet, latt: int = 0) -> SymSet:
    """S + T (+ latt*Z^m).  Materialized pairwise while small; represented
    structurally beyond SUM_MATERIALIZE_LIMIT pairs, with identical
    membership semantics."""
    try:
        left = expansion(inst, S)
        right = expansion(inst, T)
    except ExpansionLimitError:
        return SymSet((), (SumPart(S, T, latt),))
    if len(left) * len(right) > SUM_MATERIALIZE_LIMIT:
        return SymSet((), (SumPart(S, T, latt),))
    out = [atom_add(inst, a, b, latt) for a in left for b in right]
    return symset_from_atoms(inst, out)


def neg_set(inst: Instance, S: SymSet) -> SymSet:
    negsums = [SumPart(neg_set(inst, sp.left), neg_set(inst, sp.right), sp.latt) for sp in S.sums]
    return SymSet(_dedup_atoms(atom_neg(inst, a) for a in S.atoms), negsums)


def is_symmetric_syntactic(inst: Instance, S: SymSet) -> bool:
    """-S = S checkable on atom data: each atom's negation is subsumed, each
    sum part's negation subsumed."""
    return symset_superset_syntactic(inst, S, neg_set(inst, S))


# -- sampling ----------------------------------------------------------------


def sample_point(inst: Instance, S: SymSet, rng, bound: int = 12) -> KElem:
    """Random element: random atom or sum part, coefficients in [-bound, bound]."""
    n_choices = len(S.atoms) + len(S.sums)
    if n_choices == 0:
        raise ValueError("cannot sample from an empty set")
    idx = rng.randrange(n_choices)
    if idx < len(S.atoms):
        a = S.atoms[idx]
        x = a.base
        for g in a.gens:
            x = inst.add(x, inst.smul(rng.randint(-bound, bound), g))
        z = [rng.randint(-bound, bound) * a.mod for _ in range(inst.m)]
        return inst.add(x, inst.from_qvec(tuple(Fraction(c) for c in z)))
    sp = S.sums[idx - len(S.atoms)]
    x = inst.add(
        sample_point(inst, sp.left, rng, bound),
        sample_point(inst, sp.right, rng, bound),
    )
    if sp.latt:
        z = [rng.randint(-bound, bound) * sp.latt for _ in range(inst.m)]
        x = inst.add(x, inst.from_qvec(tuple(Fraction(c) for c in z)))
    return x


# -- cyclic subgroups --------------------------------------------------------


def cyclic_cap_qpi(g: QVec, pi: PrimeSet) -> QVec:
    """Generator of <g> cap Q_pi^m, namely D*g with D the product of
    outside-pi prime powers clearing the denominators; D = 0 (zero
    generator) for pi = {} and g != 0 under the Q_{} = {0} convention."""
    D = cap_multiplier(g, pi)
    return tuple(D * c for c in g)


def _cyclic_syntactic(inst: Instance, canon, S: SymSet) -> bool:
    for a in S.atoms:
        if a.base.is_zero() and any(_elem_key(x) == canon for x in a.gens):
            return True
    # <g> inside one summand and 0 in the other certify <g> in the sum
    for sp in S.sums:
        if _cyclic_syntactic(inst, canon, sp.left) and member(
            inst, inst.zero(), sp.right
        ):
            return True
        if _cyclic_syntactic(inst, canon, sp.right) and member(
            inst, inst.zero(), sp.left
        ):
            return True
    return False


def cyclic_in_set(inst: Instance, g: KElem, S: SymSet) -> bool:
    """Certificate for <g> inside S: some base-0 atom, possibly inside a sum
    whose other side has 0, lists g or -g as a generator.  A False means
    no certificate is visible, not that <g> escapes S."""
    canon = min(_elem_key(g), _elem_key(inst.neg(g)))
    return _cyclic_syntactic(inst, canon, S)


# -- membership modulo Q_pi --------------------------------------------------


def member_mod_qpi(x: QVec, gens: Sequence[QVec], pi: PrimeSet) -> bool:
    """Exact decision of x in Z*gens[0] + ... + Z*gens[r-1] + Q_pi^m.

    Only valuations at primes outside pi constrain anything.  Clearing all
    outside-pi denominator content by one multiplier M turns the condition
    into a linear congruence system modulo M; inside-pi denominators are
    units modulo M and are cleared per row.  For pi = {} the convention
    Q_{} = {0} makes this exact integer-span membership.
    """
    m = len(x)
    if any(len(g) != m for g in gens):
        raise ValueError("generator length mismatch")
    pi = frozenset(pi)

    if not pi:
        # Q_{} = {0}: x must equal an exact integer combination.
        if not gens:
            return all(c == 0 for c in x)
        rows = []
        rhs = []
        for i in range(m):
            denlcm = x[i].denominator
            for g in gens:
                denlcm = denlcm * g[i].denominator // math.gcd(denlcm, g[i].denominator)
            rows.append([int(g[i] * denlcm) for g in gens])
            rhs.append(int(x[i] * denlcm))
        return snf_solve(rows, rhs) is not None

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


# -- SSGP witnesses ----------------------------------------------------------


@dataclass(frozen=True)
class SSGPWitness:
    """Decomposition x = head + sum(parts) with each part generating a
    cyclic subgroup inside the stage set."""

    target: KElem
    level: int
    head: KElem
    parts: tuple[KElem, ...]

    def verify_identity(self, inst: Instance) -> bool:
        acc = self.head
        for g in self.parts:
            acc = inst.add(acc, g)
        return acc == self.target


# -- canonical JSON ----------------------------------------------------------


def atom_to_json(a: Atom) -> dict:
    return {
        "base": elem_to_json(a.base),
        "gens": [elem_to_json(g) for g in a.gens],
        "mod": a.mod,
    }


def atom_from_json(inst: Instance, obj: dict) -> Atom:
    return make_atom(
        inst,
        inst.elem_from_json(obj["base"]),
        [inst.elem_from_json(g) for g in obj["gens"]],
        int(obj["mod"]),
    )


def symset_to_json(S: SymSet) -> dict:
    return {
        "atoms": [atom_to_json(a) for a in S.atoms],
        "sums": [
            {
                "left": symset_to_json(sp.left),
                "right": symset_to_json(sp.right),
                "lattice": sp.latt,
            }
            for sp in S.sums
        ],
    }


def symset_from_json(inst: Instance, obj: dict, table: dict) -> SymSet:
    """Parse one set, hash-consed through table (SymSet.key() -> SymSet):
    an equal set parsed earlier with the same table is returned instead of
    a fresh copy, so it keeps its warm membership and expansion caches."""
    atoms = [atom_from_json(inst, a) for a in obj["atoms"]]
    sums = [
        SumPart(
            symset_from_json(inst, sp["left"], table),
            symset_from_json(inst, sp["right"], table),
            int(sp["lattice"]),
        )
        for sp in obj["sums"]
    ]
    S = SymSet(atoms, sums)
    return table.setdefault(S.key(), S)


def witness_to_json(w: SSGPWitness) -> dict:
    return {
        "target": elem_to_json(w.target),
        "level": w.level,
        "head": elem_to_json(w.head),
        "parts": [elem_to_json(g) for g in w.parts],
    }


def witness_from_json(inst: Instance, obj: dict) -> SSGPWitness:
    return SSGPWitness(
        inst.elem_from_json(obj["target"]),
        int(obj["level"]),
        inst.elem_from_json(obj["head"]),
        tuple(inst.elem_from_json(g) for g in obj["parts"]),
    )
