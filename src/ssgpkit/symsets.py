"""Symbolic subsets of K with exact decidable membership.

A set is a finite union of atoms  base + Z*g_1 + ... + Z*g_r + mod*Z^m
together with structural sum parts  left + right + latt*Z^m  kept unexpanded.
Sums are always structural, because the level-tower construction squares
set sizes per level: materializing every pairwise atom sum across a whole
chain is exponential in tower height, while membership only ever needs the
pairwise sums of the (much smaller) child sets.

Membership has one mechanism.  y lies in b + span(gens) + mod*Z^m exactly
when y and b.base fall in one coset of the lattice Gamma = span(b.gens) +
span(gens) + gcd(b.mod, mod)*Z^m, and coset representatives come from an
echelon basis of Gamma (Cohen, *A Course in Computational Algebraic Number
Theory*, 2.4), so one hash lookup decides a whole class of atoms.  A set's
own atoms are asked with nothing added; a sum part asks its right
expansion with each left atom's generators and modulus added.  Both are
exact; the prunes in front of them are necessary conditions, never
filters on correctness.  The first prune is in member: every element of
a set has its denominator primes inside the set's kept support
(SymSet.supp(), sum-part children included), so a query with a prime
outside it is a miss before any index, residue or expansion is built.

The second prune is per (left base, right class) pair (_AtomIndex).  A
class is the atoms with one base support, base H-part, generator list and
modulus.  z = y - b must lie in span(gens) + span(C.gens) + M*Z^m, whose
M*Z^m part is integral with zero H-part.  So a prime in exactly one of
supp(y) and supp(b) must be a denominator prime of some generator, and
when no generator has an H-part, y and b must have equal H-parts.  The
paper's density step gives each part of a capture a fresh prime of its
own, so almost no pair passes on a miss.  The test reads only the data,
so it is exact on any input, and every pair that passes it also passes
the filter it replaced, supp(x) - supp(a) <= supp(b) for a left atom a
and a right atom b.

Gamma is reduced before it is keyed (_AtomIndex).  Let D be the lcm of
a generator g's denominators.  When no prime of D divides another
generator's denominator, lies in supp(y) or lies in a base's support,
each r^e exactly dividing D divides g's coefficient in y - b, so D does;
when moreover D*g lies in gcd(b.mod, mod)*Z^m, so does that whole term,
and g drops out.  The paper's density step gives each part of a capture
a fresh prime of its own, so the many (extra lattice, class) pairs a sum
part meets collapse to few lattices, and residues are computed once per
reduced lattice.  The rule reads valuations, not how a chain was built,
so it is exact on any input.
"""

from __future__ import annotations

import marshal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .arith import EMPTY_PRIMES, PrimeSet, vec_support
from .groups import Instance, KElem, elem_to_json, json_int

EXPAND_LIMIT = 500_000  # hard cap on lazy expansion size


class ExpansionLimitError(RuntimeError):
    """A lazy expansion outgrew EXPAND_LIMIT; the tower is too deep for
    exact membership at this level."""


def _elem_key(x: KElem):
    return tuple((c.numerator, c.denominator) for c in x.q) + x.free + x.tor


class Atom:
    """base + Z*g_1 + ... + Z*g_r + mod*Z^m (lattice in the q-part only)."""

    __slots__ = ("base", "gens", "mod", "_key", "_supp", "_bsupp", "_gsupp")

    def __init__(self, base: KElem, gens: tuple[KElem, ...], mod: int):
        if mod < 1:
            raise ValueError("lattice modulus must be >= 1")
        self.base = base
        self.gens = gens
        self.mod = mod
        self._key = None
        self._supp = None
        self._bsupp = None
        self._gsupp = None

    def key(self):
        if self._key is None:
            self._key = (
                _elem_key(self.base),
                tuple(_elem_key(g) for g in self.gens),
                self.mod,
            )
        return self._key

    def base_supp(self) -> PrimeSet:
        """Denominator primes of the base alone."""
        if self._bsupp is None:
            self._bsupp = vec_support(self.base.q)
        return self._bsupp

    def gens_supp(self) -> PrimeSet:
        """Denominator primes of the generators alone."""
        if self._gsupp is None:
            s = set()
            for g in self.gens:
                s |= vec_support(g.q)
            self._gsupp = frozenset(s) if s else EMPTY_PRIMES
        return self._gsupp

    def supp(self) -> PrimeSet:
        if self._supp is None:
            b, g = self.base_supp(), self.gens_supp()
            self._supp = b | g if g else b
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


class SumPart:
    """left + right + latt*Z^m, unexpanded; latt = 0 means no lattice term."""

    __slots__ = ("left", "right", "latt", "_key", "_index")

    def __init__(self, left: "SymSet", right: "SymSet", latt: int):
        if latt < 0:
            raise ValueError("lattice term must be >= 0")
        self.left = left
        self.right = right
        self.latt = latt
        self._key = None
        self._index = None  # _AtomIndex of the right expansion, built by the first search

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

    __slots__ = (
        "atoms", "sums", "_key", "_hash", "_expanded", "_memo", "_symmetric", "_index",
        "_cover", "_neg", "_supp",
    )

    def __init__(self, atoms: Sequence[Atom] = (), sums: Sequence[SumPart] = ()):
        self.atoms = tuple(atoms)
        self.sums = tuple(sums)
        self._key = None
        self._hash = None
        self._expanded = None
        self._memo = {}
        self._symmetric = None  # is_symmetric_syntactic's verdict, once asked
        self._index = None  # _AtomIndex of atoms, built by the first member call
        self._cover = None  # (base key, gen keys) -> moduli, built by the first cover test
        self._neg = None  # neg_set's result, once asked
        self._supp = None  # supp()'s result, once asked

    def key(self):
        if self._key is None:
            self._key = (
                tuple(a.key() for a in self.atoms),
                tuple(s.key() for s in self.sums),
            )
        return self._key

    def supp(self) -> PrimeSet:
        """Denominator primes of every atom reachable from this set, through
        sum-part children too; kept, so a shared child is read once."""
        if self._supp is None:
            s = set()
            for a in self.atoms:
                s |= a.supp()
            for sp in self.sums:
                s |= sp.left.supp() | sp.right.supp()
            self._supp = frozenset(s)
        return self._supp

    def __eq__(self, other):
        return isinstance(other, SymSet) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        return f"SymSet({len(self.atoms)} atoms, {len(self.sums)} sums)"


# -- integer linear algebra --------------------------------------------------


# No library code calls snf_solve: the tests hold membership against it as
# an independent reference, and perfbench/tracer.py looks it up by name.  It
# can move to the tests only together with a change to that tracer.
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
    """Exact membership x in a: x and a.base share a residue modulo a's
    lattice (_Lattice).  member asks the same question of many atoms at
    once through _AtomIndex; this single-atom form is for callers outside
    the package."""
    lat = _Lattice(inst, a.gens, a.mod)
    return lat.residue(x) == lat.residue(a.base)


def _echelon(rows: list[list[int]], ncols: int) -> list[tuple[int, list[int]]]:
    """Echelon basis of the row lattice of an integer matrix, as (pivot
    column, row) pairs: pivot columns strictly increase, each pivot entry
    is positive, and every row is zero left of its pivot.  Columns the rows
    do not span get no pivot."""
    pending = [list(r) for r in rows if any(r)]
    basis = []
    for col in range(ncols):
        live = [r for r in pending if r[col]]
        pending = [r for r in pending if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            for r in live[1:]:
                f = r[col] // piv[col]
                for j in range(col, ncols):
                    r[j] -= f * piv[j]
            pending += [r for r in live[1:] if not r[col] and any(r)]
            live = [piv] + [r for r in live[1:] if r[col]]
        if live:
            piv = live[0]
            if piv[col] < 0:
                piv = [-v for v in piv]
            basis.append((col, piv))
    return basis


class _Lattice:
    """Gamma = span(gens) + mod*Z^m (q-part only) inside K, with its
    canonical residue map.

    D, the lcm of the generators' denominators, makes D*Gamma's q-part
    integral.  Then x - y lies in Gamma exactly when D*x.q and D*y.q have
    equal fractional parts and the integer vectors (floor(D*q), free, tor)
    differ by an element of the row lattice L spanned by the scaled
    generators, the rows D*mod*e_i and the torsion rows d_t*e_t.  Reducing
    a vector by an echelon basis of L, each pivot entry into [0, pivot),
    leaves one representative per coset of L, also when the free columns
    are not spanned.  _AtomIndex builds one per reduced lattice, so its
    generators may be fewer than the ones a cell names."""

    __slots__ = ("den", "basis")

    def __init__(self, inst: Instance, gens: Sequence[KElem], mod: int):
        m = inst.m
        fr = inst.h.free_rank
        tors = inst.h.torsion_orders
        den = 1
        for g in gens:
            for c in g.q:
                den = den * c.denominator // math.gcd(den, c.denominator)
        ncols = m + fr + len(tors)
        rows = [[int(c * den) for c in g.q] + list(g.free) + list(g.tor) for g in gens]
        for i in range(m):
            row = [0] * ncols
            row[i] = den * mod
            rows.append(row)
        for t, d in enumerate(tors):
            row = [0] * ncols
            row[m + fr + t] = d
            rows.append(row)
        self.den = den
        self.basis = _echelon(rows, ncols)

    def residue(self, x: KElem) -> tuple:
        """red_Gamma(x): equal for x and y exactly when x - y is in Gamma.
        One flat tuple: the reduced fractional part of each D*q_i as
        (numerator, denominator), then the reduced integer vector."""
        out = []
        v = []
        for c in x.q:
            num, d = c.numerator * self.den, c.denominator
            r = num % d
            g = math.gcd(r, d)
            out += (r // g, d // g)
            v.append((num - r) // d)
        v += x.free
        v += x.tor
        for col, row in self.basis:
            f = v[col] // row[col]
            if f:
                for j in range(col, len(v)):
                    v[j] -= f * row[j]
        return tuple(out + v)


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


class _AtomIndex:
    """Lazy lookup tables that answer "is y in some atom of this list,
    widened by span(gens) + mod*Z^m?".

    The atoms are filed by class C = (supp(base), H-part of base,
    generators, modulus), and each class keeps P_C, its generators'
    denominator primes, and whether every generator has zero H-part.  C
    widened by the extra lattice E = span(gens) + mod*Z^m is the lattice
    Gamma = span(C.gens) + span(gens) + M*Z^m, M = gcd(C.mod, mod) (mod = 0
    adds no lattice term).

    A search asks only the classes that pass two tests.  If y is in b +
    Gamma, then z = y - b is in span(C.gens) + span(gens) + M*Z^m, and
    M*Z^m is integral with zero H-part.  A prime in exactly one of supp(y)
    and supp(b) stays in supp(z), so the prime test asks (supp(y) ^
    supp(b)) <= P(gens) | P_C.  When every generator of E and C has zero
    H-part, z has zero H-part, so the H test asks H(y) = H(b).  Both are
    necessary conditions on any input; the residue test decides every
    class that passes.  They replace the needed-primes filter (classes
    whose support covers supp(x) - supp(a) for the left atom a), which
    every passing class also passes.  Classes are grouped by base support
    and indexed by the primes of P_C, so a search reads only the classes
    that can hold the primes y - b needs, and the passing list is built
    once per (supp(y), H(y) when the H test applies, P(gens), whether E's
    generators have zero H-part) and kept.  In a chain each part of a
    capture carries a fresh prime of its own, so few pairs of a left base
    and a class pass.

    Gamma is reduced before it is keyed, by dropping whole generators.
    Let g be a generator of E or C and D the lcm of its denominators, and
    let no prime of D divide another generator's denominator or lie in
    supp(y) or in supp(b), C's base support.  Then for each r^e exactly
    dividing D, r is outside supp(y - b), so in y - b = sum n_i*g_i + M*z
    every term but n_g*g is r-integral, hence r^e divides n_g; so D
    divides n_g.  If moreover D*g lies in M*Z^m as a whole (q-part
    divisible by M, free and torsion parts zero), so does n_g*g, and g
    drops out of Gamma, exactly, for every base of C; every other
    generator stays as it is.  The rule reads valuations only, so it
    holds on any input.  Most cells reduce to a few lattices, many to a
    bare M*Z^m.

    A cell maps (E, supp(y), C) to the reduced lattice and C's residues
    in it, and is filled only when a search first reaches it.  The
    reduction itself is kept under the unreduced generators of E and C,
    M and the blocked primes: cells far outnumber the distinct unions of
    generators they meet, so most cells reduce by one lookup.  Each
    reduced lattice gets one _Lattice and, for each class filed under it,
    the set of its bases' residues (another class filed under the same
    lattice may meet another E in a smaller one, so the sets stay apart).
    y's residue is computed once per distinct reduced lattice and kept in
    a dict that the caller owns: it depends on y only, so _sumpart_contains
    shares one dict among the left atoms of one base (one y) for the
    length of one call, and nothing of y outlives that call."""

    __slots__ = ("groups", "covering", "lattices", "reductions", "cells", "primes")

    def __init__(self, atoms: Iterable[Atom]):
        # supp(base) -> (its classes as (H-part of base, P_C, flag, (class,
        # atoms)) records, and for each prime the records whose P_C holds it)
        self.groups: dict[PrimeSet, tuple[list, dict[int, list]]] = {}
        classes: dict[tuple, list[Atom]] = {}
        for b in atoms:
            _, gkeys, mod = b.key()
            bsupp, bh = b.base_supp(), b.base.free + b.base.tor
            ckey = (bsupp, bh, gkeys, mod)
            batoms = classes.get(ckey)
            if batoms is not None:
                batoms.append(b)
                continue
            batoms = classes[ckey] = [b]
            pc = b.gens_supp()
            rec = (bh, pc, all(g.hpart_is_zero() for g in b.gens), (ckey, batoms))
            group = self.groups.get(bsupp)
            if group is None:
                group = self.groups[bsupp] = ([], {})
            group[0].append(rec)
            for r in pc:
                group[1].setdefault(r, []).append(rec)
        # (supp(y), H(y) or None, P(gens), flag) -> the (class, atoms)
        # pairs that pass both tests
        self.covering: dict[tuple, list[tuple[tuple, list[Atom]]]] = {}
        # reduced (gen keys, M) -> (lattice, class -> (the lattice, the
        # residues of the class's bases)): the second item is the cell
        self.lattices: dict[tuple, tuple[_Lattice, dict]] = {}
        # unreduced (gen keys, M, bases' primes, supp(y)) -> the same
        # lattices entry
        self.reductions: dict[tuple, tuple] = {}
        # (E's gen keys, mod, supp(y)) -> (E's generators, class -> cell,
        # P(gens), whether every generator has zero H-part)
        self.cells: dict[tuple, tuple] = {}
        # generator key -> (primes of D, gcd of D*g's q-part or None), D
        # the lcm of its denominators
        self.primes: dict[tuple, tuple[PrimeSet, Optional[int]]] = {}

    def _den(self, inst: Instance, k: tuple, g: KElem) -> tuple:
        """For the generator g with key k, kept per key: the primes of D,
        the lcm of g's denominators, and the gcd of D*g's q-part, or None
        when D*g has a nonzero H-part.  D*g lies in M*Z^m exactly when M
        divides that gcd (0 for g = 0)."""
        hit = self.primes.get(k)
        if hit is None:
            den = 1
            for c in g.q:
                den = den * c.denominator // math.gcd(den, c.denominator)
            dg = inst.smul(den, g)
            d = math.gcd(*(int(c) for c in dg.q)) if dg.hpart_is_zero() else None
            hit = self.primes[k] = (vec_support(g.q), d)
        return hit

    def _cell(self, inst: Instance, ckey: tuple, batoms: list[Atom], mod: int,
              egens: dict, ysupp: PrimeSet) -> tuple[_Lattice, frozenset]:
        """The cell of class C widened by E (egens, mod) and reduced with
        the primes of supp(y) and of C's base support blocked: the lattice
        and C's residues in it, one pair per (lattice, class), filed under
        the lattice.  A reduction is kept under the unreduced generators, M
        and the blocked primes."""
        b = batoms[0]
        both = dict(egens)
        both.update(zip(b.key()[1], b.gens))
        M = math.gcd(b.mod, mod)
        ukey = (tuple(sorted(both)), M, ckey[0], ysupp)
        hit = self.reductions.get(ukey)
        if hit is None:
            blocked = ckey[0] | ysupp
            count: dict[int, int] = {}
            for k, g in both.items():
                for r in self._den(inst, k, g)[0]:
                    count[r] = count.get(r, 0) + 1
            kept = {}
            for k, g in both.items():
                rs, d = self.primes[k]
                if d is None or d % M or any(count[r] > 1 or r in blocked for r in rs):
                    kept[k] = g
            lkey = (tuple(sorted(kept)), M)
            hit = self.lattices.get(lkey)
            if hit is None:
                hit = self.lattices[lkey] = (_Lattice(inst, tuple(kept.values()), M), {})
            self.reductions[ukey] = hit
        lat, filed = hit
        cell = filed.get(ckey)
        if cell is None:
            cell = filed[ckey] = (lat, frozenset(lat.residue(c.base) for c in batoms))
        return cell

    def contains(
        self, inst: Instance, y: KElem, ysupp: PrimeSet,
        gens: Sequence[KElem], gkeys: tuple, mod: int, ys: Optional[dict] = None,
    ) -> bool:
        """Exact y in b + span(gens) + mod*Z^m for some atom b, asking only
        the classes that pass the prime and H tests; ysupp is supp(y) and
        gkeys are the generators' _elem_keys.  ys maps a lattice to y's
        residue in it and is filled here; a caller that asks the same y
        again passes the same dict, one that does not passes none."""
        row = self.cells.get((gkeys, mod, ysupp))
        if row is None:
            egens = dict(zip(gkeys, gens))
            pgens = frozenset().union(*(self._den(inst, k, g)[0] for k, g in egens.items()))
            row = self.cells[gkeys, mod, ysupp] = (
                egens, {}, pgens, all(g.hpart_is_zero() for g in gens),
            )
        egens, cells, pgens, eflag = row
        yh = y.free + y.tor if eflag else None
        fkey = (ysupp, yh, pgens, eflag)
        classes = self.covering.get(fkey)
        if classes is None:
            classes = self.covering[fkey] = []
            for bsupp, (recs, by_prime) in self.groups.items():
                # the primes of y - b that E's generators miss must all
                # be in P_C, so the first of them names the candidates
                left = (ysupp ^ bsupp) - pgens
                for bh, pc, cflag, item in by_prime.get(min(left), ()) if left else recs:
                    if left <= pc and not (eflag and cflag and bh != yh):
                        classes.append(item)
        if ys is None:
            ys = {}
        for ckey, batoms in classes:
            hit = cells.get(ckey)
            if hit is None:
                hit = cells[ckey] = self._cell(inst, ckey, batoms, mod, egens, ysupp)
            lat, res = hit
            ry = ys.get(lat)
            if ry is None:
                ry = ys[lat] = lat.residue(y)
            if ry in res:
                return True
        return False


def _sumpart_contains(
    inst: Instance, x: KElem, sp: SumPart, xsupp: Optional[PrimeSet] = None
) -> bool:
    """Exact x in left + right + latt*Z^m; xsupp is supp(x), computed here
    when the caller has not.

    x lies in a + b + latt*Z^m, for expansion atoms a of left and b of
    right, exactly when x - a.base lies in b widened by span(a.gens) +
    gcd(a.mod, latt)*Z^m.  So each left atom is one _AtomIndex search of
    the right expansion, which is exhaustive over every pair.  Left atoms
    with the same base share y = x - a.base, its support and its residues:
    each is computed once per base in one call."""
    # Fast path: x = x + 0 (+ latt*0) whenever one side contains x and the
    # other contains 0.
    zero = inst.zero()
    if member(inst, zero, sp.right) and member(inst, x, sp.left):
        return True
    if member(inst, zero, sp.left) and member(inst, x, sp.right):
        return True
    # Left atoms whose support sticks out of supp(x) least go first:
    # queries are overwhelmingly positive, and the witnessing pair usually
    # lives inside the query's own support.
    if sp._index is None:
        sp._index = _AtomIndex(expansion(inst, sp.right))
    if xsupp is None:
        xsupp = vec_support(x.q)
    ordered = sorted(
        expansion(inst, sp.left), key=lambda a: len(a.supp() - xsupp)
    )
    by_base = {}  # left base key -> (y, supp(y), lattice -> residue of y)
    for a in ordered:
        bkey, gkeys, _ = a.key()
        hit = by_base.get(bkey)
        if hit is None:
            y = inst.add(x, inst.neg(a.base))
            hit = by_base[bkey] = (y, vec_support(y.q), {})
        y, ysupp, ys = hit
        if sp._index.contains(inst, y, ysupp, a.gens, gkeys, math.gcd(a.mod, sp.latt), ys):
            return True
    return False


def member(inst: Instance, x: KElem, S: SymSet) -> bool:
    """Exact membership in the union: S's atoms through one _AtomIndex
    search (with nothing added, so only classes whose base support differs
    from supp(x) by their own generators' primes are asked), then each sum
    part.  An x whose support is not inside S.supp() is answered False
    first, with no memo entry and no search: integer combinations of atom
    data make no new denominator primes, in a sum part's children too."""
    hit = S._memo.get(x)
    if hit is not None:
        return hit
    xs = vec_support(x.q)
    if not xs <= S.supp():
        return False
    if S._index is None:
        S._index = _AtomIndex(S.atoms)
    ans = S._index.contains(inst, x, xs, (), (), 0) or any(
        _sumpart_contains(inst, x, sp, xs) for sp in S.sums
    )
    S._memo[x] = ans
    return ans


def index_sizes(S: SymSet) -> tuple[int, int]:
    """Reduced lattices and kept base residues over every _AtomIndex that
    member searches have built under S (its own, its sum parts', and
    theirs through the children), read from the tables themselves."""
    lattices = residues = 0
    seen = set()
    todo = [S]
    while todo:
        T = todo.pop()
        if id(T) in seen:
            continue
        seen.add(id(T))
        for idx in [T._index] + [sp._index for sp in T.sums]:
            if idx is not None:
                lattices += len(idx.lattices)
                residues += sum(
                    len(r) for _, filed in idx.lattices.values() for _, r in filed.values()
                )
        for sp in T.sums:
            todo += (sp.left, sp.right)
    return lattices, residues


# -- constructors ------------------------------------------------------------


def symset_from_atoms(inst: Instance, atoms: Iterable[Atom]) -> SymSet:
    return SymSet(_dedup_atoms(atoms), ())


def lattice_set(inst: Instance, s: int) -> SymSet:
    """Z[s]^m with zero h-part, as one atom."""
    return SymSet((make_atom(inst, inst.zero(), (), s),), ())


def _atom_covered(big: SymSet, b: Atom) -> bool:
    """Some atom of big has b's base and generators and a modulus dividing
    b's (a lattice at least as coarse): one lookup in big's cover index."""
    if big._cover is None:
        big._cover = {}
        for a in big.atoms:
            big._cover.setdefault(a.key()[:2], []).append(a.mod)
    return any(b.mod % mod == 0 for mod in big._cover.get(b.key()[:2], ()))


def _sum_covered(inst: Instance, big: SymSet, sb: SumPart) -> bool:
    return any(
        sa.key() == sb.key() or _sumpart_superset(inst, sa, sb) for sa in big.sums
    )


def symset_superset_syntactic(inst: Instance, big: SymSet, small: SymSet) -> bool:
    """Syntactic big >= small: every atom of small is subsumed by an atom of
    big, every sum part of small by a sum part of big (children recursively
    syntactic-superset, lattice at least as coarse)."""
    return all(_atom_covered(big, b) for b in small.atoms) and all(
        _sum_covered(inst, big, sb) for sb in small.sums
    )


def syntactic_remainder(
    inst: Instance, big: SymSet, small: SymSet
) -> tuple[list[Atom], list[SumPart]]:
    """The atoms and sum parts of small that no item of big syntactically
    covers; both lists are empty exactly when symset_superset_syntactic
    holds."""
    return (
        [b for b in small.atoms if not _atom_covered(big, b)],
        [sb for sb in small.sums if not _sum_covered(inst, big, sb)],
    )


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
    """S + T (+ latt*Z^m) as one structural sum part; membership searches
    its atom pairs lazily."""
    return SymSet((), (SumPart(S, T, latt),))


def neg_set(inst: Instance, S: SymSet) -> SymSet:
    """-S, kept on S, so sum-part children shared across sets are negated
    once."""
    if S._neg is None:
        negsums = [
            SumPart(neg_set(inst, sp.left), neg_set(inst, sp.right), sp.latt) for sp in S.sums
        ]
        S._neg = SymSet(_dedup_atoms(atom_neg(inst, a) for a in S.atoms), negsums)
    return S._neg


def is_symmetric_syntactic(inst: Instance, S: SymSet) -> bool:
    """-S = S checkable on atom data: each atom's negation is subsumed, each
    sum part's negation subsumed.  The verdict is kept on S, so conditions
    sharing an interned set pay for it once."""
    if S._symmetric is None:
        S._symmetric = symset_superset_syntactic(inst, S, neg_set(inst, S))
    return S._symmetric


# -- sampling ----------------------------------------------------------------


def sample_point(inst: Instance, S: SymSet, rng, bound: int = 12) -> KElem:
    """Random element: random atom or sum part, coefficients in [-bound, bound].

    No check in this package samples; this draws points for tests and
    benchmark tooling."""
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
        json_int(obj["mod"], "mod"),
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
    """Parse one set, hash-consed through table: an equal set parsed
    earlier with the same table (SymSet.key() -> SymSet) is returned
    instead of a fresh copy, so it keeps its warm membership and expansion
    caches.  Atoms are interned too, each distinct atom JSON parsed once
    per table, under marshal.dumps of the JSON (bytes, so never a set
    key).  Those bytes decode back to the very value, so they tell 1,
    True, 1.0 and "1" apart, which == and hash do not: a value of the
    wrong type always reaches the parser's type checks.  (repr would do
    the same at three times the cost.)"""
    atoms = []
    for a in obj["atoms"]:
        k = marshal.dumps(a)
        atom = table.get(k)
        if atom is None:
            atom = table[k] = atom_from_json(inst, a)
        atoms.append(atom)
    sums = [
        SumPart(
            symset_from_json(inst, sp["left"], table),
            symset_from_json(inst, sp["right"], table),
            json_int(sp["lattice"], "lattice"),
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
        json_int(obj["level"], "level"),
        inst.elem_from_json(obj["head"]),
        tuple(inst.elem_from_json(g) for g in obj["parts"]),
    )
