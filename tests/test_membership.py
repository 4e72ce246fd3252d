"""Membership by lattice residues, for set atoms and sum parts alike.

Oracles: SNF membership in a single atom (tests/oracles.py), for the
residue map itself and for unions of atoms, and the atom-pair scan that
sum-part membership used before (each pair atom built and solved by SNF).
"""

import json
import math
import random
from fractions import Fraction as F

import pytest

import ssgpkit.symsets as symsets
from ssgpkit.arith import next_prime, vec_support
from ssgpkit.driver import build_chain, chain_bytes, chain_from_json, stage_set
from ssgpkit.groups import HSpec, Instance, WideGroup
from ssgpkit.poset import Condition, validate
from ssgpkit.symsets import (
    SumPart,
    SymSet,
    _AtomIndex,
    _Lattice,
    _sumpart_contains,
    atom_contains,
    make_atom,
    member,
    sample_point,
    sum_sets,
    symset_from_atoms,
)

from oracles import atom_contains_snf, sumpart_contains_pair_scan

FULL_Z2 = Instance(WideGroup(1, "full"), HSpec(0, (2,)))


def _foreign(inst, chain, count):
    """Elements with a denominator prime beyond the chain's final pi that
    the group allows: no atom of any stage reaches such a prime."""
    p = max(chain.conditions[-1].pi, default=2)
    out = []
    h = (0,) * inst.h.free_rank, tuple(1 % d for d in inst.h.torsion_orders)
    while len(out) < count:
        p = next_prime(p)
        if inst.group.sigma(p):
            q = (F(1, p),) + (F(0),) * (inst.m - 1)
            out.append(inst.make(q, *h))
    return out


# (name, instance, max level, enum count, {level: enumerated elements asked};
# a negative count keeps only the elements with a fractional coordinate).
# Enumerated elements include hard misses, which the pair scan pays for
# with a full scan of the level's atom pairs: about 1 s each at level 0 of
# the `query` and residue chains (108 x 108 atoms), 0.2 s at level 1 of
# `deep` (68 x 68) and 70 s at level 0 of `deep` (630 x 630).  So those
# levels ask a few of them, and `deep` level 0 only misses the support
# prune decides.
CHAINS = [
    ("query", FULL_Z2, 2, 3, {0: 4, 1: 30}),
    ("deep", FULL_Z2, 3, 2, {0: -12, 1: 6, 2: 30}),
    ("m2 H=Z+Z/3", Instance(WideGroup(2, "full"), HSpec(1, (3,))), 1, 6, {0: 20}),
    ("residue 1 mod 4", Instance(WideGroup(1, "residue", 1, 4), HSpec(0, (2,))), 2, 3,
     {0: 3, 1: 30}),
]


@pytest.mark.parametrize("inst, L, N, asked", [c[1:] for c in CHAINS], ids=[c[0] for c in CHAINS])
def test_sumpart_contains_matches_pair_scan(inst, L, N, asked):
    chain = build_chain(inst, L, N, rng_seed=0, sample_budget=50)
    rng = random.Random(L * 10 + N)
    foreign = _foreign(inst, chain, 2)
    hard_misses = 0
    for i in range(L + 1):
        S = stage_set(chain, i)
        assert bool(S.sums) == (i in asked)
        n = asked.get(i, 0)
        enum = inst.enumerate_first(abs(n))
        if n < 0:
            enum = [x for x in enum if any(c.denominator > 1 for c in x.q)]
        for sp in S.sums:
            own = SymSet((), (sp,))
            samples = [sample_point(inst, own, rng, 4) for _ in range(6)]
            for x in samples:
                assert _sumpart_contains(inst, x, sp)
            points = enum + foreign + samples
            points += [inst.add(sample_point(inst, own, rng, 4), y) for y in foreign]
            for x in points:
                got = _sumpart_contains(inst, x, sp)
                assert got == sumpart_contains_pair_scan(inst, x, sp), (i, inst.format_elem(x))
                hard_misses += x in enum and not got
    assert hard_misses >= 2


def test_sumpart_contains_matches_pair_scan_rank_deficient_free_column():
    # Generators with zero free part leave the free column of every pair
    # lattice unspanned; the atoms' bases still differ there.
    inst = Instance(WideGroup(2, "full"), HSpec(1, (3,)))
    rng = random.Random(11)

    def atom(free_gens):
        base = inst.make([F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(2)],
                         [rng.randint(-2, 2)], [rng.randint(0, 2)])
        gens = [inst.make([F(rng.randint(-3, 3), rng.choice((1, 2, 5))) for _ in range(2)],
                          [rng.choice((0, 2)) if free_gens else 0], [rng.randint(0, 2)])
                for _ in range(rng.randint(0, 2))]
        return make_atom(inst, base, gens, rng.choice((1, 2, 3, 6)))

    answers = []
    for free_gens in (False, True):
        S = symset_from_atoms(inst, [atom(free_gens) for _ in range(4)])
        T = symset_from_atoms(inst, [atom(free_gens) for _ in range(4)])
        for latt in (0, 4):
            sp = sum_sets(inst, S, T, latt).sums[0]
            own = SymSet((), (sp,))
            points = inst.enumerate_first(40)
            for _ in range(20):
                y = sample_point(inst, own, rng, 3)
                points += [y, inst.add(y, inst.make([F(1, 2), 0], [1], [0])),
                           inst.add(y, inst.make([0, 0], [0], [1]))]
            for x in points:
                got = _sumpart_contains(inst, x, sp)
                assert got == sumpart_contains_pair_scan(inst, x, sp), inst.format_elem(x)
                answers.append(got)
    assert answers.count(True) >= 40 and answers.count(False) >= 40


def test_shared_residue_table_keeps_class_tags():
    # Left atom a1 files right class {b} (no generators) and left atom a2
    # files right class {c} (generator g) under one lattice, Gamma =
    # span(g) + 4Z.  x - a2.base has b.base's residue modulo Gamma, yet x
    # is in no pair: a2 + b lacks g.  Only the class tag on each table
    # entry keeps b's residue from answering for c.
    inst = Instance(WideGroup(1, "full"), HSpec(1, ()))
    g = inst.make([0], [1], [])
    S = symset_from_atoms(inst, [make_atom(inst, inst.make([2], [0], []), [g], 4),
                                 make_atom(inst, inst.zero(), [], 4)])
    T = symset_from_atoms(inst, [make_atom(inst, inst.make([1], [0], []), [], 4),
                                 make_atom(inst, inst.zero(), [g], 4)])
    sp = sum_sets(inst, S, T).sums[0]
    x = inst.make([1], [1], [])
    assert not sumpart_contains_pair_scan(inst, x, sp)
    assert not _sumpart_contains(inst, x, sp)


@pytest.mark.parametrize("m, h", [(1, HSpec(0, (2,))), (2, HSpec(1, (3,))), (1, HSpec(1, (2, 4)))])
def test_residue_classes_are_snf_cosets(m, h):
    inst = Instance(WideGroup(m, "full"), h)
    rng = random.Random(100 * m + 10 * h.free_rank + len(h.torsion_orders))

    def elem(den=(1, 2, 3, 4, 6)):
        return inst.make([F(rng.randint(-6, 6), rng.choice(den)) for _ in range(m)],
                         [rng.randint(-3, 3) for _ in range(h.free_rank)],
                         [rng.randint(0, d - 1) for d in h.torsion_orders])

    same = differ = 0
    for _ in range(60):
        gens = [elem() for _ in range(rng.randint(0, 3))]
        mod = rng.randint(1, 6)
        lat = _Lattice(inst, gens, mod)
        cell = make_atom(inst, inst.zero(), gens, mod)
        for _ in range(8):
            x = elem()
            if rng.random() < 0.5:
                y = x  # y in the coset of x, up to the perturbation below
                for g in gens:
                    y = inst.add(y, inst.smul(rng.randint(-3, 3), g))
                z = [F(mod * rng.randint(-3, 3)) for _ in range(m)]
                y = inst.add(y, inst.from_qvec(tuple(z)))
                if rng.random() < 0.5:
                    y = inst.add(y, elem(den=(1, 2, 12)))
            else:
                y = elem()
            inside = atom_contains_snf(inst, inst.add(x, inst.neg(y)), cell)
            assert (lat.residue(x) == lat.residue(y)) == inside
            same += inside
            differ += not inside
    assert same >= 50 and differ >= 50


def test_member_on_atom_unions_matches_snf():
    # Plain atoms go through the same residue index as sum parts.  The
    # generators come from a small pool, so several classes share one
    # lattice: equal generators and modulus, bases with different
    # denominator supports.  Generators with zero free part leave the free
    # column unspanned.
    inst = Instance(WideGroup(1, "full"), HSpec(1, (2, 3)))
    rng = random.Random(8)

    def elem(den, free=True):
        return inst.make([F(rng.randint(-6, 6), rng.choice(den))],
                         [rng.randint(-2, 2) if free else 0],
                         [rng.randint(0, 1), rng.randint(0, 2)])

    pool = [elem((1, 2, 3), free=k % 2 == 0) for k in range(3)]

    def atom():
        gens = rng.sample(pool, rng.randint(0, 2))
        return make_atom(inst, elem((1, 2, 5, 7)), gens, rng.choice((2, 4)))

    foreign = inst.make([F(1, 97)], [0], [0, 0])
    hits = misses = 0
    for _ in range(12):
        atoms = [atom() for _ in range(6)]
        S = SymSet(atoms)
        points = inst.enumerate_first(10) + [inst.add(elem((1, 2, 5)), foreign)]
        for _ in range(6):
            y = sample_point(inst, S, rng, 4)
            points += [y, inst.add(y, foreign), inst.add(y, inst.make([F(1, 2)], [1], [0, 1]))]
        for x in points:
            want = [atom_contains_snf(inst, x, a) for a in atoms]
            assert [atom_contains(inst, x, a) for a in atoms] == want
            assert member(inst, x, S) == any(want), inst.format_elem(x)
            hits += any(want)
            misses += not any(want)
    assert hits >= 50 and misses >= 50


def test_covering_classes_are_kept_per_filter_key():
    # One atom per subset T of {2, 3, 5, 7, 11}, with denominator support
    # exactly T: 32 supports, nested ones among them ({2} < {2,3} <
    # {2,3,5}).  Points of different supports are asked round-robin, the
    # widest support first, so each support comes back after others; an
    # index that reused the classes found for another support, or another
    # H-part, would miss hits.
    inst = Instance(WideGroup(1, "full"), HSpec(1, (2,)))
    rng = random.Random(9)
    primes = (2, 3, 5, 7, 11)

    def frac(T):
        return sum((F(rng.choice((1, -1)) * rng.randint(1, p - 1), p) for p in T), F(0))

    atoms = []
    for bits in reversed(range(2 ** len(primes))):
        T = [p for k, p in enumerate(primes) if bits >> k & 1]
        for _ in range(1 + bits % 3 // 2):
            gens = [inst.make([frac(rng.sample(T, rng.randint(0, len(T))))],
                              [rng.choice((0, 1, 2))], [rng.randint(0, 1)])
                    for _ in range(rng.randint(0, 2))]
            base = inst.make([frac(T) + rng.randint(-3, 3)], [rng.randint(-2, 2)],
                             [rng.randint(0, 1)])
            atoms.append(make_atom(inst, base, gens, rng.choice((1, 2, 4))))
    S = SymSet(atoms)
    assert len({a.supp() for a in atoms}) >= 30

    points = []
    for a in atoms:
        y = sample_point(inst, SymSet((a,)), rng, 3)
        points += [y] + [inst.add(y, inst.make([d], [1], [1]))
                         for d in (0, F(1, 2), F(1, 13), F(1, 15))]
    by_support = {}
    for x in dict.fromkeys(points):
        by_support.setdefault(vec_support(x.q), []).append(x)
    asked = []
    for r in range(max(map(len, by_support.values()))):
        asked += [pts[r] for pts in by_support.values() if r < len(pts)]

    hits = misses = 0
    for x in asked:
        want = any(atom_contains_snf(inst, x, a) for a in atoms)
        assert member(inst, x, S) == want, inst.format_elem(x)
        hits += want
        misses += not want
    assert hits >= 60 and misses >= 60
    # supports with a prime outside S.supp() (the 1/13 points) are
    # answered by member before the index is asked
    inside = {T for T in by_support if T <= S.supp()}
    assert inside != set(by_support)
    # member widens by nothing: no generator primes, every generator of
    # the widening has zero H-part, so H(x) is part of the key
    keys = {(vec_support(x.q), x.free + x.tor, frozenset(), True)
            for x in asked if vec_support(x.q) <= S.supp()}
    assert set(S._index.covering) == keys
    assert {k[0] for k in keys} == inside


def test_foreign_prime_miss_computes_no_residue(monkeypatch):
    # No right atom reaches a foreign denominator prime, so the support
    # prune leaves nothing to ask: a miss there costs no lattice work.
    chain = build_chain(FULL_Z2, 2, 3, rng_seed=0, sample_budget=50)
    calls = []
    real = _Lattice.residue
    monkeypatch.setattr(_Lattice, "residue", lambda self, x: calls.append(x) or real(self, x))
    atoms_only = [SymSet(stage_set(chain, i).atoms) for i in range(chain.max_level + 1)]
    assert all(S.atoms and not S.sums for S in atoms_only)
    for x in _foreign(FULL_Z2, chain, 3):
        for i in range(chain.max_level + 1):
            assert not member(FULL_Z2, x, stage_set(chain, i))
            assert not member(FULL_Z2, x, atoms_only[i])
    assert calls == []


@pytest.mark.parametrize("child_side", ["left", "right"])
def test_prime_only_inside_a_sum_part_child_stays_a_hit(child_side):
    # 7 is a denominator prime of one atom of one sum-part child only: not
    # of S's own atoms (whose 11 the hit lacks), not of the other child.
    # The support prune must read S.supp() through the children.
    inst = FULL_Z2
    seven = make_atom(inst, inst.make([F(2, 7)], (), [1]), [inst.make([F(1, 5)], (), [0])], 4)
    other = make_atom(inst, inst.make([F(1, 3)], (), [0]), [], 2)
    own = make_atom(inst, inst.make([F(1, 11)], (), [0]), [], 1)
    L, R = SymSet((seven,)), SymSet((other,))
    if child_side == "right":
        L, R = R, L
    S = SymSet((own,), (SumPart(L, R, 6),))
    assert 7 in S.supp() and 7 not in own.supp() | other.supp()
    x = inst.make([F(2, 7) + F(3, 5) + F(1, 3) + 12], (), [1])
    assert vec_support(x.q) == {3, 5, 7} and not S.supp() <= vec_support(x.q)
    assert member(inst, x, S)
    assert S._memo[x] is True


def test_foreign_prime_misses_build_nothing(monkeypatch):
    # A fresh load of an L3 N2 chain: nothing is warmed.  A miss with a
    # prime outside a level's support is answered by the prune alone, so
    # no expansion, atom pair, index or memo entry is made anywhere.
    built = build_chain(FULL_Z2, 3, 2, rng_seed=0, sample_budget=50)
    chain = chain_from_json(json.loads(chain_bytes(built)), revalidate=False)
    sets, parts = {}, {}

    def walk(S):
        if id(S) not in sets:
            sets[id(S)] = S
            for sp in S.sums:
                parts[id(sp)] = sp
                walk(sp.left)
                walk(sp.right)

    levels = [stage_set(chain, i) for i in range(chain.max_level + 1)]
    for S in levels:
        walk(S)
    assert parts

    def state():
        return ([(S._index, dict(S._memo)) for S in sets.values()],
                [sp._index for sp in parts.values()])

    before = state()
    calls = []
    real_expansion, real_add = symsets.expansion, symsets.atom_add
    monkeypatch.setattr(symsets, "expansion",
                        lambda inst, S: calls.append("expansion") or real_expansion(inst, S))
    monkeypatch.setattr(symsets, "atom_add",
                        lambda *a: calls.append("atom_add") or real_add(*a))
    for x in _foreign(FULL_Z2, chain, 3):
        for S in levels:
            assert not member(FULL_Z2, x, S)
    assert calls == []
    assert state() == before


def test_residue_of_the_query_is_computed_once_per_lattice(monkeypatch):
    # Four (generators, modulus) pairs widened by E = span(g) + 2Z all
    # meet in one reduced lattice per search: span(g) + 2Z when y carries
    # g's prime 3, span(3g) + 2Z when it does not (3g = 1 with torsion
    # part 1 is no element of 2Z, so it stays).  So a search computes one
    # residue of y, in the lattice that its support selects.  The residue
    # is y's own, so it must not outlive the search: the points asked in
    # turn alternate between hits on different bases and misses: (1, 0)
    # is not in span(g) + 2Z, where q-part 1 needs n*g with n = 3 - 6t,
    # odd, so torsion part 1.
    inst = FULL_Z2
    g = inst.make([F(1, 3)], (), [1])
    classes = [((), 4), ((), 6), ((g,), 4), ((g,), 2)]
    bases = [inst.make([F(k, 5)], (), [k % 2]) for k in range(3)]
    atoms = [make_atom(inst, b, gens, mod) for gens, mod in classes for b in bases]
    E = make_atom(inst, inst.zero(), [g], 2)
    widened = [make_atom(inst, a.base, a.gens + E.gens, math.gcd(a.mod, E.mod)) for a in atoms]
    idx = _AtomIndex(atoms)

    asked = []
    real = _Lattice.residue
    monkeypatch.setattr(_Lattice, "residue", lambda self, x: asked.append((self, x)) or real(self, x))
    answers = []
    one = inst.make([1], (), [0])
    for k in range(12):
        y = inst.add(inst.add(bases[k % 3], inst.smul(k, g)), inst.from_qvec([F(2 * k - 6)]))
        if k % 4 in (1, 2):
            y = inst.add(y, one)
        ys = vec_support(y.q)
        assert (3 in ys) == (k % 3 != 0)
        want = any(atom_contains_snf(inst, y, w) for w in widened)
        asked.clear()
        assert idx.contains(inst, y, ys, E.gens, E.key()[1], E.mod) == want, k
        (lat,) = [lt for lt, x in asked if x is y]
        (gkeys, M), = [key for key, (lt, _) in idx.lattices.items() if lt is lat]
        assert (gkeys == E.key()[1]) == (3 in ys) and M == 2
        answers.append(want)
    # Each base is a class of its own (bases differ in support or H-part).
    # g has a torsion part, so no H test applies, and P(gens) = {3}.  y
    # carries 5 exactly when its base does: the prime test keeps the 8
    # classes on the bases 1/5 and 2/5 when supp(y) = {3, 5}, the 4 on the
    # base 0 when supp(y) is empty.
    assert len(idx.covering) == 2
    assert len(idx.covering[frozenset({3, 5}), None, frozenset({3}), False]) == 8
    assert len(idx.covering[frozenset(), None, frozenset({3}), False]) == 4
    assert answers == [k % 4 in (0, 3) for k in range(12)]
    # two reduced lattices for all 4 classes and both kinds of y
    assert sorted(len(gkeys) for gkeys, mod in idx.lattices) == [1, 1]


def test_symmetry_verdict_is_computed_once_per_shared_set(monkeypatch):
    built = build_chain(FULL_Z2, 2, 3, rng_seed=0, sample_budget=50)
    # a fresh parse: the build's own checks have not warmed these sets
    chain = chain_from_json(json.loads(chain_bytes(built)), revalidate=False)
    p = chain.conditions[-1]
    q = Condition(p.pi, p.n, p.u, p.s)  # a second condition sharing every level set
    negated = []
    real = symsets.neg_set
    monkeypatch.setattr(symsets, "neg_set", lambda inst, S: negated.append(S) or real(inst, S))
    assert validate(FULL_Z2, p).ok()
    assert negated
    negated.clear()
    assert validate(FULL_Z2, q).ok()
    assert negated == []


def test_negation_is_computed_once_per_shared_set(monkeypatch):
    built = build_chain(FULL_Z2, 2, 3, rng_seed=0, sample_budget=50)
    # a fresh parse: the build's own checks have not warmed these sets
    chain = chain_from_json(json.loads(chain_bytes(built)), revalidate=False)
    asked, negated_atoms = [], []
    real_neg, real_atom_neg = symsets.neg_set, symsets.atom_neg

    def neg_set(inst, S):
        asked.append((S, real_neg(inst, S)))
        return asked[-1][1]

    monkeypatch.setattr(symsets, "neg_set", neg_set)
    monkeypatch.setattr(
        symsets, "atom_neg", lambda inst, a: negated_atoms.append(a) or real_atom_neg(inst, a)
    )
    for p in chain.conditions:
        assert validate(FULL_Z2, p).ok()
    sets = {id(S): S for S, _ in asked}
    # shared sum-part children are asked again and again ...
    assert len(asked) > len(sets) > 0
    # ... and each set gets one negation, built once
    assert len({id(N) for _, N in asked}) == len(sets)
    assert len(negated_atoms) == sum(len(S.atoms) for S in sets.values())


# Private-prime reduction.  5, 7, 11 and 13 stand for the fresh
# denominator primes that capture parts carry.  Generators draw their
# primes from this pool independently, so a prime is sometimes private to
# one generator, sometimes shared within the extra lattice E, within a
# class C or between the two; bases carry some generators' primes (the
# blocked case), and points carry them whenever a coefficient is not a
# multiple of the generator's denominator.  H has a free part or torsion
# of odd order in every case, so r^e*g often has an integral q-part
# divisible by the modulus but a nonzero H-part, and stays.
PRIVATE = [
    ("m1 H=Z+Z/2", Instance(WideGroup(1, "full"), HSpec(1, (2,)))),
    ("m2 H=Z+Z/3", Instance(WideGroup(2, "full"), HSpec(1, (3,)))),
    ("m1 H=Z/4+Z/9", Instance(WideGroup(1, "full"), HSpec(0, (4, 9)))),
]


def _lcm_den(g):
    d = 1
    for c in g.q:
        d = d * c.denominator // math.gcd(d, c.denominator)
    return d


def _integral_hits(inst, rng, egens, emod, atoms):
    """One hit per atom a widened by E: a.base + sum n_g*g + M*z with each
    n_g a multiple of g's denominator, so y - a.base is integral.  The
    pair passes the base-pair filter, and no generator prime outside
    supp(a.base) is in supp(y), so each private one is stripped."""
    out = []
    for a in atoms:
        y = a.base
        for g in a.gens + tuple(egens):
            y = inst.add(y, inst.smul(_lcm_den(g) * rng.randint(-2, 2), g))
        M = math.gcd(a.mod, emod)
        out.append(inst.add(y, inst.from_qvec(tuple(F(M * rng.randint(-2, 2))
                                                    for _ in range(inst.m)))))
    return out


def _private_prime_case(inst, rng, zero_h=False):
    """(E generators, E modulus, C atoms, points): generators with primes
    from the pool (with zero H-parts if zero_h), bases some of which carry
    a generator's prime, and points around sampled hits."""
    m = inst.m

    def hpart(small=False):
        free = [rng.choice((0, 0, 1, -1)) if small else rng.randint(-2, 2)
                for _ in range(inst.h.free_rank)]
        tor = [rng.choice((0, 0, 1)) if small else rng.randrange(d) for d in inst.h.torsion_orders]
        return free, tor

    def gen():
        q = [F(rng.choice((0, 0, 1, 2, 3))) for _ in range(m)]
        for p in rng.sample((5, 7, 11, 13), rng.choice((0, 1, 1, 1, 2))):
            q[rng.randrange(m)] += F(rng.randint(1, p - 1), p ** rng.choice((1, 1, 2)))
        if zero_h:
            return inst.make(q, [0] * inst.h.free_rank, [0] * len(inst.h.torsion_orders))
        return inst.make(q, *hpart(small=True))

    egens = [gen() for _ in range(rng.randint(0, 2))]
    emod = rng.choice((0, 2, 3, 4))
    atoms = []
    for _ in range(rng.randint(2, 3)):
        cgens = [gen() for _ in range(rng.randint(0, 2))]
        mod = rng.choice((1, 2, 3, 4, 6))
        for _ in range(rng.randint(1, 3)):
            base = inst.make([F(rng.randint(-4, 4)) for _ in range(m)], *hpart())
            carriers = cgens + egens
            if carriers and rng.random() < 0.5:
                base = inst.add(base, inst.smul(rng.randint(1, 3), rng.choice(carriers)))
            atoms.append(make_atom(inst, base, cgens, mod))
    points = []
    for a in atoms:
        for _ in range(4):
            y = a.base
            for g in a.gens + tuple(egens):
                n = rng.choice((rng.randint(-3, 3), _lcm_den(g) * rng.randint(-2, 2)))
                y = inst.add(y, inst.smul(n, g))
            M = math.gcd(a.mod, emod)
            y = inst.add(y, inst.from_qvec(tuple(F(M * rng.randint(-2, 2)) for _ in range(m))))
            points.append(y)
            points.append(inst.add(y, inst.make([1] + [0] * (m - 1), *hpart(small=True))))
            points.append(inst.add(y, inst.make([F(1, rng.choice((5, 7)))] + [0] * (m - 1),
                                                *hpart(small=True))))
    return egens, emod, atoms, points


@pytest.mark.parametrize("inst", [c[1] for c in PRIVATE], ids=[c[0] for c in PRIVATE])
def test_private_prime_reduction_matches_snf(inst):
    rng = random.Random(inst.m * 100 + inst.h.free_rank * 10 + len(inst.h.torsion_orders))
    # The base-pair filter answers many misses before any reduction, so 20
    # more cases with zero-H generators, and hits with integral y - b in
    # them, pass it and reach the generators' private primes.
    extra = random.Random(7)
    hits = misses = reduced = bare = 0
    for k in range(60):
        if k < 40:
            egens, emod, atoms, points = _private_prime_case(inst, rng)
        else:
            egens, emod, atoms, points = _private_prime_case(inst, extra, zero_h=True)
            points += _integral_hits(inst, extra, egens, emod, atoms)
        E = make_atom(inst, inst.zero(), egens, 1)
        widened = [make_atom(inst, a.base, a.gens + E.gens, math.gcd(a.mod, emod)) for a in atoms]
        idx = _AtomIndex(atoms)
        own = SymSet(atoms)
        for y in points:
            ys = vec_support(y.q)
            want = any(atom_contains_snf(inst, y, w) for w in widened)
            got = idx.contains(inst, y, ys, E.gens, E.key()[1], emod)
            assert got == want, inst.format_elem(y)
            assert member(inst, y, own) == any(atom_contains_snf(inst, y, a) for a in atoms)
            hits += want
            misses += not want
        lkey = {id(hit): key for key, hit in idx.lattices.items()}
        for (ukeys, *_), hit in idx.reductions.items():
            kept = lkey[id(hit)][0]
            reduced += len(kept) < len(ukeys)
            bare += bool(ukeys) and not kept
    assert hits >= 150 and misses >= 150
    # the reduction is reached: generators drop out, all of them in some
    # unions
    assert reduced >= 30 and bare >= 5


def _rule_cases():
    """(name, instance, extra generators, extra modulus, class atom, y):
    each y is a hit that one wrong form of the private-prime rule misses."""
    zh = Instance(WideGroup(1, "full"), HSpec(1, ()))  # m = 1, H = Z
    m2 = Instance(WideGroup(2, "full"), HSpec(1, (3,)))
    return [
        # 5 is shared by E's (1/5; 1) and C's (2/5; 0): 3*g1 + g2 = (1; 3)
        # has no 5, but its coefficients are no multiples of 5
        ("shared by E and C", zh, [zh.make([F(1, 5)], [1])], 0,
         make_atom(zh, zh.zero(), [zh.make([F(2, 5)], [0])], 4), zh.make([1], [3])),
        # 5 is private to g but the base carries it: y - b = 4/5 = 4g
        ("in a base", zh, [], 0,
         make_atom(zh, zh.make([F(1, 5)], [0]), [zh.make([F(1, 5)], [0])], 1),
         zh.make([1], [0])),
        # 5 is private to g and y carries it: y = g
        ("in supp(y)", zh, [], 0,
         make_atom(zh, zh.zero(), [zh.make([F(1, 5)], [1])], 2), zh.make([F(1, 5)], [1])),
        # 5g = 1 is no element of 2Z, so it stays: y = 5g
        ("not in M*Z^m", zh, [], 0,
         make_atom(zh, zh.zero(), [zh.make([F(1, 5)], [0])], 2), zh.make([1], [0])),
        # 5g = (2; 5): q-part in 2Z, free part 5
        ("free part", zh, [], 0,
         make_atom(zh, zh.zero(), [zh.make([F(2, 5)], [1])], 2), zh.make([2], [5])),
        # m = 2, H = Z + Z/3: 5g = (2, 0; 0, 2), a nonzero torsion part
        ("torsion part", m2, [], 0,
         make_atom(m2, m2.zero(), [m2.make([F(2, 5), 0], [0], [1])], 2),
         m2.make([2, 0], [0], [2])),
    ]


RULE_CASES = _rule_cases()


@pytest.mark.parametrize("case", RULE_CASES, ids=[c[0] for c in RULE_CASES])
def test_private_prime_rule_cases(case):
    _, inst, egens, emod, a, y = case
    E = make_atom(inst, inst.zero(), egens, 1)
    w = make_atom(inst, a.base, a.gens + E.gens, math.gcd(a.mod, emod))
    assert atom_contains_snf(inst, y, w)
    idx = _AtomIndex([a])
    assert idx.contains(inst, y, vec_support(y.q), E.gens, E.key()[1], emod)
    if egens:
        # the same question as a sum part: E's generator on a left atom
        left = SymSet((make_atom(inst, inst.zero(), egens, 1),))
        sp = sum_sets(inst, left, SymSet((a,)), emod).sums[0]
        assert _sumpart_contains(inst, y, sp)
    else:
        assert member(inst, y, SymSet((a,)))


# Base-pair filter.  Each case is a hit, in one atom's class widened by
# E, that one wrong form of the filter misses, or (the last) a miss that
# the H test answers without a residue.
def _filter_cases():
    """(name, instance, E generators, E modulus, class atoms, y, hit)."""
    zh = Instance(WideGroup(1, "full"), HSpec(1, ()))  # m = 1, H = Z
    g3 = zh.make([F(1, 3)], [0])
    g7 = FULL_Z2.make([F(1, 7)], (), [0])
    return [
        # 5 is in supp(y) and supp(b) and cancels in y - b = 1/3 + 2: read
        # as supp(y) | supp(b), no generator covers it
        ("prime cancels in y - b", zh, [], 0,
         [make_atom(zh, zh.make([F(1, 5)], [0]), [g3], 2)],
         zh.make([F(1, 5) + F(7, 3)], [0]), True),
        # y - b = 2/7 needs E's generator 1/7; C has no generator at all
        ("prime of E's generators only", zh, [zh.make([F(1, 7)], [0])], 0,
         [make_atom(zh, zh.make([F(1, 3)], [0]), [], 4)], zh.make([F(1, 3) + F(2, 7)], [0]), True),
        # y - b = (0; 3) = 3g: C's generator has a free part
        ("free part on C", zh, [], 0,
         [make_atom(zh, zh.zero(), [zh.make([0], [1])], 2)], zh.make([0], [3]), True),
        # y - b = (0; 2): E's generator has a free part, C's has none
        ("free part on E", zh, [zh.make([0], [1])], 0,
         [make_atom(zh, zh.make([F(1, 3)], [0]), [g3], 4)], zh.make([F(1, 3)], [2]), True),
        # H = Z/2: y - b = g, whose torsion part is 1
        ("torsion part", FULL_Z2, [], 0,
         [make_atom(FULL_Z2, FULL_Z2.zero(), [FULL_Z2.make([1], (), [1])], 2)],
         FULL_Z2.make([1], (), [1]), True),
        # every generator has zero H-part: the base with y's H-part answers
        ("H-part of one base", FULL_Z2, [FULL_Z2.make([F(1, 5)], (), [0])], 2,
         [make_atom(FULL_Z2, FULL_Z2.make([F(1, 3)], (), [h]), [g7], 4) for h in (0, 1)],
         FULL_Z2.make([F(1, 3) + F(2, 5) + F(3, 7)], (), [1]), True),
        ("H-part of no base", FULL_Z2, [FULL_Z2.make([F(1, 5)], (), [0])], 2,
         [make_atom(FULL_Z2, FULL_Z2.make([F(1, 3)], (), [0]), [g7], 4)],
         FULL_Z2.make([F(1, 3) + F(2, 5) + F(3, 7)], (), [1]), False),
    ]


FILTER_CASES = _filter_cases()


@pytest.mark.parametrize("case", FILTER_CASES, ids=[c[0] for c in FILTER_CASES])
def test_base_pair_filter_cases(case, monkeypatch):
    _, inst, egens, emod, atoms, y, hit = case
    E = make_atom(inst, inst.zero(), egens, 1)
    widened = [make_atom(inst, a.base, a.gens + E.gens, math.gcd(a.mod, emod)) for a in atoms]
    assert any(atom_contains_snf(inst, y, w) for w in widened) == hit
    residues = []
    real = _Lattice.residue
    monkeypatch.setattr(_Lattice, "residue", lambda self, x: residues.append(x) or real(self, x))
    idx = _AtomIndex(atoms)
    assert idx.contains(inst, y, vec_support(y.q), E.gens, E.key()[1], emod) == hit
    if not hit:
        # the H test left no class to ask
        assert residues == []
    # the same question as a sum part: E on a left atom on the base 1, its
    # modulus standing in for emod (60 for none), and no zero fast path
    # answers
    one = inst.from_qvec((F(1),) + (F(0),) * (inst.m - 1))
    left = SymSet((make_atom(inst, one, egens, emod or 60),))
    sp = sum_sets(inst, left, SymSet(tuple(atoms))).sums[0]
    x = inst.add(y, one)
    zero = inst.zero()
    assert not (member(inst, zero, sp.right) and member(inst, x, left))
    assert not (member(inst, zero, left) and member(inst, x, sp.right))
    assert sumpart_contains_pair_scan(inst, x, sp) == hit
    assert _sumpart_contains(inst, x, sp) == hit


@pytest.mark.parametrize("inst", [c[1] for c in PRIVATE], ids=[c[0] for c in PRIVATE])
def test_base_pair_filter_matches_pair_scan(inst):
    # Bases and generators draw denominators from 3, 5 and 7, so y and b
    # often share a prime; generators have zero H-parts, or free or
    # torsion parts; bases differ in H-part.  Points are sampled hits and
    # hits moved by a prime or by an H unit.
    rng = random.Random(20 + inst.m * 100 + inst.h.free_rank * 10 + len(inst.h.torsion_orders))
    m, fr, tors = inst.m, inst.h.free_rank, inst.h.torsion_orders

    def elem(dens, h):
        q = [F(rng.randint(-3, 3), rng.choice(dens)) for _ in range(m)]
        if not h:
            return inst.make(q, [0] * fr, [0] * len(tors))
        return inst.make(q, [rng.choice((0, 1)) for _ in range(fr)],
                         [rng.randrange(d) for d in tors])

    def atom(h_gens):
        gens = [elem((3, 5, 7), h_gens and rng.random() < 0.5) for _ in range(rng.randint(0, 2))]
        return make_atom(inst, elem((1, 3, 5, 7), True), gens, rng.choice((1, 2, 3, 4)))

    hits = misses = 0
    unit_h = inst.make([0] * m, [1] * fr, [1] * len(tors))
    for k in range(12):
        h_gens = k % 2 == 1
        sp = SumPart(symset_from_atoms(inst, [atom(h_gens) for _ in range(3)]),
                     symset_from_atoms(inst, [atom(h_gens) for _ in range(5)]),
                     rng.choice((0, 2, 6)))
        own = SymSet((), (sp,))
        points = inst.enumerate_first(10)
        for _ in range(12):
            y = sample_point(inst, own, rng, 3)
            points += [y, inst.add(y, unit_h),
                       inst.add(y, inst.from_qvec(tuple(F(1, rng.choice((3, 5, 7)))
                                                        for _ in range(m))))]
        for x in points:
            got = _sumpart_contains(inst, x, sp)
            assert got == sumpart_contains_pair_scan(inst, x, sp), inst.format_elem(x)
            hits += got
            misses += not got
    assert hits >= 150 and misses >= 100


def _in_support_miss_batch(monkeypatch, cls, name):
    """Run a fixed batch of 24 misses on a fresh load of an L2 N3 chain,
    each with its support inside every level's, and return how often
    cls.<name> ran."""
    built = build_chain(FULL_Z2, 2, 3, rng_seed=0, sample_budget=50)
    chain = chain_from_json(json.loads(chain_bytes(built)), revalidate=False)
    levels = [stage_set(chain, i) for i in range(chain.max_level + 1)]
    calls = []
    real = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *a: calls.append(1) or real(self, *a))
    for lit in ("-1;1", "0;1", "1;1", "-2;1", "2;1", "-3;1", "3;1", "-4;1"):
        x = FULL_Z2.parse_elem(lit)
        for S in levels:
            assert vec_support(x.q) <= S.supp()
            assert not member(FULL_Z2, x, S), lit
    return len(calls)


def test_in_support_misses_build_fewer_lattices(monkeypatch):
    # Before the private-prime reduction this batch built 455 _Lattice
    # objects (one per extra lattice and class union); reduced cells share
    # 91.
    assert _in_support_miss_batch(monkeypatch, _Lattice, "__init__") < 455


def test_in_support_misses_compute_fewer_residues(monkeypatch):
    # When each left atom computed its own point's residues, this batch
    # computed 17,134; left atoms on one base now share them, 7,414.
    assert _in_support_miss_batch(monkeypatch, _Lattice, "residue") < 17134


# Asked of the same batch.  With the needed-support filter before the
# base-pair filter it filled 6,426 cells and computed 7,414 residues; the
# base-pair filter fills 24 and computes 230.  Testing supp(y) - supp(b)
# in place of the symmetric difference, a weaker filter that is still a
# necessary condition, fills 720 and computes 1,524.
def test_in_support_misses_fill_few_cells(monkeypatch):
    assert _in_support_miss_batch(monkeypatch, _AtomIndex, "_cell") < 100


def test_in_support_misses_compute_few_residues(monkeypatch):
    assert _in_support_miss_batch(monkeypatch, _Lattice, "residue") < 500


def _shared_base_sumpart(inst, rng):
    """A sum part whose left child puts three atoms, with different
    generators and moduli, on each of four bases (0, an integer, and two
    with denominators); bases, generators and right atoms draw
    denominators from 3, 5 and 7, so the points x - b of one x differ in
    support and reach reduced lattices both their own and shared."""

    def elem(dens):
        return inst.make([F(rng.randint(-3, 3), rng.choice(dens))], (), [rng.randint(0, 1)])

    bases = [inst.zero(), inst.make([rng.randint(1, 3)], (), [1]), elem((1, 3, 7)), elem((5, 7))]
    left = [make_atom(inst, b, [elem((1, 3, 5, 7)) for _ in range(k % 3)], mod)
            for b in bases for k, mod in enumerate(rng.sample((1, 2, 4, 6), 3))]
    right = [make_atom(inst, elem((1, 1, 5, 7)), [elem((3, 5, 7)) for _ in range(rng.randint(0, 1))],
                       rng.choice((2, 4, 6))) for _ in range(4)]
    return SumPart(symset_from_atoms(inst, left), symset_from_atoms(inst, right),
                   rng.choice((0, 4, 12)))


def test_left_atoms_on_one_base_share_their_point_and_residues(monkeypatch):
    # Within one _sumpart_contains call, left atoms on one base b ask the
    # right index about one point x - b: its residue in a lattice is
    # computed once, however many of them reach the lattice, and never
    # shared with another base or another call.  Residues of class bases
    # (computed inside _cell) are not the query's and are not counted.
    inst = FULL_Z2
    rng = random.Random(15)
    residues, asked, in_cell = [], [], []
    real_residue, real_cell, real_contains = _Lattice.residue, _AtomIndex._cell, _AtomIndex.contains

    def residue(self, x):
        if not in_cell:
            residues.append((self, symsets._elem_key(x)))
        return real_residue(self, x)

    def cell(self, *a):
        in_cell.append(1)
        try:
            return real_cell(self, *a)
        finally:
            in_cell.pop()

    def contains(self, inst, y, *a):
        asked.append((self, symsets._elem_key(y)))
        return real_contains(self, inst, y, *a)

    monkeypatch.setattr(_Lattice, "residue", residue)
    monkeypatch.setattr(_AtomIndex, "_cell", cell)
    monkeypatch.setattr(_AtomIndex, "contains", contains)
    # The left atoms of each base meet the right atom in 4Z and in
    # span(3 * third) + 2Z.  x = 3 lies in the base-1 sums only: a residue
    # of x - 0 read for x - 1 misses it.
    one, third = inst.make([1], (), [0]), inst.make([F(1, 3)], (), [1])
    fixed = SumPart(
        symset_from_atoms(inst, [make_atom(inst, b, gens, mod) for b in (inst.zero(), one)
                                 for gens, mod in (((), 4), ((third,), 6))]),
        symset_from_atoms(inst, [make_atom(inst, inst.make([2], (), [0]), [], 4)]),
        0,
    )
    assert _sumpart_contains(inst, inst.make([3], (), [0]), fixed)
    hits = misses = repeats = 0
    for sp in [fixed] + [_shared_base_sumpart(inst, rng) for _ in range(16)]:
        left = symsets.expansion(inst, sp.left)
        assert len({a.key()[0] for a in left}) < len(left)
        own = SymSet((), (sp,))
        points = inst.enumerate_first(40)
        for _ in range(8):
            y = sample_point(inst, own, rng, 3)
            points += [y, inst.add(y, inst.make([1], (), [0])), inst.add(y, inst.make([0], (), [1]))]
        for x in points:
            residues.clear()
            asked.clear()
            got = _sumpart_contains(inst, x, sp)
            assert got == sumpart_contains_pair_scan(inst, x, sp), inst.format_elem(x)
            assert len(residues) == len(set(residues)), inst.format_elem(x)
            hits += got
            misses += not got
            # left atoms on one base that asked the same point again
            points_asked = [y for idx, y in asked if idx is sp._index]
            repeats += len(points_asked) - len(set(points_asked))
    assert hits >= 400 and misses >= 150
    assert repeats >= 1000
