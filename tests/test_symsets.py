"""Symbolic set layer.  Oracles: exhaustive small-box searches for integer
systems and atom membership, hand-checked goldens for the Q_pi congruence
tests, and an explicit atom-pair decision for structural sum parts.
"""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssgpkit.symsets as symsets
from ssgpkit.groups import HSpec, Instance, WideGroup
from ssgpkit.symsets import (
    SSGPWitness,
    SumPart,
    SymSet,
    atom_add,
    cyclic_in_set,
    expansion,
    is_symmetric_syntactic,
    lattice_set,
    make_atom,
    member,
    neg_set,
    sample_point,
    snf_solve,
    sum_sets,
    symset_from_atoms,
    symset_from_json,
    symset_superset_syntactic,
    symset_to_json,
    syntactic_remainder,
    union_sets,
    witness_from_json,
    witness_to_json,
)

from oracles import (
    atom_contains_snf,
    cyclic_cap_qpi,
    member_mod_qpi,
    remainder_scan,
    superset_scan,
)


@pytest.fixture
def inst1():
    return Instance(WideGroup(1, "full"), HSpec(0, ()))


@pytest.fixture
def inst_tor():
    return Instance(WideGroup(1, "full"), HSpec(0, (2,)))


@pytest.fixture
def inst2():
    return Instance(WideGroup(2, "full"), HSpec(1, (3,)))


# -- snf_solve ---------------------------------------------------------------


def test_snf_trivial():
    assert snf_solve([[1]], [3]) == [3]
    assert snf_solve([[2]], [3]) is None
    assert snf_solve([[2]], [4]) == [2]


def test_snf_system():
    # x + 2y = 5, 3x + 4y = 11 -> x=1, y=2 (unique over Q, integral)
    y = snf_solve([[1, 2], [3, 4]], [5, 11])
    assert y == [1, 2]


def test_snf_inconsistent():
    assert snf_solve([[1, 1], [1, 1]], [0, 1]) is None
    assert snf_solve([[0, 0]], [1]) is None
    assert snf_solve([[0, 0]], [0]) == [0, 0]


def brute_solvable(A, c, box):
    """Whether some y in [-box, box]^cols solves A y = c, scanning the whole
    box: every value of y_0 against one precomputed grid of the others."""
    M = np.array(A, dtype=np.int64)
    side = 2 * box + 1
    k = M.shape[1] - 1
    idx = np.arange(side**k, dtype=np.int64)
    rest = idx[:, None] // side ** np.arange(k, dtype=np.int64) % side - box
    partial = rest @ M[:, 1:].T
    target = np.array(c, dtype=np.int64)
    return any(
        np.all(partial == target - y0 * M[:, 0], axis=1).any()
        for y0 in range(-box, box + 1)
    )


def test_brute_solvable_matches_loop():
    # the vectorized oracle against the plain scan it replaced, on a box
    # small enough for the loop
    def loop(A, c, box):
        cols = len(A[0])
        return any(
            all(sum(A[i][j] * y[j] for j in range(cols)) == c[i] for i in range(len(A)))
            for y in itertools.product(range(-box, box + 1), repeat=cols)
        )

    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        A = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        c = [rng.randint(-6, 6) for _ in range(rows)]
        assert brute_solvable(A, c, 2) == loop(A, c, 2)


def test_snf_random_vs_brute():
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        A = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:
            y0 = [rng.randint(-3, 3) for _ in range(cols)]
            c = [sum(A[i][j] * y0[j] for j in range(cols)) for i in range(rows)]
        else:
            c = [rng.randint(-6, 6) for _ in range(rows)]
        got = snf_solve(A, c)
        solvable = brute_solvable(A, c, 15)
        if solvable:
            assert got is not None
        if got is None:
            assert not solvable
        # when a solution is returned it was already re-verified internally


# -- atom membership ---------------------------------------------------------


def test_member_spec_examples(inst1):
    atom = make_atom(inst1, inst1.zero(), [inst1.make([F(1, 3)])], 5)
    S = SymSet([atom])
    assert member(inst1, inst1.make([F(16, 3)]), S)  # 16/3 = 1/3 + 5
    assert not member(inst1, inst1.make([F(1, 2)]), S)
    assert member(inst1, inst1.zero(), S)


def test_member_torsion_lattice_has_zero_hpart(inst_tor):
    # pure lattice never reaches nonzero torsion
    S = lattice_set(inst_tor, 1)
    assert member(inst_tor, inst_tor.make([F(3)], [], [0]), S)
    assert not member(inst_tor, inst_tor.make([F(3)], [], [1]), S)


def test_member_free_part(inst2):
    g = inst2.make([F(1, 2), F(0)], [1], [0])
    S = SymSet([make_atom(inst2, inst2.zero(), [g], 7)])
    # x = 3*g + 7*(1,-2): q = (3/2+7, -14), free = 3
    x = inst2.make([F(3, 2) + 7, F(-14)], [3], [0])
    assert member(inst2, x, S)
    # free part forced odd multiples of 1 -> free=3 with q mismatched fails
    y = inst2.make([F(1, 2), F(0)], [2], [0])
    assert not member(inst2, y, S)


def brute_atom_member(inst, x, atom, box=15):
    """Exhaustive oracle: coefficients in [-box, box], lattice determined."""
    r = len(atom.gens)
    for ns in itertools.product(range(-box, box + 1), repeat=r):
        res = inst.add(x, inst.neg(atom.base))
        for n, g in zip(ns, atom.gens):
            res = inst.add(res, inst.smul(-n, g))
        if any(res.free) or any(res.tor):
            continue
        if all(c.denominator == 1 and c % atom.mod == 0 for c in res.q):
            return True
    return False


def _random_atom(inst, rng, max_gens=2):
    def rand_elem():
        q = [F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 5])) for _ in range(inst.m)]
        free = [rng.randint(-3, 3) for _ in range(inst.h.free_rank)]
        tor = [rng.randrange(d) for d in inst.h.torsion_orders]
        return inst.make(q, free, tor)

    gens = [rand_elem() for _ in range(rng.randint(0, max_gens))]
    return make_atom(inst, rand_elem(), gens, rng.randint(1, 12))


def test_member_vs_brute_positive_and_fresh_prime_negative(inst_tor):
    rng = random.Random(11)
    for _ in range(40):
        atom = _random_atom(inst_tor, rng)
        S = SymSet([atom])
        # positive: build a point from in-box coefficients
        x = atom.base
        for g in atom.gens:
            x = inst_tor.add(x, inst_tor.smul(rng.randint(-8, 8), g))
        x = inst_tor.add(x, inst_tor.make([F(atom.mod * rng.randint(-3, 3))], [], [0]))
        assert brute_atom_member(inst_tor, x, atom)
        assert member(inst_tor, x, S)
        # negative: a fresh denominator prime cannot be manufactured
        y = inst_tor.add(x, inst_tor.make([F(1, 97)], [], [0]))
        assert not brute_atom_member(inst_tor, y, atom)
        assert not member(inst_tor, y, S)


@settings(max_examples=60)
@given(st.data())
def test_member_completeness_property(data):
    inst = Instance(WideGroup(1, "full"), HSpec(0, (2,)))
    base = inst.make(
        [data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))],
        [],
        [data.draw(st.integers(0, 1))],
    )
    g = inst.make(
        [data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))],
        [],
        [data.draw(st.integers(0, 1))],
    )
    mod = data.draw(st.integers(1, 9))
    atom = make_atom(inst, base, [g], mod)
    n = data.draw(st.integers(-10, 10))
    z = data.draw(st.integers(-10, 10))
    x = inst.add(inst.add(base, inst.smul(n, g)), inst.make([F(mod * z)], [], [0]))
    assert member(inst, x, SymSet([atom]))


# -- sums and unions ---------------------------------------------------------


def pair_oracle(inst, x, S, T, latt=0):
    """x in S + T (+ latt*Z^m) for atom-only S and T, decided pair by pair:
    a + b + latt*Z^m is the atom with base a.base + b.base, the generators
    of both, and lattice gcd(a.mod, b.mod, latt)."""
    assert not S.sums and not T.sums
    for a in S.atoms:
        for b in T.atoms:
            mod = math.gcd(math.gcd(a.mod, b.mod), latt)
            pair = make_atom(inst, inst.add(a.base, b.base), a.gens + b.gens, mod)
            if atom_contains_snf(inst, x, pair):
                return True
    return False


def test_sum_spec_examples(inst1):
    Z = lattice_set(inst1, 1)
    ZZ = sum_sets(inst1, Z, Z)
    assert not ZZ.atoms and len(ZZ.sums) == 1  # always structural
    a = symset_from_atoms(inst1, [make_atom(inst1, inst1.make([F(1, 3)]), (), 2)])
    b = symset_from_atoms(inst1, [make_atom(inst1, inst1.make([F(1, 5)]), (), 4)])
    got = sum_sets(inst1, a, b)
    # 1/3 + 2Z + 1/5 + 4Z = 8/15 + 2Z
    assert member(inst1, inst1.make([F(8, 15)]), got)
    assert member(inst1, inst1.make([F(8, 15) - 2]), got)
    assert not member(inst1, inst1.make([F(8, 15) + 1]), got)
    for num in range(-45, 46):
        x = inst1.make([F(num, 15)])
        assert member(inst1, x, ZZ) == pair_oracle(inst1, x, Z, Z)
        assert member(inst1, x, got) == pair_oracle(inst1, x, a, b)


def test_sum_sampled_soundness(inst_tor):
    rng = random.Random(3)
    S = symset_from_atoms(inst_tor, [_random_atom(inst_tor, rng) for _ in range(3)])
    T = symset_from_atoms(inst_tor, [_random_atom(inst_tor, rng) for _ in range(3)])
    total = sum_sets(inst_tor, S, T)
    for _ in range(25):
        x = sample_point(inst_tor, S, rng, 5)
        y = sample_point(inst_tor, T, rng, 5)
        assert member(inst_tor, inst_tor.add(x, y), total)


def test_sum_structural_fallback_matches_materialized(inst1):
    rng = random.Random(5)
    atoms_s = [make_atom(inst1, inst1.make([F(i, 3)]), (), 6) for i in range(1, 8)]
    atoms_t = [make_atom(inst1, inst1.make([F(j, 5)]), (), 10) for j in range(1, 8)]
    S = symset_from_atoms(inst1, atoms_s)
    T = symset_from_atoms(inst1, atoms_t)
    lazy = sum_sets(inst1, S, T, 4)
    assert lazy.sums and not lazy.atoms
    for _ in range(40):
        x = sample_point(inst1, lazy, rng, 4)
        assert pair_oracle(inst1, x, S, T, 4)
        assert member(inst1, x, lazy)
    probes = [inst1.make([F(1, 7)]), inst1.make([F(11, 15)]), inst1.zero()]
    probes += [inst1.make([F(num, 15)]) for num in range(-40, 41)]
    for probe in probes:
        assert member(inst1, probe, lazy) == pair_oracle(inst1, probe, S, T, 4)


def test_expansion_limit_guard(inst1, monkeypatch):
    S = symset_from_atoms(inst1, [make_atom(inst1, inst1.make([F(i)]), (), 1) for i in range(6)])
    node = SymSet((), (SumPart(S, S, 1),))
    monkeypatch.setattr(symsets, "EXPAND_LIMIT", 10)
    with pytest.raises(symsets.ExpansionLimitError):
        expansion(inst1, node)


def test_union_dedup_and_subsume(inst1):
    a1 = make_atom(inst1, inst1.make([F(1, 2)]), (), 2)
    a2 = make_atom(inst1, inst1.make([F(1, 2)]), (), 4)  # subsumed by a1
    a3 = make_atom(inst1, inst1.make([F(1, 2)]), (), 3)  # incomparable with a1
    U = union_sets(inst1, SymSet([a1]), SymSet([a2]), SymSet([a3]))
    mods = sorted(a.mod for a in U.atoms)
    assert mods == [2, 3]
    # union of identical sum parts keeps one
    Z = lattice_set(inst1, 1)
    sp = SymSet((), (SumPart(Z, Z, 2),))
    U2 = union_sets(inst1, sp, sp)
    assert len(U2.sums) == 1


def test_union_prunes_subsumed_sum_node(inst1):
    small = lattice_set(inst1, 2)
    big = union_sets(inst1, small, lattice_set(inst1, 3))
    old = SymSet((), (SumPart(small, small, 4),))
    new = SymSet((), (SumPart(big, big, 2),))
    merged = union_sets(inst1, old, new)
    assert len(merged.sums) == 1
    assert merged.sums[0].key() == new.sums[0].key()


def test_superset_syntactic(inst1):
    a1 = make_atom(inst1, inst1.make([F(1, 2)]), (), 2)
    a2 = make_atom(inst1, inst1.make([F(1, 2)]), (), 4)
    big = SymSet([a1])
    small = SymSet([a2])
    assert symset_superset_syntactic(inst1, big, small)
    assert not symset_superset_syntactic(inst1, small, big)


def test_syntactic_cover_matches_scan(inst_tor):
    # Few bases and generator lists, so many atoms share (base, generators)
    # with moduli on divisor chains (1 | 2 | 4, 3 | 6 | 12), beside their
    # negated twins (same generators, negated base) and atoms that share
    # only the base or only the generators.  Every answer is held against
    # the scan over all atom pairs.
    inst = inst_tor
    rng = random.Random(10)
    bases = [inst.zero(), inst.make([F(1, 2)], [], [0]), inst.make([F(-1, 2)], [], [0]),
             inst.make([F(2, 3)], [], [1]), inst.make([F(1)], [], [1])]
    gen_lists = [(), (inst.make([F(1, 3)], [], [0]),), (inst.make([F(1, 5)], [], [1]),),
                 (inst.make([F(1, 3)], [], [0]), inst.make([F(1, 5)], [], [1]))]
    mods = (1, 2, 4, 3, 6, 12)

    def atom():
        return make_atom(inst, rng.choice(bases), rng.choice(gen_lists), rng.choice(mods))

    def atoms_set(k):
        return SymSet([atom() for _ in range(k)])

    def twin(S):
        # the same (base, generators) groups, each modulus moved along its chain
        return SymSet([make_atom(inst, a.base, a.gens, a.mod * rng.choice((1, 2))) for a in S.atoms])

    children = [atoms_set(rng.randint(1, 4)) for _ in range(5)]
    children += [twin(S) for S in children] + [neg_set(inst, S) for S in children]

    def sset():
        S = atoms_set(rng.randint(0, 5))
        sums = [SumPart(rng.choice(children), rng.choice(children), rng.choice((0, 2, 4)))
                for _ in range(rng.randint(0, 2))]
        return SymSet(S.atoms, sums)

    sets = [sset() for _ in range(30)]
    sets += [twin(S) for S in sets[:10]] + [neg_set(inst, S) for S in sets[:10]]
    outcomes = {True: 0, False: 0}
    for big in sets:
        for small in rng.sample(sets, 12) + [twin(big), neg_set(inst, big)]:
            want = superset_scan(big, small)
            assert symset_superset_syntactic(inst, big, small) == want
            got_atoms, got_sums = syntactic_remainder(inst, big, small)
            want_atoms, want_sums = remainder_scan(big, small)
            assert [a.key() for a in got_atoms] == [a.key() for a in want_atoms]
            assert [sp.key() for sp in got_sums] == [sp.key() for sp in want_sums]
            outcomes[want] += 1
    assert min(outcomes.values()) >= 50, outcomes


# -- symmetry ----------------------------------------------------------------


def test_symmetry_checks(inst_tor):
    g = inst_tor.make([F(1, 3)], [], [1])
    h = inst_tor.make([F(1, 2)], [], [0])
    sym = symset_from_atoms(
        inst_tor,
        [
            make_atom(inst_tor, h, (), 2),
            make_atom(inst_tor, inst_tor.neg(h), (), 2),
            make_atom(inst_tor, inst_tor.zero(), [g], 1),
        ],
    )
    assert is_symmetric_syntactic(inst_tor, sym)
    asym = symset_from_atoms(inst_tor, [make_atom(inst_tor, h, (), 2)])
    assert not is_symmetric_syntactic(inst_tor, asym)
    # semantic shadow on samples
    rng = random.Random(9)
    for _ in range(20):
        x = sample_point(inst_tor, sym, rng, 5)
        assert member(inst_tor, x, sym)
        assert member(inst_tor, inst_tor.neg(x), sym)


def test_symmetry_through_sum_nodes(inst1):
    h = inst1.make([F(1, 5)])
    base = symset_from_atoms(
        inst1, [make_atom(inst1, h, (), 1), make_atom(inst1, inst1.neg(h), (), 1)]
    )
    node = SymSet(lattice_set(inst1, 1).atoms, (SumPart(base, base, 2),))
    assert is_symmetric_syntactic(inst1, node)


# -- sampling ----------------------------------------------------------------


def test_sample_points_are_members(inst_tor):
    rng = random.Random(1)
    S = symset_from_atoms(inst_tor, [_random_atom(inst_tor, rng) for _ in range(4)])
    node = SymSet(S.atoms, (SumPart(S, S, 3),))
    for _ in range(30):
        x = sample_point(inst_tor, node, rng, 6)
        assert member(inst_tor, x, node)


def test_sample_deterministic(inst1):
    S = symset_from_atoms(inst1, [make_atom(inst1, inst1.make([F(1, 3)]), (), 2)])
    a = [sample_point(inst1, S, random.Random(42), 8) for _ in range(10)]
    b = [sample_point(inst1, S, random.Random(42), 8) for _ in range(10)]
    assert a == b


# -- envelopes and cyclic subgroups ------------------------------------------


def test_cyclic_cap_qpi_examples():
    assert cyclic_cap_qpi((F(2, 5),), frozenset({3})) == (F(2),)
    assert cyclic_cap_qpi((F(7), F(-2)), frozenset({5})) == (F(7), F(-2))
    # Q_{} = Z: <1/3> meets it in Z
    assert cyclic_cap_qpi((F(1, 3),), frozenset()) == (F(1),)
    assert cyclic_cap_qpi((F(1, 6), F(1, 4)), frozenset()) == (F(2), F(3))


@given(
    st.fractions(min_value=-10, max_value=10, max_denominator=30),
    st.sets(st.sampled_from([2, 3, 5]), max_size=2),
)
def test_cyclic_cap_divisibility(q, pi):
    from ssgpkit.arith import cap_multiplier, qpi_member

    g = (q,)
    D = cap_multiplier(g, pi)
    for n in range(-50, 51):
        assert qpi_member((n * q,), pi) == (n % D == 0)


def test_cyclic_in_set_modes(inst1):
    g = inst1.make([F(1, 5)])
    S = SymSet([make_atom(inst1, inst1.zero(), [g], 1)])
    assert cyclic_in_set(inst1, g, S)
    assert cyclic_in_set(inst1, inst1.neg(g), S)  # sign-canonical generators
    assert all(member(inst1, inst1.smul(n, g), S) for n in range(-25, 26))
    other = inst1.make([F(1, 7)])
    assert not cyclic_in_set(inst1, other, S)
    assert not all(member(inst1, inst1.smul(n, other), S) for n in range(-5, 6))


def test_cyclic_syntactic_implies_bounded(inst_tor):
    rng = random.Random(13)
    for _ in range(10):
        g = inst_tor.make([F(rng.randint(-5, 5), rng.choice([1, 2, 3]))], [], [rng.randrange(2)])
        S = SymSet(
            [
                make_atom(inst_tor, inst_tor.zero(), [g], rng.randint(1, 6)),
                _random_atom(inst_tor, rng),
            ]
        )
        if cyclic_in_set(inst_tor, g, S):
            assert all(member(inst_tor, inst_tor.smul(n, g), S) for n in range(-12, 13))


# -- member_mod_qpi ----------------------------------------------------------


def test_member_mod_qpi_examples():
    assert member_mod_qpi((F(1, 3),), [], frozenset({3}))  # already in Q_{3}
    assert not member_mod_qpi((F(1, 3),), [(F(1, 5),)], frozenset({5}))
    assert member_mod_qpi((F(1, 5),), [(F(1, 5),)], frozenset({7}))


def test_member_mod_qpi_empty_pi_exact_span():
    # Q_{} = Z: membership in the exact span plus Z^m
    assert member_mod_qpi((F(3, 5),), [(F(1, 5),)], frozenset())
    assert member_mod_qpi((F(3, 5) + 4,), [(F(1, 5),)], frozenset())
    assert not member_mod_qpi((F(1, 2),), [(F(1, 5),)], frozenset())
    assert not member_mod_qpi((F(1, 10),), [(F(1, 5),)], frozenset())
    assert member_mod_qpi((F(0), F(0)), [], frozenset())
    assert member_mod_qpi((F(1), F(-3)), [], frozenset())
    assert not member_mod_qpi((F(1, 2),), [], frozenset())
    # (1/2, 0) is 3*(1/2, 1/3) modulo Z^2; no multiple has a 2 in the
    # second denominator
    assert member_mod_qpi((F(1, 2), F(0)), [(F(1, 2), F(1, 3))], frozenset())
    assert not member_mod_qpi((F(1, 2), F(1, 2)), [(F(1, 2), F(1, 3))], frozenset())


def brute_member_mod_qpi(x, gens, pi, box=15):
    from ssgpkit.arith import qpi_member

    m = len(x)
    for ns in itertools.product(range(-box, box + 1), repeat=len(gens)):
        res = tuple(x[i] - sum(n * g[i] for n, g in zip(ns, gens)) for i in range(m))
        if qpi_member(res, pi):
            return True
    return False


def test_member_mod_qpi_vs_brute():
    rng = random.Random(17)
    pis = [frozenset({3}), frozenset({2, 5}), frozenset({7})]
    for _ in range(40):
        pi = rng.choice(pis)
        m = rng.randint(1, 2)
        gens = [
            tuple(F(rng.randint(-4, 4), rng.choice([1, 2, 3, 5, 7])) for _ in range(m))
            for _ in range(rng.randint(0, 2))
        ]
        # positive candidates: in-box combination plus a Q_pi point
        inside_num = rng.randint(-5, 5)
        inside_den = 1
        for p in pi:
            if rng.random() < 0.5:
                inside_den *= p
        coeffs = [rng.randint(-6, 6) for _ in gens]
        base = tuple(
            sum((c * g[i] for c, g in zip(coeffs, gens)), F(inside_num, inside_den))
            for i in range(m)
        )
        assert member_mod_qpi(base, gens, pi) == brute_member_mod_qpi(base, gens, pi)
        assert member_mod_qpi(base, gens, pi)
        # provable negative: fresh prime outside everything
        neg = tuple(c + F(1, 89) for c in base)
        assert not member_mod_qpi(neg, gens, pi)
        assert not brute_member_mod_qpi(neg, gens, pi)


def test_member_mod_qpi_worked_negative():
    # l*(-1/105) in Z*(1/5) + Q_{3} fails for l = 1, 2: valuation at 7
    for l in (1, 2, -1, -2):
        assert not member_mod_qpi((F(-l, 105),), [(F(1, 5),)], frozenset({3}))


# -- witnesses and serialization ---------------------------------------------


def test_witness_identity(inst_tor):
    head = inst_tor.make([F(-1, 105)], [], [0])
    parts = (inst_tor.make([F(1, 5)], [], [0]), inst_tor.make([F(1, 7)], [], [0]))
    w = SSGPWitness(inst_tor.make([F(1, 3)], [], [0]), 0, head, parts)
    assert w.verify_identity(inst_tor)
    bad = SSGPWitness(inst_tor.make([F(1, 3)], [], [0]), 0, head, parts[:1])
    assert not bad.verify_identity(inst_tor)


def test_symset_json_roundtrip(inst_tor):
    rng = random.Random(23)
    S = symset_from_atoms(inst_tor, [_random_atom(inst_tor, rng) for _ in range(3)])
    node = SymSet(S.atoms, (SumPart(S, lattice_set(inst_tor, 2), 4),))
    back = symset_from_json(inst_tor, symset_to_json(node), {})
    assert back.key() == node.key()


def test_witness_json_roundtrip(inst_tor):
    w = SSGPWitness(
        inst_tor.make([F(1, 3)], [], [1]),
        2,
        inst_tor.make([F(-1, 105)], [], [1]),
        (inst_tor.make([F(1, 5)], [], [0]),),
    )
    assert witness_from_json(inst_tor, witness_to_json(w)) == w


def test_neg_set_roundtrip(inst_tor):
    rng = random.Random(29)
    S = symset_from_atoms(inst_tor, [_random_atom(inst_tor, rng) for _ in range(3)])
    assert neg_set(inst_tor, neg_set(inst_tor, S)).key() == S.key()
