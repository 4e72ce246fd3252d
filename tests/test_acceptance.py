"""Acceptance gate: one test per top-level guarantee.

Each test prints a single summary line so a -s run reads as a checklist;
the stated runtime bounds are asserted, not just reported.
"""

import random
import time
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest

from ssgpkit import (
    Condition,
    HSpec,
    Instance,
    SymSet,
    WideGroup,
    build_chain,
    chain_bytes,
    check_lemma_iterative,
    extend_primes,
    extend_ssgp,
    leq,
    load_chain,
    member,
    save_chain,
    separation_certificate,
    ssgp_certificate,
    stage_invariants,
    validate,
)
from ssgpkit.arith import qpi_member
from ssgpkit.groups import find_g, find_g_sequence
from ssgpkit.poset import root
from ssgpkit.symsets import make_atom

from oracles import cyclic_cap_qpi


@pytest.fixture(scope="module")
def built():
    """The reference end-to-end run: m=1, all of Q, H = Z/2, level budget 2,
    first 10 elements, seed 0."""
    inst = Instance(WideGroup(1, "full"), HSpec(0, (2,)))
    t0 = time.monotonic()
    chain = build_chain(inst, max_level=2, enum_count=10, rng_seed=0, sample_budget=200)
    return inst, chain, time.monotonic() - t0


# -- 1: membership vs exhaustive brute force ---------------------------------


def brute_member(inst, x, atom, box=15):
    """Vectorized exhaustive oracle over the coefficient box."""
    r = len(atom.gens)
    t = inst.add(x, inst.neg(atom.base))
    dens = [c.denominator for c in t.q]
    for g in atom.gens:
        dens.extend(c.denominator for c in g.q)
    D = 1
    for d in dens:
        D = lcm(D, d)
    M = D * atom.mod
    tq = np.array([int(c * D) for c in t.q], dtype=np.int64)
    tf = np.array(t.free, dtype=np.int64)
    tt = np.array(t.tor, dtype=np.int64)
    dmods = np.array(inst.h.torsion_orders, dtype=np.int64)
    if r == 0:
        ok = np.all(tq % M == 0) and np.all(tf == 0)
        if tt.size:
            ok = ok and np.all(tt % dmods == 0)
        return bool(ok)
    Gq = np.array([[int(c * D) for c in g.q] for g in atom.gens], dtype=np.int64)
    Gf = np.array([g.free for g in atom.gens], dtype=np.int64).reshape(r, tf.size)
    Gt = np.array([g.tor for g in atom.gens], dtype=np.int64).reshape(r, tt.size)
    side = 2 * box + 1
    idx = np.arange(side**r, dtype=np.int64)
    pows = side ** np.arange(r, dtype=np.int64)
    C = (idx[:, None] // pows[None, :]) % side - box
    ok = np.all((tq[None, :] - C @ Gq) % M == 0, axis=1)
    if tf.size:
        ok &= np.all(tf[None, :] - C @ Gf == 0, axis=1)
    if tt.size:
        ok &= np.all((tt[None, :] - C @ Gt) % dmods[None, :] == 0, axis=1)
    return bool(ok.any())


def test_criterion_1_membership_matches_brute_force():
    instances = [
        Instance(WideGroup(1, "full"), HSpec(0, (2,))),
        Instance(WideGroup(2, "full"), HSpec(1, (12,))),
        Instance(WideGroup(3, "full"), HSpec(0, (4, 9))),
    ]
    rng = random.Random(2024)
    t0 = time.monotonic()
    atoms = queries = 0
    for trial in range(510):
        inst = instances[trial % 3]

        def rand_elem():
            q = [
                F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 5]))
                for _ in range(inst.m)
            ]
            free = [rng.randint(-3, 3) for _ in range(inst.h.free_rank)]
            tor = [rng.randrange(d) for d in inst.h.torsion_orders]
            return inst.make(q, free, tor)

        gens = [rand_elem() for _ in range(rng.randint(0, 3))]
        atom = make_atom(inst, rand_elem(), gens, rng.randint(1, 12))
        S = SymSet([atom])
        atoms += 1

        zero_h = ([0] * inst.h.free_rank, [0] * len(inst.h.torsion_orders))

        # in-box positive: base + small combination + lattice offset
        x = atom.base
        for g in atom.gens:
            x = inst.add(x, inst.smul(rng.randint(-12, 12), g))
        off = [F(atom.mod * rng.randint(-3, 3)) for _ in range(inst.m)]
        x = inst.add(x, inst.make(off, *zero_h))
        assert brute_member(inst, x, atom) is True
        assert member(inst, x, S) is True
        queries += 1

        # provable negative: a fresh denominator prime never cancels
        bump = [F(0)] * inst.m
        bump[rng.randrange(inst.m)] = F(1, 97)
        y = inst.add(x, inst.make(bump, *zero_h))
        assert brute_member(inst, y, atom) is False
        assert member(inst, y, S) is False
        queries += 1
    dt = time.monotonic() - t0
    assert dt < 30.0
    print(f"criterion 1: PASS membership == brute force on {atoms} atoms, "
          f"{queries} queries, {dt:.1f}s")


# -- 2: generator postconditions ---------------------------------------------


def check_generator(G, pi, k, s):
    g = find_g(G, pi, k, s)
    assert G.contains_vec(g)
    # (i) exact: <g> cap Q_pi^m sits inside s*Z^m
    capped = cyclic_cap_qpi(g, pi)
    assert all((c / s).denominator == 1 for c in capped)
    # (ii) finite: small multiples stay outside Q_pi^m
    for l in range(1, k + 1):
        assert not qpi_member(tuple(l * gi for gi in g), pi)
        assert not qpi_member(tuple(-l * gi for gi in g), pi)


def test_criterion_2_generator_postconditions():
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    rng = random.Random(7)
    t0 = time.monotonic()
    for _ in range(200):
        G = WideGroup(rng.randint(1, 2), "full")
        pi = frozenset(rng.sample(small_primes, rng.randint(0, 4)))
        check_generator(G, pi, rng.randint(1, 4), rng.randint(1, 6))
    loc = WideGroup(1, "residue", 1, 4)
    for _ in range(10):
        pi = frozenset(rng.sample(small_primes, rng.randint(0, 3)))
        check_generator(loc, pi, rng.randint(1, 4), rng.randint(1, 6))
    dt = time.monotonic() - t0
    assert dt < 10.0
    print(f"criterion 2: PASS 210 generator draws verified, {dt:.1f}s")


# -- 3: span-property suite ---------------------------------------------------


def test_criterion_3_span_property_suite():
    rng = random.Random(31)
    t0 = time.monotonic()
    runs = 0
    for k in [2] * 24 + [3] * 20 + [5] * 6:
        m = rng.randint(1, 2)
        s = rng.randint(1, 3)
        G = WideGroup(m, "full")
        pi0 = frozenset(rng.sample([2, 3, 5, 7], rng.randint(0, 3)))
        pis, gs = find_g_sequence(G, pi0, k, s)
        coords = [F(0), F(2)] + [F(1, p) for p in sorted(pi0)]
        g = tuple(rng.choice(coords) for _ in range(m))
        head = tuple(c - sum(gj[i] for gj in gs) for i, c in enumerate(g))
        rep = check_lemma_iterative([pi0] + pis, gs, s, head)
        assert rep.ok(), rep.failures()
        runs += 1
    dt = time.monotonic() - t0
    print(f"criterion 3: PASS span properties on {runs} sequences "
          f"(exact valuation test), {dt:.1f}s")


# -- 4: poset soundness -------------------------------------------------------


def test_criterion_4_poset_soundness(built):
    inst, chain, _ = built
    for p in chain.conditions:
        rep = validate(inst, p, sample_budget=200, rng_seed=0)
        assert rep.ok(), rep.failures()
    for k in range(1, len(chain.conditions)):
        rep = leq(inst, chain.conditions[k], chain.conditions[k - 1],
                  sample_budget=200, rng_seed=0)
        assert rep.ok(), rep.failures()

    # mutation: dropping one atom of an asymmetric pair must be caught
    deep = chain.conditions[-1]
    target = None
    for i, S in enumerate(deep.u):
        for a in S.atoms:
            if inst.neg(a.base) != a.base:
                target = (i, a)
                break
        if target:
            break
    assert target is not None
    i, a = target
    u = list(deep.u)
    u[i] = SymSet([b for b in u[i].atoms if b is not a], u[i].sums)
    mutated = Condition(deep.pi, deep.n, tuple(u), deep.s)
    ok_valid = validate(inst, mutated, sample_budget=200, rng_seed=0).ok()
    ok_leq = leq(inst, mutated, chain.conditions[-2],
                 sample_budget=200, rng_seed=0).ok()
    assert not (ok_valid and ok_leq)

    # mutation: breaking the scale divisibility chain must be caught
    s = list(deep.s)
    s[1] = 3
    mutated = Condition(deep.pi, deep.n, deep.u, tuple(s))
    assert not validate(inst, mutated, sample_budget=200, rng_seed=0).ok()
    print(f"criterion 4: PASS {len(chain.conditions)} conditions validated, "
          f"{len(chain.conditions) - 1} order pairs checked, mutations detected")


# -- 5: end-to-end reference instance ----------------------------------------


def test_criterion_5_end_to_end(built):
    inst, chain, build_dt = built
    t0 = time.monotonic()
    xs = inst.enumerate_first(10)
    assert len(xs) == 10
    nsep = 0
    for x in xs:
        if x.is_zero():
            continue
        lvl = separation_certificate(chain, x)
        assert lvl >= 1
        nsep += 1
    ncap = 0
    for x in xs:
        for i in (0, 1, 2):
            w = ssgp_certificate(chain, x, i)
            assert w.verify_identity(inst)
            assert w.target == x and w.level == i
            ncap += 1
    rep = stage_invariants(chain, samples=200, rng_seed=0)
    assert rep.ok(), rep.failures()
    dt = build_dt + (time.monotonic() - t0)
    assert dt < 60.0
    print(f"criterion 5: PASS {nsep} separations, {ncap} capture witnesses, "
          f"stage invariants clean, {dt:.1f}s total")


# -- 6: worked-example golden values -----------------------------------------


def test_criterion_6_worked_example_goldens(built):
    inst, _, _ = built
    p = extend_primes(inst, root(inst), {3})
    x = inst.make([F(1, 3)], [], [0])
    q, w = extend_ssgp(inst, p, x)
    assert len(w.parts) == 2
    assert w.parts[0].q == (F(1, 5),)
    assert w.parts[1].q == (F(1, 7),)
    assert w.head.q == (F(-1, 105),)
    assert q.pi == frozenset({3, 5, 7})
    assert w.verify_identity(inst)
    print("criterion 6: PASS k=2, g_1=1/5, g_2=1/7, g_0=-1/105, "
          "primes {3,5,7}")


# -- 7: determinism and persistence ------------------------------------------


def test_criterion_7_determinism_persistence(built, tmp_path):
    inst, chain, _ = built
    again = build_chain(inst, max_level=2, enum_count=10, rng_seed=0,
                        sample_budget=200)
    assert chain_bytes(again) == chain_bytes(chain)
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    loaded = load_chain(path)  # revalidates every condition and order pair
    assert chain_bytes(loaded) == chain_bytes(chain)
    print(f"criterion 7: PASS rebuild byte-identical "
          f"({len(chain_bytes(chain))} bytes), save/load re-validated")
