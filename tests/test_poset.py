"""Condition validator, order checker, and the avoidance extension, against
the hand-worked examples and injected violations.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from ssgpkit.cli import parse_config
from ssgpkit.density import extend_primes, extend_ssgp, extend_to_level
from ssgpkit.driver import build_chain
from ssgpkit.groups import HSpec, Instance, WideGroup
from ssgpkit.poset import Condition, extend_with_avoidance, leq, root, validate
from ssgpkit.symsets import (
    SumPart,
    SymSet,
    lattice_set,
    make_atom,
    member,
    sample_point,
    sum_sets,
    symset_from_atoms,
    union_sets,
)

from oracles import atoms_in_ambient


@pytest.fixture
def inst():
    return Instance(WideGroup(1, "full"), HSpec(0, (2,)))


@pytest.fixture
def inst_plain():
    return Instance(WideGroup(1, "full"), HSpec(0, ()))


def test_root_validates(inst):
    p = root(inst)
    rep = validate(inst, p)
    assert rep.ok(), rep.failures()
    assert member(inst, inst.zero(), p.u[0])
    assert not member(inst, inst.make([F(1, 2)], [], [0]), p.u[0])


def test_validate_detects_bad_sum(inst_plain):
    # U_0 = 2Z, U_1 = Z: 1 + 0 = 1 escapes 2Z, so (7_p) must fail
    p = Condition(
        frozenset(),
        1,
        (lattice_set(inst_plain, 2), lattice_set(inst_plain, 1)),
        (2, 2),
    )
    rep = validate(inst_plain, p, sample_budget=400, rng_seed=1)
    assert not rep.checks["7p"]


def test_validate_rejects_uncertified_condition(inst_plain):
    # U_0 = Z, U_1 = {0, 1, -1} + 2Z, s = (1, 2): U_1 + U_1 and U_1 lie in
    # U_0, but neither inclusion has a syntactic certificate, so validate
    # names both instead of passing them on samples
    z, one = inst_plain.zero(), inst_plain.make([F(1)])
    u1 = symset_from_atoms(
        inst_plain,
        [make_atom(inst_plain, b, (), 2) for b in (z, one, inst_plain.neg(one))],
    )
    p = Condition(frozenset(), 1, (lattice_set(inst_plain, 1), u1), (1, 2))
    for x in (z, one, inst_plain.make([F(2)]), inst_plain.make([F(-3)])):
        assert member(inst_plain, x, u1)
    rep = validate(inst_plain, p)
    assert not rep.checks["7p"]
    assert not rep.checks["r72i"]
    # U_0 = <1/3> + Z contains Z, but through no base-0 lattice atom
    thirds = symset_from_atoms(
        inst_plain, [make_atom(inst_plain, z, (inst_plain.make([F(1, 3)]),), 1)]
    )
    p = Condition(frozenset({3}), 0, (thirds,), (1,))
    assert member(inst_plain, one, thirds)
    assert validate(inst_plain, p).failures() == ["r72ii"]


def test_validate_detects_bad_divisibility(inst_plain):
    p = Condition(
        frozenset(),
        1,
        (lattice_set(inst_plain, 2), lattice_set(inst_plain, 3)),
        (2, 3),
    )
    rep = validate(inst_plain, p)
    assert not rep.checks["8p"]


def test_validate_detects_asymmetry(inst_plain):
    bad = symset_from_atoms(
        inst_plain, [make_atom(inst_plain, inst_plain.make([F(1, 3)]), (), 1)]
    )
    p = Condition(frozenset({3}), 0, (union_sets(inst_plain, lattice_set(inst_plain, 1), bad),), (1,))
    rep = validate(inst_plain, p)
    assert not rep.checks["5p"]


def test_validate_detects_missing_zero(inst_plain):
    # base 1/3 with lattice 1: contains no 0 since 1/3 is not integral
    noz = symset_from_atoms(
        inst_plain,
        [
            make_atom(inst_plain, inst_plain.make([F(1, 3)]), (), 1),
            make_atom(inst_plain, inst_plain.make([F(-1, 3)]), (), 1),
        ],
    )
    p = Condition(frozenset({3}), 0, (noz,), (1,))
    rep = validate(inst_plain, p)
    assert not rep.checks["4p"]


def test_validate_detects_outside_qpi(inst_plain):
    # atom base 1/3 but pi = {2}: outside Q_{2}
    bad = union_sets(
        inst_plain,
        lattice_set(inst_plain, 1),
        symset_from_atoms(
            inst_plain,
            [
                make_atom(inst_plain, inst_plain.make([F(1, 3)]), (), 1),
                make_atom(inst_plain, inst_plain.make([F(-1, 3)]), (), 1),
            ],
        ),
    )
    p = Condition(frozenset({2}), 0, (bad,), (1,))
    rep = validate(inst_plain, p)
    assert not rep.checks["4p"]


def _fraction_classes(inst_, d):
    """Z with the classes 1/d + Z and -1/d + Z: contains 0 and is symmetric."""
    x = inst_.make([F(1, d)])
    return union_sets(
        inst_,
        lattice_set(inst_, 1),
        symset_from_atoms(inst_, [make_atom(inst_, b, (), 1) for b in (x, inst_.neg(x))]),
    )


@pytest.mark.parametrize("side", ["left", "right"])
def test_4p_reads_atoms_inside_sum_part_children(inst_plain, side):
    # the only atoms with denominator 3 sit in one child of a sum part
    z = lattice_set(inst_plain, 1)
    thirds = _fraction_classes(inst_plain, 3)
    pair = (thirds, z) if side == "left" else (z, thirds)
    level = union_sets(inst_plain, z, sum_sets(inst_plain, *pair))
    assert not any(a.base.q[0].denominator == 3 for a in level.atoms)
    p = Condition(frozenset({2}), 0, (level,), (1,))
    assert not validate(inst_plain, p).checks["4p"]
    p = Condition(frozenset({2, 3}), 0, (level,), (1,))
    assert validate(inst_plain, p).checks["4p"]


def test_4p_rejects_prime_in_pi_outside_g():
    # G holds exactly the denominators over primes = 1 mod 4; Instance.make
    # does not check the group, so 1/3 + Z can be built, and pi = {3}
    # does not save it
    loc = Instance(WideGroup(1, "residue", 1, 4), HSpec(0, ()))
    p = Condition(frozenset({3}), 0, (_fraction_classes(loc, 3),), (1,))
    assert not loc.contains(loc.make([F(1, 3)]))
    assert validate(loc, p).failures() == ["4p"]
    # 5 = 1 mod 4 is allowed: the same shape passes with 1/5 in place of 1/3
    p = Condition(frozenset({5}), 0, (_fraction_classes(loc, 5),), (1,))
    assert validate(loc, p).ok()


def _reachable(p):
    """Each distinct set reachable from p's levels, sum-part children included."""
    out, stack = {}, list(p.u)
    while stack:
        S = stack.pop()
        if S not in out:
            out[S] = None
            for sp in S.sums:
                stack.extend((sp.left, sp.right))
    return list(out)


_ORACLE_CONFIGS = {
    "example": json.loads((Path(__file__).parents[1] / "scripts" / "example_config.json").read_text()),
    "L3N2": {"m": 1, "group": "full-q", "h": {"torsion_orders": [2]},
             "budget": {"max_level": 3, "enum_count": 2}},
    "localized": {"m": 1, "group": {"localized": {"r": 1, "q": 4}}, "h": {},
                  "budget": {"max_level": 2, "enum_count": 3}},
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CONFIGS))
def test_4p_matches_atom_walk(name):
    # the support read off SymSet.supp against the walk over every
    # reachable atom, at each condition's own pi and with each prime removed
    cfg = parse_config(_ORACLE_CONFIGS[name])
    inst_ = cfg.make_instance()
    chain = build_chain(inst_, cfg.max_level, cfg.enum_count, cfg.rng_seed)
    zero = inst_.zero()
    verdicts = []
    for p in chain.conditions:
        sets = _reachable(p)
        for pi in [p.pi] + [p.pi - {r} for r in sorted(p.pi)]:
            got = validate(inst_, replace(p, pi=pi)).checks["4p"]
            want = all(member(inst_, zero, S) and atoms_in_ambient(inst_, S, pi) for S in p.u)
            assert got == want, (pi, p.n)
            for S in sets:
                got = validate(inst_, Condition(pi, 0, (S,), (1,))).checks["4p"]
                assert got == (member(inst_, zero, S) and atoms_in_ambient(inst_, S, pi))
                verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_validate_bad_lattice_scale(inst_plain):
    # atom modulus 3 does not divide s_0 = 2
    p = Condition(frozenset(), 0, (lattice_set(inst_plain, 3),), (2,))
    rep = validate(inst_plain, p)
    assert not rep.checks["6p"]


def test_leq_reflexive(inst):
    p = root(inst)
    rep = leq(inst, p, p)
    assert rep.ok(), rep.failures()


def test_leq_detects_prime_shrink(inst):
    p = Condition(frozenset({3}), 0, (lattice_set(inst, 1),), (1,))
    q = root(inst)
    rep = leq(inst, q, p)
    assert not rep.checks["i"]


def test_leq_detects_level_shrink(inst):
    p = extend_with_avoidance(inst, root(inst), inst.make([F(1)], [], [0]))
    rep = leq(inst, root(inst), p)
    assert not rep.checks["ii"]


def test_leq_detects_scale_change(inst_plain):
    p = Condition(frozenset(), 0, (lattice_set(inst_plain, 1),), (1,))
    q = Condition(frozenset(), 0, (lattice_set(inst_plain, 2),), (2,))
    rep = leq(inst_plain, q, p)
    assert not rep.checks["iv"]
    assert not rep.checks["iii_sup"]  # Z^m atom of p not subsumed by 2Z


def test_leq_detects_dropped_atom(inst_plain):
    extra = make_atom(inst_plain, inst_plain.make([F(1, 2)]), (), 2)
    negx = make_atom(inst_plain, inst_plain.make([F(-1, 2)]), (), 2)
    big = union_sets(
        inst_plain, lattice_set(inst_plain, 1), symset_from_atoms(inst_plain, [extra, negx])
    )
    p = Condition(frozenset({2}), 0, (big,), (1,))
    q = Condition(frozenset({2}), 0, (lattice_set(inst_plain, 1),), (1,))
    rep = leq(inst_plain, q, p)
    assert not rep.checks["iii_sup"]


def test_leq_iii_sub_catches_uncovered_growth(inst_plain):
    # q grows U_0 inside Q_{pi^p} without p knowing: (iii) subset must fail
    p = Condition(frozenset({2}), 0, (lattice_set(inst_plain, 1),), (1,))
    grown = union_sets(
        inst_plain,
        lattice_set(inst_plain, 1),
        symset_from_atoms(
            inst_plain,
            [
                make_atom(inst_plain, inst_plain.make([F(1, 2)]), (), 1),
                make_atom(inst_plain, inst_plain.make([F(-1, 2)]), (), 1),
            ],
        ),
    )
    q = Condition(frozenset({2}), 0, (grown,), (1,))
    rep = leq(inst_plain, q, p, sample_budget=500, rng_seed=3)
    assert not rep.checks["iii_sub"]


def _with_level(p, i, S):
    u = list(p.u)
    u[i] = S
    return Condition(p.pi, p.n, tuple(u), p.s)


def _worked_capture(inst):
    # the hand-worked step: over pi = {3}, 1/3 = -1/105 + 1/5 + 1/7
    p = extend_primes(inst, root(inst), frozenset({3}))
    q, _ = extend_ssgp(inst, p, inst.make([F(1, 3)], [], [0]))
    return p, q


def test_leq_certifies_capture_steps(inst):
    p, q = _worked_capture(inst)
    assert leq(inst, q, p).ok()
    p2 = extend_to_level(inst, root(inst), 2)
    q2, _ = extend_ssgp(inst, p2, inst.make([F(1, 3)], [], [1]))
    assert leq(inst, q2, p2).ok()
    # captures compose: the second one's order check sees the first one's
    # atoms as covered by p
    q3, _ = extend_ssgp(inst, q2, inst.make([F(-1, 2)], [], [0]))
    assert leq(inst, q3, q2).ok()


def test_leq_iii_sub_rejects_part_meeting_qpi_outside_lattice(inst):
    # swap the part 1/7 for 1/3: <1/3> lies in Q_{3}, and 1/3 is not in Z
    p, q = _worked_capture(inst)
    third = inst.make([F(1, 3)], [], [0])
    atoms = [
        make_atom(inst, a.base, (third,), a.mod) if a.gens and a.gens[0].q == (F(-1, 7),) else a
        for a in q.u[0].atoms
    ]
    bad = _with_level(q, 0, SymSet(atoms, q.u[0].sums))
    assert any(a.gens and a.gens[0].q == (F(-1, 3),) for a in bad.u[0].atoms)
    assert member(inst, third, bad.u[0]) and not member(inst, third, p.u[0])
    assert leq(inst, bad, p).failures() == ["iii_sub"]


def test_leq_iii_sub_rejects_head_with_part_missing(inst):
    p, q = _worked_capture(inst)
    atoms = [a for a in q.u[0].atoms if not (a.gens and a.gens[0].q == (F(-1, 7),))]
    assert len(atoms) == len(q.u[0].atoms) - 1
    bad = _with_level(q, 0, SymSet(atoms, q.u[0].sums))
    assert leq(inst, bad, p).failures() == ["iii_sub"]


def _depth_two_capture(inst):
    p = extend_to_level(inst, root(inst), 2)
    q, _ = extend_ssgp(inst, p, inst.make([F(1, 3)], [], [1]))
    assert p.s == (1, 2, 2)
    return p, q


def test_leq_iii_sub_rejects_sum_part_with_wrong_lattice(inst):
    # U_1 gains U_2 + U_2 + Z instead of + 2Z: it then holds h - h + 1 = 1,
    # which lies in Q_pi but not in p's U_1 = 2Z
    p, q = _depth_two_capture(inst)
    u1 = union_sets(inst, p.u[1], SymSet((), (SumPart(q.u[2], q.u[2], 1),)))
    u0 = union_sets(inst, p.u[0], SymSet((), (SumPart(u1, u1, 1),)))
    bad = Condition(q.pi, q.n, (u0, u1, q.u[2]), q.s)
    one = inst.make([F(1)], [], [0])
    assert member(inst, one, u1) and not member(inst, one, p.u[1])
    assert leq(inst, bad, p).failures() == ["iii_sub"]


def test_leq_iii_sub_rejects_sum_part_with_wrong_children(inst):
    # U_0 gains V + V + Z with V = U_1 + (0;1 + 2Z): then 0;1 lies in U_0,
    # inside Q_pi + H but outside p's U_0 = Z
    p, q = _depth_two_capture(inst)
    tor = inst.make([F(0)], [], [1])
    v = union_sets(inst, q.u[1], symset_from_atoms(inst, [make_atom(inst, tor, (), 2)]))
    u0 = union_sets(inst, p.u[0], SymSet((), (SumPart(v, v, 1),)))
    bad = _with_level(q, 0, u0)
    assert member(inst, tor, u0) and not member(inst, tor, p.u[0])
    assert leq(inst, bad, p).failures() == ["iii_sub"]
    # children one level too deep are refused as well, though the set they
    # give is no larger
    u0 = union_sets(inst, p.u[0], SymSet((), (SumPart(q.u[2], q.u[2], 1),)))
    assert leq(inst, _with_level(q, 0, u0), p).failures() == ["iii_sub"]


def test_leq_iii_sub_rejects_uncovered_atom_below_top_and_sum_at_top(inst):
    # p: U_0 = Z, U_1 = 2Z over pi = {}; 0;1 lies in Q_pi + H but not in p
    p = extend_to_level(inst, root(inst), 1)
    tor = inst.make([F(0)], [], [1])
    extra = symset_from_atoms(inst, [make_atom(inst, tor, (), 1)])
    bad = _with_level(p, 0, union_sets(inst, p.u[0], extra))
    assert leq(inst, bad, p).failures() == ["iii_sub"]
    # a sum part at the top level: 0;1 = 0 + 0;1 in T + T + 2Z
    t = symset_from_atoms(
        inst, [make_atom(inst, inst.zero(), (), 2), make_atom(inst, tor, (), 2)]
    )
    top = union_sets(inst, p.u[1], SymSet((), (SumPart(t, t, 2),)))
    bad = _with_level(p, 1, top)
    assert member(inst, tor, top) and not member(inst, tor, p.u[1])
    assert leq(inst, bad, p).failures() == ["iii_sub"]


def _level_one_capture(inst):
    p = extend_to_level(inst, root(inst), 1)
    q, w = extend_ssgp(inst, p, inst.make([F(1, 3)], [], [1]))
    assert p.s == (1, 2) and len(w.parts) == 3
    return p, q, w


def _rebuilt(inst, p, q, top_atoms):
    """q with its top level replaced and the levels below re-derived the
    way extend_ssgp derives them."""
    levels = [union_sets(inst, p.u[p.n], symset_from_atoms(inst, top_atoms))]
    for i in range(p.n - 1, -1, -1):
        grown = sum_sets(inst, levels[0], levels[0], latt=p.s[i])
        levels.insert(0, union_sets(inst, p.u[i], grown))
    return Condition(q.pi, q.n, tuple(levels), q.s)


def test_leq_iii_sub_rejects_top_atoms_off_the_capture_shape(inst):
    p, q, w = _level_one_capture(inst)
    new = [a for a in q.u[1].atoms if a not in p.u[1].atoms]
    assert _rebuilt(inst, p, q, new).u == q.u
    g = next(a for a in new if a.gens)
    rest = [a for a in new if a is not g]
    gen = g.gens[0]
    tor = inst.make([F(0)], [], [1])
    # each variant puts a point of Q_pi + H into U_1 that p's U_1 = 2Z lacks
    variants = [
        # lattice Z instead of 2Z: 1 joins
        (make_atom(inst, g.base, g.gens, 1), inst.make([F(1)], [], [0])),
        # a generator with an H-part: den*(gen + 0;1) = +-2;1 joins
        (
            make_atom(inst, g.base, (inst.add(gen, tor),), g.mod),
            inst.smul(gen.q[0].denominator, inst.add(gen, tor)),
        ),
        # a nonzero base: 0;1 joins
        (make_atom(inst, tor, g.gens, g.mod), tor),
    ]
    for atom, witness in variants:
        bad = _rebuilt(inst, p, q, rest + [atom])
        assert member(inst, witness, bad.u[1]) and not member(inst, witness, p.u[1])
        assert leq(inst, bad, p).failures() == ["iii_sub"]


def test_leq_iii_sub_rejects_heads_of_two_classes(inst):
    # heads h and -h + 0;1 instead of +-h: their sum 0;1 reaches U_0
    p, q, w = _level_one_capture(inst)
    tor = inst.make([F(0)], [], [1])
    neg = inst.neg(w.head)
    new = [
        make_atom(inst, inst.add(neg, tor), (), a.mod) if a.base == neg else a
        for a in q.u[1].atoms
        if a not in p.u[1].atoms
    ]
    bad = _rebuilt(inst, p, q, new)
    assert member(inst, tor, bad.u[0]) and not member(inst, tor, p.u[0])
    assert leq(inst, bad, p).failures() == ["iii_sub"]


# -- extend_with_avoidance ---------------------------------------------------


def test_avoid_integer_element(inst):
    p = root(inst)
    x = inst.make([F(1)], [], [0])
    q = extend_with_avoidance(inst, p, x)
    assert q.n == 1
    assert q.pi == p.pi
    assert q.s == (1, 2)  # smallest k is 2: 1 is in Z but not 2Z
    assert not member(inst, x, q.u[1])
    assert validate(inst, q).ok()
    assert leq(inst, q, p).ok()


def test_avoid_torsion_element(inst):
    p = root(inst)
    x = inst.make([F(0)], [], [1])
    q = extend_with_avoidance(inst, p, x)
    assert q.s == (1, 1)  # k = 1: lattices have zero h-part
    assert not member(inst, x, q.u[1])
    assert validate(inst, q).ok()
    assert leq(inst, q, p).ok()


def test_avoid_fractional_element(inst):
    p = Condition(frozenset({2}), 0, (lattice_set(inst, 1),), (1,))
    x = inst.make([F(1, 2)], [], [0])
    q = extend_with_avoidance(inst, p, x)
    assert q.s == (1, 1)  # non-integral: already outside Z[s]^m
    assert not member(inst, x, q.u[1])


def test_avoid_scales_compose(inst):
    # avoiding 4 on top of s_n = 2 must search k upward: 4 in 2Z, 4 in 4Z,
    # 4 not in 6Z
    p = Condition(frozenset(), 1, (lattice_set(inst, 1), lattice_set(inst, 2)), (1, 2))
    assert validate(inst, p).ok()
    x = inst.make([F(4)], [], [0])
    q = extend_with_avoidance(inst, p, x)
    assert q.s[2] == 6
    assert not member(inst, x, q.u[2])


def test_avoid_rejects_zero_and_foreign(inst):
    with pytest.raises(ValueError):
        extend_with_avoidance(inst, root(inst), inst.zero())
    loc = Instance(WideGroup(1, "residue", 1, 4), HSpec(0, ()))
    with pytest.raises(ValueError):
        extend_with_avoidance(loc, root(loc), loc.make([F(1, 3)]))


def test_avoid_rejects_qpart_outside_qpi(inst):
    p = Condition(frozenset({2}), 0, (lattice_set(inst, 1),), (1,))
    with pytest.raises(ValueError):
        extend_with_avoidance(inst, p, inst.make([F(1, 3)], [], [0]))


def test_avoid_chain_transitivity(inst):
    p0 = root(inst)
    p1 = extend_with_avoidance(inst, p0, inst.make([F(1)], [], [0]))
    p2 = extend_with_avoidance(inst, p1, inst.make([F(3)], [], [0]))
    assert leq(inst, p1, p0).ok()
    assert leq(inst, p2, p1).ok()
    assert leq(inst, p2, p0).ok()  # sampled transitivity
    assert validate(inst, p2).ok()


def test_condition_json_roundtrip(inst):
    p = extend_with_avoidance(inst, root(inst), inst.make([F(1)], [], [0]))
    back = Condition.from_json(inst, p.to_json(), {})
    assert back == p
