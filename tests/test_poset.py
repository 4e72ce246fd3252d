"""Condition validator, order checker, and the avoidance extension, against
the hand-worked examples and injected violations.
"""

import random
from fractions import Fraction as F

import pytest

from ssgpkit.groups import HSpec, Instance, WideGroup
from ssgpkit.poset import Condition, extend_with_avoidance, leq, root, validate
from ssgpkit.symsets import (
    SumPart,
    SymSet,
    lattice_set,
    make_atom,
    member,
    sample_point,
    symset_from_atoms,
    union_sets,
)


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
