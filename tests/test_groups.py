"""Ambient group layer: element arithmetic, enumeration order, wide-subgroup
witnesses, and the g-finders, checked against hand-derived values and
brute-force oracles.
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ssgpkit.arith import cap_multiplier, qpi_member
from ssgpkit.groups import (
    ConstructionError,
    HSpec,
    Instance,
    KElem,
    WideGroup,
    find_g,
    find_g_sequence,
)

from oracles import count_upto_height


@pytest.fixture
def inst():
    """m=1, G=Q, H=Z/2: the smallest instance exercising torsion."""
    return Instance(WideGroup(1, "full"), HSpec(0, (2,)))


@pytest.fixture
def inst2():
    """m=2, G=Q^2, H=Z x Z/3."""
    return Instance(WideGroup(2, "full"), HSpec(1, (3,)))


def test_hspec_validation():
    HSpec(0, ())
    HSpec(2, (2, 6))
    with pytest.raises(ValueError):
        HSpec(-1)
    with pytest.raises(ValueError):
        HSpec(0, (1,))


def test_widegroup_validation():
    WideGroup(1, "full")
    WideGroup(2, "residue", 1, 4)
    with pytest.raises(ValueError):
        WideGroup(0, "full")
    with pytest.raises(ValueError):
        WideGroup(1, "residue", 2, 4)  # gcd 2: only finitely many primes
    with pytest.raises(ValueError):
        WideGroup(1, "residue", 5, 4)
    with pytest.raises(ValueError):
        WideGroup(1, "nonsense")


def test_residue_membership():
    G = WideGroup(1, "residue", 1, 4)  # denominators built from primes 1 mod 4
    assert G.contains_vec((F(1, 5),))
    assert G.contains_vec((F(3, 65),))  # 65 = 5 * 13, both 1 mod 4
    assert G.contains_vec((F(7),))  # integers always in
    assert not G.contains_vec((F(1, 3),))
    assert not G.contains_vec((F(1, 10),))  # 2 not 1 mod 4


def test_residue_witness_first_20_prime_sets():
    # Wideness sampled: pi = first i primes, i = 0..19.
    G = WideGroup(1, "residue", 1, 4)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
    for i in range(20):
        pi = frozenset(primes[:i])
        w = G.witness(pi)
        assert G.contains_vec(w)
        assert not qpi_member(w, pi)


def test_full_witness():
    G = WideGroup(2, "full")
    assert G.witness(frozenset()) == (F(1, 2), F(0))
    assert G.witness(frozenset({2, 3})) == (F(1, 5), F(0))


def test_arithmetic_and_torsion_reduction(inst):
    x = inst.make([F(1, 2)], [], [1])
    y = inst.make([F(1, 3)], [], [1])
    s = inst.add(x, y)
    assert s.q == (F(5, 6),)
    assert s.tor == (0,)  # 1 + 1 reduced mod 2
    assert inst.neg(x).tor == (1,)  # -1 = 1 mod 2
    assert inst.smul(3, x) == inst.make([F(3, 2)], [], [1])
    assert inst.add(x, inst.neg(x)).is_zero()


@given(
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=0, max_value=1),
)
def test_add_neg_cancel(q, n, t):
    inst = Instance(WideGroup(1, "full"), HSpec(1, (2,)))
    x = inst.make([q], [n], [t])
    assert inst.add(x, inst.neg(x)).is_zero()
    assert inst.smul(0, x).is_zero()
    assert inst.smul(2, x) == inst.add(x, x)


def test_height(inst2):
    assert inst2.height(inst2.zero()) == 0
    assert inst2.height(inst2.make([F(1, 2), F(0)], [0], [0])) == 2
    assert inst2.height(inst2.make([F(3), F(-1, 5)], [4], [2])) == 5
    assert inst2.height(inst2.make([F(0), F(0)], [0], [2])) == 2


def test_enumeration_first_ten(inst):
    got = [inst.format_elem(inst.enumerate_k(i)) for i in range(10)]
    assert got == [
        "0;0",
        "-1;0",
        "-1;1",
        "0;1",
        "1;0",
        "1;1",
        "-2;0",
        "-2;1",
        "-1/2;0",
        "-1/2;1",
    ]


def test_enumeration_zero_anchor(inst, inst2):
    assert inst.enumerate_k(0).is_zero()
    assert inst2.enumerate_k(0).is_zero()


def test_enumeration_injective_and_exhaustive(inst):
    n = count_upto_height(inst, 3)
    first = inst.enumerate_first(n)
    assert len(set(first)) == n
    # Brute-force oracle: every element of height <= 2 appears in the prefix.
    small = set()
    for num in range(-2, 3):
        for den in (1, 2):
            for t in (0, 1):
                q = F(num, den)
                x = inst.make([q], [], [t])
                if inst.height(x) <= 2:
                    small.add(x)
    prefix = set(inst.enumerate_first(count_upto_height(inst, 2)))
    assert small == prefix


def test_enumeration_respects_group_filter():
    # Localized G: enumerated qparts must stay inside G.
    inst = Instance(WideGroup(1, "residue", 1, 4), HSpec(0, ()))
    xs = inst.enumerate_first(40)
    assert all(inst.group.contains_vec(x.q) for x in xs)
    assert all(F(1, 3) != x.q[0] for x in xs)
    # 1/5 has height 5 and is in G: it must eventually appear.
    assert any(x.q == (F(1, 5),) for x in inst.enumerate_first(count_upto_height(inst, 5)))


def test_format_parse_roundtrip(inst2):
    x = inst2.make([F(1, 3), F(-2)], [4], [2])
    text = inst2.format_elem(x)
    assert text == "1/3,-2;4,2"
    assert inst2.parse_elem(text) == x
    assert inst2.parse_elem("0,0") == inst2.zero()
    assert inst2.parse_elem("0,0;") == inst2.zero()


def test_parse_errors(inst2):
    with pytest.raises(ValueError):
        inst2.parse_elem("1/3")  # wrong arity
    with pytest.raises(ValueError):
        inst2.parse_elem("1/3,0;1")  # wrong H arity
    with pytest.raises(ValueError):
        inst2.parse_elem("x,0;0,0")
    inst_loc = Instance(WideGroup(1, "residue", 1, 4), HSpec(0, ()))
    with pytest.raises(ValueError):
        inst_loc.parse_elem("1/3")  # outside G


def test_parse_reduces_torsion(inst):
    assert inst.parse_elem("0;3").tor == (1,)
    assert inst.parse_elem("0;-1").tor == (1,)


def test_json_roundtrip(inst2):
    from ssgpkit.groups import elem_to_json

    x = inst2.make([F(-1, 6), F(2)], [3], [1])
    assert inst2.elem_from_json(elem_to_json(x)) == x
    assert Instance.from_json(inst2.to_json()).group == inst2.group
    assert Instance.from_json(inst2.to_json()).h == inst2.h
    G = WideGroup(3, "residue", 3, 7)
    assert WideGroup.from_json(G.to_json()) == G


# -- find_g ------------------------------------------------------------------


def test_find_g_hand_examples():
    G = WideGroup(1, "full")
    assert find_g(G, frozenset(), 2, 1) == (F(1, 3),)
    assert find_g(G, frozenset({3}), 2, 2) == (F(2, 5),)


def test_find_g_postconditions_brute():
    G = WideGroup(1, "full")
    g = find_g(G, frozenset({3}), 2, 2)
    # (ii): l*g outside Q_{3} for 0 < |l| <= 2.
    for l in (-2, -1, 1, 2):
        assert not qpi_member((l * g[0],), {3})
    # (i) oracle: scan <g> for members of Q_{3}; each must lie in 2Z.
    for l in range(-60, 61):
        x = l * g[0]
        if qpi_member((x,), {3}):
            assert x % 2 == 0


def test_find_g_empty_pi_caps_inside_sZ():
    # Q_{} = Z: <g> meets Z^m in Z*(D*g) with D != 0, and D*g lies in sZ^m
    for m, k, s in [(1, 3, 5), (2, 2, 6), (1, 1, 1)]:
        g = find_g(WideGroup(m, "full"), frozenset(), k, s)
        D = cap_multiplier(g, frozenset())
        assert D != 0
        assert all((D * c / s).denominator == 1 for c in g)
        for l in range(-k, k + 1):
            if l:
                assert not qpi_member(tuple(l * c for c in g), frozenset())


def test_find_g_multidim():
    G = WideGroup(2, "full")
    g = find_g(G, frozenset({2}), 3, 6)
    assert len(g) == 2
    for l in range(1, 4):
        assert not qpi_member(tuple(l * c for c in g), {2})


def test_find_g_localized():
    G = WideGroup(1, "residue", 1, 4)
    g = find_g(G, frozenset({5}), 2, 1)
    assert G.contains_vec(g)
    for l in (-2, -1, 1, 2):
        assert not qpi_member((l * g[0],), {5})


def test_find_g_input_validation():
    G = WideGroup(1, "full")
    with pytest.raises(ValueError):
        find_g(G, frozenset(), 0, 1)
    with pytest.raises(ValueError):
        find_g(G, frozenset(), 1, 0)


def test_find_g_sequence_hand_example():
    G = WideGroup(1, "full")
    pis, gs = find_g_sequence(G, frozenset({3}), 2, 1)
    assert gs == [(F(1, 5),), (F(1, 7),)]
    assert pis == [frozenset({3, 5}), frozenset({3, 5, 7})]


def test_find_g_sequence_chain_and_conditions():
    G = WideGroup(1, "full")
    pi0 = frozenset({3})
    k, s = 2, 1
    pis, gs = find_g_sequence(G, pi0, k, s)
    chain = [pi0] + pis
    for a, b in zip(chain, chain[1:]):
        assert a <= b
    for j, g in enumerate(gs, start=1):
        assert qpi_member(g, pis[j - 1])  # (a_j)
        for l in range(1, k + 1):  # (c_j)
            prev = chain[j - 1]
            assert not qpi_member(tuple(l * c for c in g), prev)
            assert not qpi_member(tuple(-l * c for c in g), prev)


def test_find_g_sequence_pair_envelope_brute():
    # <{g_1, g_2}> cap Q_{pi_0} under coefficients |n| <= 10 stays in sZ.
    G = WideGroup(1, "full")
    pi0 = frozenset({3})
    s = 2
    pis, gs = find_g_sequence(G, pi0, 2, s)
    for n1, n2 in itertools.product(range(-10, 11), repeat=2):
        x = n1 * gs[0][0] + n2 * gs[1][0]
        if qpi_member((x,), pi0):
            assert x % s == 0


def test_find_g_sequence_sum_closure_sampled():
    # <{g_1..g_i}> + Q_{pi_0} subset Q_{pi_i}, sampled combinations.
    G = WideGroup(1, "full")
    pi0 = frozenset({3})
    pis, gs = find_g_sequence(G, pi0, 2, 1)
    q_points = [F(0), F(1, 3), F(-2, 9), F(5)]
    for i in range(1, len(gs) + 1):
        for coeffs in itertools.product(range(-10, 11), repeat=i):
            base = sum(c * g[0] for c, g in zip(coeffs, gs[:i]))
            for qp in q_points:
                assert qpi_member((base + qp,), pis[i - 1])
