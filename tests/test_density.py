"""Dense-class constructors against the hand-worked capture example, plus
the exact span-property check with injected violations and a
congruence-solver oracle for its valuation test.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssgpkit.arith import qpi_member, vec_support
from ssgpkit.density import (
    DenseRequest,
    extend_avoid,
    extend_primes,
    extend_ssgp,
    extend_to_level,
)
from ssgpkit.groups import HSpec, Instance, WideGroup, find_g_sequence
from ssgpkit.poset import check_lemma_iterative, leq, root, validate
from ssgpkit.symsets import cyclic_in_set, member

from oracles import member_mod_qpi


@pytest.fixture
def inst():
    return Instance(WideGroup(1, "full"), HSpec(0, (2,)))


@pytest.fixture
def inst2():
    return Instance(WideGroup(2, "full"), HSpec(0, ()))


# -- worked capture example --------------------------------------------------


def test_ssgp_worked_example(inst):
    p = extend_primes(inst, root(inst), frozenset({3}))
    x = inst.make([F(1, 3)], [], [0])
    q, w = extend_ssgp(inst, p, x)

    assert q.pi == frozenset({3, 5, 7})
    assert q.n == 0 and q.s == (1,)
    assert [g.q[0] for g in w.parts] == [F(1, 5), F(1, 7)]
    assert w.head.q == (F(-1, 105),)
    assert w.head.tor == (0,)
    assert w.level == 0
    assert w.verify_identity(inst)

    top = q.u[0]
    shape = sorted(
        (a.base.q[0], tuple(g.q[0] for g in a.gens), a.mod) for a in top.atoms
    )
    # generators are stored sign-canonically, so 1/5 appears as -1/5
    assert shape == [
        (F(-1, 105), (), 1),
        (F(0), (), 1),
        (F(0), (F(-1, 5),), 1),
        (F(0), (F(-1, 7),), 1),
        (F(1, 105), (), 1),
    ]
    assert not top.sums

    assert member(inst, w.head, top)
    for g in w.parts:
        assert cyclic_in_set(inst, g, top)
    # capture is about U + <Cyc(U)>_k, not about U itself
    assert not member(inst, x, top)

    assert validate(inst, q).ok()
    assert leq(inst, q, p).ok()
    assert leq(inst, q, root(inst)).ok()


def test_ssgp_head_class_avoids_small_denominators(inst):
    # every point of the +-1/105 classes keeps the factors 5*7, hence
    # stays outside Q_{3} + H
    for z in range(-20, 21):
        assert not qpi_member((F(-1, 105) + z,), frozenset({3}))
        assert not qpi_member((F(1, 105) + z,), frozenset({3}))


def test_ssgp_zero_target_is_trivial(inst):
    p = extend_to_level(inst, root(inst), 1)
    q, w = extend_ssgp(inst, p, inst.zero())
    assert q is p
    assert w.parts == ()
    assert w.head.is_zero()
    assert w.level == 1
    assert w.verify_identity(inst)


def test_ssgp_pure_torsion_target(inst):
    x = inst.make([F(0)], [], [1])
    q, w = extend_ssgp(inst, root(inst), x)
    assert len(w.parts) == 2
    assert w.head.tor == (1,)
    assert w.head.q == (-w.parts[0].q[0] - w.parts[1].q[0],)
    assert w.verify_identity(inst)
    assert member(inst, w.head, q.u[0])
    assert validate(inst, q).ok()
    assert leq(inst, q, root(inst)).ok()


def test_ssgp_absorbs_denominators_first(inst):
    # target 1/3 over the bare root: pi^q must pick up 3 on its own
    x = inst.make([F(1, 3)], [], [0])
    q, w = extend_ssgp(inst, root(inst), x)
    assert 3 in q.pi
    assert w.verify_identity(inst)
    assert validate(inst, q).ok()
    assert leq(inst, q, root(inst)).ok()


def test_ssgp_at_depth_two(inst):
    p = extend_to_level(inst, root(inst), 2)
    x = inst.make([F(1, 3)], [], [1])
    q, w = extend_ssgp(inst, p, x)
    assert q.n == 2 and q.s == p.s
    assert len(w.parts) == 2**2 + 1
    assert w.level == 2
    assert member(inst, w.head, q.u[2])
    for g in w.parts:
        assert cyclic_in_set(inst, g, q.u[2])
    assert w.verify_identity(inst)
    rep = validate(inst, q)
    assert rep.ok(), rep.failures()
    rep = leq(inst, q, p)
    assert rep.ok(), rep.failures()


def test_ssgp_growth_is_bounded(inst):
    p = extend_to_level(inst, root(inst), 2)
    x = inst.make([F(1, 3)], [], [1])
    q, _ = extend_ssgp(inst, p, x)
    k = 2**2 + 1
    # top level: at most the old atoms plus two head classes and k parts
    assert len(q.u[2].atoms) <= len(p.u[2].atoms) + 2 + k
    # lower levels: old data plus a single pairwise-sum term
    for i in range(2):
        assert len(q.u[i].sums) <= len(p.u[i].sums) + 1
        assert len(q.u[i].atoms) <= len(p.u[i].atoms) + len(q.u[i + 1].atoms) ** 2


def test_ssgp_rejects_foreign_element(inst):
    loc = Instance(WideGroup(1, "residue", 1, 4), HSpec(0, (2,)))
    x = loc.make([F(1, 3)], [], [0])  # 3 = 3 mod 4: not in the residue group
    with pytest.raises(ValueError):
        extend_ssgp(loc, root(loc), x)


# -- level and prime extensions ----------------------------------------------


def test_extend_to_level_reaches_and_validates(inst):
    r = root(inst)
    q = extend_to_level(inst, r, 3)
    assert q.n == 3
    assert q.s == (1, 2, 2, 2)
    assert validate(inst, q).ok()
    assert leq(inst, q, r).ok()


def test_extend_to_level_noop_when_deep_enough(inst):
    q = extend_to_level(inst, root(inst), 2)
    assert extend_to_level(inst, q, 1) is q
    assert extend_to_level(inst, q, 2) is q


def test_extend_to_level_then_capture_keeps_depth(inst):
    # the scheduler leans on this: capture never undoes reached depth
    p = extend_to_level(inst, root(inst), 1)
    q, _ = extend_ssgp(inst, p, inst.make([F(1, 5)], [], [0]))
    assert q.n == 1


def test_extend_primes_copies_everything(inst):
    r = root(inst)
    q = extend_primes(inst, r, frozenset({3}))
    assert q.pi == frozenset({3})
    assert q.u is r.u and q.s is r.s
    assert validate(inst, q).ok()
    rep = leq(inst, q, r)
    assert rep.ok(), rep.failures()


def test_extend_primes_noop_on_subset(inst):
    q = extend_primes(inst, root(inst), frozenset({5}))
    assert extend_primes(inst, q, frozenset()) is q
    assert extend_primes(inst, q, frozenset({5})) is q
    q2 = extend_primes(inst, q, frozenset({3}))
    assert q2.pi == frozenset({3, 5})


# -- avoidance ---------------------------------------------------------------


def test_extend_avoid_rational(inst):
    r = root(inst)
    x = inst.make([F(1, 2)], [], [0])
    q = extend_avoid(inst, r, x)
    assert {2} <= q.pi
    assert not member(inst, x, q.u[q.n])
    assert qpi_member(x.q, q.pi)
    assert validate(inst, q).ok()
    assert leq(inst, q, r).ok()


def test_extend_avoid_torsion_needs_no_primes(inst):
    x = inst.make([F(0)], [], [1])
    q = extend_avoid(inst, root(inst), x)
    assert q.pi == frozenset()
    assert q.n == 1
    assert not member(inst, x, q.u[1])


def test_extend_avoid_integral_point(inst):
    x = inst.make([F(1)], [], [0])
    q = extend_avoid(inst, root(inst), x)
    assert q.pi == frozenset()
    assert not member(inst, x, q.u[1])
    assert member(inst, inst.make([F(2)], [], [0]), q.u[1])


def test_extend_avoid_rejects_zero(inst):
    with pytest.raises(ValueError):
        extend_avoid(inst, root(inst), inst.zero())


# -- requests ----------------------------------------------------------------


def test_request_validation(inst):
    x = inst.make([F(1, 2)], [], [1])
    for kind in ("bogus", "level", "primes"):
        with pytest.raises(ValueError, match="unknown request kind"):
            DenseRequest(kind, elem=x)
    with pytest.raises(ValueError):
        DenseRequest("ssgp", level=-1, elem=x)
    with pytest.raises(ValueError):
        DenseRequest("avoid", elem=None)
    with pytest.raises(ValueError):
        DenseRequest("ssgp", elem=None)
    with pytest.raises(ValueError):
        DenseRequest("avoid", elem=inst.zero())
    DenseRequest("ssgp", elem=inst.zero())  # zero capture is fine


def test_request_json_round_trip(inst):
    reqs = [
        DenseRequest("avoid", elem=inst.make([F(1, 2)], [], [1])),
        DenseRequest("ssgp", elem=inst.make([F(1, 3)], [], [0])),
        DenseRequest("ssgp", level=2, elem=inst.make([F(-1, 3)], [], [1])),
    ]
    for r in reqs:
        assert DenseRequest.from_json(inst, r.to_json()) == r
    for kind in ("bogus", "level", "primes"):
        obj = dict(reqs[0].to_json(), kind=kind)
        with pytest.raises(ValueError, match=f"unknown request kind '{kind}'"):
            DenseRequest.from_json(inst, obj)


# -- span-property check ----------------------------------------------------


def head_of(g, gs):
    """The head g_0 = g - sum(g_j) of a capture of g with parts gs."""
    return tuple(c - sum(gj[i] for gj in gs) for i, c in enumerate(g))


def worked_inputs():
    pis = [frozenset({3}), frozenset({3, 5}), frozenset({3, 5, 7})]
    gs = [(F(1, 5),), (F(1, 7),)]
    return pis, gs


def test_lemma_check_worked_sequence():
    pis, gs = worked_inputs()
    rep = check_lemma_iterative(pis, gs, 1, head_of((F(1, 3),), gs))
    assert rep.ok(), rep.failures()
    assert rep.checks == {"A_i": True, "A_ii": True, "B": True}


def test_lemma_check_residue_obstruction():
    # the exact residue test behind B: l*(-1/105) never meets Z*(1/5)+Q_{3}
    for l in (-2, -1, 1, 2):
        assert not member_mod_qpi((l * F(-1, 105),), [(F(1, 5),)], frozenset({3}))


def test_lemma_check_flags_escaping_span():
    # g_1 = 1/11 is not inside Q_{3,5}, so A_i must fail
    gs = [(F(1, 11),), (F(1, 7),)]
    rep = check_lemma_iterative(
        [frozenset({3}), frozenset({3, 5}), frozenset({3, 5})],
        gs,
        1,
        head_of((F(1, 3),), gs),
    )
    assert not rep.checks["A_i"]


def test_lemma_check_flags_nonlattice_intersection():
    # <1/5> meets Q_{3,5} far outside Z, so A_ii must fail
    gs = [(F(1, 5),), (F(1, 5),)]
    rep = check_lemma_iterative(
        [frozenset({3}), frozenset({3, 5}), frozenset({3, 5})],
        gs,
        1,
        head_of((F(1, 3),), gs),
    )
    assert not rep.checks["A_ii"]


def test_lemma_check_flags_captured_head():
    # parts telescoping to g itself leave g_0 = 0, which every span contains
    gs = [(F(1, 5),), (F(1, 3) - F(1, 5),)]
    rep = check_lemma_iterative(
        [frozenset({3}), frozenset({3, 5}), frozenset({3, 5, 7})],
        gs,
        1,
        head_of((F(1, 3),), gs),
    )
    assert not rep.checks["B"]


def test_lemma_check_reads_empty_pi_as_integers():
    # at pi_0 = {} (Q_{} = Z) <1/5> is capped at 5*(1/5) = 1, which
    # lies in 2Z only if it is doubled: A_ii fails for s = 2, holds for 1
    gs = [(F(1, 5),)]
    pis = [frozenset(), frozenset({5})]
    assert not check_lemma_iterative(pis, gs, 2, None).checks["A_ii"]
    assert check_lemma_iterative(pis, gs, 1, None).ok()
    # 1/10 has no prime private to part 2: 5 is in g_1's support and 2 is
    # cleared by l = 2 <= k; 1/35 has 5 for part 2 and 7 for part 1
    gs = [(F(1, 5),), (F(1, 7),)]
    pis = [frozenset(), frozenset({5}), frozenset({5, 7})]
    assert not check_lemma_iterative(pis, gs, 1, (F(1, 10),)).checks["B"]
    assert check_lemma_iterative(pis, gs, 1, (F(1, 35),)).ok()


def test_lemma_check_huge_denominator():
    p = 2147483659  # prime just above 2^31
    gs = [(F(1, p),), (F(1, 7),)]
    rep = check_lemma_iterative(
        [frozenset(), frozenset({p}), frozenset({7, p})],
        gs,
        1,
        head_of((F(0),), gs),
    )
    assert rep.ok()


def test_lemma_check_input_validation():
    pis, gs = worked_inputs()
    head = head_of((F(1, 3),), gs)
    with pytest.raises(ValueError):
        check_lemma_iterative(pis[:2], gs, 1, head)
    with pytest.raises(ValueError):
        check_lemma_iterative(pis, gs, 0, head)
    with pytest.raises(ValueError):
        check_lemma_iterative(list(reversed(pis)), gs, 1, head)
    with pytest.raises(ValueError):
        check_lemma_iterative(pis, gs, 1, (F(0), F(0)))


@settings(max_examples=25, deadline=None)
@given(
    pi0=st.frozensets(st.sampled_from([2, 3, 5]), max_size=2),
    s=st.integers(1, 3),
    m=st.integers(1, 2),
    data=st.data(),
)
def test_lemma_check_on_generated_sequences(pi0, s, m, data):
    G = WideGroup(m, "full")
    pis, gs = find_g_sequence(G, pi0, 2, s)
    # g ranges over a few Q_{pi_0} points, the zero vector included
    coords = [F(0), F(2)] + [F(1, p) for p in sorted(pi0)]
    g = tuple(data.draw(st.sampled_from(coords)) for _ in range(m))
    rep = check_lemma_iterative([pi0] + pis, gs, s, head_of(g, gs))
    assert rep.ok(), rep.failures()


def b_refuted_by_oracle(pi0, gs, head):
    """Whether member_mod_qpi finds l*head in <g_J> + Q_{pi_0}^m for some
    proper subset J of the parts and some 0 < |l| <= k."""
    k = len(gs)
    for r in range(k):
        for J in itertools.combinations(range(k), r):
            for l in range(-k, k + 1):
                if l and member_mod_qpi(
                    tuple(l * c for c in head), [gs[j] for j in J], pi0
                ):
                    return True
    return False


def test_lemma_b_never_passes_where_the_oracle_finds_a_span():
    # the valuation test of B is sufficient: wherever it passes, no small
    # multiple of the head lies in the span of a proper subset of the parts
    # modulo Q_{pi_0}; checked on generated captures with nonempty pi_0,
    # on generated captures with pi_0 = {} (the first capture of every
    # chain, where Q_{} = Z) and on hand-made heads, several of which a span
    # captures
    rng = random.Random(41)
    cases = []
    for _ in range(12):
        m = rng.randint(1, 2)
        pi0 = frozenset(rng.sample([2, 3, 5, 7], rng.randint(1, 3)))
        k = rng.choice([2, 3])
        pis, gs = find_g_sequence(WideGroup(m, "full"), pi0, k, rng.randint(1, 3))
        coords = [F(0), F(1)] + [F(1, p) for p in sorted(pi0)]
        g = tuple(rng.choice(coords) for _ in range(m))
        cases.append((pi0, gs, head_of(g, gs)))
    for _ in range(6):
        m = rng.randint(1, 2)
        k = rng.choice([2, 3])
        pis, gs = find_g_sequence(WideGroup(m, "full"), frozenset(), k, rng.randint(1, 3))
        g = tuple(rng.choice([F(0), F(1)]) for _ in range(m))
        cases.append((frozenset(), gs, head_of(g, gs)))
    gs = [(F(1, 5),), (F(1, 7),)]
    for head in [
        (F(-1, 35),),  # both primes, one each: B holds
        (F(1, 3),),  # 3 is in no part: B holds
        (F(6, 5),),  # 1/5 + 1, in <g_1> + Z
    ]:
        cases.append((frozenset(), gs, head))
    # (1/5, 1) lies in <g_1> + Z^2 though not in <g_1> itself
    cases.append(
        (frozenset(), [(F(1, 5), F(0)), (F(1, 7), F(0))], (F(1, 5), F(1)))
    )
    pi0 = frozenset({3})
    gs = [(F(1, 5),), (F(1, 7),)]
    for head in [
        (F(-1, 105),),  # the worked example: B holds
        (F(1, 5),),  # in <g_1>: no prime private to part 2
        (F(2, 15),),  # 1/5 times a unit of Q_{3}: in <g_1> + Q_{3}
        (F(1, 35),),  # both primes, one each: B holds
        (F(1, 2),),  # 2*(1/2) clears it, and 2 <= k
        (F(1, 10),),  # private to no part and cleared by 2
        (F(1, 25),),  # outside every span, but no prime private to part 2
    ]:
        cases.append((pi0, gs, head))
    passed = refuted = 0
    empty = {"passed": 0, "refuted": 0}
    for pi0, gs, head in cases:
        pis = [pi0]
        for gj in gs:
            pis.append(pis[-1] | vec_support(gj))
        b = check_lemma_iterative(pis, gs, 1, head).checks["B"]
        hit = b_refuted_by_oracle(pi0, gs, head)
        assert not (b and hit), (pi0, gs, head)
        passed += b
        refuted += hit
        if not pi0:
            empty["passed"] += b
            empty["refuted"] += hit
    assert passed >= 12 and refuted >= 3
    assert empty["passed"] >= 6 and empty["refuted"] >= 2, empty
