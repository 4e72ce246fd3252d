"""Chain builder, stage sets, certificate queries, and persistence."""

import json
from fractions import Fraction as F

import pytest

import ssgpkit.symsets as symsets
from ssgpkit.arith import next_prime
from ssgpkit.driver import (
    BudgetError,
    BuildError,
    ChainFormatError,
    FilterChain,
    build_chain,
    chain_bytes,
    load_chain,
    save_chain,
    separation_certificate,
    ssgp_certificate,
    stage_invariants,
    stage_set,
)
from ssgpkit.groups import HSpec, Instance, WideGroup
from ssgpkit.poset import Condition, leq, root, validate
from ssgpkit.symsets import (
    lattice_set,
    make_atom,
    member,
    sample_point,
    symset_from_atoms,
    union_sets,
)


@pytest.fixture(scope="module")
def inst():
    return Instance(WideGroup(1, "full"), HSpec(0, (2,)))


@pytest.fixture(scope="module")
def chain(inst):
    return build_chain(inst, 2, 10, rng_seed=0, sample_budget=200)


def test_minimal_budget_meets_zero(inst):
    c = build_chain(inst, 0, 1)
    assert c.conditions[0] == root(inst)
    w = ssgp_certificate(c, inst.zero(), 0)
    assert w.head.is_zero() and w.parts == ()


def test_chain_is_decreasing_and_valid(inst, chain):
    assert chain.conditions[0] == root(inst)
    for p in chain.conditions:
        assert validate(inst, p).ok()
    for k in range(1, len(chain.conditions)):
        rep = leq(inst, chain.conditions[k], chain.conditions[k - 1])
        assert rep.ok(), (k, rep.failures())


@pytest.mark.parametrize(
    "group, h, max_level, enum_count",
    [
        (WideGroup(1, "full"), HSpec(0, (2,)), 3, 2),  # the benchmark's deep chain
        (WideGroup(1, "full"), HSpec(0, (2,)), 2, 3),  # the benchmark's query chain
        (WideGroup(2, "full"), HSpec(1, (3,)), 1, 4),
        (WideGroup(1, "residue", 1, 4), HSpec(0, ()), 2, 3),
    ],
)
def test_every_capture_order_pair_is_certified(group, h, max_level, enum_count):
    # build_chain already refuses an uncertified step; this pins that the
    # exact iii_sub certificate carries the captures, heads and all
    inst_ = Instance(group, h)
    c = build_chain(inst_, max_level, enum_count)
    conds = c.conditions
    grown = 0
    for k in range(1, len(conds)):
        rep = leq(inst_, conds[k], conds[k - 1])
        assert rep.ok(), (k, rep.failures())
        top = conds[k - 1].n
        grown += len(conds[k].u[top].atoms) > len(conds[k - 1].u[top].atoms)
    assert grown == sum(1 for x in inst_.enumerate_first(enum_count) if not x.is_zero())


def test_every_request_within_budget_is_met(inst, chain):
    xs = inst.enumerate_first(10)
    seps = sum(1 for x in xs if not x.is_zero())
    ssgps = len(xs) * 3  # levels 0..2 each
    kinds = [e.request.kind for e in chain.met]
    assert kinds.count("avoid") == seps
    assert kinds.count("ssgp") == ssgps


def test_stage_sets_contain_zero_and_lattice(inst, chain):
    for i in range(chain.max_level + 1):
        assert member(inst, inst.zero(), stage_set(chain, i))
    # the root contributes Z^m at stage 0
    assert member(inst, inst.make([17], [], [0]), stage_set(chain, 0))


def test_stage_set_bounds(inst, chain):
    with pytest.raises(ValueError):
        stage_set(chain, -1)
    with pytest.raises(BudgetError):
        stage_set(chain, chain.max_level + 1)


def test_separation_certificates(inst, chain):
    for x in inst.enumerate_first(10):
        if x.is_zero():
            continue
        n = separation_certificate(chain, x)
        assert not member(inst, x, stage_set(chain, n))


def test_separation_rejects_zero(inst, chain):
    with pytest.raises(ValueError):
        separation_certificate(chain, inst.zero())


def test_separation_outside_budget(inst, chain):
    from fractions import Fraction

    far = inst.make([Fraction(1, 97)], [], [0])
    with pytest.raises(BudgetError):
        separation_certificate(chain, far)


def test_ssgp_certificates_all_levels(inst, chain):
    for x in inst.enumerate_first(10):
        for i in range(3):
            w = ssgp_certificate(chain, x, i)
            assert w.verify_identity(inst)
            assert member(inst, w.head, stage_set(chain, i))
            # every part sits inside every certified stage
            for g in w.parts:
                assert member(inst, g, stage_set(chain, i))


def test_ssgp_zero_any_reached_level(inst, chain):
    w = ssgp_certificate(chain, inst.zero(), chain.max_level)
    assert w.head.is_zero() and w.parts == ()


def test_ssgp_outside_budget(inst, chain):
    x = inst.enumerate_first(2)[1]
    with pytest.raises(BudgetError):
        ssgp_certificate(chain, x, 3)  # captures recorded for levels <= 2 only


def test_neighbourhood_base_axioms(inst, chain):
    rep = stage_invariants(chain, samples=60, rng_seed=1)
    assert rep.ok(), rep.failures()


def test_stage_invariants_name_uncertified_stages(inst):
    # last condition: U_0 = 2Z, U_1 = Z + (1/3 + Z); the level-1 atom Z is
    # not in U_0, and 1/3 + Z has no negative in U_1
    third = make_atom(inst, inst.make([F(1, 3)], [], [0]), (), 1)
    u1 = union_sets(inst, lattice_set(inst, 1), symset_from_atoms(inst, [third]))
    bad = Condition(frozenset({3}), 1, (lattice_set(inst, 2), u1), (2, 2))
    chain = FilterChain(inst, [root(inst), bad], [])
    rep = stage_invariants(chain, samples=1, rng_seed=0)
    assert rep.failures() == ["neg_1", "add_1_0", "nest_1_0"]
    # nothing is sampled: the budget and seed cannot change the report
    assert stage_invariants(chain, samples=500, rng_seed=1).checks == rep.checks


def test_stage_sets_grow_with_budget(inst):
    import random

    small = build_chain(inst, 1, 2)
    big = build_chain(inst, 1, 4)
    rng = random.Random(7)
    for i in range(2):
        S = stage_set(small, i)
        T = stage_set(big, i)
        for _ in range(40):
            z = sample_point(inst, S, rng)
            assert member(inst, z, T)


def test_build_rejects_bad_budget(inst):
    with pytest.raises(ValueError):
        build_chain(inst, -1, 5)
    with pytest.raises(ValueError):
        build_chain(inst, 1, 0)


def test_build_aborts_on_broken_extension(inst, monkeypatch):
    import ssgpkit.driver as driver
    from ssgpkit.density import extend_ssgp
    from ssgpkit.poset import Condition
    from ssgpkit.symsets import symset_from_atoms

    def sabotaged(inst_, p, x):
        q, w = extend_ssgp(inst_, p, x)
        if x.is_zero() or q.n != p.n:
            return q, w
        # drop the head classes from the top level
        keep = [a for a in q.u[q.n].atoms if a.base.hpart_is_zero() or a.gens]
        u = q.u[: q.n] + (symset_from_atoms(inst_, keep),)
        return Condition(q.pi, q.n, u, q.s), w

    monkeypatch.setattr(driver, "extend_ssgp", sabotaged)
    with pytest.raises(BuildError):
        build_chain(inst, 0, 4)


# -- persistence -------------------------------------------------------------


def _reachable_sets(chain):
    """Every SymSet reachable from the levels, through sum-part children,
    with repeats: one entry per occurrence in the object graph."""
    out = []
    stack = [S for p in chain.conditions for S in p.u]
    while stack:
        S = stack.pop()
        out.append(S)
        for sp in S.sums:
            stack.extend((sp.left, sp.right))
    return out


def test_save_load_round_trip(inst, chain, tmp_path):
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    loaded = load_chain(path)
    assert chain_bytes(loaded) == path.read_bytes() == chain_bytes(chain)
    # loading hash-conses: one object per distinct set, though sets repeat
    sets = _reachable_sets(loaded)
    assert len({id(S) for S in sets}) == len({S.key() for S in sets}) < len(sets)
    assert loaded.conditions == chain.conditions
    assert loaded.met == chain.met
    assert loaded.rng_seed == chain.rng_seed
    # loaded chains answer queries identically
    x = inst.enumerate_first(3)[2]
    assert separation_certificate(loaded, x) == separation_certificate(chain, x)


def test_load_detects_tampered_scales(inst, chain, tmp_path):
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    obj = json.loads(path.read_text())
    obj["conditions"][1]["s"][1] = 3  # breaks the divisibility ladder
    path.write_text(json.dumps(obj))
    with pytest.raises(ChainFormatError, match="8p|6p"):
        load_chain(path)


def test_load_reports_parse_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "ssgp-chain", ')
    with pytest.raises(ChainFormatError, match="line"):
        load_chain(path)


def test_load_rejects_foreign_format(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ChainFormatError):
        load_chain(path)


def test_rebuild_is_byte_identical(inst, chain):
    again = build_chain(inst, 2, 10, rng_seed=0, sample_budget=200)
    assert chain_bytes(again) == chain_bytes(chain)


def _atom_jsons(obj):
    """Every atom object of a chain file's levels, with repeats."""
    stack = [S for c in obj["conditions"] for S in c["u"]]
    while stack:
        S = stack.pop()
        yield from S["atoms"]
        for sp in S["sums"]:
            stack.extend((sp["left"], sp["right"]))


def test_load_parses_each_distinct_atom_once(chain, tmp_path, monkeypatch):
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    occurrences = [json.dumps(a, sort_keys=True) for a in _atom_jsons(json.loads(path.read_text()))]
    distinct = set(occurrences)
    parsed = []
    real = symsets.atom_from_json
    monkeypatch.setattr(
        symsets, "atom_from_json", lambda inst, obj: parsed.append(obj) or real(inst, obj)
    )
    loaded = load_chain(path, revalidate=False)
    assert len(parsed) == len(distinct) < len(occurrences)
    assert {json.dumps(a, sort_keys=True) for a in parsed} == distinct
    # and each distinct atom is one object, wherever its sets sit
    atoms = [a for S in _reachable_sets(loaded) for a in S.atoms]
    assert len({id(a) for a in atoms}) == len(distinct)


def test_loads_share_no_sets(chain, tmp_path):
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    first = load_chain(path, revalidate=False)
    second = load_chain(path, revalidate=False)
    ids = {id(S) for S in _reachable_sets(first)}
    assert not ids & {id(S) for S in _reachable_sets(second)}
    atom_ids = {id(a) for S in _reachable_sets(first) for a in S.atoms}
    assert atom_ids
    assert not atom_ids & {id(a) for S in _reachable_sets(second) for a in S.atoms}


@pytest.mark.parametrize("level", [-1, 2])
def test_load_detects_dropped_atom_in_shared_set(chain, tmp_path, level):
    # the top level (a one-atom lattice) and level 2 (the 64-atom capture
    # level) of the last condition both have equal twins in earlier ones
    obj = json.loads(chain_bytes(chain))
    last = len(obj["conditions"]) - 1
    tampered = obj["conditions"][last]["u"][level]
    earlier = [u for c in obj["conditions"][:last] for u in c["u"]]
    assert tampered in earlier and tampered["atoms"]
    tampered["atoms"].pop()
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ChainFormatError, match=rf"\b{last}\b"):
        load_chain(path)


def test_load_detects_foreign_prime_inside_sum_part_child(chain, tmp_path):
    # a generator deep in a sum-part child of the last condition gets a
    # denominator prime outside its pi: no level lists that atom itself
    obj = json.loads(chain_bytes(chain))
    last = len(obj["conditions"]) - 1
    cond = obj["conditions"][last]
    atom = next(
        a for u in cond["u"] for sp in u["sums"] for a in sp["left"]["atoms"] if a["gens"]
    )
    atom["gens"][0]["q"] = [f"1/{next_prime(max(cond['pi']))}"]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ChainFormatError, match=rf"condition {last} fails \[.*'4p'"):
        load_chain(path)


def test_load_computes_each_support_once(chain, tmp_path, monkeypatch):
    # 4p reads SymSet.supp, kept on the set: one computation per distinct
    # set of the file, and none when the conditions are validated again
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    computed = []
    real = symsets.SymSet.supp

    def counting(S):
        if S._supp is None:
            computed.append(id(S))
        return real(S)

    monkeypatch.setattr(symsets.SymSet, "supp", counting)
    loaded = load_chain(path)
    assert sorted(computed) == sorted({id(S) for S in _reachable_sets(loaded)})
    computed.clear()
    for p in loaded.conditions:
        assert validate(loaded.inst, p).ok()
    assert computed == []
