"""End-to-end tests for the command line front end.

Everything runs in-process through main(argv) so exit codes and output
can be asserted without spawning interpreters.
"""

import json
import re
from pathlib import Path

import pytest

from ssgpkit.cli import (
    EXIT_BUDGET,
    EXIT_CHECK,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    main,
    parse_config,
)

CONFIG = {
    "m": 1,
    "group": "full-q",
    "h": {"free_rank": 0, "torsion_orders": [2]},
    "budget": {"max_level": 1, "enum_count": 4},
    "sample_budget": 60,
    "rng_seed": 0,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    chain = d / "chain.json"
    rc = main(["build", "--config", str(cfg), "--out", str(chain)])
    assert rc == EXIT_OK
    return d


# -- config validation -------------------------------------------------------


def test_parse_config_full():
    cfg = parse_config(CONFIG)
    assert cfg.group_kind == "full"
    assert cfg.torsion_orders == (2,)
    assert cfg.max_level == 1 and cfg.enum_count == 4
    inst = cfg.make_instance()
    assert inst.m == 1


def test_parse_config_localized():
    obj = dict(CONFIG, group={"localized": {"r": 1, "q": 4}})
    cfg = parse_config(obj)
    assert cfg.group_kind == "residue"
    assert (cfg.residue, cfg.modulus) == (1, 4)


def test_config_rejects_torsion_one():
    obj = dict(CONFIG, h={"free_rank": 0, "torsion_orders": [1]})
    with pytest.raises(ConfigError, match="at least 2"):
        parse_config(obj)


def test_config_rejects_non_coprime_class():
    obj = dict(CONFIG, group={"localized": {"r": 0, "q": 4}})
    with pytest.raises(ConfigError, match="not coprime"):
        parse_config(obj)


def test_config_rejects_prime_starved_class():
    # gcd(1, 99991) = 1 but no prime below 10^4 is 1 mod 99991.
    obj = dict(CONFIG, group={"localized": {"r": 1, "q": 99991}})
    with pytest.raises(ConfigError, match="primes below"):
        parse_config(obj)


def test_config_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        parse_config({})
    with pytest.raises(ConfigError):
        parse_config(dict(CONFIG, m=0))
    with pytest.raises(ConfigError):
        parse_config(dict(CONFIG, group="everything"))
    with pytest.raises(ConfigError):
        parse_config(dict(CONFIG, budget={"max_level": -1, "enum_count": 4}))


def test_build_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(dict(CONFIG, h={"torsion_orders": [1]})))
    rc = main(["build", "--config", str(cfg), "--out", str(tmp_path / "c.json")])
    assert rc == EXIT_USAGE
    assert "config error" in capsys.readouterr().err


def _with(**fields):
    return dict(CONFIG, **fields)


BAD_CONFIGS = [
    # integer fields take JSON integers only: no digit strings, bools or floats
    ("m a string", _with(m="x"), "m must be an integer"),
    ("m a float", _with(m=1.9), "m must be an integer"),
    ("torsion orders a digit string", _with(h={"free_rank": 0, "torsion_orders": "23"}),
     "torsion_orders must be a list of integers"),
    ("torsion order a string", _with(h={"torsion_orders": ["2"]}),
     "torsion_orders must be an integer"),
    ("free rank a float", _with(h={"free_rank": 1.0}), "free_rank must be an integer"),
    ("max level a bool", _with(budget={"max_level": True, "enum_count": 4}),
     "max_level must be an integer"),
    ("enum count a string", _with(budget={"max_level": 1, "enum_count": "4"}),
     "enum_count must be an integer"),
    ("sample budget a float", _with(sample_budget=60.0), "sample_budget must be an integer"),
    ("seed a bool", _with(rng_seed=False), "rng_seed must be an integer"),
    ("residue r a string", _with(group={"localized": {"r": "1", "q": 4}}), "r must be an integer"),
    ("residue q a float", _with(group={"localized": {"r": 1, "q": 4.0}}), "q must be an integer"),
    ("not an object", [1], "missing or malformed field"),
]


@pytest.mark.parametrize("obj, expect", [c[1:] for c in BAD_CONFIGS],
                         ids=[c[0] for c in BAD_CONFIGS])
def test_build_malformed_config_is_one_config_error(tmp_path, capsys, obj, expect):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(obj))
    out = tmp_path / "c.json"
    rc = main(["build", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert expect in lines[0]


# -- build -------------------------------------------------------------------


def test_build_summary_and_file(workdir, capsys):
    out = workdir / "again.json"
    rc = main(["build", "--config", str(workdir / "config.json"), "--out", str(out)])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "conditions, max level" in text
    assert "stage 0:" in text and "atoms" in text
    assert "certificates:" in text
    assert out.exists()


def test_build_deterministic_bytes(workdir):
    a = (workdir / "chain.json").read_bytes()
    b = (workdir / "again.json").read_bytes()
    assert a == b


def test_build_times_go_to_stderr(workdir, tmp_path, capsys):
    outs = []
    for _ in range(2):
        assert main(["build", "--config", str(workdir / "config.json"),
                     "--out", str(tmp_path / "c.json")]) == EXIT_OK
        cap = capsys.readouterr()
        assert re.fullmatch(r"# build: \d+\.\d\ds\n# write: \d+\.\d\ds\n", cap.err)
        outs.append(cap.out)
    # stdout is the summary alone, byte for byte the same each time
    assert outs[0] == outs[1]
    assert outs[0].startswith("chain: ") and outs[0].endswith(f"wrote {tmp_path / 'c.json'}\n")
    assert "#" not in outs[0]
    assert (tmp_path / "c.json").read_bytes() == (workdir / "chain.json").read_bytes()


def test_build_construction_error_exits_1(tmp_path, capsys, monkeypatch):
    import ssgpkit.density

    monkeypatch.setattr(ssgpkit.density, "cyclic_in_set", lambda *a, **k: False)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    rc = main(["build", "--config", str(cfg), "--out", str(tmp_path / "c.json")])
    assert rc == EXIT_CHECK
    err = capsys.readouterr().err
    assert "construction failed: part lost its cyclic atom" in err
    assert len(err.strip().splitlines()) == 1


# -- query -------------------------------------------------------------------


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_query_member_zero(workdir, capsys):
    rc, ans = run_json(capsys, [
        "query", "member", "--chain", str(workdir / "chain.json"),
        "--element", "0;0", "--level", "0",
    ])
    assert rc == EXIT_OK
    assert ans == {"element": "0;0", "level": 0, "member": True}


@pytest.mark.parametrize("what, level", [("member", "1"), ("ssgp", "1"), ("separate", "0")])
def test_query_times_go_to_stderr(workdir, capsys, what, level):
    argv = ["query", what, "--chain", str(workdir / "chain.json"),
            "--element", "-1;1", "--level", level]
    outs = []
    for _ in range(2):
        assert main(argv) == EXIT_OK
        cap = capsys.readouterr()
        sizes = r"# lattices: \d+, residues kept: \d+\n" if what == "member" else ""
        assert re.fullmatch(r"# load: \d+\.\d\ds\n# query: \d+\.\d\ds\n" + sizes, cap.err)
        outs.append(cap.out)
    # stdout is the JSON answer alone, byte for byte the same each time
    assert outs[0] == outs[1] == json.dumps(json.loads(outs[0]), sort_keys=True, indent=2) + "\n"


def test_query_member_reports_index_sizes(workdir, capsys):
    # the sizes line is read off the search tables after the answer; stdout
    # stays the JSON answer alone, and the figures are those of the same
    # query on a fresh load
    from ssgpkit.driver import load_chain, stage_set
    from ssgpkit.symsets import index_sizes, member

    path = workdir / "chain.json"
    chain = load_chain(path)
    S = stage_set(chain, 0)
    x = chain.inst.parse_elem("-1;1")
    want = {"element": "-1;1", "level": 0, "member": member(chain.inst, x, S)}
    lattices, residues = index_sizes(S)
    assert lattices >= 1 and residues >= 1
    assert main(["query", "member", "--chain", str(path), "--element", "-1;1",
                 "--level", "0"]) == EXIT_OK
    cap = capsys.readouterr()
    assert cap.out == json.dumps(want, sort_keys=True, indent=2) + "\n"
    assert cap.err.splitlines()[-1] == f"# lattices: {lattices}, residues kept: {residues}"


def test_query_member_separated_point(workdir, capsys):
    chain = str(workdir / "chain.json")
    rc, ans = run_json(capsys, [
        "query", "separate", "--chain", chain, "--element", "-1;0",
    ])
    assert rc == EXIT_OK
    lvl = ans["separation_level"]
    assert isinstance(lvl, int) and lvl >= 1
    rc, ans = run_json(capsys, [
        "query", "member", "--chain", chain,
        "--element", "-1;0", "--level", str(lvl),
    ])
    assert rc == EXIT_OK
    assert ans["member"] is False


def test_query_ssgp_witness(workdir, capsys):
    rc, ans = run_json(capsys, [
        "query", "ssgp", "--chain", str(workdir / "chain.json"),
        "--element", "-1;1", "--level", "1",
    ])
    assert rc == EXIT_OK
    w = ans["witness"]
    assert set(w) == {"target", "level", "head", "parts"}
    assert w["level"] == 1
    assert w["target"]["q"] == ["-1/1"] and w["target"]["tor"] == [1]


def test_query_ssgp_zero_trivial(workdir, capsys):
    rc, ans = run_json(capsys, [
        "query", "ssgp", "--chain", str(workdir / "chain.json"),
        "--element", "0;0", "--level", "0",
    ])
    assert rc == EXIT_OK
    assert ans["witness"]["parts"] == []


def test_query_separate_zero_is_usage_error(workdir, capsys):
    rc = main([
        "query", "separate", "--chain", str(workdir / "chain.json"),
        "--element", "0;0",
    ])
    assert rc == EXIT_USAGE
    assert "never separated" in capsys.readouterr().err


def test_query_outside_budget_exits_3(workdir, capsys):
    rc = main([
        "query", "separate", "--chain", str(workdir / "chain.json"),
        "--element", "1/97;0",
    ])
    assert rc == EXIT_BUDGET
    assert "insufficient budget" in capsys.readouterr().err


def test_query_level_above_reach_exits_3(workdir, capsys):
    rc = main([
        "query", "member", "--chain", str(workdir / "chain.json"),
        "--element", "0;0", "--level", "99",
    ])
    assert rc == EXIT_BUDGET


@pytest.mark.parametrize("what", ["member", "ssgp"])
def test_query_negative_level_exits_2(workdir, capsys, what):
    rc = main([
        "query", what, "--chain", str(workdir / "chain.json"),
        "--element", "0;0", "--level", "-1",
    ])
    assert rc == EXIT_USAGE
    assert "non-negative" in capsys.readouterr().err


def test_query_bad_element_exits_2(workdir, capsys):
    rc = main([
        "query", "member", "--chain", str(workdir / "chain.json"),
        "--element", "1/0/3", "--level", "0",
    ])
    assert rc == EXIT_USAGE
    assert "bad element" in capsys.readouterr().err


@pytest.mark.parametrize("literal, says", [
    ("1;1;1", "one ';' separates the rational part from the H part"),
    ("1;x", "bad H coordinate in '1;x'"),
])
def test_query_bad_element_part_is_named(workdir, capsys, literal, says):
    rc = main([
        "query", "member", "--chain", str(workdir / "chain.json"),
        "--element", literal, "--level", "0",
    ])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "bad element" in err and says in err


def test_query_foreign_prime_miss_on_example_chain(tmp_path, capsys, monkeypatch):
    # 3 is no denominator prime of the example chain's level 0, so member
    # answers the miss from the set's support without expanding a sum part
    import ssgpkit.symsets

    cfg = Path(__file__).parents[1] / "scripts" / "example_config.json"
    chain = tmp_path / "example.json"
    assert main(["build", "--config", str(cfg), "--out", str(chain)]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(ssgpkit.symsets, "expansion", None)
    rc, ans = run_json(capsys, [
        "query", "member", "--chain", str(chain), "--element", "1/3;1", "--level", "0",
    ])
    assert rc == EXIT_OK
    assert ans == {"element": "1/3;1", "level": 0, "member": False}


def test_query_wall_miss_on_example_chain(tmp_path, capsys):
    # -1;1 has no denominator prime, so no support prune answers it at
    # level 0; the base-pair filter leaves few (left base, right class)
    # pairs to the residue search.  The stderr sizes line counts the
    # lattices the search built: 1,175 before the filter, 24 with it.
    cfg = Path(__file__).parents[1] / "scripts" / "example_config.json"
    chain = tmp_path / "example.json"
    assert main(["build", "--config", str(cfg), "--out", str(chain)]) == EXIT_OK
    capsys.readouterr()
    rc = main(["query", "member", "--chain", str(chain), "--element", "-1;1", "--level", "0"])
    assert rc == EXIT_OK
    cap = capsys.readouterr()
    assert json.loads(cap.out) == {"element": "-1;1", "level": 0, "member": False}
    lattices = int(re.search(r"# lattices: (\d+),", cap.err).group(1))
    assert lattices <= 100


def test_query_expansion_limit_exits_3(tmp_path, capsys, monkeypatch):
    # at level budget 2 a miss at level 0 expands the level-1 sum part,
    # whose children hold 15 x 15 atom pairs; a cap of 16 stands in for
    # the real cap that deep level budgets outgrow.  The miss -1;1 has no
    # denominator prime, so the support prune in member cannot answer it.
    import ssgpkit.symsets

    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(dict(CONFIG, budget={"max_level": 2, "enum_count": 3})))
    chain = tmp_path / "c.json"
    assert main(["build", "--config", str(cfg), "--out", str(chain)]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(ssgpkit.symsets, "EXPAND_LIMIT", 16)
    rc = main([
        "query", "member", "--chain", str(chain),
        "--element", "-1;1", "--level", "0",
    ])
    assert rc == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "level budget" in err and "limit is 16" in err
    assert len(err.strip().splitlines()) == 1


# -- verify ------------------------------------------------------------------


def test_verify_passes_and_is_byte_stable(workdir, capsys):
    argv = ["verify", "--chain", str(workdir / "chain.json")]
    rc = main(argv)
    first = capsys.readouterr().out
    assert rc == EXIT_OK
    rep = json.loads(first)
    assert set(rep) == {"ok", "checks", "failures"}
    assert rep["ok"] is True
    assert all(rep["checks"].values())
    assert rep["failures"] == {}
    # every certificate class shows up
    keys = rep["checks"]
    assert any(k.startswith("condition_") for k in keys)
    assert any(k.startswith("order_") for k in keys)
    assert any(k.startswith("stage_") for k in keys)
    assert any(k.startswith("sep_") for k in keys)
    assert any(k.startswith("cap_") for k in keys)
    rc = main(argv)
    second = capsys.readouterr().out
    assert rc == EXIT_OK and second == first


def test_verify_tampered_chain_exits_1(workdir, tmp_path, capsys):
    obj = json.loads((workdir / "chain.json").read_text())
    obj["conditions"][1]["s"][1] = 3  # breaks scale divisibility
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    rc = main(["verify", "--chain", str(bad)])
    assert rc == EXIT_CHECK
    captured = capsys.readouterr()
    assert "chain error" not in captured.err
    rep = json.loads(captured.out)
    assert rep["ok"] is False
    # condition 1 no longer divides its lattice into its scale, and
    # condition 2 no longer keeps condition 1's scales
    assert rep["checks"]["condition_01"] is False
    assert rep["checks"]["order_02"] is False
    assert rep["checks"]["condition_00"] is True
    assert rep["failures"]["condition_01"] == ["6p", "r72ii"]
    assert "iv" in rep["failures"]["order_02"]
    assert set(rep["failures"]) == {
        k for k, ok in rep["checks"].items() if not ok
    }


@pytest.mark.parametrize("field, keep", [("s", 1), ("u", 1)])
def test_verify_malformed_condition_is_chain_error(workdir, tmp_path, capsys, field, keep):
    # a level or scale list that does not match n leaves nothing to check
    obj = json.loads((workdir / "chain.json").read_text())
    obj["conditions"][1][field] = obj["conditions"][1][field][:keep]
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(obj))
    rc = main(["verify", "--chain", str(bad)])
    assert rc == EXIT_CHECK
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("chain error: condition 1 fails")


def test_verify_non_prime_pi_is_a_failed_check(workdir, tmp_path, capsys):
    # a prime set holding 4 fails 1p of its condition and iii_sub of the
    # order step above it, and the report still comes out
    obj = json.loads((workdir / "chain.json").read_text())
    obj["conditions"][1]["pi"] = [4]
    bad = tmp_path / "composite.json"
    bad.write_text(json.dumps(obj))
    rc = main(["verify", "--chain", str(bad)])
    assert rc == EXIT_CHECK
    captured = capsys.readouterr()
    assert "chain error" not in captured.err
    rep = json.loads(captured.out)
    assert rep["failures"]["condition_01"] == ["1p"]
    assert "iii_sub" in rep["failures"]["order_02"]


def _drop(key):
    def mutate(obj):
        del obj[key]
    return mutate


def _set(path, value):
    def mutate(obj):
        node = obj
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
    return mutate


def _atoms_in_parse_order(obj):
    """Every atom object of the chain's levels, in the order the loader
    parses them: conditions, levels, a set's atoms, then its sum parts
    (left before right)."""
    def walk(S):
        yield from S["atoms"]
        for sp in S["sums"]:
            yield from walk(sp["left"])
            yield from walk(sp["right"])

    for c in obj["conditions"]:
        for S in c["u"]:
            yield from walk(S)


def _repeated_atom(chosen, field, value):
    """Set field of the base element (or the atom's mod) to value in the
    first atom satisfying chosen that repeats an atom parsed earlier."""
    def mutate(obj):
        seen = set()
        for a in _atoms_in_parse_order(obj):
            k = json.dumps(a, sort_keys=True)
            if k in seen and chosen(a):
                (a if field == "mod" else a["base"])[field] = value
                return
            seen.add(k)
        raise AssertionError("no repeated atom to tamper with")
    return mutate


MALFORMED = [
    ("no instance", _drop("instance"), "missing field 'instance'"),
    ("no met", _drop("met"), "missing field 'met'"),
    ("scale not a number", _set(["conditions", 1, "s"], "x"), "malformed field"),
    ("seed not a number", _set(["rng_seed"], "abc"), "malformed field"),
    ("atom modulus 0", _set(["conditions", 0, "u", 0, "atoms", 0, "mod"], 0), "malformed field"),
    ("zero denominator", _set(["conditions", 0, "u", 0, "atoms", 0, "base", "q", 0], "1/0"),
     "zero denominator"),
    ("torsion order 1", _set(["instance", "h", "torsion_orders"], [1]), "malformed field"),
    ("met index out of range", _set(["met", 0, "index"], 999), "condition 999"),
    ("kind level", _set(["met", 0, "request", "kind"], "level"), "kind 'level'"),
    ("kind primes", _set(["met", 0, "request", "kind"], "primes"), "kind 'primes'"),
    ("kind bogus", _set(["met", 0, "request", "kind"], "bogus"), "kind 'bogus'"),
    # integer fields take JSON integers only: no digit strings, bools or floats
    ("scale a digit string", _set(["conditions", 1, "s"], "12"), "s must be a list of integers"),
    ("scale entry a bool", _set(["conditions", 1, "s"], [1, True]), "s must be an integer"),
    ("pi a digit string", _set(["conditions", 2, "pi"], "57"), "pi must be a list of integers"),
    ("n a float", _set(["conditions", 1, "n"], 1.0), "n must be an integer"),
    ("atom modulus a string", _set(["conditions", 0, "u", 0, "atoms", 0, "mod"], "1"),
     "mod must be an integer"),
    ("sum lattice a bool", _set(["conditions", 2, "u", 0, "sums", 0, "lattice"], True),
     "lattice must be an integer"),
    ("met index a bool", _set(["met", 0, "index"], True), "index must be an integer"),
    ("met level a float", _set(["met", 8, "level"], 2.0), "level must be an integer"),
    ("request level a bool", _set(["met", 0, "request", "level"], True),
     "level must be an integer"),
    ("witness level a string", _set(["met", 0, "witness", "level"], "1"),
     "level must be an integer"),
    ("seed a float", _set(["rng_seed"], 2.7), "rng_seed must be an integer"),
    ("sample budget a string", _set(["sample_budget"], "60"), "sample_budget must be an integer"),
    ("m a float", _set(["instance", "group", "m"], 1.9), "m must be an integer"),
    ("torsion order a string", _set(["instance", "h", "torsion_orders"], ["2"]),
     "torsion_orders must be an integer"),
    ("element tor a string", _set(["met", 0, "request", "elem", "tor"], ["1"]),
     "tor must be an integer"),
    ("element q a number", _set(["conditions", 0, "u", 0, "atoms", 0, "base", "q"], [0.5]),
     "q must be a list of rationals"),
    # the same checks on the second copy of an atom parsed before: the
    # loader parses each distinct atom once, and True == 1 == 1.0
    ("repeated atom modulus a bool", _repeated_atom(lambda a: a["mod"] == 1, "mod", True),
     "mod must be an integer"),
    ("repeated atom modulus a float", _repeated_atom(lambda a: a["mod"] == 2, "mod", 2.0),
     "mod must be an integer"),
    ("repeated atom tor a bool", _repeated_atom(lambda a: a["base"]["tor"] == [1], "tor", [True]),
     "tor must be an integer"),
    ("repeated atom free a float", _repeated_atom(lambda a: True, "free", [0.0]),
     "free must be an integer"),
    ("repeated atom q a number", _repeated_atom(lambda a: a["base"]["q"] == ["0/1"], "q", [0]),
     "q must be a list of rationals"),
]


@pytest.mark.parametrize("mutate, expect", [m[1:] for m in MALFORMED],
                         ids=[m[0] for m in MALFORMED])
def test_verify_malformed_file_is_one_chain_error(workdir, tmp_path, capsys, mutate, expect):
    obj = json.loads((workdir / "chain.json").read_text())
    mutate(obj)
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(obj))
    rc = main(["verify", "--chain", str(bad)])
    assert rc == EXIT_CHECK
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("chain error:"), lines
    assert expect in lines[0]


def _met_entry(kind, elem_q, level=None):
    def find(obj):
        for k, e in enumerate(obj["met"]):
            req = e["request"]
            if req["kind"] == kind and req["elem"]["q"] == [elem_q] and req.get("level") == level:
                return k
        raise LookupError(kind)
    return find


TAMPERED = [
    # a separation recorded at level 0, whose stage set holds every integer
    ("separation level 0", _met_entry("avoid", "-1/1"), ["level"], 0,
     ["query", "separate", "--element", "-1;0"],
     "failed to re-validate the separation of -1;0 at level 0", "sep_-1;0"),
    # a capture witness whose head no longer sums with its parts to -1
    ("capture head 7", _met_entry("ssgp", "-1/1", 0), ["witness", "head", "q"], ["7/1"],
     ["query", "ssgp", "--element", "-1;0", "--level", "0"],
     "failed to re-validate the capture of -1;0 at level 0", "cap_-1;0_at_0"),
]


@pytest.mark.parametrize("find, path, value, argv, expect, check", [t[1:] for t in TAMPERED],
                         ids=[t[0] for t in TAMPERED])
def test_query_tampered_certificate_is_one_chain_error(
    workdir, tmp_path, capsys, find, path, value, argv, expect, check
):
    obj = json.loads((workdir / "chain.json").read_text())
    _set(["met", find(obj)] + path, value)(obj)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    rc = main(argv + ["--chain", str(bad)])
    assert rc == EXIT_CHECK
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("chain error:"), lines
    assert expect in lines[0]
    # verify reports the same certificate as one failed check
    rc = main(["verify", "--chain", str(bad)])
    assert rc == EXIT_CHECK
    rep = json.loads(capsys.readouterr().out)
    assert [k for k, ok in rep["checks"].items() if not ok] == [check]
    # and names it by the message the query printed
    msg = lines[0].removeprefix("chain error: ")
    assert rep["failures"] == {check: [msg]}
    assert expect in msg


def test_verify_corrupt_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("garbage{")
    rc = main(["verify", "--chain", str(bad)])
    assert rc == EXIT_CHECK
    err = capsys.readouterr().err
    assert "line 1" in err


@pytest.mark.parametrize("argv", [
    ["verify"], ["show"], ["query", "member", "--element", "0;0", "--level", "0"],
], ids=["verify", "show", "query member"])
def test_missing_chain_file_is_one_chain_error(tmp_path, capsys, argv):
    # an unreadable chain exits 1, like a malformed one, with no traceback
    missing = tmp_path / "no such chain.json"
    rc = main(argv + ["--chain", str(missing)])
    assert rc == EXIT_CHECK
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("chain error: cannot read chain: ")
    assert str(missing) in cap.err and cap.err.count("\n") == 1


# -- show and usage ----------------------------------------------------------


def test_show_prints_overview(workdir, capsys):
    rc = main(["show", "--chain", str(workdir / "chain.json")])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "instance: m=1, group full-q" in text
    assert "conditions:" in text and "met requests:" in text
    rows = [line for line in text.splitlines() if line.startswith("[")]
    assert rows[0].endswith("n=0 s=[1] atoms/level=[1] sums/level=[0]")
    # each capture at level budget 1 adds a sum part at level 0 and
    # 2 heads + 3 parts at level 1
    assert rows[2].endswith("atoms/level=[1,6] sums/level=[1,0]")
    for row in rows:
        atoms, sums = row.split(" atoms/level=")[1].split(" sums/level=")
        assert atoms.count(",") == sums.count(",")


def test_import_does_not_load_numpy():
    # numpy is a test-only dependency; the package must import without it
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import ssgpkit, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["query", "member", "--element", "0;0"])
    assert exc.value.code == 2


def test_localized_build_runs(tmp_path, capsys):
    cfg = tmp_path / "loc.json"
    cfg.write_text(json.dumps(dict(
        CONFIG,
        group={"localized": {"r": 1, "q": 4}},
        budget={"max_level": 0, "enum_count": 2},
        sample_budget=40,
    )))
    out = tmp_path / "loc_chain.json"
    rc = main(["build", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    rc = main(["show", "--chain", str(out)])
    assert rc == EXIT_OK
    assert "1 mod 4" in capsys.readouterr().out
