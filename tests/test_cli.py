"""End-to-end tests for the command line front end.

Everything runs in-process through main(argv) so exit codes and output
can be asserted without spawning interpreters.
"""

import json

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


def test_build_expansion_limit_exits_3(tmp_path, capsys, monkeypatch):
    # a level-2 build needs a 64-pair expansion; a cap of 16 stands in for
    # the real cap that deep level budgets outgrow
    import ssgpkit.symsets

    monkeypatch.setattr(ssgpkit.symsets, "EXPAND_LIMIT", 16)
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(dict(CONFIG, budget={"max_level": 2, "enum_count": 3})))
    rc = main(["build", "--config", str(cfg), "--out", str(tmp_path / "c.json")])
    assert rc == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "level budget" in err and "limit is 16" in err
    assert len(err.strip().splitlines()) == 1


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


# -- verify ------------------------------------------------------------------


def test_verify_passes_and_is_byte_stable(workdir, capsys):
    argv = ["verify", "--chain", str(workdir / "chain.json"), "--samples", "40"]
    rc = main(argv)
    first = capsys.readouterr().out
    assert rc == EXIT_OK
    rep = json.loads(first)
    assert rep["ok"] is True
    assert all(rep["checks"].values())
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
    assert "chain error" in capsys.readouterr().err


def test_verify_corrupt_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("garbage{")
    rc = main(["verify", "--chain", str(bad)])
    assert rc == EXIT_CHECK
    err = capsys.readouterr().err
    assert "line 1" in err


# -- show and usage ----------------------------------------------------------


def test_show_prints_overview(workdir, capsys):
    rc = main(["show", "--chain", str(workdir / "chain.json")])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "instance: m=1, group full-q" in text
    assert "conditions:" in text and "met requests:" in text


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
