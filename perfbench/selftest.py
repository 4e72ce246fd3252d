"""Self-test of the benchmark's correctness checks: each must pass on a good
chain and report a failure on a broken one.

    python3 perfbench/selftest.py

From the repository root; exits 0 when every check passes on the chain the
`query` workload builds and catches every tampered copy (one witness part
altered, a separated element moved into its lattice, one known answer
flipped, one open answer flipped).
"""

from __future__ import annotations

import copy
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OPEN_COUNT = 12  # open elements asked at every level; enough for hits and misses


def main() -> int:
    import ssgpkit as sk
    from ssgpkit.cli import parse_config

    w = WORKLOADS["query"]
    cfg = parse_config(w.config)
    inst = cfg.make_instance()
    chain = sk.build_chain(inst, cfg.max_level, cfg.enum_count, cfg.rng_seed, cfg.sample_budget)
    raw = sk.chain_bytes(chain)
    doc = json.loads(raw)
    amb = checks.Ambient(doc["instance"])
    stages = {i: sk.stage_set(chain, i) for i in range(chain.max_level + 1)}

    def ask(x, i):
        return sk.member(inst, inst.make(*x), stages[i])

    known = checks.known_queries(doc, amb, w.head_pairs, w.foreign, seed=0)
    known_ans = [ask(x, i) for x, i, _ in known]
    open_keys = [((x.q, x.free, x.tor), i) for i in w.open_levels
                 for x in inst.enumerate_first(OPEN_COUNT)]
    answers = {k: ask(*k) for k in open_keys}
    for k in checks.property_closure(open_keys, answers, amb):
        answers[k] = ask(*k)
    oracle = checks.CosetOracle(doc, amb)

    # Tampered copies.
    bad_witness = copy.deepcopy(doc)
    cap = next(e for e in bad_witness["met"] if e["witness"] and e["witness"]["parts"])
    part = cap["witness"]["parts"][0]
    part["q"][0] = str(Fraction(part["q"][0]) + 1)
    bad_sep = copy.deepcopy(doc)
    sep = next(e for e in bad_sep["met"] if e["request"]["kind"] == "avoid")
    s = bad_sep["conditions"][-1]["s"][sep["level"]]
    sep["request"]["elem"] = {"q": [f"{s}/1"] + ["0/1"] * (amb.m - 1),
                              "free": [0] * amb.free_rank, "tor": [0] * len(amb.orders)}
    flipped_known = list(known_ans)
    flipped_known[-1] = not flipped_known[-1]
    hit = next(k for k in open_keys if answers[k] and k[0] != amb.zero())
    flipped_open = {**answers, hit: False}

    cases = [
        ("canonical chain bytes", checks.check_canonical(raw), False),
        ("witnesses of the built chain", checks.check_witnesses(doc, amb), False),
        ("separations of the built chain", checks.check_separations(doc, amb), False),
        ("known answers", checks.check_known(known, known_ans, amb), False),
        ("open answers: properties", checks.check_open_properties(open_keys, answers, amb), False),
        ("open answers: coset oracle", checks.check_oracle(oracle, open_keys, answers, amb), False),
        ("one witness part altered", checks.check_witnesses(bad_witness, amb), True),
        ("separated element moved into its lattice", checks.check_separations(bad_sep, amb), True),
        ("one known answer flipped", checks.check_known(known, flipped_known, amb), True),
        ("one open answer flipped: properties",
         checks.check_open_properties(open_keys, flipped_open, amb), True),
        ("one open answer flipped: coset oracle",
         checks.check_oracle(oracle, open_keys, flipped_open, amb), True),
    ]
    ok = True
    for name, failures, should_fail in cases:
        good = bool(failures) == should_fail
        ok &= good
        verdict = "caught" if should_fail and failures else "clean" if not failures else "FAILED"
        print(f"{'ok ' if good else 'BAD'} {name}: {verdict}"
              + (f" ({failures[0]})" if failures else ""))
    print(f"{len(known)} known and {len(open_keys)} open queries; "
          + ("every check behaves" if ok else "some check misbehaves"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
