"""One benchmark round in a fresh interpreter: set-up, build + save, load
with revalidation, the checks `ssgpkit verify` makes after its load, and
the workload's query batch, each phase timed; then the correctness checks,
outside the timed regions.  Prints one JSON object as its last line.

Phase times are CPU time of this process (`time.process_time`), scaled to
a reference speed by the speed probes of speed.py: the round is
single-threaded and its file I/O hits the page cache, so CPU time is what
an idle machine's wall clock would show, and the scaling takes out how
fast the shared host happened to run.  Raw CPU and wall times are reported
beside them.  `setup_s` is the raw CPU time from the process's start to
the end of set-up.

Run by perfbench/run.py; by hand:
    python3 perfbench/pipeline.py --workload query --seed 0 --trace 0 \
        --config perfbench/.runs/query.config.json --chain /tmp/c.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import checks  # noqa: E402  (stdlib only; next to this file)
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Ops:
    """Attempted and failed program operations of one round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, name: str, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as e:  # an operation of the program under test failed
            self.failed += 1
            self.errors.append(f"{name}: {type(e).__name__}: {e}")
            return None


def _tup(x):
    return (x.q, x.free, x.tor)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--config", required=True)
    ap.add_argument("--chain", help="chain file to write (omit for set-up only)")
    ap.add_argument("--trace-out", help="where a traced round writes its spans")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    # -- set-up: what every ssgpkit command pays before any work -------------
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import ssgpkit as sk
    import_s = time.perf_counter() - t0
    if not os.path.abspath(sk.__file__).startswith(SRC + os.sep):
        print(f"ssgpkit was imported from {sk.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from ssgpkit.cli import load_config

    cfg = load_config(args.config)
    inst = cfg.make_instance()
    enumerated = inst.enumerate_first(max(cfg.enum_count, w.open_count))
    out = {"setup_s": time.process_time(), "import_s": import_s}
    if args.chain is None:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = Ops()
    seen: dict[str, dict[str, float]] = {"scaled": {}, "cpu": {}, "wall": {}, "slowdown": {}}
    probe = SpeedProbe()

    def phase(name, fn):
        if tracer:
            tracer.begin(name)
        since = probe.mark()
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            return fn()
        finally:
            cpu = time.process_time() - c0
            seen["wall"][name] = time.perf_counter() - w0
            seen["cpu"][name] = cpu
            scaled, seen["slowdown"][name] = probe.scaled(cpu, since)
            out[f"{name}_s"] = seen["scaled"][name] = scaled
            if tracer:
                tracer.end()

    def finish(correct: bool, failures: list[str]) -> int:
        probe.stop()
        out.update(
            raw=seen, attempted=ops.attempted, failed=ops.failed,
            correct=correct, failures=(ops.errors + failures)[:20],
        )
        if tracer:
            # layer times are scaled by their phase's slowdown, like phase times
            out["layers"] = {
                name: val / seen["slowdown"].get(name.split(".")[0], 1.0)
                if name.endswith(".s") else val
                for name, val in tracer.metrics().items()
            }
            out["layers"]["setup.import.s"] = import_s
            if args.trace_out:
                tracer.dump(args.trace_out)
        print(json.dumps(out))
        return 0

    # -- build ---------------------------------------------------------------
    probe.start()

    def build():
        chain = sk.build_chain(inst, cfg.max_level, cfg.enum_count, cfg.rng_seed, cfg.sample_budget)
        sk.save_chain(chain, args.chain)
        return chain

    if phase("build", lambda: ops.run("build", build)) is None:
        return finish(False, ["build failed"])
    gc.collect()  # the built chain is garbage now: load starts cold
    with open(args.chain, "rb") as f:
        raw = f.read()
    out["chain_kb"] = len(raw) / 1024
    doc = json.loads(raw)
    amb = checks.Ambient(doc["instance"])
    known = checks.known_queries(doc, amb, w.head_pairs, w.foreign, args.seed)

    # -- load ----------------------------------------------------------------
    chain = phase("load", lambda: ops.run("load", lambda: sk.load_chain(args.chain)))
    if chain is None:
        return finish(False, ["load failed"])
    cinst = chain.inst
    budget, seed = chain.sample_budget, chain.rng_seed

    # -- verify: what `ssgpkit verify` checks after its load ------------------
    conds = chain.conditions
    seps: dict = {}
    caps: dict = {}

    def verify():
        reps = [ops.run(f"validate {k}", lambda p=p: sk.validate(
            cinst, p, sample_budget=budget, rng_seed=seed)) for k, p in enumerate(conds)]
        reps += [ops.run(f"leq {k}", lambda k=k: sk.leq(
            cinst, conds[k], conds[k - 1], sample_budget=budget, rng_seed=seed))
            for k in range(1, len(conds))]
        reps.append(ops.run("stage_invariants", lambda: sk.stage_invariants(
            chain, samples=budget, rng_seed=seed)))
        for e in chain.met:
            x = e.request.elem
            if e.request.kind == "avoid":
                seps[_tup(x)] = ops.run("separation_certificate",
                                        lambda: sk.separation_certificate(chain, x))
            else:
                lv = e.request.level
                c = ops.run("ssgp_certificate", lambda: sk.ssgp_certificate(chain, x, lv))
                caps[(_tup(x), lv)] = None if c is None else (
                    _tup(c.head), tuple(_tup(g) for g in c.parts))
        return reps

    reports = phase("verify", verify)

    # -- query ---------------------------------------------------------------
    open_keys = [(_tup(x), i) for i in w.open_levels for x in enumerated[: w.open_count]]
    known_in = [(cinst.make(*x), i) for x, i, _ in known]
    open_in = [(cinst.make(*x), i) for x, i in open_keys]

    def query():
        stages = {i: sk.stage_set(chain, i) for i in range(chain.max_level + 1)}
        ans_known = [ops.run("member", lambda: sk.member(cinst, x, stages[i])) for x, i in known_in]
        ans_open = [ops.run("member", lambda: sk.member(cinst, x, stages[i])) for x, i in open_in]
        return ans_known, ans_open

    ans_known, ans_open = phase("query", query)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe.stop()

    # -- checks, untimed -----------------------------------------------------
    fails: list[str] = []
    fails += checks.check_canonical(raw)
    fails += checks.check_witnesses(doc, amb)
    fails += checks.check_separations(doc, amb)
    if sk.chain_bytes(chain) != raw:
        fails.append("reloaded chain does not re-serialise to the same bytes")
    names = [f"condition {k}" for k in range(len(conds))]
    names += [f"order {k} <= {k - 1}" for k in range(1, len(conds))]
    names.append("stage invariants")
    fails += [f"{n} fails {r.failures()}" for n, r in zip(names, reports) if r is not None and not r.ok()]
    fails += checks.check_certificates(doc, amb, seps, caps)
    fails += checks.check_known(
        [k for k, a in zip(known, ans_known) if a is not None],
        [a for a in ans_known if a is not None], amb)
    answers = {k: a for k, a in zip(open_keys, ans_open) if a is not None}
    keys = [k for k in open_keys if k in answers]
    stages = {i: sk.stage_set(chain, i) for i in range(chain.max_level + 1)}
    for x, i in checks.property_closure(keys, answers, amb):
        answers[(x, i)] = sk.member(cinst, cinst.make(*x), stages[i])
    fails += checks.check_open_properties(keys, answers, amb)
    if w.oracle:
        fails += checks.check_oracle(checks.CosetOracle(doc, amb), keys, answers, amb)
    return finish(not fails, fails)


if __name__ == "__main__":
    sys.exit(main())
