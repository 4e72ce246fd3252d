"""Run one ssgpkit lifecycle workload and print its metrics.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 20 --trace 0

From the repository root.  Each round is a fresh interpreter
(perfbench/pipeline.py) that sets up, builds, loads, verifies and queries
one chain; rounds run one after another until the next would end after
--seconds (at least one round).  Set-up is also sampled in set-up-only
interpreters until there are SETUP_SAMPLES cold set-ups.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics -- the end-to-end ones with --trace 0, the per-layer ones (from
wrapped ssgpkit functions) with --trace 1.  Each metric is the median over
rounds (over set-ups for set-up time).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, ".runs")
PIPELINE = os.path.join(HERE, "pipeline.py")
SETUP_SAMPLES = 5
ROUND_TIMEOUT = 170  # seconds; a round past this fails the run

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s", "build_s": "s", "load_s": "s", "verify_s": "s",
    "query_s": "s", "chain_kb": "KB", "peak_rss_mb": "MB",
}


def _child(args, extra: list[str]) -> dict:
    cmd = [sys.executable, PIPELINE, "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace),
           "--config", os.path.join(RUNS, f"{args.workload}.config.json")] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=ROUND_TIMEOUT)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"round exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ssgpkit", "__init__.py")):
        print(f"no ssgpkit sources under {ROOT}/src: nothing to measure", file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)
    with open(os.path.join(RUNS, f"{args.workload}.config.json"), "w") as f:
        json.dump(WORKLOADS[args.workload].config, f)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    chain = os.path.join(RUNS, f"{tag}.chain.json")
    rounds = []
    start = time.monotonic()
    try:
        while True:
            t0 = time.monotonic()
            extra = ["--chain", chain]
            if args.trace:
                extra += ["--trace-out", os.path.join(RUNS, f"{tag}-round{len(rounds)}.trace.json")]
            rounds.append(_child(args, extra))
            now = time.monotonic()
            if now - start + (now - t0) > args.seconds:
                break
        setups = [(r["setup_s"], r["import_s"]) for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            r = _child(args, [])
            setups.append((r["setup_s"], r["import_s"]))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"benchmark round failed: {e}", file=sys.stderr)
        return 1
    finally:
        if os.path.exists(chain):
            os.remove(chain)

    for f in [f for r in rounds for f in r["failures"]][:20]:
        print(f"FAILED: {f}", file=sys.stderr)
    # A round whose build or load failed has no figures for the later phases.
    complete = [r for r in rounds if "query_s" in r] or rounds
    metrics = {}
    if args.trace:
        metrics["setup.import.s"] = {"value": statistics.median(s[1] for s in setups), "unit": "s"}
        from tracer import unit

        for name in complete[0].get("layers", {}):
            if name != "setup.import.s":
                vals = [r["layers"][name] for r in complete]
                metrics[name] = {"value": statistics.median(vals), "unit": unit(name)}
    else:
        metrics["setup_s"] = {"value": statistics.median(s[0] for s in setups), "unit": "s"}
        for name, unit in END_TO_END.items():
            if name != "setup_s" and name in complete[0]:
                vals = [r[name] for r in complete]
                metrics[name] = {"value": statistics.median(vals), "unit": unit}
    print(f"# {tag}: {len(rounds)} round(s) in {time.monotonic() - start:.1f} s")
    for kind in ("scaled", "cpu", "wall", "slowdown"):
        meds = {k: statistics.median(r["raw"][kind][k] for r in complete)
                for k in complete[0]["raw"][kind]}
        print(f"# median {kind}: " + ", ".join(f"{k} {v:.3f}" for k, v in meds.items()))
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
