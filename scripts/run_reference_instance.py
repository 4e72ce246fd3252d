#!/usr/bin/env python3
"""Build the reference instance end to end and tabulate what it certifies.

Same parameters as scripts/example_config.json: m = 1, all of Q, H = Z/2,
level budget 2, the first 10 enumerated elements, seed 0.  Prints the
chain profile, one line per separation certificate, and the capture
witnesses at every level in the budget, then checks the stage invariants
(symmetry, sums and nesting of the stage sets) by their syntactic
certificates.
"""

import argparse
import time

from ssgpkit import (
    HSpec,
    Instance,
    WideGroup,
    build_chain,
    separation_certificate,
    ssgp_certificate,
    stage_invariants,
    stage_set,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-level", type=int, default=2)
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    inst = Instance(WideGroup(1, "full"), HSpec(0, (2,)))
    t0 = time.monotonic()
    chain = build_chain(inst, args.max_level, args.count,
                        rng_seed=args.seed, sample_budget=200)
    print(f"built {len(chain.conditions)} conditions "
          f"(max level {chain.max_level}) in {time.monotonic() - t0:.2f}s")
    for i in range(chain.max_level + 1):
        S = stage_set(chain, i)
        print(f"  stage {i}: {len(S.atoms)} atoms, {len(S.sums)} sum parts")

    xs = inst.enumerate_first(args.count)
    print("\nseparation certificates:")
    for x in xs:
        if x.is_zero():
            continue
        lvl = separation_certificate(chain, x)
        print(f"  {inst.format_elem(x):>8} escapes every stage from level {lvl}")

    print("\ncapture witnesses:")
    for x in xs:
        for i in range(args.max_level + 1):
            w = ssgp_certificate(chain, x, i)
            parts = " + ".join(inst.format_elem(g) for g in w.parts) or "(none)"
            print(f"  {inst.format_elem(x):>8} at level {i}: "
                  f"head {inst.format_elem(w.head)}, parts {parts}")

    t0 = time.monotonic()
    rep = stage_invariants(chain)
    status = "clean" if rep.ok() else f"VIOLATED: {rep.failures()}"
    print(f"\nstage invariants: {status} "
          f"({time.monotonic() - t0:.2f}s)")


if __name__ == "__main__":
    main()
