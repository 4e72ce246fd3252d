"""Command-line front end: configure, build, persist, query, verify.

One JSON config in, one chain file out; queries and verification reports
print JSON on standard output so golden tests can diff them.  Timings go
to standard error, keeping reports byte-stable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from functools import partial

from .arith import primes_upto
from .density import KIND_AVOID, KIND_SSGP
from .driver import (
    BudgetError,
    BuildError,
    ChainFormatError,
    FilterChain,
    build_chain,
    chain_bytes,
    chain_checks,
    load_chain,
    separation_certificate,
    ssgp_certificate,
    stage_invariants,
    stage_set,
)
from .groups import ConstructionError, HSpec, Instance, WideGroup, json_int, json_ints
from .symsets import ExpansionLimitError, index_sizes, member, witness_to_json

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class ConfigError(ValueError):
    """The instance configuration is ill-formed."""


class UsageError(ValueError):
    """The command line asks for something the tool cannot do."""


@dataclass(frozen=True)
class InstanceConfig:
    """Parsed and validated instance + budget description."""

    m: int
    group_kind: str  # "full" | "residue"
    residue: int = 0
    modulus: int = 0
    free_rank: int = 0
    torsion_orders: tuple[int, ...] = ()
    max_level: int = 1
    enum_count: int = 1
    sample_budget: int = 200  # kept in the chain file; no check reads it
    rng_seed: int = 0

    def make_instance(self) -> Instance:
        if self.group_kind == "full":
            g = WideGroup(self.m, "full")
        else:
            g = WideGroup(self.m, "residue", self.residue, self.modulus)
        return Instance(g, HSpec(self.free_rank, self.torsion_orders))


def parse_config(obj: dict) -> InstanceConfig:
    # integer fields take JSON integers only, as in chain files: int() would
    # read "23" as a list of torsion orders, 1.9 as 1 and true as 1
    try:
        m = json_int(obj["m"], "m")
        group = obj["group"]
        h = obj["h"]
        free_rank = json_int(h.get("free_rank", 0), "free_rank")
        torsion = json_ints(h.get("torsion_orders", []), "torsion_orders")
        budget = obj["budget"]
        max_level = json_int(budget["max_level"], "max_level")
        enum_count = json_int(budget["enum_count"], "enum_count")
        sample_budget = json_int(obj.get("sample_budget", 200), "sample_budget")
        rng_seed = json_int(obj.get("rng_seed", 0), "rng_seed")
    except (KeyError, TypeError, AttributeError) as e:
        raise ConfigError(f"missing or malformed field: {e}") from e

    if m < 1:
        raise ConfigError("m must be a positive integer")
    if free_rank < 0:
        raise ConfigError("free_rank must be non-negative")
    if any(d < 2 for d in torsion):
        raise ConfigError("torsion orders must be at least 2")
    if max_level < 0 or enum_count < 1:
        raise ConfigError("budget needs max_level >= 0 and enum_count >= 1")
    if sample_budget < 1:
        raise ConfigError("sample_budget must be positive")

    if group == "full-q":
        return InstanceConfig(
            m, "full", 0, 0, free_rank, torsion,
            max_level, enum_count, sample_budget, rng_seed,
        )
    if isinstance(group, dict) and "localized" in group:
        loc = group["localized"]
        try:
            r = json_int(loc["r"], "r")
            q = json_int(loc["q"], "q")
        except (KeyError, TypeError) as e:
            raise ConfigError(f"localized group needs residue fields r and q: {e}") from e
        if q < 2 or not (0 <= r < q):
            raise ConfigError("need 0 <= r < q with q >= 2")
        if math.gcd(r, q) != 1:
            raise ConfigError(f"residue class {r} mod {q} is not coprime")
        hits = sum(1 for p in primes_upto(10_000) if p % q == r)
        if hits < 5:
            raise ConfigError(
                f"residue class {r} mod {q} hits only {hits} primes below 10^4"
            )
        return InstanceConfig(
            m, "residue", r, q, free_rank, torsion,
            max_level, enum_count, sample_budget, rng_seed,
        )
    raise ConfigError("group must be \"full-q\" or {\"localized\": {r, q}}")


def load_config(path) -> InstanceConfig:
    try:
        with open(path) as f:
            obj = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    return parse_config(obj)


# -- commands ----------------------------------------------------------------


def _load(path, revalidate: bool = True) -> FilterChain:
    if path is None:
        raise UsageError("a chain file is required (--chain PATH)")
    try:
        return load_chain(path, revalidate=revalidate)
    except OSError as e:
        raise ChainFormatError(f"cannot read chain: {e}") from e


def cmd_build(args) -> int:
    cfg = load_config(args.config)
    if args.out is None:
        raise UsageError("build needs an output path (--out PATH)")
    inst = cfg.make_instance()
    t0 = time.monotonic()
    chain = build_chain(
        inst, cfg.max_level, cfg.enum_count, cfg.rng_seed, cfg.sample_budget
    )
    build_s = time.monotonic() - t0
    t0 = time.monotonic()
    with open(args.out, "wb") as f:
        f.write(chain_bytes(chain))
    # printed only once the file is written, so a failing build stays one
    # error line
    print(f"# build: {build_s:.2f}s", file=sys.stderr)
    print(f"# write: {time.monotonic() - t0:.2f}s", file=sys.stderr)
    nsep = sum(1 for e in chain.met if e.request.kind == KIND_AVOID)
    ncap = sum(1 for e in chain.met if e.request.kind == KIND_SSGP)
    print(f"chain: {len(chain.conditions)} conditions, max level {chain.max_level}")
    for i in range(chain.max_level + 1):
        S = stage_set(chain, i)
        print(f"stage {i}: {len(S.atoms)} atoms, {len(S.sums)} sum parts")
    print(f"certificates: {nsep} separations, {ncap} captures")
    print(f"wrote {args.out}")
    return EXIT_OK


def _parse_element(inst: Instance, literal):
    if literal is None:
        raise UsageError("an element is required (--element \"a/b,...;h\")")
    try:
        return inst.parse_elem(literal)
    except ValueError as e:
        raise UsageError(f"bad element literal {literal!r}: {e}") from e


def cmd_query(args) -> int:
    if args.level < 0:
        raise UsageError(f"levels are non-negative, got --level {args.level}")
    t0 = time.monotonic()
    chain = _load(args.chain)
    load_s = time.monotonic() - t0
    t0 = time.monotonic()
    inst = chain.inst
    x = _parse_element(inst, args.element)
    stage = None
    if args.what == "member":
        stage = stage_set(chain, args.level)
        ans = {
            "element": inst.format_elem(x),
            "level": args.level,
            "member": member(inst, x, stage),
        }
    elif args.what == "separate":
        if x.is_zero():
            raise UsageError("zero is never separated")
        ans = {
            "element": inst.format_elem(x),
            "separation_level": separation_certificate(chain, x),
        }
    else:
        w = ssgp_certificate(chain, x, args.level)
        ans = {"witness": witness_to_json(w)}
    # printed only with an answer, so a failing query stays one error line
    print(f"# load: {load_s:.2f}s", file=sys.stderr)
    print(f"# query: {time.monotonic() - t0:.2f}s", file=sys.stderr)
    if stage is not None:
        # read off the search tables after the answer: no counter on the hot path
        print("# lattices: %d, residues kept: %d" % index_sizes(stage), file=sys.stderr)
    print(json.dumps(ans, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    # the revalidation runs below, once, so that it can report every check
    chain = _load(args.chain, revalidate=False)
    inst = chain.inst
    checks: dict[str, bool] = {}
    failures: dict[str, list[str]] = {}
    print(f"# load: {time.monotonic() - t0:.2f}s", file=sys.stderr)

    t0 = time.monotonic()
    for key, _, rep in chain_checks(chain):
        checks[key] = rep.ok()
        if not rep.ok():
            failures[key] = rep.failures()
    print(f"# conditions: {time.monotonic() - t0:.2f}s", file=sys.stderr)

    t0 = time.monotonic()
    rep = stage_invariants(chain)
    for key, ok in rep.checks.items():
        checks[f"stage_{key}"] = ok
    print(f"# stage invariants: {time.monotonic() - t0:.2f}s", file=sys.stderr)

    t0 = time.monotonic()
    for e in chain.met:
        x = e.request.elem
        name = inst.format_elem(x)
        if e.request.kind == KIND_AVOID:
            key = f"sep_{name}"
            replay = partial(separation_certificate, chain, x)
        else:
            key = f"cap_{name}_at_{e.request.level}"
            replay = partial(ssgp_certificate, chain, x, e.request.level)
        try:
            replay()
            checks[key] = True
        except (ChainFormatError, BudgetError) as err:
            # a failed certificate is named by the error a query would print
            checks[key] = False
            failures[key] = [str(err)]
    print(f"# certificates: {time.monotonic() - t0:.2f}s", file=sys.stderr)

    ok = all(checks.values())
    report = {"ok": ok, "checks": checks, "failures": failures}
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK if ok else EXIT_CHECK


def cmd_show(args) -> int:
    chain = _load(args.chain)
    inst = chain.inst
    g = inst.group
    gdesc = "full-q" if g.kind == "full" else f"primes = {g.r} mod {g.mod}"
    print(f"instance: m={inst.m}, group {gdesc}, "
          f"h = Z^{inst.h.free_rank} + {list(inst.h.torsion_orders)}")
    print(f"conditions: {len(chain.conditions)}, max level {chain.max_level}")
    nsep = sum(1 for e in chain.met if e.request.kind == KIND_AVOID)
    ncap = sum(1 for e in chain.met if e.request.kind == KIND_SSGP)
    print(f"met requests: {len(chain.met)} ({nsep} separations, {ncap} captures)")
    for k, p in enumerate(chain.conditions):
        pi = "{" + ",".join(str(q) for q in sorted(p.pi)) + "}"
        atoms = ",".join(str(len(S.atoms)) for S in p.u)
        sums = ",".join(str(len(S.sums)) for S in p.u)
        print(f"[{k:3d}] pi={pi} n={p.n} s={list(p.s)} "
              f"atoms/level=[{atoms}] sums/level=[{sums}]")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ssgpkit",
        description="Build and interrogate finite stages of a small-subgroup "
        "generating topology on Q^m plus a bounded abelian part.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a chain from a config file")
    b.add_argument("--config", required=True, help="instance config (JSON)")
    b.add_argument("--out", required=True, help="chain file to write")
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="ask one question of a chain file")
    q.add_argument("what", choices=["member", "separate", "ssgp"])
    q.add_argument("--chain", required=True, help="chain file")
    q.add_argument("--element", required=True,
                   help='element literal "a/b,...;h" (q-part; h-part)')
    q.add_argument("--level", type=int, default=0, help="stage level")
    q.set_defaults(func=cmd_query)

    v = sub.add_parser("verify", help="re-run every check and certificate")
    v.add_argument("--chain", required=True, help="chain file")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("show", help="print a chain summary")
    s.add_argument("--chain", required=True, help="chain file")
    s.set_defaults(func=cmd_show)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Element literals may start with a sign; glue them to the flag so the
    # parser does not mistake "-1;0" for an option.
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--element" and argv[i].startswith("-"):
            argv[i - 1 : i + 1] = [f"--element={argv[i]}"]
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as e:
        print(f"insufficient budget: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ChainFormatError as e:
        print(f"chain error: {e}", file=sys.stderr)
        return EXIT_CHECK
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return EXIT_CHECK
    except ConstructionError as e:
        print(f"construction failed: {e}", file=sys.stderr)
        return EXIT_CHECK
    except ExpansionLimitError as e:
        print(
            f"insufficient budget: the chain's level budget is too deep for"
            f" exact membership ({e})",
            file=sys.stderr,
        )
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
