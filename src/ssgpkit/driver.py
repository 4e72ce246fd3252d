"""Chain builder and certificate store over the dense-class constructors.

A finite decreasing chain of conditions stands in for the generic filter:
the scheduler walks a budget-truncated prefix of the countable dense family
(avoidance of every nonzero enumerated element, capture of every enumerated
element at every level up to the bound) and records, for each met request,
the condition that met it together with its certificate.  Stage sets are
the unions, over the chain, of the per-condition levels; every recorded
certificate is re-checked against those unions rather than the producing
condition, since that is where an ordering bug would surface.

Scheduling note: captures are processed before avoidances, and every
capture runs at the level bound.  Both reorderings are harmless: the
level classes are downward closed, so one capture at the top level meets
the capture request at every lower level, and avoidance levels added
afterwards never touch the levels a capture certified.  Processing
captures first keeps the capture arity at 2^L + 1 instead of growing with
every avoidance step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .density import (
    KIND_AVOID,
    KIND_SSGP,
    DenseRequest,
    extend_avoid,
    extend_ssgp,
    extend_to_level,
)
from .groups import Instance, KElem
from .poset import (
    CheckReport,
    Condition,
    leq,
    nested_subset_syntactic,
    root,
    sum_subset_syntactic,
    validate,
)
from .symsets import (
    SSGPWitness,
    SymSet,
    cyclic_in_set,
    is_symmetric_syntactic,
    member,
    witness_from_json,
    witness_to_json,
)

CHAIN_FORMAT = "ssgp-chain"
CHAIN_VERSION = 1


class BuildError(RuntimeError):
    """A post-hoc certificate failed while building; names the claim."""


class BudgetError(RuntimeError):
    """The request was not met within the build budget; not a refutation."""


class ChainFormatError(ValueError):
    """A chain file failed to parse or re-validate."""


@dataclass(frozen=True)
class MetRequest:
    """One met dense request: the condition index that met it, plus its
    certificate (a witness for captures, a separation level for
    avoidances)."""

    index: int
    request: DenseRequest
    witness: Optional[SSGPWitness] = None
    level: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "request": self.request.to_json(),
            "witness": None if self.witness is None else witness_to_json(self.witness),
            "level": self.level,
        }

    @staticmethod
    def from_json(inst: Instance, obj: dict) -> "MetRequest":
        w = obj.get("witness")
        lv = obj.get("level")
        return MetRequest(
            int(obj["index"]),
            DenseRequest.from_json(inst, obj["request"]),
            None if w is None else witness_from_json(inst, w),
            None if lv is None else int(lv),
        )


@dataclass
class FilterChain:
    """A decreasing chain of conditions with its met-request ledger."""

    inst: Instance
    conditions: list[Condition]
    met: list[MetRequest]
    rng_seed: int = 0
    sample_budget: int = 200
    _stages: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def max_level(self) -> int:
        return max(p.n for p in self.conditions)


def _push(
    inst: Instance,
    chain: list[Condition],
    q: Condition,
    claim: str,
    sample_budget: int,
    rng_seed: int,
) -> int:
    """Validate q and its order relation to the chain tail, then append."""
    if q is chain[-1]:
        return len(chain) - 1
    rep = validate(inst, q)
    if not rep.ok():
        raise BuildError(f"{claim}: condition fails {rep.failures()}")
    rep = leq(inst, q, chain[-1], sample_budget=sample_budget, rng_seed=rng_seed)
    if not rep.ok():
        raise BuildError(f"{claim}: order relation fails {rep.failures()}")
    chain.append(q)
    return len(chain) - 1


def build_chain(
    inst: Instance,
    max_level: int,
    enum_count: int,
    rng_seed: int = 0,
    sample_budget: int = 200,
) -> FilterChain:
    """Meet the budget-truncated dense family and record all certificates.

    Enumerates x over the first enum_count elements of K.  Every x gets a
    capture certificate for every level up to max_level; every nonzero x
    gets a separation level.
    """
    if max_level < 0 or enum_count < 1:
        raise ValueError("need max_level >= 0 and enum_count >= 1")
    conditions = [root(inst)]
    met: list[MetRequest] = []

    q = extend_to_level(inst, conditions[-1], max_level)
    _push(inst, conditions, q, "level ramp", sample_budget, rng_seed)

    xs = inst.enumerate_first(enum_count)
    for x in xs:
        q, w = extend_ssgp(inst, conditions[-1], x)
        idx = _push(
            inst, conditions, q, f"capture of {inst.format_elem(x)}",
            sample_budget, rng_seed,
        )
        if not member(inst, w.head, q.u[q.n]):
            raise BuildError(f"capture of {inst.format_elem(x)}: head escapes")
        for n in range(max_level + 1):
            met.append(MetRequest(idx, DenseRequest(KIND_SSGP, level=n, elem=x), w))

    for x in xs:
        if x.is_zero():
            continue
        q = extend_avoid(inst, conditions[-1], x)
        idx = _push(
            inst, conditions, q, f"separation of {inst.format_elem(x)}",
            sample_budget, rng_seed,
        )
        if member(inst, x, q.u[q.n]):
            raise BuildError(
                f"separation of {inst.format_elem(x)}: still a member"
            )
        met.append(
            MetRequest(idx, DenseRequest(KIND_AVOID, elem=x), level=q.n)
        )

    return FilterChain(inst, conditions, met, rng_seed, sample_budget)


# -- stage sets and certificates ---------------------------------------------


def stage_set(chain: FilterChain, i: int) -> SymSet:
    """Union of level i over every chain condition that reaches it.

    Along a certified chain the level sets only ever grow: each validated
    order relation pins U_i of the later condition over U_i of the earlier
    one, so the union collapses to the level set of the deepest condition
    reaching i.
    """
    if i < 0:
        raise ValueError("levels are non-negative")
    if i > chain.max_level:
        raise BudgetError(f"level {i} was never reached within the budget")
    if i not in chain._stages:
        last = None
        for p in chain.conditions:
            if p.n >= i:
                last = p.u[i]
        chain._stages[i] = last
    return chain._stages[i]


def separation_certificate(chain: FilterChain, x: KElem) -> int:
    """Level n with x outside stage set n, re-verified exactly."""
    if x.is_zero():
        raise ValueError("zero is never separated")
    for entry in chain.met:
        if entry.request.kind == KIND_AVOID and entry.request.elem == x:
            n = entry.level
            if member(chain.inst, x, stage_set(chain, n)):
                raise AssertionError(
                    "recorded separation level regained the element: "
                    "the chain is not coherently ordered"
                )
            return n
    raise BudgetError(f"no separation recorded for {chain.inst.format_elem(x)}")


def ssgp_certificate(chain: FilterChain, x: KElem, i: int) -> SSGPWitness:
    """Recorded capture witness for x at stage i, re-checked exactly against
    the assembled stage set: the head by membership, each part by the
    syntactic cyclic certificate (cyclic_in_set), and the sum identity."""
    inst = chain.inst
    entry_w: Optional[SSGPWitness] = None
    for entry in chain.met:
        if (
            entry.request.kind == KIND_SSGP
            and entry.request.elem == x
            and entry.request.level == i
        ):
            entry_w = entry.witness
            break
    if entry_w is None:
        if x.is_zero() and 0 <= i <= chain.max_level:
            entry_w = SSGPWitness(x, i, inst.zero(), ())
        else:
            raise BudgetError(
                f"no capture recorded for {inst.format_elem(x)} at level {i}"
            )
    S = stage_set(chain, i)
    if not member(inst, entry_w.head, S):
        raise AssertionError("witness head escapes the stage set")
    for g in entry_w.parts:
        if not cyclic_in_set(inst, g, S):
            raise AssertionError("witness part is not cyclic inside the stage set")
    if not entry_w.verify_identity(inst):
        raise AssertionError("witness identity broke")
    # the recorded witness carries its capture depth; the certificate is for i
    return SSGPWitness(entry_w.target, i, entry_w.head, entry_w.parts)


def stage_invariants(
    chain: FilterChain, samples: int = 200, rng_seed: int = 0
) -> CheckReport:
    """Neighbourhood-base axioms on the assembled stage sets, exactly:
    negation stays (neg_i), sums drop one level (add_{i+1}_i), deeper
    stages are contained in shallower ones (nest_{i+1}_i).

    Each check passes only on the syntactic certificate validate uses for
    the same inclusion; a stage without one fails by name.  Nothing is
    sampled, so samples and rng_seed are ignored; they stay in the
    signature because existing callers, perfbench/pipeline.py among them,
    still pass them.
    """
    inst = chain.inst
    top = chain.max_level
    checks: dict[str, bool] = {}
    for i in range(top + 1):
        checks[f"neg_{i}"] = is_symmetric_syntactic(inst, stage_set(chain, i))
    for i in range(top):
        S_lo = stage_set(chain, i + 1)
        S_hi = stage_set(chain, i)
        checks[f"add_{i + 1}_{i}"] = sum_subset_syntactic(inst, S_lo, S_lo, S_hi)
        checks[f"nest_{i + 1}_{i}"] = nested_subset_syntactic(inst, S_lo, S_hi)
    return CheckReport(checks)


# -- persistence -------------------------------------------------------------


def chain_to_json(chain: FilterChain) -> dict:
    return {
        "format": CHAIN_FORMAT,
        "version": CHAIN_VERSION,
        "instance": chain.inst.to_json(),
        "rng_seed": chain.rng_seed,
        "sample_budget": chain.sample_budget,
        "conditions": [p.to_json() for p in chain.conditions],
        "met": [e.to_json() for e in chain.met],
    }


def chain_bytes(chain: FilterChain) -> bytes:
    """Canonical byte serialization: sorted keys, no whitespace."""
    doc = json.dumps(chain_to_json(chain), sort_keys=True, separators=(",", ":"))
    return doc.encode("ascii") + b"\n"


def save_chain(chain: FilterChain, path) -> None:
    with open(path, "wb") as f:
        f.write(chain_bytes(chain))


def chain_from_json(obj: dict, revalidate: bool = True) -> FilterChain:
    if obj.get("format") != CHAIN_FORMAT:
        raise ChainFormatError(f"not a {CHAIN_FORMAT} file")
    if obj.get("version") != CHAIN_VERSION:
        raise ChainFormatError(f"unsupported version {obj.get('version')!r}")
    inst = Instance.from_json(obj["instance"])
    # One intern table per file: equal levels and sum-part children across
    # conditions become one object, so their caches fill once.
    table: dict = {}
    conditions = [Condition.from_json(inst, c, table) for c in obj["conditions"]]
    met = [MetRequest.from_json(inst, e) for e in obj["met"]]
    if not conditions:
        raise ChainFormatError("empty chain")
    seed = int(obj["rng_seed"])
    budget = int(obj["sample_budget"])
    chain = FilterChain(inst, conditions, met, seed, budget)
    if revalidate:
        if conditions[0] != root(inst):
            raise ChainFormatError("chain does not start at the root condition")
        for k, p in enumerate(conditions):
            rep = validate(inst, p)
            if not rep.ok():
                raise ChainFormatError(f"condition {k} fails {rep.failures()}")
        for k in range(1, len(conditions)):
            rep = leq(
                inst, conditions[k], conditions[k - 1],
                sample_budget=budget, rng_seed=seed,
            )
            if not rep.ok():
                raise ChainFormatError(
                    f"conditions {k} <= {k - 1} fails {rep.failures()}"
                )
    return chain


def load_chain(path, revalidate: bool = True) -> FilterChain:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ChainFormatError(
            f"{path}: line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    return chain_from_json(obj, revalidate=revalidate)
