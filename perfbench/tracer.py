"""Per-layer counters and spans, taken from outside ssgpkit.

`Tracer.install` replaces functions of the symsets, poset, density, groups
and driver modules with wrappers, and rebinds every name other ssgpkit
modules imported with `from .symsets import member` and the like, so
calls between modules go through the wrappers too.  Counts and times are
kept per phase (the benchmark sets the phase); calls made outside a phase
are not recorded.  Times are wall time (`time.perf_counter`); the round
divides the reported ones by the phase's slowdown (see speed.py), while
the trace file keeps them raw.  A recursive function's time counts its
outermost calls only.  Coarse layers also leave spans (name, phase,
start, end, parent) that are written out at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

PHASES = ("build", "load", "verify", "query")

# (module, attribute, layer name, what to record)
#   calls: count calls; time: inclusive time; outer: time in outermost calls
#   only; hits: count true results; span: keep a span per outermost call;
#   fresh: count atoms a call materialises into the expansion cache
TARGETS = (
    ("symsets", "snf_solve", "snf_solve", {"calls", "time"}),
    ("symsets", "atom_contains", "atom_contains", {"calls", "time", "hits"}),
    ("symsets", "atom_add", "atom_add", {"calls"}),
    ("symsets", "_sumpart_contains", "sumpart_contains", {"calls", "outer"}),
    ("symsets", "expansion", "expansion", {"fresh"}),
    ("symsets", "member", "member", {"calls", "outer"}),
    ("symsets", "sample_point", "sample_point", {"calls"}),
    ("poset", "validate", "validate", {"outer", "span"}),
    ("poset", "leq", "leq", {"outer", "span"}),
    ("density", "extend_ssgp", "extend_ssgp", {"outer", "span"}),
    ("density", "extend_avoid", "extend_avoid", {"outer", "span"}),
    ("groups", "find_g_sequence", "find_g_sequence", {"outer", "span"}),
    ("driver", "stage_invariants", "stage_invariants", {"outer", "span"}),
    ("driver", "separation_certificate", "certificates", {"outer", "span"}),
    ("driver", "ssgp_certificate", "certificates", {"outer", "span"}),
)

# Parsing a chain file: JSON, then from_json without revalidation.
PARSE_TARGETS = (
    ("groups", "Instance", "from_json"),
    ("poset", "Condition", "from_json"),
    ("driver", "MetRequest", "from_json"),
)

# The per-layer metrics reported, as (phase or None for every phase, layer, field).
REPORTED = (
    [(None, layer, f) for layer, f in (
        ("snf_solve", "calls"), ("snf_solve", "s"),
        ("atom_contains", "calls"), ("atom_contains", "s"), ("atom_contains", "hit_ratio"),
        ("atom_add", "calls"), ("sumpart_contains", "calls"), ("sumpart_contains", "s"),
        ("expansion", "atoms"), ("member", "calls"), ("member", "s"),
        ("sample_point", "calls"),
    )]
    + [(p, layer, "s") for layer in ("leq", "validate") for p in ("build", "load", "verify")]
    + [("load", "parse", "s")]
    + [("build", layer, "s") for layer in ("extend_ssgp", "extend_avoid", "find_g_sequence")]
    + [("verify", layer, "s") for layer in ("stage_invariants", "certificates")]
)


class _Layer:
    __slots__ = ("calls", "s", "hits", "atoms")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.hits = 0
        self.atoms = 0


class Tracer:
    def __init__(self):
        self.phase = None
        self._stats = {p: defaultdict(_Layer) for p in PHASES}
        self._off = defaultdict(_Layer)  # calls outside any phase land here
        self.cur = self._off
        self._depth = defaultdict(int)
        self.spans: list[dict] = []
        self._open: list[int] = []

    # -- phases and spans ----------------------------------------------------

    def begin(self, phase: str) -> None:
        self.phase = phase
        self.cur = self._stats[phase]
        self._push_span(phase)

    def end(self) -> None:
        self._pop_span()
        self.phase = None
        self.cur = self._off

    def _push_span(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "phase": self.phase, "parent": parent,
                           "start": time.perf_counter(), "end": None})
        self._open.append(len(self.spans) - 1)

    def _pop_span(self) -> None:
        self.spans[self._open.pop()]["end"] = time.perf_counter()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer: str, what: set):
        tracer = self
        depth = self._depth
        count = "calls" in what
        hits = "hits" in what
        if "fresh" in what:
            def wrapper(inst, S):
                fresh = S._expanded is None
                out = fn(inst, S)
                if fresh:
                    tracer.cur[layer].atoms += len(S._expanded)
                return out
        elif "outer" in what:
            span = "span" in what

            def wrapper(*args, **kwargs):
                rec = tracer.cur[layer]
                if count:
                    rec.calls += 1
                if depth[layer]:
                    return fn(*args, **kwargs)
                depth[layer] = 1
                if span and tracer.phase is not None:
                    tracer._push_span(layer)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.s += time.perf_counter() - t0
                    depth[layer] = 0
                    if span and tracer.phase is not None:
                        tracer._pop_span()
        elif "time" in what:
            def wrapper(*args, **kwargs):
                rec = tracer.cur[layer]
                rec.calls += 1
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                rec.s += time.perf_counter() - t0
                if hits and out:
                    rec.hits += 1
                return out
        else:
            def wrapper(*args, **kwargs):
                tracer.cur[layer].calls += 1
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _rebind(old, new) -> None:
        """Point every ssgpkit module-level name bound to old at new."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ssgpkit" or name.startswith("ssgpkit.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)

    def install(self) -> None:
        """Wrap for the rest of the process; a round never unwraps."""
        import importlib

        for modname, attr, layer, what in TARGETS:
            mod = importlib.import_module(f"ssgpkit.{modname}")
            old = getattr(mod, attr)
            self._rebind(old, self._wrap(old, layer, what))
        parse = {"outer"}
        for modname, cls, attr in PARSE_TARGETS:
            owner = getattr(importlib.import_module(f"ssgpkit.{modname}"), cls)
            old = getattr(owner, attr)
            setattr(owner, attr, staticmethod(self._wrap(old, "parse", parse)))
        json.loads = self._wrap(json.loads, "parse", parse)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {}
        for phase, layer, field in REPORTED:
            for p in PHASES if phase is None else (phase,):
                rec = self._stats[p].get(layer) or _Layer()
                if field == "hit_ratio":
                    val = rec.hits / rec.calls if rec.calls else 0.0
                else:
                    val = getattr(rec, field)
                out[f"{p}.{layer}.{field}"] = val
        return out

    def dump(self, path) -> None:
        doc = {
            "metrics": self.metrics(),
            "spans": self.spans,
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def unit(metric: str) -> str:
    field = metric.rsplit(".", 1)[1]
    return {"s": "s", "calls": "count", "atoms": "count", "hit_ratio": "ratio"}[field]
