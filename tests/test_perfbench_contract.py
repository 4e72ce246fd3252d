"""The library names and signatures the benchmark under perfbench/ relies on.

perfbench/tracer.py wraps library functions it finds with getattr, and
perfbench/pipeline.py and selftest.py call the package's public functions
with fixed arguments.  A rename or a dropped parameter would only show when
the benchmark runs; these tests show it in the test suite.  They read the
perfbench files and never change them.
"""

import importlib
import importlib.util
import inspect
import os
import re

import pytest

import ssgpkit

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)  # definitions only; nothing is wrapped
    return mod


def _read(name):
    with open(os.path.join(PERFBENCH, name)) as f:
        return f.read()


def test_tracer_targets_resolve():
    tracer = _tracer()
    assert tracer.TARGETS and tracer.PARSE_TARGETS
    for modname, attr, _, _ in tracer.TARGETS:
        mod = importlib.import_module(f"ssgpkit.{modname}")
        assert callable(getattr(mod, attr, None)), f"ssgpkit.{modname}.{attr}"
    for modname, cls, attr in tracer.PARSE_TARGETS:
        owner = getattr(importlib.import_module(f"ssgpkit.{modname}"), cls, None)
        assert callable(getattr(owner, attr, None)), f"ssgpkit.{modname}.{cls}.{attr}"


@pytest.mark.parametrize("name", ["pipeline.py", "selftest.py"])
def test_benchmark_imports_resolve(name):
    text = _read(name)
    used = set(re.findall(r"\bsk\.(\w+)", text))
    assert used
    assert sorted(n for n in used if not hasattr(ssgpkit, n)) == []
    cli = importlib.import_module("ssgpkit.cli")
    for n in re.findall(r"from ssgpkit\.cli import (\w+)", text):
        assert hasattr(cli, n), f"ssgpkit.cli.{n}"


# The calls perfbench/pipeline.py makes, with placeholders for the values.
CALLS = [
    ("build_chain", ("inst", "max_level", "enum_count", "rng_seed", "sample_budget"), {}),
    ("validate", ("inst", "p"), {"sample_budget": 1, "rng_seed": 0}),
    ("leq", ("inst", "q", "p"), {"sample_budget": 1, "rng_seed": 0}),
    ("stage_invariants", ("chain",), {"samples": 1, "rng_seed": 0}),
]


@pytest.mark.parametrize("name, args, kwargs", CALLS, ids=[c[0] for c in CALLS])
def test_benchmark_call_signatures_bind(name, args, kwargs):
    assert re.search(rf"\bsk\.{name}\(", _read("pipeline.py") + _read("selftest.py"))
    inspect.signature(getattr(ssgpkit, name)).bind(*args, **kwargs)
