"""The three benchmark workloads: one ssgpkit config each, plus the make-up
of the query batch asked of the loaded chain.

The configs are fixed; `--seed` only draws the seeded part of the
known-answer queries (which head pairs are summed, which elements with a
foreign denominator prime are asked), so every seed runs the same number
of operations of the same kinds.
"""

from __future__ import annotations

from dataclasses import dataclass


def _config(max_level: int, enum_count: int, sample_budget: int) -> dict:
    return {
        "m": 1,
        "group": "full-q",
        "h": {"free_rank": 0, "torsion_orders": [2]},
        "budget": {"max_level": max_level, "enum_count": enum_count},
        "sample_budget": sample_budget,
        "rng_seed": 0,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    open_count: int  # member for the first open_count enumerated elements ...
    open_levels: tuple[int, ...]  # ... at each of these levels
    head_pairs: int  # seeded sums of two (possibly negated) heads, at level L-1
    foreign: int  # seeded elements with a denominator prime outside pi, at 0..L
    oracle: bool  # compare every open answer with the coset oracle


WORKLOADS = {
    w.name: w
    for w in (
        # The README config (scripts/example_config.json): leq- and
        # kernel-bound, 602 KB of heavily shared substructure.  Level 0 is
        # left out of the open batch: one miss there scans a 2026 x 2026
        # expansion for minutes.
        Workload("reference", _config(2, 10, 200), 60, (1, 2), 8, 4, False),
        # Nested sum parts at L=3; stage invariants dominate.
        Workload("deep", _config(3, 2, 50), 20, (1, 2, 3), 6, 4, False),
        # The read path: misses beside hits at every level, checked against
        # an independent oracle.
        Workload("query", _config(2, 3, 200), 40, (0, 1, 2), 6, 4, True),
    )
}
