"""Finite-stage constructions for small-subgroup generating topologies.

The package builds decreasing chains of forcing-style conditions on a
wide subgroup of Q^m plus a bounded abelian part, turning density
arguments into explicit finite certificates: capture witnesses showing
an element is generated by small subgroups of a stage set, and
separation stages showing the limit topology is Hausdorff.
"""

from .groups import HSpec, Instance, KElem, WideGroup
from .symsets import SSGPWitness, SymSet, cyclic_in_set, member
from .poset import CheckReport, Condition, leq, validate
from .density import (
    DenseRequest,
    check_lemma_iterative,
    extend_avoid,
    extend_primes,
    extend_ssgp,
    extend_to_level,
)
from .driver import (
    BudgetError,
    BuildError,
    ChainFormatError,
    FilterChain,
    build_chain,
    chain_bytes,
    load_chain,
    save_chain,
    separation_certificate,
    ssgp_certificate,
    stage_invariants,
    stage_set,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "BuildError",
    "ChainFormatError",
    "CheckReport",
    "Condition",
    "DenseRequest",
    "FilterChain",
    "HSpec",
    "Instance",
    "KElem",
    "SSGPWitness",
    "SymSet",
    "WideGroup",
    "build_chain",
    "chain_bytes",
    "check_lemma_iterative",
    "cyclic_in_set",
    "extend_avoid",
    "extend_primes",
    "extend_ssgp",
    "extend_to_level",
    "leq",
    "load_chain",
    "member",
    "save_chain",
    "separation_certificate",
    "ssgp_certificate",
    "stage_invariants",
    "stage_set",
    "validate",
]
