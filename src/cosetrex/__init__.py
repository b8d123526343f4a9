"""Reduced expressions for parabolic double cosets in Coxeter groups of
types A, B, and I2: cores, atomic cosets, squashing, and the atomic
nilCoxeter algebroid."""

from .coxeter import (
    CoxeterSystem,
    Element,
    dihedral,
    type_a,
    type_b,
)
from .cosets import DoubleCoset, coset_of, enumerate_core_cosets
from .expressions import (
    MultistepExpression,
    OneStepExpression,
    evaluate,
    is_reduced,
    parse_expression,
)
from .atomic import AtomicCoset, atomic_from, atomic_rex_of_core, is_atomic

__version__ = "0.1.0"

__all__ = [
    "AtomicCoset",
    "CoxeterSystem",
    "DoubleCoset",
    "Element",
    "MultistepExpression",
    "OneStepExpression",
    "atomic_from",
    "atomic_rex_of_core",
    "coset_of",
    "dihedral",
    "enumerate_core_cosets",
    "evaluate",
    "is_atomic",
    "is_reduced",
    "parse_expression",
    "type_a",
    "type_b",
    "__version__",
]
