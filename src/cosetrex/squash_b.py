"""The type-checked type-B entry of the braid-connectivity check.

Squashing itself is written once for types A and B in ``squash_a``.
"""
from __future__ import annotations

from .cosets import DoubleCoset
from .atomic import matsumoto_connected


def matsumoto_connected_b(p: DoubleCoset, memo: dict | None = None) -> bool:
    """Whether type-B braid moves reach every atomic reduced expression of p.

    The type-checked entry of ``atomic.matsumoto_connected``; the benchmark's
    ``verify-braid-b4`` workload counts its calls.
    """
    if p.system.cartan != "B":
        raise ValueError(f"signed squashing needs a type B system, got {p.system.cartan}")
    return matsumoto_connected(p, memo)
