"""The nilCoxeter algebroid on double cosets and its atomic subcategory.

The symbols d_p are indexed by (I,J)-cosets and compose by d_p . d_q =
d_{p*q} when the star composition is reduced and 0 otherwise, so every
product of symbols is one symbol or 0: here a symbol is its coset p, and 0
is None.  The subcategory generated by the atomic symbols has the core
cosets as a basis; over a fixed right frame it is a copy of the ordinary
nilCoxeter algebra of the squashed group.  The nilcox-relations suite of
cosetrex.verify checks its relations and that basis.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .coxeter import CoxeterSystem
from .cosets import DoubleCoset, check_subset, identity_coset, reduced_composite
from .atomic import atomic_generator, coset_of_atom, lift_word, squashed_system


def generator(system: CoxeterSystem, J: Iterable[int], i: int) -> DoubleCoset:
    """The atomic generator symbol d_i at the object J."""
    if system.cartan == "I2":
        raise ValueError("nil-Coxeter generators need a type A or B system, got I2")
    return coset_of_atom(atomic_generator(system, J, i))


def psi(system: CoxeterSystem, J: Iterable[int], word: Sequence[int]) -> DoubleCoset | None:
    """Fold the atoms of the word lifted onto the object J, rightmost first.

    The result is nonzero exactly when the word is reduced in the squashed
    group, and is then the lifted core coset.  lift_word lifts, and so
    checks, every letter before the fold can stop at 0.
    """
    J = check_subset(system, J)
    acc = identity_coset(system, J)
    if word:
        squashed_system(system, J)  # refuses I2, which lift_word would lift
    for a in reversed(lift_word(system, J, word)):
        acc = reduced_composite(coset_of_atom(a), acc)
        if acc is None:
            return None
    return acc


def reachable_cosets(system: CoxeterSystem, J: Iterable[int]) -> set[DoubleCoset]:
    """Cosets of all nonzero products of atomic generators out of J."""
    indices = squashed_system(system, J).simple_indices
    start = identity_coset(system, J)
    seen = {start}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for i in indices:
            nxt = reduced_composite(generator(system, p.left, i), p)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen

