"""The nilCoxeter algebroid on double cosets and its atomic subcategory.

Morphisms from J to I are integer combinations of symbols d_p indexed by
(I,J)-cosets, composed by d_p . d_q = d_{p*q} when the star composition is
reduced and 0 otherwise.  The subcategory generated by the atomic symbols
has the core cosets as a basis; over a fixed right frame it is a copy of
the ordinary nilCoxeter algebra of the squashed group.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from .coxeter import CoxeterSystem, braid_relation
from .cosets import (
    DoubleCoset,
    Frame,
    all_frames,
    check_subset,
    identity_coset,
    is_reduced_composition,
    star_compose,
)
from .atomic import atomic_generator, coset_of_atom, squashed_system


@dataclass(eq=True)
class ADMorphism:
    """A finitely supported integer combination of coset symbols d_p.

    All keyed cosets are (target, source)-cosets; zero coefficients are
    pruned.  Treat instances as immutable.
    """

    system: CoxeterSystem
    source: Frame
    target: Frame
    coeffs: dict[DoubleCoset, int] = field(default_factory=dict)


def basis_morphism(p: DoubleCoset) -> ADMorphism:
    """The symbol d_p."""
    return ADMorphism(p.system, p.right, p.left, {p: 1})


def identity_morphism(system: CoxeterSystem, frame: Iterable[int]) -> ADMorphism:
    return basis_morphism(identity_coset(system, frame))


def ad_compose(f: ADMorphism, g: ADMorphism) -> ADMorphism:
    """f . g, applying g first: bilinear in f and g, with d_p . d_q = d_{p*q}
    when the star composition p * q is reduced and 0 otherwise."""
    if f.system != g.system or f.source != g.target:
        raise ValueError("frame mismatch in morphism composition")
    coeffs: dict[DoubleCoset, int] = {}
    for p, cp in f.coeffs.items():
        for q, cq in g.coeffs.items():
            if is_reduced_composition(p, q):
                key = star_compose(p, q)
                coeffs[key] = coeffs.get(key, 0) + cp * cq
                if coeffs[key] == 0:
                    del coeffs[key]
    return ADMorphism(f.system, g.source, f.target, coeffs)


def generator(system: CoxeterSystem, J: Iterable[int], i: int) -> ADMorphism:
    """The atomic generator symbol d_i at the object J."""
    if system.cartan == "I2":
        raise ValueError("nil-Coxeter generators need a type A or B system, got I2")
    return basis_morphism(coset_of_atom(atomic_generator(system, J, i)))


def psi(system: CoxeterSystem, J: Iterable[int], word: Sequence[int]) -> ADMorphism:
    """Fold the generator word onto the object J, rightmost letter first.

    The result is nonzero exactly when the word is reduced in the squashed
    group, and is then the basis symbol of the lifted core coset.
    """
    J = check_subset(system, J)
    acc = identity_morphism(system, J)
    for i in reversed(word):
        acc = ad_compose(generator(system, acc.target, i), acc)
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
            g = generator(system, p.left, i)
            (a,) = g.coeffs
            if is_reduced_composition(a, p):
                nxt = star_compose(a, p)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen


@dataclass
class RelationReport:
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_relations(system: CoxeterSystem) -> RelationReport:
    """Check the nil relations and the braid relations of the squashed
    group's Coxeter matrix (m = 2 is commuting) at every object."""
    report = RelationReport()

    def record(name: str, J: Frame, holds: bool) -> None:
        report.checked += 1
        if not holds:
            report.failures.append(f"{name} fails at J = {sorted(J)} in {system}")

    for J in all_frames(system):
        small = squashed_system(system, J)
        for i in small.simple_indices:
            record(f"d{i} d{i} = 0", J, not psi(system, J, (i, i)).coeffs)
        for i, j in combinations(small.simple_indices, 2):
            lhs, rhs = braid_relation(small, i, j)
            record(f"braid {lhs} = {rhs}", J, psi(system, J, lhs) == psi(system, J, rhs))
    return report
