"""Atomic cosets and atomic reduced expressions for core cosets.

An atomic coset is a core coset with a (necessarily unique) reduced
expression ``[I, M, J]`` where ``M = I + s = J + t`` and ``t = w_M s w_M``.
Every core coset factors reducedly into atomic cosets; the greedy
construction below peels one atomic coset at a time off the left.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .coxeter import (
    CoxeterSystem,
    all_paths,
    as_simple,
    braid_class,
    braid_steps,
    conjugate,
    identity,
    left_descents,
    length,
    multiply,
    same_paths,
)
from .cosets import (
    DoubleCoset,
    Frame,
    all_frames,
    check_subset,
    coset_of,
    identity_coset,
    is_core,
    is_reduced_composition,
    left_redundancy,
    longest_element,
    max_elem,
    right_redundancy,
    star_compose,
)
from .expressions import (
    MultistepExpression,
    OneStepExpression,
    concatenate,
    to_multistep,
)


@dataclass(frozen=True)
class AtomicCoset:
    """The coset of w_mid framed by left = mid - added and right = mid - removed."""

    system: CoxeterSystem
    left: Frame
    mid: Frame
    right: Frame
    added: int
    removed: int


def atomic_from(system: CoxeterSystem, mid: Iterable[int], s: int) -> AtomicCoset:
    """The atomic coset [mid-s, mid, mid-t] with t = w_mid s w_mid."""
    mid = check_subset(system, mid)
    if s not in mid:
        raise ValueError(f"{s} is not in {sorted(mid)}")
    return _atom(system, mid, s)


@lru_cache(maxsize=None)
def _atom(system: CoxeterSystem, mid: Frame, s: int) -> AtomicCoset:
    # one object per atom: the cached greedy steps hold many references to few atoms
    w = longest_element(system, mid)
    t = as_simple(conjugate(w, s))
    if t is None:  # conjugation by w_M permutes the simples of M
        raise AssertionError(f"w_M {s} w_M is not simple for M = {sorted(mid)}")
    return AtomicCoset(system, mid - {s}, mid, mid - {t}, s, t)


def squashed_system(system: CoxeterSystem, J: Iterable[int]) -> CoxeterSystem:
    """The group of the same type whose words index the atomic expressions
    out of J: rank n - |J|, on the strands (type A) or block pairs (type B)
    left after squashing along J."""
    if system.cartan == "I2":
        raise ValueError("squashing needs a type A or B system, got I2")
    return CoxeterSystem(system.cartan, system.rank - len(check_subset(system, J)))


def atomic_generator(system: CoxeterSystem, J: Iterable[int], i: int) -> AtomicCoset:
    """The atomic coset with right frame J squashing to the simple s_i:
    the i-th gap of J, counted from the first simple index."""
    J = check_subset(system, J)
    gaps = sorted(system.index_set - J)
    start = system.simple_indices.start
    if not 0 <= i - start < len(gaps):
        raise ValueError(f"generator index {i} out of range {start}..{start + len(gaps) - 1}")
    s = gaps[i - start]
    mid = J | {s}
    return atomic_from(system, mid, as_simple(conjugate(longest_element(system, mid), s)))


def atomic_index(a: AtomicCoset) -> int:
    """Position of an atom among the atomic cosets sharing its right frame."""
    indices = a.system.simple_indices
    return sorted(set(indices) - a.right).index(a.removed) + indices.start


def word_of_rex(atoms: Sequence[AtomicCoset]) -> tuple[int, ...]:
    """The index word of an atomic expression, leftmost factor first."""
    return tuple(atomic_index(a) for a in atoms)


def lift_word(system: CoxeterSystem, J: Iterable[int], word: Sequence[int]) -> tuple[AtomicCoset, ...]:
    """Chain atomic generators along a word, rightmost letter applied to J first."""
    J = check_subset(system, J)
    atoms: list[AtomicCoset] = []
    cur = J
    for i in reversed(word):
        a = atomic_generator(system, cur, i)
        atoms.append(a)
        cur = a.left
    return tuple(reversed(atoms))


@lru_cache(maxsize=None)
def coset_of_atom(a: AtomicCoset) -> DoubleCoset:
    """The underlying (left,right)-coset, the one containing w_mid."""
    return coset_of(a.system, a.left, longest_element(a.system, a.mid), a.right)


def is_atomic(p: DoubleCoset) -> bool:
    """Whether p is a core coset of the form [I + s - t]."""
    pmax = max_elem(p)
    mid = left_descents(pmax)
    extra = mid - p.left
    if len(extra) != 1 or not p.left <= mid:
        return False
    if pmax != longest_element(p.system, frozenset(mid)):
        return False
    (s,) = extra
    t = as_simple(conjugate(pmax, s))
    return t is not None and p.right == frozenset(mid) - {t} and is_core(p)


def atomic_rex_of_core(p: DoubleCoset) -> tuple[AtomicCoset, ...]:
    """Greedy atomic reduced expression of a core coset.

    At each step, add the smallest left descent of the maximum not already
    in the left frame, remove its conjugate under the enlarged longest
    element, and recurse on the shorter remainder coset.  The remainder is
    again a core coset with the same right frame, and the step depends only
    on the current coset, so each coset's step is computed once.
    """
    if not is_core(p):
        raise ValueError("atomic expressions are only defined for core cosets")
    atoms: list[AtomicCoset] = []
    cur = p
    while (step := _greedy_step(cur)) is not None:
        a, cur = step
        atoms.append(a)
    if cur.left != cur.right or cur.min != identity(cur.system):
        raise AssertionError(f"descent-saturated core coset {cur} is not the identity coset")
    return tuple(atoms)


@lru_cache(maxsize=None)
def _greedy_step(cur: DoubleCoset) -> tuple[AtomicCoset, DoubleCoset] | None:
    """The greedy first atom of cur with the remainder it leaves, or None
    when every left descent of the maximum is in the left frame."""
    pmax = max_elem(cur)
    extra = left_descents(pmax) - cur.left
    if not extra:
        return None
    a = atomic_from(cur.system, cur.left | {min(extra)}, min(extra))
    nxt = _peel(cur, a, pmax)
    if length(max_elem(nxt)) >= length(pmax):
        raise AssertionError(f"atomic peeling failed to shorten the coset {cur}")
    return a, nxt


# the caches keyed by a coset, and those keyed by an atom or its frames,
# held as cosets.COSET_CACHES and cosets.SYSTEM_CACHES are
COSET_CACHES = (_greedy_step,)
SYSTEM_CACHES = (_atom, coset_of_atom)


def _peel(p: DoubleCoset, a: AtomicCoset, pmax) -> DoubleCoset:
    # remainder coset q with p = a . q, via max(q) = w_{right(a)} w_{mid(a)} max(p)
    w = multiply(longest_element(p.system, a.right), longest_element(p.system, a.mid))
    return coset_of(p.system, a.right, multiply(w, pmax), p.right)


# the index words of every core coset that atomic_words has walked through
_ATOMIC_WORDS: dict[DoubleCoset, tuple[tuple[int, ...], ...]] = {}


def atomic_words(p: DoubleCoset) -> tuple[tuple[int, ...], ...]:
    """The index words of every atomic reduced expression of a core coset,
    by full branching: the paths that peel one possible first atom at a
    time, each labelled by its atom's index."""
    if not is_core(p):
        raise ValueError("atomic expressions are only defined for core cosets")
    return all_paths(p, _atomic_steps, _ATOMIC_WORDS)


def all_atomic_rexes(p: DoubleCoset) -> tuple[tuple[AtomicCoset, ...], ...]:
    """Every atomic reduced expression of a core coset, in the order of
    atomic_words, each lifted from its index word."""
    return tuple(lift_word(p.system, p.right, w) for w in atomic_words(p))


def _atomic_steps(p: DoubleCoset) -> list[tuple[int, DoubleCoset]]:
    """The index of each possible first atom of p, in order, with the
    remainder it leaves."""
    pmax = max_elem(p)
    out = []
    for s in sorted(left_descents(pmax) - p.left):
        a = atomic_from(p.system, p.left | {s}, s)
        out.append((atomic_index(a), _peel(p, a, pmax)))
    return out


def matsumoto_connected(p: DoubleCoset, memo: dict | None = None) -> bool:
    """Whether braid moves of the squashed group reach every atomic reduced
    expression of the core coset p from its greedy one, and nothing else:
    same_paths compares the braid class of the greedy index word with the
    atomic walk from p.  memo keeps the braid classes and the compared
    pairs; a caller that checks many cosets of one system passes one dict."""
    memo = {} if memo is None else memo
    small = squashed_system(p.system, p.right)
    start = braid_class(small, word_of_rex(atomic_rex_of_core(p)), memo)
    return same_paths({start}, braid_steps, {p}, _atomic_steps, memo)


def one_step_of_atoms(
    system: CoxeterSystem, atoms: Sequence[AtomicCoset], start: Iterable[int] | None = None
) -> OneStepExpression:
    """Serialize a chained atom sequence as [I +s -t +s' -t' ...]."""
    if not atoms:
        if start is None:
            raise ValueError("an empty atom sequence needs an explicit frame")
        return OneStepExpression(system, check_subset(system, start), ())
    steps: list[tuple[int, int]] = []
    for k, a in enumerate(atoms):
        if k and atoms[k - 1].right != a.left:
            raise ValueError("frame mismatch in atom sequence")
        steps.append((1, a.added))
        steps.append((-1, a.removed))
    return OneStepExpression(system, atoms[0].left, tuple(steps))


def factor_through_core(p: DoubleCoset) -> MultistepExpression:
    """A reduced expression of p through its core, using the greedy atomic part."""
    K = left_redundancy(p)
    L = right_redundancy(p)
    inner = coset_of(p.system, K, p.min, L)
    expr = to_multistep(one_step_of_atoms(p.system, atomic_rex_of_core(inner), K))
    if K != p.left:
        expr = concatenate(MultistepExpression(p.system, (p.left, p.left, K)), expr)
    if L != p.right:
        expr = concatenate(expr, MultistepExpression(p.system, (L, p.right, p.right)))
    return expr


def atomic_composition_closure(
    system: CoxeterSystem, max_factors: int | None = None
) -> set[DoubleCoset]:
    """Cosets expressible as star compositions of atomic cosets.

    Breadth-first search seeded by the atomic cosets themselves, extending
    by one more atomic factor on the left each round; non-reduced
    compositions are kept.  ``max_factors`` bounds the factor count, else
    the search runs to saturation.  This is an exhaustive search utility,
    not a membership decision procedure for larger groups.
    """
    atoms = [
        atomic_from(system, M, s)
        for M in all_frames(system)
        for s in sorted(M)
    ]
    by_right: dict[Frame, list[DoubleCoset]] = {}
    for a in atoms:
        by_right.setdefault(a.right, []).append(coset_of_atom(a))
    frontier = {coset_of_atom(a) for a in atoms}
    seen = set(frontier)
    factors = 1
    while frontier and (max_factors is None or factors < max_factors):
        nxt = set()
        for p in frontier:
            for a in by_right.get(p.left, ()):
                q = star_compose(a, p)
                if q not in seen:
                    seen.add(q)
                    nxt.add(q)
        frontier = nxt
        factors += 1
    return seen


def compose_atomics(
    system: CoxeterSystem,
    atoms: Sequence[AtomicCoset],
    empty_frame: Iterable[int] | None = None,
) -> tuple[DoubleCoset, bool]:
    """Star-compose a chained atom sequence; the flag reports reducedness.

    The fold runs from the right, one atom onto the composed tail at a
    time.  Star composition is associative, and a chain's length deficit
    is the sum of its non-negative step deficits in any bracketing, so
    coset and flag are those of the left fold.
    """
    if not atoms:
        if empty_frame is None:
            raise ValueError("an empty atom sequence needs an explicit frame")
        return identity_coset(system, empty_frame), True
    acc, reduced = coset_of_atom(atoms[-1]), True
    for a in reversed(atoms[:-1]):
        nxt = coset_of_atom(a)
        if nxt.right != acc.left:
            raise ValueError("frame mismatch in atom sequence")
        reduced = reduced and is_reduced_composition(nxt, acc)
        acc = star_compose(nxt, acc)
    return acc, reduced
