"""Atomic cosets and atomic reduced expressions for core cosets.

An atomic coset is a core coset with a (necessarily unique) reduced
expression ``[I, M, J]`` where ``M = I + s = J + t`` and ``t = w_M s w_M``.
Every core coset factors reducedly into atomic cosets; the greedy
construction below peels one atomic coset at a time off the left.
"""
from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .coxeter import (
    CoxeterSystem,
    _memo,
    all_paths,
    braid_class,
    braid_steps,
    identity,
    left_descents,
    length,
    multiply,
    same_paths,
    simple_conjugate,
)
from .cosets import (
    DoubleCoset,
    Frame,
    check_subset,
    coset_of,
    core,
    is_core,
    longest_element,
    max_elem,
)
from .expressions import MultistepExpression, OneStepExpression, multistep


class AtomicCoset(NamedTuple):
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
    # one object per atom: the walks' step memos hold many references to few atoms
    w = longest_element(system, mid)
    t = simple_conjugate(w, s)
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
    return atomic_from(system, mid, simple_conjugate(longest_element(system, mid), s))


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
    t = simple_conjugate(pmax, s)
    return t is not None and p.right == frozenset(mid) - {t} and is_core(p)


# the greedy steps kept by the open keeping_greedy_steps block, if any
_kept: dict | None = None


@contextmanager
def keeping_greedy_steps() -> Iterator[None]:
    """Within the block, atomic_rex_of_core keeps each coset's greedy step
    in a dict that is dropped when the block ends.  A greedy remainder is
    again a core coset with the same right frame, so a walk over one cell
    opens a block for it and computes each step once; a walk that reads
    each step once opens none and keeps nothing.  The memo is held here,
    not passed in, so that atomic_rex_of_core keeps its one-argument form,
    which perfbench's drop-atom fault wraps."""
    global _kept
    outer, _kept = _kept, {}
    try:
        yield
    finally:
        _kept = outer


def atomic_rex_of_core(p: DoubleCoset) -> tuple[AtomicCoset, ...]:
    """Greedy atomic reduced expression of a core coset.

    At each step, add the smallest left descent of the maximum not already
    in the left frame, remove its conjugate under the enlarged longest
    element, and recurse on the shorter remainder coset.  The remainder is
    again a core coset with the same right frame, and the step depends only
    on the current coset, so inside keeping_greedy_steps each step is kept
    for the calls after it.
    """
    if not is_core(p):
        raise ValueError("atomic expressions are only defined for core cosets")
    steps = {} if _kept is None else _kept
    atoms: list[AtomicCoset] = []
    cur = p
    while (step := _memo(steps, _greedy_step, cur)) is not None:
        a, cur = step
        atoms.append(a)
    if cur.left != cur.right or cur.min != identity(cur.system):
        raise AssertionError(f"descent-saturated core coset {cur} is not the identity coset")
    return tuple(atoms)


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


def _peel(p: DoubleCoset, a: AtomicCoset, pmax) -> DoubleCoset:
    # remainder coset q with p = a . q: w_{mid(a)} max(p) = w_{right(a)} max(q)
    # lies in q, and is min(q) when q is core, so the walk down stops at once
    return coset_of(p.system, a.right, multiply(longest_element(p.system, a.mid), pmax), p.right)


def atomic_words(p: DoubleCoset) -> tuple[tuple[int, ...], ...]:
    """The index words of every atomic reduced expression of a core coset,
    by full branching: the paths that peel one possible first atom at a
    time, each labelled by its atom's index."""
    if not is_core(p):
        raise ValueError("atomic expressions are only defined for core cosets")
    return all_paths(p, _atomic_steps, {})


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


def matsumoto_connected(p: DoubleCoset, classes: dict | None = None, pairs: dict | None = None) -> bool:
    """Whether braid moves of the squashed group reach every atomic reduced
    expression of the core coset p from its greedy one, and nothing else:
    same_paths compares the braid class of the greedy index word with the
    atomic walk from p.  classes keeps the braid classes, which a system's
    cells share, and pairs the compared pairs, which hold cosets of p's cell."""
    small = squashed_system(p.system, p.right)
    start = braid_class(small, word_of_rex(atomic_rex_of_core(p)), {} if classes is None else classes)
    return same_paths({start}, braid_steps, {p}, _atomic_steps, {} if pairs is None else pairs)


def one_step_of_atoms(system: CoxeterSystem, atoms: Sequence[AtomicCoset], start: Iterable[int]) -> OneStepExpression:
    """Serialize a chain of atoms from the frame start as [start +s -t +s' -t' ...]."""
    start = cur = check_subset(system, start)
    steps: list[tuple[int, int]] = []
    for a in atoms:
        if a.left != cur:
            raise ValueError("frame mismatch in atom sequence")
        steps += ((1, a.added), (-1, a.removed))
        cur = a.right
    return OneStepExpression(system, start, tuple(steps))


def factor_through_core(p: DoubleCoset) -> MultistepExpression:
    """A reduced expression of p through its core, as one zig-zag: from p's
    left frame down to the core's, up and down each greedy atom, and from
    the core's right frame up to p's."""
    inner = core(p)
    chain = [p.left, inner.left]
    for a in atomic_rex_of_core(inner):
        chain += (a.mid, a.right)
    return multistep(p.system, chain + [p.right])
