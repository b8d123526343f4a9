"""Parabolic subsets and double cosets.

A double coset ``W_I w W_J`` is stored by its frames ``(I, J)`` and its
unique Bruhat-minimal element.  The maximal element, the left and right
redundancy, the core, and star (Demazure) composition are all computed
from that data on demand.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from operator import mul
from typing import Iterable

from .coxeter import (
    CoxeterSystem,
    Element,
    SystemKey,
    all_elements,
    as_simple,
    conjugate,
    element_from_data,
    identity,
    inverse,
    is_left_descent,
    is_right_descent,
    length,
    multiply,
    order_factors,
    simple,
    star_product,
)

Frame = frozenset[int]


def check_subset(system: CoxeterSystem, indices: Iterable[int]) -> Frame:
    out = frozenset(indices)
    if out <= system.index_set:
        return out
    raise ValueError(f"indices {sorted(out - system.index_set)} out of range for {system}")


def all_frames(system: CoxeterSystem) -> list[Frame]:
    """Every subset of the simple indices, by size, then lexicographically."""
    indices = system.simple_indices
    return [frozenset(c) for size in range(len(indices) + 1) for c in combinations(indices, size)]


def format_subset(indices: Iterable[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(indices)) + "}"


def parse_subset(text: str) -> Frame:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"expected a subset like {{1,3}}, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return frozenset()
    return frozenset(int(tok) for tok in body.split(","))


@lru_cache(maxsize=None)
def longest_element(system: CoxeterSystem, indices: Frame) -> Element:
    """The longest element of the parabolic subgroup W_I."""
    indices = check_subset(system, indices)
    acc = identity(system)
    while True:
        free = [i for i in sorted(indices) if not is_right_descent(acc, i)]
        if not free:
            return acc
        acc = multiply(acc, simple(system, free[0]))


def parabolic_length(system: CoxeterSystem, indices: Frame) -> int:
    return length(longest_element(system, frozenset(indices)))


@dataclass(frozen=True)
class DoubleCoset:
    """An (I,J)-coset, keyed by its minimal element."""

    system: CoxeterSystem
    left: Frame
    right: Frame
    min: Element


def coset_of(system: CoxeterSystem, left: Iterable[int], w: Element, right: Iterable[int]) -> DoubleCoset:
    """The (I,J)-coset containing w, canonicalized to its minimal element."""
    left = check_subset(system, left)
    right = check_subset(system, right)
    cur = w
    changed = True
    while changed:
        changed = False
        for i in sorted(left):
            if is_left_descent(cur, i):
                cur = multiply(simple(system, i), cur)
                changed = True
        for j in sorted(right):
            if is_right_descent(cur, j):
                cur = multiply(cur, simple(system, j))
                changed = True
    return DoubleCoset(system, left, right, cur)


def identity_coset(system: CoxeterSystem, frame: Iterable[int]) -> DoubleCoset:
    frame = check_subset(system, frame)
    return DoubleCoset(system, frame, frame, identity(system))


@lru_cache(maxsize=None)
def max_elem(p: DoubleCoset) -> Element:
    """The Bruhat-maximal element w_I * min * w_J (star product)."""
    out = star_product(longest_element(p.system, p.left), p.min)
    return star_product(out, longest_element(p.system, p.right))


@lru_cache(maxsize=None)
def left_redundancy(p: DoubleCoset) -> Frame:
    """I intersected with min J min^{-1}, as a set of simple indices."""
    out = set()
    for j in p.right:
        i = as_simple(conjugate(p.min, j))
        if i is not None and i in p.left:
            out.add(i)
    return p.left if out == p.left else frozenset(out)


@lru_cache(maxsize=None)
def right_redundancy(p: DoubleCoset) -> Frame:
    """min^{-1} I min intersected with J."""
    inv = inverse(p.min)
    out = set()
    for i in p.left:
        j = as_simple(conjugate(inv, i))
        if j is not None and j in p.right:
            out.add(j)
    return p.right if out == p.right else frozenset(out)


@lru_cache(maxsize=None)
def is_core(p: DoubleCoset) -> bool:
    """True iff conjugation by the minimal element carries J onto I.

    Cross-checked (unless running with -O) against the equivalent criterion
    that max = w_I . min = min . w_J with lengths adding.
    """
    conj_ok = left_redundancy(p) == p.left and right_redundancy(p) == p.right
    if __debug__:
        lmin = length(p.min)
        lmax = length(max_elem(p))
        len_ok = (
            lmax == parabolic_length(p.system, p.left) + lmin
            and lmax == lmin + parabolic_length(p.system, p.right)
        )
        if conj_ok != len_ok:
            raise AssertionError(f"core criteria disagree on {p}")
    return conj_ok


# the caches keyed by a coset, held as objects: emptying them through this
# tuple still works when a tracer or a test rebinds the public names
COSET_CACHES = (max_elem, left_redundancy, right_redundancy, is_core)


def core(p: DoubleCoset) -> DoubleCoset:
    """The coset with the same minimal element framed by the redundancies."""
    return coset_of(p.system, left_redundancy(p), p.min, right_redundancy(p))


def invert(p: DoubleCoset) -> DoubleCoset:
    """The (J,I)-coset of the inverses."""
    return DoubleCoset(p.system, p.right, p.left, inverse(p.min))


def star_compose(p: DoubleCoset, q: DoubleCoset) -> DoubleCoset:
    """The (I,K)-coset whose maximum is max(p) * max(q)."""
    if p.system != q.system or p.right != q.left:
        raise ValueError("frame mismatch in coset composition")
    x = star_product(max_elem(p), max_elem(q))
    return coset_of(p.system, p.left, x, q.right)


def is_reduced_composition(p: DoubleCoset, q: DoubleCoset) -> bool:
    """True iff l(max(p) w_J^{-1}) + l(max(q)) is attained by the product."""
    if p.system != q.system or p.right != q.left:
        raise ValueError("frame mismatch in coset composition")
    a = multiply(max_elem(p), inverse(longest_element(p.system, p.right)))
    b = max_elem(q)
    return length(multiply(a, b)) == length(a) + length(b)


def _coset_sort_key(p: DoubleCoset):
    return (tuple(sorted(p.left)), length(p.min), p.min.data)


DEFAULT_BUDGET = 10000


def check_budget(system: CoxeterSystem | SystemKey, budget: int | None) -> None:
    """Refuse a system whose group order exceeds the budget; None is no limit,
    and a budget below 1, which no group fits, is refused by name.

    The order is multiplied up one factor at a time and refused as soon as
    it passes the budget, so a huge group is refused after a few factors.
    Given the system's key, it refuses before the system is built.
    """
    if budget is None:
        return
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    products = accumulate(order_factors(system), mul, initial=1)
    for order in products:
        if order > budget:
            more = "" if next(products, None) is None else "more than "
            raise ValueError(f"group order {more}{order} exceeds budget {budget}")


def _mask(indices: Iterable[int]) -> int:
    return sum(1 << i for i in indices)


@lru_cache(maxsize=None)
def _descent_table(system: CoxeterSystem) -> tuple[tuple, ...]:
    """One row (w, left-descent mask, right-descent mask, conj) per element w.

    Bit i of a mask stands for s_i.  conj[k] is the simple index of
    w s_j w^{-1} for the k-th simple index j, or None when j is a right
    descent of w or w s_j w^{-1} is not simple.  Rows share equal conj
    tuples: A6 has 468 distinct ones over 5040 elements.
    """
    shared: dict[tuple, tuple] = {}
    rows = []
    for w in all_elements(system):
        inv = inverse(w)
        ld = rd = 0
        conj = []
        for j in system.simple_indices:
            if is_right_descent(inv, j):
                ld |= 1 << j
            if is_right_descent(w, j):
                rd |= 1 << j
                conj.append(None)
            else:
                conj.append(as_simple(conjugate(w, j)))
        conj = tuple(conj)
        rows.append((w, ld, rd, shared.setdefault(conj, conj)))
    return tuple(rows)


# the caches keyed by a system, or by a system and a frame, held as COSET_CACHES is
SYSTEM_CACHES = (longest_element, _descent_table)


def enumerate_cosets(
    system: CoxeterSystem,
    left: Iterable[int],
    right: Iterable[int],
    budget: int | None = DEFAULT_BUDGET,
) -> list[DoubleCoset]:
    """All (I,J)-cosets.

    An element w is the minimal element of its (I,J)-coset exactly when it
    has no left descent in I and no right descent in J.
    """
    check_budget(system, budget)
    left = check_subset(system, left)
    right = check_subset(system, right)
    lmask, rmask = _mask(left), _mask(right)
    out = [
        DoubleCoset(system, left, right, w)
        for w, ld, rd, _ in _descent_table(system)
        if not (ld & lmask or rd & rmask)
    ]
    out.sort(key=_coset_sort_key)
    return out


def enumerate_core_cosets(
    system: CoxeterSystem, right: Iterable[int], budget: int | None = DEFAULT_BUDGET
) -> list[tuple[Frame, DoubleCoset]]:
    """All core cosets with the given right frame, over every left frame.

    An element w is the minimal element of a core coset with right frame J
    exactly when it has no right descent in J and conjugates every s_j,
    j in J, to a simple reflection; the left frame is then w J w^{-1}.
    """
    check_budget(system, budget)
    right = check_subset(system, right)
    rmask = _mask(right)
    slots = [j - system.simple_indices.start for j in right]
    lefts: dict[Frame, Frame] = {}  # one object per left frame
    out = []
    for w, _, rd, conj in _descent_table(system):
        if rd & rmask:
            continue
        images = [conj[k] for k in slots]
        if None not in images:
            left = frozenset(images)
            left = lefts.setdefault(left, left)
            out.append((left, DoubleCoset(system, left, right, w)))
    out.sort(key=lambda pair: _coset_sort_key(pair[1]))
    return out


def coset_to_json(p: DoubleCoset) -> dict:
    doc = {
        "cartan": p.system.cartan,
        "rank": p.system.rank,
        "left": sorted(p.left),
        "right": sorted(p.right),
        "min": list(p.min.data),
    }
    if p.system.cartan == "I2":
        doc["bond"] = p.system.bond
    return doc


def coset_from_json(doc: dict) -> DoubleCoset:
    if not isinstance(doc, dict):
        raise ValueError("a coset must be a JSON object")
    missing = [key for key in ("cartan", "rank", "left", "right", "min") if key not in doc]
    if missing:
        raise ValueError(f"coset JSON lacks {', '.join(missing)}")
    # type(x) is int, not isinstance: JSON true and false are bools, a subclass of int
    if not (
        type(doc["rank"]) is int
        and type(doc.get("bond")) in (int, type(None))
        and all(
            isinstance(doc[key], list) and all(type(x) is int for x in doc[key])
            for key in ("left", "right", "min")
        )
    ):
        raise ValueError("coset JSON needs an integer rank and bond, and integer lists left, right and min")
    system = CoxeterSystem(doc["cartan"], doc["rank"], doc.get("bond"))
    return coset_of(system, doc["left"], element_from_data(system, doc["min"]), doc["right"])
