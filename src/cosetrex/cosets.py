"""Parabolic subsets and double cosets.

A double coset ``W_I w W_J`` is stored by its frames ``(I, J)`` and its
unique Bruhat-minimal element.  The maximal element, the left and right
redundancy, the core, and star (Demazure) composition are all computed
from that data on demand.
"""
from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import accumulate, chain, combinations
from operator import getitem, mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .coxeter import (
    CoxeterSystem,
    Element,
    SystemKey,
    _i2_longest,
    _inverse_list,
    _length,
    all_elements,
    element_from_data,
    identity,
    inverse,
    is_left_descent,
    is_right_descent,
    left_descents,
    length,
    multiply,
    order_factors,
    right_descents,
    simple,
    simple_conjugate,
    star_product,
    system_key,
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
    """The longest element w_I of the parabolic subgroup W_I, in closed
    form: the identity with the places of each run of I sorted (see
    star_longest).  In I2(m), w_I is the longest word for I = {1,2} and s_i
    for I = {i}.  The empty frame gives the system's one identity object,
    which star_product skips by identity."""
    indices = check_subset(system, indices)
    if not indices:
        return identity(system)
    if system.cartan == "I2":
        return Element(system, _i2_longest(system)) if len(indices) == 2 else simple(system, *indices)
    return star_longest(identity(system), (indices,))


def star_longest(x: Element, frames: Iterable[Frame]) -> Element:
    """x * w_K1 * w_K2 * ... (star product) for the frames K1, K2, ...

    Types A and B sort the runs of each frame on one copy of x's image list
    (_sort_runs); I2 folds each longest word by star_product.  With no
    nonempty frame, x itself."""
    system = x.system
    frames = [K for K in frames if K]
    if not frames:
        return x
    if system.cartan == "I2":
        for K in frames:
            x = star_product(x, longest_element(system, K))
        return x
    d = list(x.data)
    for K in frames:
        _sort_runs(d, K)
    return Element(system, tuple(d))


def _sort_runs(d: list[int], indices: Frame) -> list[int]:
    """The image list of x * w_K (star product) from the image list d of x
    (types A and B), in place, in one pass over the maximal runs of K
    (Bjorner-Brenti, GTM 231, 2.4 and 8.1): a run s_lo..s_hi with lo >= 1
    sorts the places lo..hi+1 descending, and the type-B run s_0..s_{k-1}
    writes -|x| for the values x of the places 1..k, sorted descending.
    On the identity this reverses (or negates) each run's places: w_K."""
    run = sorted(indices)
    if not run:
        return d
    lo = run[0]
    for i, nxt in zip(run, run[1:] + [None]):
        if nxt == i + 1:
            continue
        if lo:
            d[lo - 1 : i + 1] = sorted(d[lo - 1 : i + 1], reverse=True)
        else:
            d[: i + 1] = sorted((-abs(x) for x in d[: i + 1]), reverse=True)
        lo = nxt
    return d


def parabolic_length(system: CoxeterSystem, indices: Frame) -> int:
    return length(longest_element(system, frozenset(indices)))


class DoubleCoset(NamedTuple):
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
    """The Bruhat-maximal element w_I * min * w_J (star product).

    Types A and B sort runs (_sort_runs): the runs of J sort places of
    min's image list, and the runs of I sort places of its position list,
    as w_I * x is the inverse of x^{-1} * w_I; the position list is local,
    so no inverse is cached.  I2 folds the longest words by star_product.
    Empty frames give min itself, or the system's identity object when min
    equals it: the cache answers every equal coset with what it computed
    first, and a product (say w_I w_I) can leave a copy of the identity."""
    system, left, right = p.system, p.left, p.right
    if not (left or right):
        return system._identity if p.min == system._identity else p.min
    if system.cartan == "I2":
        return star_product(star_product(longest_element(system, left), p.min), longest_element(system, right))
    d = list(p.min.data)
    if left:
        d = _inverse_list(_sort_runs(_inverse_list(d), left))
    return Element(system, tuple(_sort_runs(d, right)))


def _redundancy(p: DoubleCoset) -> tuple[Frame, Frame]:
    """The left and right redundancy, from the j in J and i in I with
    min s_j min^{-1} = s_i; a frame equal to p's own is p's own object.
    Not cached: a walk that rereads it (or is_core) keeps its own memo."""
    pairs = [(i, j) for j in p.right if (i := simple_conjugate(p.min, j)) in p.left]
    left = frozenset(i for i, _ in pairs)
    right = frozenset(j for _, j in pairs)
    return (p.left if left == p.left else left), (p.right if right == p.right else right)


def left_redundancy(p: DoubleCoset) -> Frame:
    """I intersected with min J min^{-1}, as a set of simple indices."""
    return _redundancy(p)[0]


def right_redundancy(p: DoubleCoset) -> Frame:
    """min^{-1} I min intersected with J."""
    return _redundancy(p)[1]


def is_core(p: DoubleCoset) -> bool:
    """True iff conjugation by the minimal element carries J onto I.

    Cross-checked (unless running with -O) against the equivalent criterion
    that max = w_I . min = min . w_J with lengths adding.
    """
    conj_ok = _redundancy(p) == (p.left, p.right)
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


def core(p: DoubleCoset) -> DoubleCoset:
    """The coset with the same minimal element framed by the redundancies."""
    left, right = _redundancy(p)
    return coset_of(p.system, left, p.min, right)


def invert(p: DoubleCoset) -> DoubleCoset:
    """The (J,I)-coset of the inverses."""
    return DoubleCoset(p.system, p.right, p.left, inverse(p.min))


def star_compose(p: DoubleCoset, q: DoubleCoset) -> DoubleCoset:
    """The (I,K)-coset whose maximum is max(p) * max(q)."""
    if p.system != q.system or p.right != q.left:
        raise ValueError("frame mismatch in coset composition")
    x = star_product(max_elem(p), max_elem(q))
    return coset_of(p.system, p.left, x, q.right)


def _reduced_product(p: DoubleCoset, q: DoubleCoset) -> Element | None:
    """a b for composable p and q, a = max(p) w_J (J = p.right) and b =
    max(q), when l(a b) = l(a) + l(b); else None.  w_J is a right factor of
    max(p) and a left factor of max(q), so a b is then max(p) * max(q), the
    maximum of p . q."""
    if p.system != q.system or p.right != q.left:
        raise ValueError("frame mismatch in coset composition")
    a, b = multiply(max_elem(p), longest_element(p.system, p.right)), max_elem(q)
    ab = multiply(a, b)
    return ab if length(ab) == length(a) + length(b) else None


def reduced_composite(p: DoubleCoset, q: DoubleCoset) -> DoubleCoset | None:
    """p . q when the composition is reduced, else None (the 0 of d_p d_q)."""
    ab = _reduced_product(p, q)
    return None if ab is None else coset_of(p.system, p.left, ab, q.right)


def composes_reducedly_to(p: DoubleCoset, q: DoubleCoset, r: DoubleCoset) -> bool:
    """True iff p . q is reduced and equals r: its maximum is max(r)."""
    ab = _reduced_product(p, q)
    return ab is not None and (r.left, r.right) == (p.left, q.right) and ab == max_elem(r)


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


class DescentTable(NamedTuple):
    """The rows of _descent_table, as columns: row k is the element
    element(k) and its left- and right-descent masks left[k] and right[k].
    by_mask groups the row positions by conj tuple, and the conj tuples by
    their conjugation mask, as (mask, [(conj, positions), ...]) pairs: bit
    j of the mask is set when w s_j w^{-1} is simple and j is no right
    descent, so a row is the minimum of a core coset with right frame J
    exactly when its mask contains J's.  Each group's positions ascend.

    Types A and B hold the image tuples in data, width bytes a row, in one
    array('b'), and unpack is a Struct's unpack_from; I2 holds its 2m
    words in data, width is 1 and unpack is getitem.  The masks and the
    positions are arrays of 4-byte integers, so no column holds an object
    per row."""

    system: CoxeterSystem
    data: Sequence
    width: int
    unpack: Callable
    left: Sequence[int]
    right: Sequence[int]
    by_mask: tuple

    def element(self, k: int) -> Element:
        """The element of row k, built on each call; row 0 is the identity,
        the system's one object, which star_product skips by identity."""
        if not k:
            return self.system._identity
        return Element(self.system, self.unpack(self.data, k * self.width))


@lru_cache(maxsize=None)
def _descent_table(system: CoxeterSystem) -> DescentTable:
    """One row (w, left-descent mask, right-descent mask, conj) per element w,
    by length, then by w's data: the order in which the enumerators return
    the cosets of one left frame.  The conj tuples are kept only as the
    keys of the groups of row positions in by_mask.

    Bit i of a mask stands for s_i.  conj[k] is the simple index of
    w s_j w^{-1} for the k-th simple index j, or None when j is a right
    descent of w or w s_j w^{-1} is not simple.  A6 has 468 distinct conj
    tuples over 5040 elements.  I2's 2m rows come from coxeter's descent
    functions and simple_conjugate; the rows of types A and B are read off
    w's image tuple by _image_rows.  Neither builds a product;
    tests/conftest.py keeps the product-based build as the oracle.

    The elements come from all_elements; only I2's are kept, and I2
    yields them in the table's order.  Type A yields the permutations in data
    order, and the k-th one's length is the sum of its inversion table,
    the digits of k in the factorial base (Bjorner-Brenti, GTM 231, ch. 1),
    so a counting sort by length orders its rows.  Type B sorts each
    length class by data, with lengths from _length.  About 21 bytes a row
    at A8: 9 image bytes, two 4-byte masks and a 4-byte position.
    """
    from array import array  # here, not at the top: single-coset queries never load it

    if system.cartan == "I2":
        elements = list(all_elements(system))
        data, width, unpack = [w.data for w in elements], 1, getitem
        rows = (
            (_mask(left_descents(w)), _mask(right_descents(w)),
             tuple(None if is_right_descent(w, j) else simple_conjugate(w, j) for j in (1, 2)))
            for w in elements
        )
    else:
        from struct import Struct

        width = system.points
        unpack = Struct(f"{width}b").unpack_from
        unsorted = array("b")
        lengths = _permutation_lengths(width) if system.cartan == "A" else array("H")
        for w in all_elements(system):
            unsorted.extend(w.data)
            if system.cartan == "B":
                lengths.append(_length(w))
        classes = [array("I") for _ in range(max(lengths) + 1)]
        for k, ell in enumerate(lengths):
            classes[ell].append(k)
        data = array("b")
        for c in classes:
            for k in c if system.cartan == "A" else sorted(c, key=lambda k: unpack(unsorted, k * width)):
                data += unsorted[k * width : (k + 1) * width]
        rows = _image_rows(system, (unpack(data, k * width) for k in range(len(lengths))))
        del unsorted, lengths, classes
    left, right = array("I"), array("I")
    by_conj: defaultdict[tuple, array] = defaultdict(lambda: array("I"))
    for pos, (ld, rd, c) in enumerate(rows):
        left.append(ld)
        right.append(rd)
        by_conj[c].append(pos)
    by_mask: dict[int, list] = {}
    for conj, positions in by_conj.items():
        mask = _mask(j for j, i in zip(system.simple_indices, conj) if i is not None)
        by_mask.setdefault(mask, []).append((conj, positions))
    return DescentTable(system, data, width, unpack, left, right, tuple(by_mask.items()))


def _permutation_lengths(n: int):
    """The lengths of the permutations of 1..n in lexicographic order: the
    k-th has inversion table the digits of k in the factorial base, the
    first digit (w(1) - 1) changing slowest, and its length is their sum."""
    from array import array

    lengths = array("H", [0])
    for radix in range(2, n + 1):
        lengths = array("H", [digit + ell for digit in range(radix) for ell in lengths])
    return lengths


def _image_rows(system: CoxeterSystem, images: Iterable[Sequence[int]]):
    """Rows (left mask, right mask, conj) of type A or B, one per image
    tuple d (Bjorner-Brenti, GTM 231, 1.5 and 8.1).  With a = d(j) <
    b = d(j+1), w s_j w^{-1} swaps the values a and b (and -a, -b): it is
    s_a when 0 < a = b-1, s_|b| when a = b-1 < 0, and not simple when
    a < 0 < b.  w s_0 w^{-1} negates w(1): it is s_0 when w(1) = 1.  The
    left descents are the right descents of the position list w^{-1}."""
    n = system.points
    signed = 0 in system.index_set
    for d in images:
        pos = _inverse_list(d)
        ld = rd = 0
        conj = []
        if signed:
            if pos[0] < 0:
                ld = 1
            if d[0] < 0:
                rd = 1
            conj.append(0 if d[0] == 1 else None)
        for j in range(1, n):
            if pos[j - 1] > pos[j]:
                ld |= 1 << j
            a, b = d[j - 1], d[j]
            if a > b:
                rd |= 1 << j
                conj.append(None)
            elif a > 0:
                conj.append(a if b == a + 1 else None)
            else:
                conj.append(-b if a == b - 1 else None)
        yield ld, rd, tuple(conj)


def enumerate_cosets(
    system: CoxeterSystem,
    left: Iterable[int],
    right: Iterable[int],
    budget: int | None = DEFAULT_BUDGET,
) -> list[DoubleCoset]:
    """All (I,J)-cosets, in the order of their minima in _descent_table.

    An element w is the minimal element of its (I,J)-coset exactly when it
    has no left descent in I and no right descent in J.
    """
    check_budget(system, budget)
    left = check_subset(system, left)
    right = check_subset(system, right)
    lmask, rmask = _mask(left), _mask(right)
    table = _descent_table(system)
    element = table.element
    return [
        DoubleCoset(system, left, right, element(k))
        for k, (ld, rd) in enumerate(zip(table.left, table.right))
        if not (ld & lmask or rd & rmask)
    ]


def enumerate_core_cosets(
    system: CoxeterSystem, right: Iterable[int], budget: int | None = DEFAULT_BUDGET
) -> CoreCosets:
    """All core cosets with the given right frame, over every left frame,
    as pairs (I, p): a CoreCosets view over the descent table.

    An element w is the minimal element of a core coset with right frame J
    exactly when it has no right descent in J and conjugates every s_j,
    j in J, to a simple reflection; the left frame is then w J w^{-1}.
    Those rows are the conj groups of the table's by_mask whose mask
    contains J's, and each conj group has one left frame.  The cosets come
    by left frame, sorted, then in table order: each frame's groups merge
    their ascending positions into one array (a frame with one group keeps
    the table's).  The empty frame's one group is every row, a range.  No
    row is decoded here, and no length computed: the view decodes a row
    when it is read.
    """
    check_budget(system, budget)
    right = check_subset(system, right)
    table = _descent_table(system)
    if not right:
        return CoreCosets(table, right, ((right, range(len(table.left))),))
    rmask = _mask(right)
    slots = [j - system.simple_indices.start for j in right]
    groups: dict[Frame, list] = {}  # left frame -> position runs
    for mask, conjs in table.by_mask:
        if mask & rmask == rmask:
            for conj, positions in conjs:
                groups.setdefault(frozenset(conj[k] for k in slots), []).append(positions)
    from array import array

    merged = tuple(
        (left, runs[0] if len(runs) == 1 else array("I", sorted(chain.from_iterable(runs))))
        for left, runs in sorted(groups.items(), key=lambda item: sorted(item[0]))
    )
    return CoreCosets(table, right, merged)


class CoreCosets:
    """The pairs (I, p) that enumerate_core_cosets returns, read-only, as a
    view over the descent table: groups holds each left frame I with the
    ascending table positions of its cosets' minima.

    len reads the groups alone.  An iteration builds the pair
    (I, DoubleCoset) only for each row it reaches, decoding the row's
    element by table.element; a slice without a step is again a view, over
    the slices of the groups.  minima yields the rows' data tuples, with no
    Element or coset at all, for a listing."""

    __slots__ = ("table", "right", "groups")

    def __init__(self, table: DescentTable, right: Frame, groups: tuple) -> None:
        self.table, self.right, self.groups = table, right, groups

    def __len__(self) -> int:
        return sum(len(positions) for _, positions in self.groups)

    def __getitem__(self, index: slice) -> CoreCosets:
        if not isinstance(index, slice):
            raise TypeError(f"CoreCosets takes a slice, not {type(index).__name__}")
        start, stop, step = index.indices(len(self))
        if step != 1:
            raise ValueError("CoreCosets takes no slice step")
        groups = []
        for left, positions in self.groups:
            lo, hi = max(start, 0), min(stop, len(positions))
            if lo < hi:
                groups.append((left, positions[lo:hi]))
            start, stop = start - len(positions), stop - len(positions)
        return CoreCosets(self.table, self.right, tuple(groups))

    def __iter__(self):
        system, right, element = self.table.system, self.right, self.table.element
        for left, positions in self.groups:
            for k in positions:
                yield left, DoubleCoset(system, left, right, element(k))

    def minima(self):
        """(I, the data tuples of the minima of I's rows in this view) per
        left frame, in the view's order."""
        table = self.table
        unpack, data, width = table.unpack, table.data, table.width
        for left, positions in self.groups:
            yield left, (unpack(data, k * width) for k in positions)


def coset_document(system: CoxeterSystem, left: Frame, right: Frame, data: Sequence[int]) -> dict:
    """The JSON document of the (left, right)-coset whose minimum is
    stored as data, the form coset_from_json reads."""
    doc = {
        "cartan": system.cartan,
        "rank": system.rank,
        "left": sorted(left),
        "right": sorted(right),
        "min": list(data),
    }
    if system.cartan == "I2":
        doc["bond"] = system.bond
    return doc


def coset_to_json(p: DoubleCoset) -> dict:
    return coset_document(p.system, p.left, p.right, p.min.data)


def check_window(key: SystemKey, min_data: Sequence[int]) -> None:
    """Refuse a minimal element whose image list (types A and B) does not
    fill the window of key's system.  Sized from the key, it refuses before
    the system is built: that costs time and memory linear in the rank."""
    points = key.rank + (key.cartan == "A")
    if key.cartan != "I2" and len(min_data) != points:
        raise ValueError(f"min lists {len(min_data)} images, but {key.cartan}{key.rank} acts on {points} points")


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
    key = system_key(doc["cartan"], doc["rank"], doc.get("bond"))
    check_window(key, doc["min"])
    system = CoxeterSystem(*key)
    return coset_of(system, doc["left"], element_from_data(system, doc["min"]), doc["right"])
