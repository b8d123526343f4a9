"""Parabolic subsets and double cosets.

A double coset ``W_I w W_J`` is stored by its frames ``(I, J)`` and its
unique Bruhat-minimal element.  The maximal element, the left and right
redundancy, the core, and star (Demazure) composition are all computed
from that data on demand.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, combinations, repeat
from operator import getitem, itemgetter, mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .coxeter import (
    CoxeterSystem,
    Element,
    SystemKey,
    _i2_longest,
    _inverse_list,
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
    for I = {i}.  The empty frame gives the identity."""
    indices = check_subset(system, indices)
    if not indices:
        return identity(system)
    if system.cartan == "I2":
        return Element(system, _i2_longest(system)) if len(indices) == 2 else simple(system, *indices)
    return star_longest(identity(system), (indices,))


def star_longest(x: Element, frames: Iterable[Frame]) -> Element:
    """x * w_K1 * w_K2 * ... (star product) for the frames K1, K2, ...

    Types A and B sort the runs of each frame on one copy of x's image list
    (_sort_runs); I2 folds each longest word by star_product."""
    system = x.system
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
    Empty frames return min, so the cache holds no copy of it."""
    system, left, right = p.system, p.left, p.right
    if not (left or right):
        return p.min
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
    """The coset with the same minimal element framed by the redundancies,
    which lie inside p's frames, so p.min is again its minimum."""
    left, right = _redundancy(p)
    return DoubleCoset(p.system, left, right, p.min)


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
        """The element of row k, built on each call."""
        return Element(self.system, self.unpack(self.data, k * self.width))

    def images(self, positions: Sequence[int]) -> tuple:
        """The data of the rows at the ascending positions, in one tuple:
        types A and B chain the rows' image tuples, I2 holds one word per
        row.  A range slices data; other positions map unpack over their
        offsets, so neither builds an Element or runs a Python frame per row."""
        data, width = self.data, self.width
        if type(positions) is range:
            return tuple(data[positions.start * width : positions.stop * width])
        rows = map(self.unpack, repeat(data), map(width.__mul__, positions))
        return tuple(rows) if self.system.cartan == "I2" else tuple(chain.from_iterable(rows))


@lru_cache(maxsize=None)
def _descent_table(system: CoxeterSystem) -> DescentTable:
    """One row (w, left-descent mask, right-descent mask, conj) per element w,
    by length, then by w's data: the order in which the enumerators return
    the cosets of one left frame.  The conj tuples are kept only as the
    keys of the groups of row positions in by_mask, in the order of their
    first rows.

    Bit i of a mask stands for s_i.  conj[k] is the simple index of
    w s_j w^{-1} for the k-th simple index j, or None when j is a right
    descent of w or w s_j w^{-1} is not simple.  A6 has 468 distinct conj
    tuples over 5040 elements.  I2's 2m rows come from all_elements,
    coxeter's descent functions and simple_conjugate; the rows of types A
    and B come rank by rank from _prefix_rows, with no element built.
    Neither builds a product; tests/conftest.py keeps the product-based
    build as the oracle.  About 21 bytes a row at A8: 9 image bytes, two
    4-byte masks and a 4-byte position.
    """
    from array import array  # here, not at the top: single-coset queries never load it

    if system.cartan == "I2":
        elements = list(all_elements(system))
        data, width, unpack = [w.data for w in elements], 1, getitem
        left = array("I", (_mask(left_descents(w)) for w in elements))
        right = array("I", (_mask(right_descents(w)) for w in elements))
        by_conj: dict[tuple, array] = {}
        for pos, w in enumerate(elements):
            conj = tuple(None if is_right_descent(w, j) else simple_conjugate(w, j) for j in (1, 2))
            by_conj.setdefault(conj, array("I")).append(pos)
        groups = by_conj.items()
    else:
        from struct import Struct

        width = system.points
        unpack = Struct(f"{width}b").unpack_from
        data, left, right, groups = _prefix_rows(system)
    by_mask: dict[int, list] = {}
    for conj, positions in groups:
        mask = _mask(j for j, i in zip(system.simple_indices, conj) if i is not None)
        by_mask.setdefault(mask, []).append((conj, positions))
    return DescentTable(system, data, width, unpack, left, right, tuple(by_mask.items()))


def _prefix_rows(system: CoxeterSystem):
    """The data, left and right columns and the (conj, positions) groups of
    the type-A or type-B descent table, built rank by rank (Bjorner-Brenti,
    GTM 231, 1.5 and 8.1).

    Level k holds the (signed) permutations of 1..k as columns: the image
    bytes, key = left mask | N << k with N the set of negated values (bit
    c for the value c; empty in type A), the right mask, the length, and
    an id of the pair (conj tuple, first value).  Level k takes one block
    per first value x, increasing: x followed by each row u of level k-1,
    its values c relabelled sign(c)(|c| + [|c| >= v]), v = |x|.
    Relabelling keeps order, so the blocks keep data order, and each
    column of a block follows from u's columns by the lookups of
    _block_lookups, mapped over them, and two translate tables: the
    relabelling, and the right mask's bit 1, [x > u'(1)].  The last level
    is written in the table's order (_by_new_length); it keeps the left
    masks alone, no length, and ids of conj tuples alone, whose rows it
    collects as it writes them.
    """
    from array import array
    from operator import add, or_

    signed = system.cartan == "B"
    points = system.points
    # translate tables on the bytes of the values -points..points
    relabels, belows = {}, {}
    for x in range(-points, points + 1):
        v = abs(x)
        relabels[x], belows[x] = bytearray(256), bytearray(256)
        for c in range(-points, points + 1):
            relabels[x][c & 255] = (c + (c >= v) - (c <= -v)) & 255
            belows[x][c & 255] = 2 * (c < x + (x < 0))  # [x > c'] << 1
    data, key, right, lengths, cid = array("b"), array("I", [0]), array("I", [0]), array("B", [0]), array("I", [0])
    pairs: list = [((), None)] if points else [()]  # B0's one row is its last level
    positions = [array("I", [0])]
    for k in range(1, points + 1):
        last = k == points
        firsts = [*range(-k, 0), *range(1, k + 1)] if signed else range(1, k + 1)
        ids: dict = {}
        keys = set(key)
        lookups = {x: _block_lookups(k, x, keys, pairs, signed, last, ids) for x in firsts}
        # u(1) of each row of level k-1; rank 0 has none, and 127 is above every x
        places = [data[i :: k - 1].tobytes() for i in range(k - 1)] or [b"\x7f"]
        if last:
            top = k * k if signed else k * (k - 1) // 2
            chunks = _by_new_length(firsts, lookups, key, lengths, top)
            positions = [array("I") for _ in ids]
        else:
            chunks = [(x, range(len(key))) for x in firsts]
        out = array("b", [0]) * (len(key) * len(firsts) * k)
        key2, right2, lengths2, cid2 = array("I"), array("I"), array("B"), array("I")
        at = 0
        for x, rows in chunks:
            new_key, delta, rd, conj_of = lookups[x]
            take = _gather(rows)
            old = take(key)
            key2.extend(map(new_key.__getitem__, old))
            front = bytes(take(places[0]))
            right2.extend(map(or_, map(rd.__getitem__, take(right)), front.translate(belows[x])))
            new_ids = map(conj_of.__getitem__, take(cid))
            if last:
                for pos, i in enumerate(new_ids, at // k):
                    positions[i].append(pos)
            else:
                lengths2.extend(map(add, take(lengths), map(delta.__getitem__, old)))
                cid2.extend(new_ids)
            end = at + len(rows) * k
            out[at:end:k] = array("b", [x]) * len(rows)
            for i, place in enumerate(places[: k - 1], 1):
                out[at + i : end : k] = array("b", (front if i == 1 else bytes(take(place))).translate(relabels[x]))
            at = end
        data, key, right, lengths, cid, pairs = out, key2, right2, lengths2, cid2, list(ids)
    groups = sorted(zip(pairs, positions), key=lambda group: group[1][0])
    return data, key, right, groups


def _block_lookups(k: int, x: int, keys, pairs: list, signed: bool, last: bool, ids: dict):
    """The lookups that give block x of level k from the rows u of level
    k-1, v = |x|, u' the relabelled u:
    - key: u's left-mask bits below v-1 kept, those from v on moved up
      one; bit v-1 set iff v-1 is not negated in u (for v = 1, bit 0 iff
      x = -1), and bit v iff v is; N relabelled, with v added for x < 0;
    - length added: v - 1 + [x < 0] + 2 |N & [v, oo)|, per key;
    - right mask [x < 0] | (rd(u) >> 1) << 2, per rd(u), to which the
      caller adds [x > u'(1)] << 1;
    - id: s_0's conj entry from x = 1 (type B), s_1's from x and u(1),
      then u's entries after s_0's relabelled, v-1 to None and c >= v to
      c+1, interned in ids with x, or alone on the last level."""
    v, neg = abs(x), int(x < 0)
    new_key, delta = {}, {}
    for q in keys:
        ld, n = q & ((1 << (k - 1)) - 1), q >> (k - 1)
        ld = ld & ((1 << (v - 1)) - 1) | (ld >> v) << (v + 1) | (n >> v & 1) << v
        ld |= neg if v == 1 else (~n >> (v - 1) & 1) << (v - 1)
        new_key[q] = ld if last else ld | (n & ((1 << v) - 1) | (n >> v) << (v + 1) | neg << v) << k
        delta[q] = v - 1 + neg + 2 * (n >> v).bit_count()
    rd = [neg | (r >> 1) << 2 for r in range(1 << (k - 1))]
    shift = {e: None if e == v - 1 else e + (e >= v) for e in range(1, k)}
    shift[None] = None
    conj_of = []
    for conj, c in pairs:
        head = (0 if x == 1 else None,) if signed else ()
        if c is not None:
            head += ((v if c == v else None) if x > 0 else (v - 1 if c == 1 - v else None),)
        conj = head + tuple(map(shift.__getitem__, conj[signed:]))
        conj_of.append(ids.setdefault(conj if last else (conj, x), len(ids)))
    return new_key, delta, rd, conj_of


def _by_new_length(firsts, lookups, key, lengths, top):
    """The chunks (x, positions) of the last level in the table's order: by
    new length (at most top), then block; within a chunk the positions of
    the rows of the level before ascend.  Each block's rows are sorted by
    new length once, stably, so data order is kept within a length; blocks
    whose lengths added differ by a constant (all of type A) share one
    sort, its cuts shifted by that constant."""
    from array import array
    from bisect import bisect_left
    from operator import add

    sorts, blocks = {}, []
    for x in firsts:
        delta = lookups[x][1]
        base = min(delta.values())
        shape = tuple(d - base for d in delta.values())
        if shape not in sorts:
            new = array("B", map(add, lengths, map(dict(zip(delta, shape)).__getitem__, key)))
            order = array("I", sorted(range(len(new)), key=new.__getitem__))
            sorts[shape] = order, [bisect_left(order, ell, key=new.__getitem__) for ell in range(top + 2)]
        order, cuts = sorts[shape]
        blocks.append((x, order, [0] * base + cuts))
    for ell in range(top + 1):
        for x, order, cuts in blocks:
            if cuts[ell] < cuts[ell + 1]:
                yield x, order[cuts[ell] : cuts[ell + 1]]


def _gather(positions):
    """The function that takes a column to its items at the ascending
    positions: a slice for a range or a single position, else an
    itemgetter, whose tuple a C loop fills."""
    if len(positions) > 1 and type(positions) is not range:
        return itemgetter(*positions)
    lo, hi = positions[0], positions[-1] + 1
    return lambda column: column[lo:hi]


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
    the slices of the groups.  chunks gathers the rows' data a chunk at a
    time, with no Element or coset at all, for a listing."""

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

    def chunks(self, size: int):
        """The view's rows, size at a time (the last chunk may hold fewer),
        in the view's order: each chunk a list of (I, n, data) per left
        frame it reaches, data the table.images of I's n rows in it."""
        if size < 1:
            raise ValueError(f"chunk size must be at least 1, got {size}")
        images, chunk, room = self.table.images, [], size
        for left, positions in self.groups:
            at = 0
            while at < len(positions):
                part = positions[at : at + room]
                chunk.append((left, len(part), images(part)))
                at, room = at + len(part), room - len(part)
                if not room:
                    yield chunk
                    chunk, room = [], size
        if chunk:
            yield chunk


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
