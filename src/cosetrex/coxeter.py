"""Coxeter systems of types A, B, and dihedral I2(m), with element arithmetic.

Conventions, fixed once for the whole package:

* Products act on the left: ``(w*v)(x) = w(v(x))``.
* Type A of rank r is the symmetric group on ``{1, .., r+1}``, stored as the
  image tuple ``(w(1), .., w(n))``.  The simple reflection ``s_i`` swaps
  i and i+1, for ``1 <= i <= r``.
* Type B of rank n is the group of signed permutations of ``{1, .., n}``,
  stored as the signed window ``(w(1), .., w(n))`` with ``w(-i) = -w(i)``
  implied.  ``s_0`` swaps -1 and 1; for i >= 1, ``s_i`` swaps i, i+1
  (and -i, -i-1).
* I2(m) elements are stored as their alternating normal-form word in the
  letters {1, 2}.  The longest element (the one of length m) is written
  canonically starting with the letter 1.
"""
from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from math import prod
from operator import index, itemgetter, mul, neg
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


# the one CoxeterSystem of each value, keyed by (cartan, rank, bond)
_SYSTEMS: dict[tuple, "CoxeterSystem"] = {}


@dataclass(frozen=True, eq=False, init=False)
class CoxeterSystem:
    """A finite Coxeter system; ``bond`` is only meaningful for I2.

    Interned: building a system, also by ``pickle`` or ``copy``, returns the
    one object of its value, so equality and hashing are by identity.  The
    first build computes ``simple_indices``, their set ``index_set`` and the
    identity, and ``simple`` caches each simple reflection per system.  Type
    A of rank r is the unsigned part of type B on the window {1, .., r+1}:
    its simple indices start at 1, not 0, and ``points`` = rank + start.
    """

    cartan: str
    rank: int
    bond: int | None = None

    def __new__(cls, cartan: str, rank: int, bond: int | None = None) -> "CoxeterSystem":
        key = system_key(cartan, rank, bond)
        if key in _SYSTEMS:
            return _SYSTEMS[key]
        cartan, rank, bond = key
        if cartan == "I2":
            indices, identity_data = range(1, 3), ()
        else:
            start = 1 if cartan == "A" else 0
            indices, identity_data = range(start, rank + start), tuple(range(1, rank + start + 1))
        self = object.__new__(cls)
        self.__dict__.update(
            cartan=cartan, rank=rank, bond=bond, simple_indices=indices, index_set=frozenset(indices),
            _identity=Element(self, identity_data),
        )
        return _SYSTEMS.setdefault(key, self)

    def __reduce__(self):
        return CoxeterSystem, (self.cartan, self.rank, self.bond)

    @property
    def points(self) -> int:
        """Size of the window the group permutes (types A and B only)."""
        if self.cartan == "I2":
            raise ValueError("I2 elements act on no window")
        return self.rank + self.simple_indices.start


class SystemKey(NamedTuple):
    """The value of a CoxeterSystem, checked but not built."""

    cartan: str
    rank: int
    bond: int | None = None


def system_key(cartan: str, rank: int, bond: int | None = None) -> SystemKey:
    """The checked value of CoxeterSystem(cartan, rank, bond); building
    nothing, it lets a caller size the group before the system exists."""
    if cartan not in ("A", "B", "I2"):
        raise ValueError(f"unknown Cartan type {cartan!r}")
    # index() refuses 3.0 before the lookup, where 3.0 == 3 would find rank 3
    key = SystemKey(cartan, index(rank), None if bond is None else index(bond))
    if cartan == "I2":
        if key.rank != 2:
            raise ValueError("I2 systems have rank 2")
        if key.bond is None or key.bond < 3:
            raise ValueError("I2 needs a bond m >= 3")
    else:
        if key.rank < 0:
            raise ValueError("rank must be non-negative")
        if key.bond is not None:
            raise ValueError("bond is only meaningful for I2")
    return key


def type_a(rank: int) -> CoxeterSystem:
    """The symmetric group on rank+1 letters."""
    return CoxeterSystem("A", rank)


def type_b(rank: int) -> CoxeterSystem:
    """Signed permutations of {1, .., rank}."""
    return CoxeterSystem("B", rank)


def dihedral(bond: int) -> CoxeterSystem:
    """The dihedral group I2(bond) of order 2*bond."""
    return CoxeterSystem("I2", 2, bond)


def coxeter_m(system: CoxeterSystem, i: int, j: int) -> int:
    """Coxeter matrix entry m_ij for two simple indices."""
    if i == j:
        return 1
    if system.cartan == "I2":
        return system.bond
    if abs(i - j) > 1:
        return 2
    if system.cartan == "B" and min(i, j) == 0:
        return 4
    return 3


def braid_relation(system: CoxeterSystem, i: int, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two sides of the braid relation of s_i and s_j: the alternating
    words of length m_ij starting with i and with j."""
    m = coxeter_m(system, i, j)
    return _alternating(i, j, m), _alternating(j, i, m)


def _alternating(first: int, second: int, length: int) -> tuple[int, ...]:
    """The word first, second, first, .. of the given length."""
    return (first, second) * (length // 2) + (first,) * (length % 2)


@lru_cache(maxsize=None)
def _braid_table(system: CoxeterSystem) -> list[list[tuple | None]]:
    """table[i][j] = (m_ij, word starting with i, word starting with j) for
    simple indices i != j, None elsewhere; lists index faster than a dict
    keyed by pairs in the closure's inner loop."""
    indices = system.simple_indices
    table: list[list[tuple | None]] = [[None] * indices.stop for _ in range(indices.stop)]
    for i in indices:
        for j in indices:
            if i != j:
                table[i][j] = (coxeter_m(system, i, j),) + braid_relation(system, i, j)
    return table


def _braid_moves(table: list, word: tuple[int, ...], positions: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The words made by each braid move that starts at one of the positions."""
    for pos in positions:
        move = table[word[pos]][word[pos + 1]]
        if move is not None:
            m, here, there = move
            if m == 2 or word[pos : pos + m] == here:
                yield word[:pos] + there + word[pos + m :]


def _check_word(system: CoxeterSystem, word: Sequence[int]) -> tuple[int, ...]:
    word = tuple(word)
    bad = set(word) - system.index_set
    if bad:
        raise ValueError(f"letters {sorted(bad)} out of range for {system}")
    return word


def apply_braid_move(system: CoxeterSystem, word: Sequence[int], pos: int) -> tuple[int, ...]:
    """Rewrite a word by the braid move of length m_ij that starts at pos."""
    word = _check_word(system, word)
    if 0 <= pos < len(word) - 1:
        for moved in _braid_moves(_braid_table(system), word, (pos,)):
            return moved
    raise ValueError(f"pattern mismatch: no braid move starts at position {pos} of {word}")


def braid_closure(system: CoxeterSystem, word: Sequence[int]) -> set[tuple[int, ...]]:
    """All words reachable from word by braid moves (Matsumoto's theorem:
    every reduced word of the same element, when word is reduced): the
    words of its braid class, listed by all_paths."""
    return set(all_paths(braid_class(system, word, {}), braid_steps, {}))


class BraidClass:
    """One class of words under braid moves, as a node of all_paths: its
    steps are its (head letter, class of tails) blocks in head order, and
    word is one of its words.  Equality is identity; a memo keeps one
    object per class."""

    __slots__ = ("word", "steps")

    def __init__(self, word: tuple[int, ...], steps: list[tuple[int, "BraidClass"]]) -> None:
        self.word = word
        self.steps = steps


def braid_steps(c: BraidClass) -> list[tuple[int, BraidClass]]:
    """The steps of a braid class, for all_paths and same_paths."""
    return c.steps


def braid_class(system: CoxeterSystem, word: Sequence[int], memo: dict) -> BraidClass:
    """The class of word under the braid moves of system, built from the
    classes of shorter words, listing none of its words.

    A move at a position >= 1 acts on the tail, so the class is a union of
    blocks h + (class of a tail); moves at position 0 link the blocks.  The
    move from here to there applies to the words of a block with head
    here[0] whose tail starts with here[1:]: descending the block's class
    of tails along those letters reaches classes d, and each d gives the
    block there[0] + (class of there[1:] + a word of d).  The table's moves
    undo one another, so the classes partition the words of each length.
    memo maps each word looked up (keyed with its system) and each block to
    its class, so a caller that keeps one dict per system builds each class
    once.  The build recurses one frame per letter of word.
    """
    return _braid_class(_braid_table(system), system, _check_word(system, word), memo)


def _braid_class(table: list, system: CoxeterSystem, word: tuple[int, ...], memo: dict) -> BraidClass:
    found = memo.get((system, word))
    if found is not None:
        return found
    if not word:
        found = BraidClass(word, [])
    else:
        first = (word[0], _braid_class(table, system, word[1:], memo))
        found = memo.get(first)
        if found is None:
            blocks = [first]
            for head, tails in blocks:  # the list grows as moves find new blocks
                for _, here, there in filter(None, table[head]):
                    for d in _descend(tails, here[1:]):
                        block = (there[0], _braid_class(table, system, there[1:] + d.word, memo))
                        if block not in blocks:
                            blocks.append(block)
            found = BraidClass(word, sorted(blocks, key=itemgetter(0)))
            memo.update(dict.fromkeys(blocks, found))
    memo[system, word] = found
    return found


def _descend(c: BraidClass, letters: tuple[int, ...]) -> list[BraidClass]:
    """The classes of the words u with letters + u in class c."""
    reached = [c]
    for letter in letters:
        reached = [child for node in reached for head, child in node.steps if head == letter]
    return reached


class Element:
    """An element of ``system``: its image tuple (types A and B) or its
    normal-form word (I2) is ``data``.

    Immutable.  The hash is computed once, from ``data``; equality
    compares the (interned) systems by identity and then the data.
    """

    __slots__ = ("system", "data", "_hash")

    def __init__(self, system: CoxeterSystem, data: tuple[int, ...]) -> None:
        _set_system(self, system)
        _set_data(self, data)
        _set_hash(self, hash(data))

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not Element:
            return NotImplemented
        return self.system is other.system and self.data == other.data

    def __repr__(self) -> str:
        return f"Element(system={self.system!r}, data={self.data!r})"

    def __reduce__(self):
        return Element, (self.system, self.data)

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)


# the slots' own setters, which __setattr__ refuses to other callers
_set_system = Element.system.__set__
_set_data = Element.data.__set__
_set_hash = Element._hash.__set__


def identity(system: CoxeterSystem) -> Element:
    return system._identity


@lru_cache(maxsize=None)
def simple(system: CoxeterSystem, i: int) -> Element:
    """The simple reflection s_i, built once per (interned) system."""
    if i not in system.index_set:
        raise ValueError(f"index {i} out of range for {system}")
    if system.cartan == "I2":
        return Element(system, (i,))
    d = list(system._identity.data)
    if i == 0:
        d[0] = -1
    else:
        d[i - 1], d[i] = d[i], d[i - 1]
    return Element(system, tuple(d))


def element_from_images(system: CoxeterSystem, images: Sequence[int]) -> Element:
    """Validated constructor from an image tuple (types A and B)."""
    images = tuple(images)
    n = system.points
    signed = system.cartan == "B"
    if sorted(map(abs, images)) != list(range(1, n + 1)) or not (signed or all(x > 0 for x in images)):
        raise ValueError(f"{images} is not a {'signed ' if signed else ''}permutation of 1..{n}")
    return Element(system, images)


def element_from_word(system: CoxeterSystem, word: Sequence[int]) -> Element:
    """The product s_{w1} * s_{w2} * ... for a word in simple indices."""
    acc = identity(system)
    for i in word:
        acc = multiply(acc, simple(system, i))
    return acc


def _i2_other(g: int) -> int:
    return 3 - g


def _i2_alt_word(length: int, last: int) -> tuple[int, ...]:
    """The alternating {1,2}-word of the given length ending in ``last``."""
    first = last if length % 2 == 1 else _i2_other(last)
    return _alternating(first, _i2_other(first), length)


def _i2_longest(system: CoxeterSystem) -> tuple[int, ...]:
    return _alternating(1, 2, system.bond)


def _i2_right_mult(w: Element, g: int) -> Element:
    system = w.system
    word = w.data
    m = system.bond
    if not word:
        return Element(system, (g,))
    if len(word) == m:
        # the longest element has both letters as descents
        return Element(system, _i2_alt_word(m - 1, _i2_other(g)))
    if word[-1] == g:
        return Element(system, word[:-1])
    if len(word) + 1 == m:
        return Element(system, _i2_longest(system))
    return Element(system, word + (g,))


def multiply(w: Element, v: Element) -> Element:
    system = w.system
    if system is not v.system:
        raise ValueError("cannot multiply elements of different systems")
    if system.cartan == "I2":
        acc = w
        for g in v.data:
            acc = _i2_right_mult(acc, g)
        return acc
    # gather w(x) for the images x of v from a tuple that holds w(x) at index x
    wd = w.data
    images = (0,) + wd
    if system.cartan == "B":  # w(-x) = -w(x), at the negative indices
        images += tuple(map(neg, reversed(wd)))
    points = v.data
    if len(points) > 1:  # itemgetter returns a bare item, not a tuple, for one point
        return Element(system, itemgetter(*points)(images))
    return Element(system, tuple(images[x] for x in points))


@lru_cache(maxsize=None)
def inverse(w: Element) -> Element:
    system = w.system
    if system.cartan == "I2":
        word = w.data[::-1]
        if len(word) == system.bond:
            word = _i2_longest(system)
        return Element(system, word)
    inv = [0] * len(w.data)
    for i, x in enumerate(w.data, 1):
        inv[abs(x) - 1] = i if x > 0 else -i
    return Element(system, tuple(inv))


@lru_cache(maxsize=None)
def length(w: Element) -> int:
    """Inversions plus, in type B, the sum of the negated negative images."""
    d = w.data
    if w.system.cartan == "I2":
        return len(d)
    inversions = sum(1 for i in range(len(d)) for j in range(i + 1, len(d)) if d[i] > d[j])
    return inversions + sum(-x for x in d if x < 0)


def act(w: Element, x: int) -> int:
    """Image of the point x of the window: {1..n} in type A, and {-n..n}
    with w(-x) = -w(x) in type B."""
    system = w.system
    d = w.data
    if system.cartan == "I2":
        raise ValueError("I2 elements act on no window")
    if 0 < x <= len(d):
        return d[x - 1]
    if system.cartan == "B" and -len(d) <= x <= 0:
        return -d[-x - 1] if x else 0
    raise ValueError(f"point {x} is outside the window of {system}")


def is_right_descent(w: Element, i: int) -> bool:
    d = w.data
    if w.system.cartan == "I2":
        return bool(d) and (len(d) == w.system.bond or d[-1] == i)
    return d[i - 1] > d[i] if i else d[0] < 0  # s_0 is type B's sign change


def is_left_descent(w: Element, i: int) -> bool:
    return is_right_descent(inverse(w), i)


@lru_cache(maxsize=None)
def right_descents(w: Element) -> frozenset[int]:
    """{i : l(w s_i) < l(w)}."""
    return frozenset(i for i in w.system.simple_indices if is_right_descent(w, i))


def left_descents(w: Element) -> frozenset[int]:
    """{i : l(s_i w) < l(w)}."""
    return right_descents(inverse(w))


@lru_cache(maxsize=None)
def reduced_word(w: Element) -> tuple[int, ...]:
    """A reduced word for w, stripping the smallest left descent first.

    I2 stores that word as its normal form.  Types A and B strip right
    descents off a copy of the image list of w^{-1}, in place, as s_i w
    has inverse w^{-1} s_i.  A step at i leaves the places below i-1 as
    they were, so the next smallest descent is at least i-1.
    """
    system = w.system
    if system.cartan == "I2":
        return w.data
    d = list(inverse(w).data)
    start = i = system.simple_indices.start
    out = []
    while i < len(d):
        if i == 0 and d[0] < 0:
            d[0] = -d[0]
        elif i and d[i - 1] > d[i]:
            d[i - 1], d[i] = d[i], d[i - 1]
        else:
            i += 1
            continue
        out.append(i)
        i = max(i - 1, start)
    return tuple(out)


# the caches keyed by an element, held as objects: emptying them through
# this tuple still works when a tracer or a test rebinds the public names
SYSTEM_CACHES = (length, inverse, right_descents, reduced_word)


# the reduced words of every element that reduced_words has walked through
_REDUCED_WORDS: dict[Element, tuple[tuple[int, ...], ...]] = {}


def reduced_words(w: Element) -> tuple[tuple[int, ...], ...]:
    """All reduced words for w, in lexicographic order."""
    return all_paths(w, _strip_left_descents, _REDUCED_WORDS)


def _strip_left_descents(u: Element) -> list[tuple[int, Element]]:
    """Each left descent i of u, in order, with s_i u."""
    return [(i, multiply(simple(u.system, i), u)) for i in sorted(left_descents(u))]


def all_paths(root, steps: Callable, memo: dict) -> tuple[tuple, ...]:
    """The labels along every path from root down to a node with no steps,
    where steps(node) lists its (label, child) pairs in order (a node with
    no steps has the one empty path); memo keeps the paths of each node
    across calls.  Children are done before their parent, on an explicit
    stack, so no recursion limit caps the depth.
    """
    waiting: dict = {}  # node -> its steps, until its children are done
    stack = [root]
    while stack:
        node = stack.pop()
        if node in waiting:  # its children are done
            below = waiting.pop(node)
            memo[node] = tuple((label,) + rest for label, child in below for rest in memo[child]) or ((),)
        elif node not in memo:
            waiting[node] = steps(node)
            stack.append(node)
            stack.extend(child for _, child in waiting[node])
    return memo[root]


def same_paths(roots_a: Iterable, steps_a: Callable, roots_b: Iterable, steps_b: Callable, memo: dict) -> bool:
    """Whether the label words of all_paths from the nodes roots_a under
    steps_a, taken together, are those from roots_b under steps_b, without
    listing any word.

    By the subset construction: two node sets have the same words when
    both or neither hold a node with no steps, their steps carry the same
    labels, and for each label the sets of children it leads to have the
    same words.  A pair of sets reached from the roots that fails this
    makes the roots differ, so the walk stops there.  When none fails,
    memo keeps every pair walked as equal, for later calls with the same
    two step functions.  The pairs wait on an explicit stack, so no
    recursion limit caps the depth.
    """
    root = (frozenset(roots_a), frozenset(roots_b))
    seen, stack = {root}, [root]
    while stack:
        pair = stack.pop()
        if pair in memo:
            continue
        end_a, after_a = _after_labels(pair[0], steps_a)
        end_b, after_b = _after_labels(pair[1], steps_b)
        if end_a != end_b or after_a.keys() != after_b.keys():
            return False
        for label, children in after_a.items():
            nxt = (frozenset(children), frozenset(after_b[label]))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    memo.update(dict.fromkeys(seen, True))
    return True


def _after_labels(nodes: frozenset, steps: Callable) -> tuple[bool, dict]:
    """Whether one of nodes has no steps, and the children each label leads to."""
    end, after = False, {}
    for node in nodes:
        found = steps(node)
        end = end or not found
        for label, child in found:
            after.setdefault(label, []).append(child)
    return end, after


def star_product(w: Element, v: Element) -> Element:
    """Demazure product: fold a reduced word of v into w, never descending.

    Types A and B fold it into w's image list: letter i >= 1 swaps places
    i-1 and i when they are in order, letter 0 negates a positive first
    place.  I2 elements are words, so there each letter multiplies."""
    system = w.system
    if system is not v.system:
        raise ValueError("cannot star-multiply elements of different systems")
    if system.cartan == "I2":
        acc = w
        for i in reduced_word(v):
            if not is_right_descent(acc, i):
                acc = multiply(acc, simple(system, i))
        return acc
    d = list(w.data)
    for i in reduced_word(v):
        if i == 0:
            if d[0] > 0:
                d[0] = -d[0]
        elif d[i - 1] < d[i]:
            d[i - 1], d[i] = d[i], d[i - 1]
    return Element(system, tuple(d))


def bruhat_leq(w: Element, v: Element) -> bool:
    """Bruhat order via subword search along a fixed reduced word of v.

    sub(u, k) asks whether u is a subword product of word[k:]; it is
    (s_i u is one of word[k+1:], when i = word[k] is a left descent of u)
    or (u is one of word[k+1:]).  The search runs on an explicit stack
    over the (u, k) memo, so no recursion limit caps the length of v.
    """
    if w.system is not v.system:
        raise ValueError("cannot compare elements of different systems")
    word = reduced_word(v)
    system = w.system
    memo: dict[tuple[Element, int], bool] = {}

    def settled(u: Element, k: int) -> bool | None:
        """sub(u, k) if it is known without a search, else None."""
        lu = length(u)
        if lu == 0:
            return True
        if lu > len(word) - k:
            return False
        return memo.get((u, k))

    stack = [(w, 0)]
    while stack:
        u, k = stack[-1]
        if settled(u, k) is not None:
            stack.pop()
            continue
        i = word[k]
        if is_left_descent(u, i):
            down = multiply(simple(system, i), u)
            found = settled(down, k + 1)
            if found is None:
                stack.append((down, k + 1))
                continue
            if found:
                memo[u, k] = True
                continue
        found = settled(u, k + 1)
        if found is None:
            stack.append((u, k + 1))
            continue
        memo[u, k] = found
    return settled(w, 0)


def conjugate(w: Element, i: int) -> Element:
    """w s_i w^{-1}."""
    return multiply(multiply(w, simple(w.system, i)), inverse(w))


def as_simple(e: Element) -> int | None:
    """The index i with e = s_i, or None if e is not a simple reflection."""
    return reduced_word(e)[0] if length(e) == 1 else None


def order_factors(system: CoxeterSystem | SystemKey) -> Sequence[int]:
    """Factors of the group order, each above 1, smallest first: 2m for
    I2(m), 2..rank+1 for the permutations of rank+1 points (A) and 2, 4,
    ..., 2 rank for the signed permutations of rank points (B)."""
    if system.cartan == "I2":
        return (2 * system.bond,)
    return range(2, 2 * system.rank + 1, 2) if system.cartan == "B" else range(2, system.rank + 2)


def group_order(system: CoxeterSystem) -> int:
    return prod(order_factors(system))


def all_elements(system: CoxeterSystem) -> Iterator[Element]:
    """Every group element, in a fixed deterministic order: by permutation
    of the window, then by signs (type B); by length, then first letter (I2)."""
    if system.cartan == "I2":
        yield identity(system)
        for ell in range(1, system.bond):
            for first in (1, 2):
                yield Element(system, _alternating(first, _i2_other(first), ell))
        yield Element(system, _i2_longest(system))
        return
    n = system.points
    signs = (1, -1) if system.cartan == "B" else (1,)
    for p in itertools.permutations(range(1, n + 1)):
        for s in itertools.product(signs, repeat=n):
            yield Element(system, tuple(map(mul, s, p)))


def format_element(w: Element) -> str:
    if w.system.cartan == "I2":
        return " ".join(str(i) for i in w.data)
    return "[" + ",".join(str(x) for x in w.data) + "]"


def element_from_data(system: CoxeterSystem, data: Sequence[int]) -> Element:
    """The element stored as data: any word in the simple indices for I2, the image tuple for A and B."""
    if system.cartan == "I2":
        return element_from_word(system, data)
    return element_from_images(system, data)


def parse_element(system: CoxeterSystem, text: str) -> Element:
    """The text form of format_element: "2 1" for I2, "[3,4,1,2]" for A and B."""
    text = text.strip()
    if system.cartan == "I2":
        tokens = text.split()
    elif text.startswith("[") and text.endswith("]"):
        tokens = text[1:-1].split(",") if text[1:-1].strip() else []
    else:
        raise ValueError(f"expected an image list like [3,4,1,2], got {text!r}")
    return element_from_data(system, [int(tok) for tok in tokens])
