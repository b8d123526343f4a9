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
from collections import deque
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from math import factorial
from operator import itemgetter, neg
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class CoxeterSystem:
    """A finite Coxeter system; ``bond`` is only meaningful for I2.

    Equality is by value.  The hash, ``simple_indices``, their set
    ``index_set`` and the identity are computed once, in ``__post_init__``;
    ``simple`` fills in the simple reflections on first use.
    """

    cartan: str
    rank: int
    bond: int | None = None

    def __post_init__(self) -> None:
        if self.cartan not in ("A", "B", "I2"):
            raise ValueError(f"unknown Cartan type {self.cartan!r}")
        if self.cartan == "I2":
            if self.rank != 2:
                raise ValueError("I2 systems have rank 2")
            if self.bond is None or self.bond < 3:
                raise ValueError("I2 needs a bond m >= 3")
            indices, identity_data = range(1, 3), ()
        else:
            if self.rank < 0:
                raise ValueError("rank must be non-negative")
            if self.bond is not None:
                raise ValueError("bond is only meaningful for I2")
            if self.cartan == "A":
                indices, identity_data = range(1, self.rank + 1), tuple(range(1, self.rank + 2))
            else:
                indices, identity_data = range(self.rank), tuple(range(1, self.rank + 1))
        for name, value in (
            ("_hash", hash((self.cartan, self.rank, self.bond))),
            ("simple_indices", indices),
            ("index_set", frozenset(indices)),
            ("_identity", Element(self, identity_data)),
            ("_simples", {}),
        ):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return self._hash

    @property
    def points(self) -> int:
        """Size of the window the group permutes (types A and B only)."""
        if self.cartan == "A":
            return self.rank + 1
        if self.cartan == "B":
            return self.rank
        raise ValueError("I2 elements act on no window")


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
    return (
        tuple(i if k % 2 == 0 else j for k in range(m)),
        tuple(j if k % 2 == 0 else i for k in range(m)),
    )


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
    every reduced word of the same element, when word is reduced)."""
    start = _check_word(system, word)
    table = _braid_table(system)
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in _braid_moves(table, cur, range(len(cur) - 1)):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


class Element:
    """An element of ``system``: its image tuple (types A and B) or its
    normal-form word (I2) is ``data``.

    Immutable.  The hash is computed once, from ``data``; equality tests
    the systems by identity before it compares them by value.
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
        return (self.system is other.system or self.system == other.system) and self.data == other.data

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


def simple(system: CoxeterSystem, i: int) -> Element:
    """The simple reflection s_i, built once per system."""
    try:
        return system._simples[i]
    except KeyError:
        pass
    if i not in system.index_set:
        raise ValueError(f"index {i} out of range for {system}")
    if system.cartan == "I2":
        s = Element(system, (i,))
    else:
        d = list(system._identity.data)
        if i == 0:
            d[0] = -1
        else:
            d[i - 1], d[i] = d[i], d[i - 1]
        s = Element(system, tuple(d))
    system._simples[i] = s
    return s


def element_from_images(system: CoxeterSystem, images: Sequence[int]) -> Element:
    """Validated constructor from an image tuple (types A and B)."""
    images = tuple(images)
    n = system.points
    if system.cartan == "A":
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{n}")
    else:
        if sorted(abs(x) for x in images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a signed permutation of 1..{n}")
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
    if length == 0:
        return ()
    first = last if length % 2 == 1 else _i2_other(last)
    return tuple(first if k % 2 == 0 else _i2_other(first) for k in range(length))


def _i2_longest(system: CoxeterSystem) -> tuple[int, ...]:
    return tuple(1 if k % 2 == 0 else 2 for k in range(system.bond))


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
    if system is not v.system and system != v.system:
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
    if system.cartan == "A":
        inv = [0] * len(w.data)
        for i, x in enumerate(w.data, 1):
            inv[x - 1] = i
        return Element(system, tuple(inv))
    if system.cartan == "B":
        inv = [0] * len(w.data)
        for i, x in enumerate(w.data, 1):
            if x > 0:
                inv[x - 1] = i
            else:
                inv[-x - 1] = -i
        return Element(system, tuple(inv))
    word = w.data[::-1]
    if len(word) == system.bond:
        word = _i2_longest(system)
    return Element(system, word)


@lru_cache(maxsize=None)
def length(w: Element) -> int:
    system = w.system
    d = w.data
    if system.cartan == "A":
        return sum(
            1 for i in range(len(d)) for j in range(i + 1, len(d)) if d[i] > d[j]
        )
    if system.cartan == "B":
        inv = sum(
            1 for i in range(len(d)) for j in range(i + 1, len(d)) if d[i] > d[j]
        )
        return inv + sum(-x for x in d if x < 0)
    return len(d)


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
    system = w.system
    d = w.data
    if system.cartan == "A":
        return d[i - 1] > d[i]
    if system.cartan == "B":
        if i == 0:
            return d[0] < 0
        return d[i - 1] > d[i]
    if not d:
        return False
    return len(d) == system.bond or d[-1] == i


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
    """A reduced word for w, stripping the smallest left descent first."""
    out = []
    cur = w
    while True:
        ld = left_descents(cur)
        if not ld:
            return tuple(out)
        i = min(ld)
        out.append(i)
        cur = multiply(simple(cur.system, i), cur)


@lru_cache(maxsize=None)
def reduced_words(w: Element) -> tuple[tuple[int, ...], ...]:
    """All reduced words for w, in lexicographic order."""
    ld = left_descents(w)
    if not ld:
        return ((),)
    out = []
    for i in sorted(ld):
        rest = reduced_words(multiply(simple(w.system, i), w))
        out.extend((i,) + word for word in rest)
    return tuple(out)


def star_product(w: Element, v: Element) -> Element:
    """Demazure product: fold a reduced word of v into w, never descending."""
    if w.system is not v.system and w.system != v.system:
        raise ValueError("cannot star-multiply elements of different systems")
    acc = w
    for i in reduced_word(v):
        if not is_right_descent(acc, i):
            acc = multiply(acc, simple(acc.system, i))
    return acc


def bruhat_leq(w: Element, v: Element) -> bool:
    """Bruhat order via subword search along a fixed reduced word of v.

    sub(u, k) asks whether u is a subword product of word[k:]; it is
    (s_i u is one of word[k+1:], when i = word[k] is a left descent of u)
    or (u is one of word[k+1:]).  The search runs on an explicit stack
    over the (u, k) memo, so no recursion limit caps the length of v.
    """
    if w.system is not v.system and w.system != v.system:
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
    if length(e) != 1:
        return None
    for i in e.system.simple_indices:
        if e == simple(e.system, i):
            return i
    return None


def group_order(system: CoxeterSystem) -> int:
    if system.cartan == "A":
        return factorial(system.rank + 1)
    if system.cartan == "B":
        return 2 ** system.rank * factorial(system.rank)
    return 2 * system.bond


def all_elements(system: CoxeterSystem) -> Iterator[Element]:
    """Every group element, in a fixed deterministic order."""
    if system.cartan == "A":
        for p in itertools.permutations(range(1, system.rank + 2)):
            yield Element(system, p)
    elif system.cartan == "B":
        for p in itertools.permutations(range(1, system.rank + 1)):
            for signs in itertools.product((1, -1), repeat=system.rank):
                yield Element(system, tuple(s * x for s, x in zip(signs, p)))
    else:
        yield identity(system)
        for ell in range(1, system.bond):
            for first in (1, 2):
                yield Element(
                    system, tuple(first if k % 2 == 0 else _i2_other(first) for k in range(ell))
                )
        yield Element(system, _i2_longest(system))


def format_element(w: Element) -> str:
    if w.system.cartan == "I2":
        return " ".join(str(i) for i in w.data)
    return "[" + ",".join(str(x) for x in w.data) + "]"


def parse_element(system: CoxeterSystem, text: str) -> Element:
    text = text.strip()
    if system.cartan == "I2":
        word = tuple(int(tok) for tok in text.split())
        return element_from_word(system, word)
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"expected an image list like [3,4,1,2], got {text!r}")
    body = text[1:-1].strip()
    images = tuple(int(tok) for tok in body.split(",")) if body else ()
    return element_from_images(system, images)
