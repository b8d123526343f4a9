"""Shared brute-force oracles, kept independent of the library internals."""
from __future__ import annotations

import sys
from collections import deque
from contextlib import contextmanager
from itertools import combinations

import pytest

from cosetrex import atomic as at
from cosetrex import cosets as cs
from cosetrex import coxeter as cx


def perm_mult(w, v):
    """Compose image tuples under (w v)(x) = w(v(x)); 1-based values."""
    return tuple(w[x - 1] for x in v)


def perm_simple(n, i):
    p = list(range(1, n + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def perm_from_word(n, word):
    acc = tuple(range(1, n + 1))
    for i in word:
        acc = perm_mult(acc, perm_simple(n, i))
    return acc


def inversion_count(images):
    return sum(
        1
        for i, j in combinations(range(len(images)), 2)
        if images[i] > images[j]
    )


def cayley_distances(system):
    """Word length of every element, by breadth-first search from the identity."""
    gens = [cx.simple(system, i) for i in system.simple_indices]
    dist = {cx.identity(system): 0}
    queue = deque([cx.identity(system)])
    while queue:
        w = queue.popleft()
        for g in gens:
            nxt = cx.multiply(w, g)
            if nxt not in dist:
                dist[nxt] = dist[w] + 1
                queue.append(nxt)
    return dist


def bruhat_leq_oracle(w, v):
    """Subword test by brute force over all subsequences of a reduced word."""
    word = cx.reduced_word(v)
    n = len(word)
    for mask in range(1 << n):
        chosen = [word[k] for k in range(n) if mask >> k & 1]
        if cx.element_from_word(w.system, chosen) == w:
            return True
    return False


def reduced_word_oracle(w):
    """A reduced word for w, stripping the smallest left descent first, one
    multiply per letter."""
    out = []
    while True:
        descents = cx.left_descents(w)
        if not descents:
            return tuple(out)
        i = min(descents)
        out.append(i)
        w = cx.multiply(cx.simple(w.system, i), w)


def star_product_oracle(w, v):
    """The Demazure product: fold the oracle's reduced word of v into w, one
    multiply per letter that is not a right descent."""
    for i in reduced_word_oracle(v):
        if not cx.is_right_descent(w, i):
            w = cx.multiply(w, cx.simple(w.system, i))
    return w


def braid_closure_oracle(system, word):
    """All words reachable from word by braid moves, by breadth-first search
    over the words themselves, one move at a time."""
    start = tuple(word)
    table = cx._braid_table(system)
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in cx._braid_moves(table, cur, range(len(cur) - 1)):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def all_subsets(system):
    indices = list(system.simple_indices)
    return [
        frozenset(i for b, i in enumerate(indices) if mask >> b & 1)
        for mask in range(1 << len(indices))
    ]


def _coset_order(p):
    return (sorted(p.left), cx.length(p.min), p.min.data)


def enumerate_cosets_oracle(system, left, right):
    """All (I,J)-cosets, by canonicalizing every element of W."""
    seen = {}
    for w in cx.all_elements(system):
        p = cs.coset_of(system, left, w, right)
        seen.setdefault(p.min, p)
    return sorted(seen.values(), key=_coset_order)


def enumerate_core_cosets_oracle(system, right):
    """All (I, p) with p core and right frame J, by testing every element of W
    for right descents in J and for conjugating each s_j to a simple
    reflection."""
    right = frozenset(right)
    out = []
    for w in cx.all_elements(system):
        if any(cx.is_right_descent(w, j) for j in right):
            continue
        conj = set()
        for j in right:
            i = cx.as_simple(cx.conjugate(w, j))
            if i is None:
                break
            conj.add(i)
        else:
            left = frozenset(conj)
            out.append((left, cs.DoubleCoset(system, left, right, w)))
    out.sort(key=lambda pair: _coset_order(pair[1]))
    return out


def atomic_rex_of_core_oracle(p):
    """The greedy atomic expression of a core coset, built afresh at every
    step: no cached step, no interned atom."""
    atoms = []
    cur = p
    while True:
        pmax = cs.max_elem(cur)
        extra = cx.left_descents(pmax) - cur.left
        if not extra:
            break
        s = min(extra)
        mid = cur.left | {s}
        w_mid = cs.longest_element(p.system, mid)
        t = cx.as_simple(cx.conjugate(w_mid, s))
        a = at.AtomicCoset(p.system, mid - {s}, mid, mid - {t}, s, t)
        atoms.append(a)
        # the remainder q with cur = a . q has maximum w_{right(a)} w_mid max(cur)
        w = cx.multiply(cs.longest_element(p.system, a.right), w_mid)
        cur = cs.coset_of(p.system, a.right, cx.multiply(w, pmax), p.right)
    assert cur.left == cur.right and cur.min == cx.identity(p.system)
    return tuple(atoms)


def compose_atomics_oracle(system, atoms, empty_frame=None):
    """Star-compose a chained atom sequence from the left, one atom at a
    time, checking each step's reducedness."""
    if not atoms:
        if empty_frame is None:
            raise ValueError("an empty atom sequence needs an explicit frame")
        return cs.identity_coset(system, empty_frame), True
    acc = at.coset_of_atom(atoms[0])
    reduced = True
    for a in atoms[1:]:
        nxt = at.coset_of_atom(a)
        if acc.right != nxt.left:
            raise ValueError("frame mismatch in atom sequence")
        if not cs.is_reduced_composition(acc, nxt):
            reduced = False
        acc = cs.star_compose(acc, nxt)
    return acc, reduced


@contextmanager
def recursion_headroom(frames):
    """Lower the recursion limit to the current stack depth plus frames."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@pytest.fixture(scope="session")
def a2():
    return cx.type_a(2)


@pytest.fixture(scope="session")
def a3():
    return cx.type_a(3)


@pytest.fixture(scope="session")
def b2():
    return cx.type_b(2)


@pytest.fixture(scope="session")
def b3():
    return cx.type_b(3)
