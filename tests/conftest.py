"""Shared brute-force oracles, kept independent of the library internals."""
from __future__ import annotations

import sys
from array import array
from collections import deque
from contextlib import contextmanager
from itertools import combinations

import pytest

from cosetrex import atomic as at
from cosetrex import cosets as cs
from cosetrex import coxeter as cx
from cosetrex import expressions as ex


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


def conjugate(w, i):
    """w s_i w^{-1}, by two products."""
    return cx.multiply(cx.multiply(w, cx.simple(w.system, i)), cx.inverse(w))


def is_left_descent_oracle(w, i):
    """Whether s_i is a left descent of w: a right descent of the inverse
    element, which it builds."""
    return cx.is_right_descent(cx.inverse(w), i)


def left_descents_oracle(w):
    """The left descents of w, as the right descents of the inverse element."""
    return cx.right_descents(cx.inverse(w))


def as_simple(e):
    """The index i with e = s_i, or None if e is not a simple reflection."""
    return cx.reduced_word(e)[0] if cx.length(e) == 1 else None


def max_elem_oracle(p):
    """The maximum of p as the Demazure product w_I * min * w_J, folded by
    star_product, which folds a reduced word of each longest element."""
    out = cx.star_product(cs.longest_element(p.system, p.left), p.min)
    return cx.star_product(out, cs.longest_element(p.system, p.right))


def braid_closure_oracle(system, word):
    """All words reachable from word by braid moves, by breadth-first search
    over the words themselves, one move at a time.  It reads the library's
    move table on purpose, so a fault in the table hits both sides of a
    comparison alike, but has its own search, independent of braid_class."""
    start = tuple(word)
    table = cx._braid_table(system)
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for pos in range(len(cur) - 1):
            move = table[cur[pos]][cur[pos + 1]]
            if move is not None and cur[pos : pos + len(move[0])] == move[0]:
                here, there = move
                nxt = cur[:pos] + there + cur[pos + len(here) :]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen


def braid_words(system, word):
    """The words of word's braid class, listed by all_paths."""
    return set(cx.all_paths(cx.braid_class(system, word, {}), cx.braid_steps, {}))


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
            i = as_simple(conjugate(w, j))
            if i is None:
                break
            conj.add(i)
        else:
            left = frozenset(conj)
            out.append((left, cs.DoubleCoset(system, left, right, w)))
    out.sort(key=lambda pair: _coset_order(pair[1]))
    return out


def descent_table_oracle(system):
    """The rows of cs._descent_table by products, by length, then by data:
    the left descents are the right descents of the inverse, and conj[k] is
    as_simple of the conjugate w s_j w^{-1}, for each simple index j that is
    not a right descent."""
    rows = []
    for w in cx.all_elements(system):
        inv = cx.inverse(w)
        ld = rd = 0
        conj = []
        for j in system.simple_indices:
            if cx.is_right_descent(inv, j):
                ld |= 1 << j
            if cx.is_right_descent(w, j):
                rd |= 1 << j
                conj.append(None)
            else:
                conj.append(as_simple(conjugate(w, j)))
        rows.append((w, ld, rd, tuple(conj)))
    return sorted(rows, key=lambda row: (cx.length(row[0]), row[0].data))


def table_rows(table):
    """The rows (w, left mask, right mask, conj tuple) of a cs.DescentTable,
    decoded from its columns and its groups.  Every row position is in
    exactly one group, and each group's mask is the mask of its conj tuple."""
    conjs = [None] * len(table.left)
    for mask, groups in table.by_mask:
        for conj, positions in groups:
            assert mask == sum(1 << j for j, i in zip(table.system.simple_indices, conj) if i is not None)
            for k in positions:
                assert conjs[k] is None, k
                conjs[k] = conj
    assert None not in conjs
    return [(table.element(k), ld, rd, c) for k, (ld, rd, c) in enumerate(zip(table.left, table.right, conjs))]


def drop_table_row(table, k):
    """table with row k left out of every column and of its group; the
    positions after k shift down by one."""
    def cut(column, width=1):
        return column[: k * width] + column[(k + 1) * width :]

    def shift(positions):
        return array("I", (i - (i > k) for i in positions if i != k))

    by_mask = tuple((mask, [(conj, shift(positions)) for conj, positions in groups]) for mask, groups in table.by_mask)
    return table._replace(data=cut(table.data, table.width), left=cut(table.left), right=cut(table.right), by_mask=by_mask)


def package_modules():
    return [m for name, m in sys.modules.items() if name.partition(".")[0] == "cosetrex"]


def rebind_everywhere(monkeypatch, old, new, modules=None):
    # modules import library functions by name, so every module-level binding
    # of old in the package (or in the modules given) is rebound, not only
    # the one where it is defined
    for module in package_modules() if modules is None else modules:
        for name, obj in list(vars(module).items()):
            if obj is old:
                monkeypatch.setattr(module, name, new)


def count_calls(monkeypatch, fn):
    """A list that gets the arguments of each call of fn, rebound
    everywhere in the package to a wrapper that records them."""
    calls = []
    rebind_everywhere(monkeypatch, fn, lambda *args: calls.append(args) or fn(*args))
    return calls


def redundancy_oracle(p):
    """The left and right redundancy of p by two separate loops: I ∩ min J
    min^{-1} conjugates each s_j, j in J, by min; min^{-1} I min ∩ J
    conjugates each s_i, i in I, by min^{-1}."""
    left = set()
    for j in p.right:
        i = as_simple(conjugate(p.min, j))
        if i is not None and i in p.left:
            left.add(i)
    inv = cx.inverse(p.min)
    right = set()
    for i in p.left:
        j = as_simple(conjugate(inv, i))
        if j is not None and j in p.right:
            right.add(j)
    return frozenset(left), frozenset(right)


def longest_element_oracle(system, indices):
    """w_I by right-multiplying the smallest simple of I that is not yet a
    right descent, rescanning I after each step, until every simple of I
    is a descent."""
    acc = cx.identity(system)
    while True:
        free = [i for i in sorted(indices) if not cx.is_right_descent(acc, i)]
        if not free:
            return acc
        acc = cx.multiply(acc, cx.simple(system, free[0]))


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
        w_mid = longest_element_oracle(p.system, mid)
        t = as_simple(conjugate(w_mid, s))
        a = at.AtomicCoset(p.system, mid - {s}, mid, mid - {t}, s, t)
        atoms.append(a)
        cur = peel_oracle(cur, a, pmax)
    assert cur.left == cur.right and cur.min == cx.identity(p.system)
    return tuple(atoms)


def peel_oracle(p, a, pmax):
    """The remainder q with p = a . q, walked down from its maximum
    w_{right(a)} w_{mid(a)} max(p)."""
    w = cx.multiply(longest_element_oracle(p.system, a.right), longest_element_oracle(p.system, a.mid))
    return cs.coset_of(p.system, a.right, cx.multiply(w, pmax), p.right)


def reduced_composite_oracle(p, q):
    """p . q when the composition is reduced, else None, by the definition:
    the star composite r is reduced when l(max r) = l(max p) + l(max q) - l(w_J)."""
    r = cs.star_compose(p, q)
    lp, lq, lr = (cx.length(cs.max_elem(x)) for x in (p, q, r))
    return r if lr == lp + lq - cs.parabolic_length(p.system, p.right) else None


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
        reduced = reduced and reduced_composite_oracle(acc, nxt) is not None
        acc = cs.star_compose(acc, nxt)
    return acc, reduced


def add_remove_oracle(p, I, M, pmax):
    """Whether the one-step expression [I, I|M, M] followed by the core
    factorization of the (M, J)-coset of pmax is reduced and evaluates to p,
    built and checked as one whole expression."""
    tail = at.factor_through_core(cs.coset_of(p.system, M, pmax, p.right))
    expr = ex.concatenate(ex.MultistepExpression(p.system, (I, I | M, M)), tail)
    return ex.is_reduced(expr) and ex.evaluate(expr) == p


def multistep_oracle(system, chain):
    """expressions.multistep in three passes: drop repeated frames, collapse
    each monotone run onto its extreme frame, then double the ends that are
    tops."""
    frames = [frozenset(chain[0])]
    for g in chain[1:]:
        g = frozenset(g)
        prev = frames[-1]
        if not (prev <= g or g <= prev):
            raise ValueError(
                f"frames {cs.format_subset(prev)} and {cs.format_subset(g)} are incomparable"
            )
        if g != prev:
            frames.append(g)
    extrema = [frames[0]]
    dirs = []
    for g in frames[1:]:
        d = 1 if extrema[-1] < g else -1
        if dirs and dirs[-1] == d:
            extrema[-1] = g
        else:
            extrema.append(g)
            dirs.append(d)
    out = [extrema[0]]
    at_top = False
    for d, g in zip(dirs, extrema[1:]):
        if d == -1 and not at_top:
            out.append(out[-1])  # the current frame doubles as the top
        out.append(g)
        at_top = d == 1
    if at_top:
        out.append(out[-1])
    return ex.MultistepExpression(system, tuple(out))


def factor_through_core_oracle(p):
    """atomic.factor_through_core by parts: the greedy atomic expression of
    the core as a one-step expression, made multistep, then concatenated
    with the step into the core and the step out of it where each moves."""
    inner = cs.core(p)
    K, L = inner.left, inner.right
    expr = ex.to_multistep(at.one_step_of_atoms(p.system, at.atomic_rex_of_core(inner), K))
    if K != p.left:
        expr = ex.concatenate(ex.MultistepExpression(p.system, (p.left, p.left, K)), expr)
    if L != p.right:
        expr = ex.concatenate(expr, ex.MultistepExpression(p.system, (L, p.right, p.right)))
    return expr


def evaluate_oracle(expr):
    """expressions.evaluate with the single frame apart: no top is the
    identity coset of the frame."""
    M = ex.to_multistep(expr)
    tops = M.frames[1::2]
    if not tops:
        return cs.identity_coset(M.system, M.frames[0])
    x = cs.star_longest(cx.identity(M.system), tops)
    return cs.coset_of(M.system, M.frames[0], x, M.frames[-1])


def is_reduced_oracle(expr):
    """expressions.is_reduced with tops and interior bottoms read apart, one
    top and the bottom after it per round; a single frame F is read as
    [[F < F > F]]."""
    M = ex.to_multistep(expr)
    frames = M.frames if len(M.frames) >= 3 else (M.frames[0],) * 3
    tops = frames[1::2]
    interior = frames[2:-1:2]
    prod = cx.identity(M.system)
    target = 0
    for t, K in enumerate(tops):
        prod = cx.multiply(prod, cs.longest_element(M.system, K))
        target += cs.parabolic_length(M.system, K)
        if t < len(interior):
            prod = cx.multiply(prod, cs.longest_element(M.system, interior[t]))
            target -= cs.parabolic_length(M.system, interior[t])
    return cx.length(prod) == target


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
