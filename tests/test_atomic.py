from itertools import combinations, product

import pytest

from cosetrex import atomic as at
from cosetrex import cosets as cs
from cosetrex import coxeter as cx
from cosetrex import expressions as ex
from cosetrex import squash_a
from conftest import (
    all_subsets,
    atomic_rex_of_core_oracle,
    compose_atomics_oracle,
    recursion_headroom,
)


def all_atoms(system):
    return [
        at.atomic_from(system, M, s) for M in all_subsets(system) for s in sorted(M)
    ]


def test_atomic_from_rank_one():
    a1 = cx.type_a(1)
    a = at.atomic_from(a1, {1}, 1)
    assert a.left == frozenset() and a.right == frozenset()
    p = at.coset_of_atom(a)
    assert p.min == cx.simple(a1, 1)
    assert cs.max_elem(p) == cx.simple(a1, 1)


def test_atomic_from_type_a_block_example():
    a4 = cx.type_a(4)
    a = at.atomic_from(a4, {2, 3, 4}, 4)
    assert a.added == 4 and a.removed == 2
    assert a.left == frozenset({2, 3}) and a.right == frozenset({3, 4})


def test_atomic_from_type_b_central():
    b2 = cx.type_b(2)
    a = at.atomic_from(b2, {0, 1}, 1)
    assert a.removed == 1  # the longest element of B2 is central
    assert a.left == frozenset({0}) and a.right == frozenset({0})


def test_atomic_from_errors(a3):
    with pytest.raises(ValueError):
        at.atomic_from(a3, {1, 2}, 3)


SMALL_SYSTEMS = (
    [cx.type_a(r) for r in range(1, 5)]
    + [cx.type_b(r) for r in range(1, 4)]
    + [cx.dihedral(m) for m in range(3, 8)]
)


@pytest.mark.parametrize("system", SMALL_SYSTEMS, ids=str)
def test_atomic_from_equals_a_fresh_atom(system):
    for M in all_subsets(system):
        w = cs.longest_element(system, M)
        for s in sorted(M):
            t = cx.as_simple(cx.conjugate(w, s))
            a = at.atomic_from(system, M, s)
            assert a == at.AtomicCoset(system, M - {s}, M, M - {t}, s, t)
            assert at.atomic_from(system, set(M), s) is a
        for s in set(system.simple_indices) - M:
            with pytest.raises(ValueError):
                at.atomic_from(system, M, s)
    beyond = system.simple_indices.stop
    with pytest.raises(ValueError, match="out of range"):
        at.atomic_from(system, {beyond}, beyond)


@pytest.mark.parametrize("order", ["enumeration", "reverse"])
@pytest.mark.parametrize("system", SMALL_SYSTEMS, ids=str)
def test_greedy_rex_matches_the_uncached_oracle(system, order):
    # a cache filled in either order gives the same expressions
    found = [p for J in all_subsets(system) for _, p in cs.enumerate_core_cosets(system, J)]
    if order == "reverse":
        found.reverse()
    at._greedy_step.cache_clear()
    for p in found:
        assert at.atomic_rex_of_core(p) == atomic_rex_of_core_oracle(p)


def test_is_atomic_examples(a2, a3):
    for I in all_subsets(a3):
        assert not at.is_atomic(cs.identity_coset(a3, I))
    p = cs.coset_of(a3, {1}, cx.element_from_word(a3, (2, 1, 3, 2)), {3})
    assert not at.is_atomic(p)
    w0 = cs.longest_element(a2, frozenset({1, 2}))
    assert at.is_atomic(cs.coset_of(a2, {1}, w0, {2}))
    assert not at.is_atomic(cs.coset_of(a2, {1}, cx.simple(a2, 2), {1}))


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2), cx.dihedral(5)], ids=str)
def test_atomic_from_constructs_atomic_cosets(system):
    for a in all_atoms(system):
        p = at.coset_of_atom(a)
        assert cs.is_core(p)
        assert at.is_atomic(p)
        assert cs.max_elem(p) == cs.longest_element(system, a.mid)
        # the minimal element is w_M w_J
        assert p.min == cx.multiply(
            cs.longest_element(system, a.mid), cs.longest_element(system, a.right)
        )


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2)], ids=str)
def test_is_atomic_matches_enumeration(system):
    atoms = {at.coset_of_atom(a) for a in all_atoms(system)}
    for I in all_subsets(system):
        for J in all_subsets(system):
            for p in cs.enumerate_cosets(system, I, J):
                assert at.is_atomic(p) == (p in atoms)


def test_greedy_rex_identity(a3):
    assert at.atomic_rex_of_core(cs.identity_coset(a3, frozenset({1, 3}))) == ()


def test_greedy_rex_worked_example(a3):
    p = cs.coset_of(a3, {1}, cx.element_from_word(a3, (2, 1, 3, 2)), {3})
    rex = at.atomic_rex_of_core(p)
    assert [(sorted(a.left), sorted(a.mid), sorted(a.right)) for a in rex] == [
        ([1], [1, 2], [2]),
        ([2], [2, 3], [3]),
    ]
    composed, reduced = at.compose_atomics(a3, rex)
    assert reduced and composed == p


def test_greedy_rex_requires_core(a2):
    bad = cs.coset_of(a2, {1}, cx.simple(a2, 2), {1})
    with pytest.raises(ValueError):
        at.atomic_rex_of_core(bad)
    with pytest.raises(ValueError):
        at.all_atomic_rexes(bad)


def test_all_atomic_rexes_examples(a2):
    assert at.all_atomic_rexes(cs.identity_coset(a2, frozenset({1}))) == ((),)
    w0 = cs.longest_element(a2, frozenset({1, 2}))
    p = cs.coset_of(a2, {1}, w0, {2})
    assert len(at.all_atomic_rexes(p)) == 1
    q = cs.coset_of(a2, frozenset(), w0, frozenset())
    words = at.all_atomic_rexes(q)
    assert len(words) == 2  # one per reduced word of the longest element


def _all_atomic_rexes_recursive(p, memo):
    """The recursive search that all_atomic_rexes replaced, kept as its reference."""
    if p not in memo:
        pmax = cs.max_elem(p)
        extra = sorted(cx.left_descents(pmax) - p.left)
        if not extra:
            memo[p] = ((),)
        else:
            out = []
            for s in extra:
                a = at.atomic_from(p.system, p.left | {s}, s)
                q = cs.coset_of(
                    p.system, a.right, cx.multiply(cs.longest_element(p.system, a.right),
                                                   cx.multiply(cs.longest_element(p.system, a.mid), pmax)), p.right
                )
                out.extend((a,) + rest for rest in _all_atomic_rexes_recursive(q, memo))
            memo[p] = tuple(out)
    return memo[p]


@pytest.mark.parametrize(
    "system", [cx.type_a(r) for r in range(1, 5)] + [cx.type_b(r) for r in range(1, 4)], ids=str
)
def test_all_atomic_rexes_match_the_recursive_version(system):
    memo = {}
    for J in all_subsets(system):
        for _, p in cs.enumerate_core_cosets(system, J):
            expected = _all_atomic_rexes_recursive(p, memo)
            assert at.all_atomic_rexes(p) == expected
            assert at.atomic_words(p) == tuple(map(at.word_of_rex, expected))


@pytest.mark.parametrize(
    "system", [cx.type_a(r) for r in range(1, 5)] + [cx.type_b(r) for r in range(1, 4)], ids=str
)
def test_greedy_word_is_the_first_reduced_word_of_sigma(system):
    for J in all_subsets(system):
        for _, p in cs.enumerate_core_cosets(system, J):
            sigma = squash_a.squash_coset(p)
            assert at.word_of_rex(at.atomic_rex_of_core(p)) == cx.reduced_words(sigma)[0]


def test_all_atomic_rexes_needs_no_deep_recursion():
    # the ({}, s_1 .. s_n, {})-coset of A_n has one atomic expression, of n atoms
    n = 60
    system = cx.type_a(n)
    p = cs.coset_of(system, (), cx.element_from_word(system, range(1, n + 1)), ())
    with recursion_headroom(40):
        with pytest.raises(RecursionError):
            _all_atomic_rexes_recursive(p, {})
        (rex,) = at.all_atomic_rexes(p)
    assert at.word_of_rex(rex) == tuple(range(1, n + 1))


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2), cx.dihedral(6)], ids=str)
def test_all_rexes_compose_reducedly(system):
    for J in all_subsets(system):
        for _, p in cs.enumerate_core_cosets(system, J):
            rexes = at.all_atomic_rexes(p)
            assert at.atomic_rex_of_core(p) in rexes
            assert len(set(rexes)) == len(rexes)
            for rex in rexes:
                composed, reduced = at.compose_atomics(system, rex, p.left)
                assert reduced and composed == p


def test_factor_through_core_shapes(a2, a3):
    p = cs.coset_of(a3, {1}, cx.element_from_word(a3, (2, 1, 3, 2)), {3})
    expr = at.factor_through_core(p)
    assert expr.frames == (
        frozenset({1}),
        frozenset({1, 2}),
        frozenset({2}),
        frozenset({2, 3}),
        frozenset({3}),
    )
    r = cs.coset_of(a2, {1}, cx.simple(a2, 2), {1})
    expr = at.factor_through_core(r)
    assert expr.frames == (
        frozenset({1}),
        frozenset({1}),
        frozenset(),
        frozenset({2}),
        frozenset(),
        frozenset({1}),
        frozenset({1}),
    )
    assert ex.is_reduced(expr)
    assert ex.evaluate(expr) == r


def test_one_step_of_atoms(a3):
    p = cs.coset_of(a3, {1}, cx.element_from_word(a3, (2, 1, 3, 2)), {3})
    rex = at.atomic_rex_of_core(p)
    one = at.one_step_of_atoms(a3, rex)
    assert ex.format_expression(one) == "[{1} +2 -1 +3 -2]"
    empty = at.one_step_of_atoms(a3, (), {2})
    assert ex.evaluate(empty) == cs.identity_coset(a3, frozenset({2}))
    with pytest.raises(ValueError):
        at.one_step_of_atoms(a3, ())
    with pytest.raises(ValueError):
        at.one_step_of_atoms(a3, (rex[1], rex[0]))


def test_compose_atomics_examples(a2):
    got, reduced = at.compose_atomics(a2, (), frozenset({1}))
    assert reduced and got == cs.identity_coset(a2, frozenset({1}))
    with pytest.raises(ValueError):
        at.compose_atomics(a2, ())
    # the opposed pair of rank-2 atoms is not reduced and lands on [J, Js, J]
    a = at.atomic_from(a2, {1, 2}, 2)  # frames ({1},{1,2},{2})
    b = at.atomic_from(a2, {1, 2}, 1)  # frames ({2},{1,2},{1})
    assert (a.left, a.right) == (frozenset({1}), frozenset({2}))
    got, reduced = at.compose_atomics(a2, (a, b))
    assert not reduced
    assert got == cs.coset_of(a2, {1}, cs.longest_element(a2, frozenset({1, 2})), {1})


def _assert_composes_as_oracle(system, atoms, empty_frame):
    want = compose_atomics_oracle(system, atoms, empty_frame)
    assert at.compose_atomics(system, atoms, empty_frame) == want
    return want


@pytest.mark.parametrize("system", SMALL_SYSTEMS, ids=str)
def test_compose_atomics_matches_left_fold_on_atomic_rexes(system):
    # the right fold against the left fold, on the greedy expression and
    # every atomic expression of each core coset
    for J in all_subsets(system):
        for _, p in cs.enumerate_core_cosets(system, J):
            for rex in (at.atomic_rex_of_core(p), *at.all_atomic_rexes(p)):
                assert _assert_composes_as_oracle(system, rex, p.left) == (p, True)


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2)], ids=str)
def test_compose_atomics_matches_left_fold_on_lifted_chains(system):
    # every lifted word of length at most 3, reduced or not
    flags = []
    for J in all_subsets(system):
        start = system.simple_indices.start
        letters = range(start, start + len(system.index_set - J))
        for n in range(4):
            for word in product(letters, repeat=n):
                atoms = at.lift_word(system, J, word)
                flags.append(_assert_composes_as_oracle(system, atoms, J)[1])
    assert True in flags and False in flags


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2)], ids=str)
def test_compose_atomics_refuses_a_frame_mismatch(system):
    atoms = all_atoms(system)
    for a, b in product(atoms, repeat=2):
        if a.right == b.left:
            continue
        # a bad head on a valid tail of one or two atoms
        d = next(d for d in atoms if d.left == b.right)
        for chain in ((a, b), (a, b, d)):
            with pytest.raises(ValueError):
                compose_atomics_oracle(system, chain)
            with pytest.raises(ValueError):
                at.compose_atomics(system, chain)


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2), cx.dihedral(5)], ids=str)
def test_sandwich_by_inverse_is_identity_on_atoms(system):
    for a in all_atoms(system):
        p = at.coset_of_atom(a)
        assert cs.star_compose(cs.star_compose(p, cs.invert(p)), p) == p


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2)], ids=str)
def test_nonreduced_atomic_pairs_core_iff_equal(system):
    atoms = all_atoms(system)
    for a in atoms:
        for b in atoms:
            pa, pb = at.coset_of_atom(a), at.coset_of_atom(b)
            if pa.right != pb.left or cs.is_reduced_composition(pa, pb):
                continue
            prod = cs.star_compose(pa, pb)
            assert cs.is_core(prod) == (pa == pb)
            if pa == pb:
                assert prod == pa


@pytest.mark.parametrize(
    "system", [cx.type_a(5), cx.type_b(4), cx.dihedral(7)], ids=str
)
def test_every_core_coset_has_reduced_greedy_rex(system):
    # larger ranks than the acceptance gate: S6, B4, I2(7)
    for J in all_subsets(system):
        for _, p in cs.enumerate_core_cosets(system, J):
            rex = at.atomic_rex_of_core(p)
            composed, reduced = at.compose_atomics(system, rex, p.left)
            assert reduced and composed == p
            one = at.one_step_of_atoms(system, rex, p.left)
            assert ex.is_reduced(one)
            assert ex.evaluate(one) == p


def test_atomic_composition_closure(a2, a3):
    # the complement of the identity ({1},{1})-coset of S3 is reachable only
    # through a non-reduced composition, and is reached
    closure = at.atomic_composition_closure(a2)
    p = cs.coset_of(a2, {1}, cx.simple(a2, 2), {1})
    assert p in closure
    assert not cs.is_core(p)
    # the stranded S4 coset is not a composition of atomic cosets at all
    q = cs.coset_of(a3, {1, 3}, cx.simple(a3, 2), {1, 3})
    assert q not in at.atomic_composition_closure(a3)
    # every core coset appears, except identity cosets (no empty product)
    for J in all_subsets(a3):
        for _, r in cs.enumerate_core_cosets(a3, J):
            if r.min != cx.identity(a3) or at.is_atomic(r):
                assert r in at.atomic_composition_closure(a3)
    # the factor bound truncates the search
    assert at.atomic_composition_closure(a3, max_factors=1) == {
        at.coset_of_atom(a) for a in all_atoms(a3)
    }


def test_triple_power_collapses(a3, b2):
    # chaining the same generator index three times lands back on the atom
    for system in (a3, b2):
        base = 1 if system.cartan == "A" else 0
        for J in all_subsets(system):
            gaps = len(set(system.simple_indices) - J)
            for k in range(gaps):
                i = base + k
                triple = at.lift_word(system, J, (i, i, i))
                got, reduced = at.compose_atomics(system, triple)
                assert not reduced
                assert got == at.coset_of_atom(at.atomic_generator(system, J, i))


def test_unique_three_frame_expression(a3):
    # enumerate every [I, K, J] expression of S4 and check each atomic coset
    # is expressed only by its defining frames
    triples = []
    for K in all_subsets(a3):
        subs = [frozenset(c) for k in range(len(K) + 1) for c in combinations(sorted(K), k)]
        triples.extend((I, K, J) for I in subs for J in subs)
    by_coset = {}
    for I, K, J in triples:
        expr = ex.MultistepExpression(a3, (I, K, J))
        if ex.is_reduced(expr):
            by_coset.setdefault(ex.evaluate(expr), []).append((I, K, J))
    for a in all_atoms(a3):
        p = at.coset_of_atom(a)
        assert by_coset[p] == [(a.left, a.mid, a.right)]
