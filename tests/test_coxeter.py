import copy
import itertools
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetrex
from cosetrex import atomic as at
from cosetrex import cosets as cs
from cosetrex import coxeter as cx
from conftest import (
    as_simple,
    braid_closure_oracle,
    braid_words,
    bruhat_leq_oracle,
    cayley_distances,
    conjugate,
    count_calls,
    inversion_count,
    is_left_descent_oracle,
    left_descents_oracle,
    perm_from_word,
    perm_mult,
    perm_simple,
    recursion_headroom,
    reduced_word_oracle,
    star_product_oracle,
)

SMALL_SYSTEMS = [cx.type_a(2), cx.type_a(3), cx.type_b(2), cx.dihedral(4), cx.dihedral(5)]


def test_system_validation():
    with pytest.raises(ValueError):
        cx.CoxeterSystem("Z", 2)
    with pytest.raises(ValueError):
        cx.CoxeterSystem("I2", 3, 4)
    with pytest.raises(ValueError):
        cx.dihedral(2)
    with pytest.raises(ValueError):
        cx.CoxeterSystem("A", 2, bond=3)
    with pytest.raises(ValueError):
        cx.type_b(-1)
    # interned values that 3.0 and 5.0 compare equal to must not be found
    cx.type_a(3), cx.dihedral(5)
    with pytest.raises(TypeError):
        cx.CoxeterSystem("A", 3.0)
    with pytest.raises(TypeError):
        cx.dihedral(5.0)


def test_every_exported_name_is_an_attribute_of_the_package():
    # so that from cosetrex import * works
    assert [name for name in cosetrex.__all__ if not hasattr(cosetrex, name)] == []
    namespace = {}
    exec("from cosetrex import *", namespace)
    assert set(cosetrex.__all__) <= set(namespace)


def test_systems_are_interned_on_every_path():
    a3, b3, i5 = cx.CoxeterSystem("A", 3), cx.CoxeterSystem("B", 3), cx.CoxeterSystem("I2", 2, 5)
    assert cx.type_a(3) is a3 and cx.CoxeterSystem(cartan="A", rank=3, bond=None) is a3
    assert cx.type_b(3) is b3 and cx.dihedral(5) is i5
    p = cs.coset_of(a3, {1}, cx.element_from_images(a3, (3, 4, 1, 2)), {3})
    assert cs.coset_from_json(json.loads(json.dumps(cs.coset_to_json(p)))).system is a3
    assert at.squashed_system(cx.type_a(5), {1, 4}) is a3
    assert at.squashed_system(cx.type_b(5), {0, 3}) is b3
    for system in (a3, b3, i5):
        assert pickle.loads(pickle.dumps(system)) is system
        assert copy.copy(system) is system and copy.deepcopy(system) is system
        assert pickle.loads(pickle.dumps(cx.identity(system))).system is system
        assert hash(system) == object.__hash__(system)
    assert repr(a3) == "CoxeterSystem(cartan='A', rank=3, bond=None)"


def test_coxeter_matrix():
    a3 = cx.type_a(3)
    assert cx.coxeter_m(a3, 1, 2) == 3
    assert cx.coxeter_m(a3, 1, 3) == 2
    assert cx.coxeter_m(a3, 2, 2) == 1
    b3 = cx.type_b(3)
    assert cx.coxeter_m(b3, 0, 1) == 4
    assert cx.coxeter_m(b3, 1, 2) == 3
    assert cx.coxeter_m(b3, 0, 2) == 2
    assert cx.coxeter_m(cx.dihedral(7), 1, 2) == 7


@pytest.mark.parametrize(
    "system", [cx.type_a(3), cx.type_b(3)] + [cx.dihedral(m) for m in range(3, 8)], ids=str
)
def test_braid_closure_matches_reduced_words(system):
    # Matsumoto's theorem, against the independent enumeration by descents
    for w in cx.all_elements(system):
        assert braid_words(system, cx.reduced_word(w)) == set(cx.reduced_words(w))


@pytest.mark.parametrize(
    "system, longest", [(cx.type_a(3), 7), (cx.type_b(3), 7), (cx.type_b(2), 9), (cx.dihedral(5), 9)], ids=str
)
def test_braid_class_words_match_the_word_bfs(system, longest):
    # every word, reduced or not, with one class memo per system as verify keeps it
    classes, paths = {}, {}
    letters = sorted(system.index_set)
    for n in range(longest + 1):
        for word in itertools.product(letters, repeat=n):
            expected = braid_closure_oracle(system, word)
            assert set(cx.all_paths(cx.braid_class(system, word, classes), cx.braid_steps, paths)) == expected
            assert braid_words(system, word) == expected


def test_braid_class_recursion_is_one_frame_per_letter():
    i2 = cx.dihedral(400)
    word = (1, 2) * 200
    with recursion_headroom(len(word) + 50):
        assert braid_words(i2, word) == {word, (2, 1) * 200}
    with pytest.raises(ValueError):
        cx.braid_class(i2, (1, 3), {})


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2), cx.dihedral(5)], ids=str)
def test_same_paths_is_set_equality_of_all_paths(system):
    # roots: each element alone and, in I2(5), each pair of elements; one
    # step function labels the first step of the longest element wrongly
    els = list(cx.all_elements(system))
    top = max(els, key=cx.length)
    low, high = min(system.index_set), max(system.index_set)

    def relabelled(u):
        steps = cx._strip_left_descents(u)
        if u == top:
            (i, child), *rest = steps
            steps = [(high if i == low else low, child)] + rest
        return steps

    roots = [{w} for w in els]
    if system.cartan == "I2":
        roots += [set(pair) for pair in itertools.combinations(els, 2)]
    words = {}
    for steps_b in (cx._strip_left_descents, relabelled):
        memo = {}
        for roots_b in roots:
            words_b = set().union(*(cx.all_paths(w, steps_b, {}) for w in roots_b))
            for roots_a in roots:
                key = frozenset(roots_a)
                if key not in words:
                    words[key] = set().union(*(cx.all_paths(w, cx._strip_left_descents, {}) for w in roots_a))
                same = cx.same_paths(roots_a, cx._strip_left_descents, roots_b, steps_b, memo)
                assert same == (words[key] == words_b)
    assert not cx.same_paths({top}, cx._strip_left_descents, {top}, relabelled, {})


def test_same_paths_needs_no_deep_recursion():
    # a chain of 5000 nodes, labelled by parity, against the same chain
    # shifted by two
    def steps(n):
        return [(n % 2, n - 1)] if n > 0 else []

    def shifted(n):
        return [(n % 2, n - 1)] if n > 2 else []

    with recursion_headroom(50):
        assert cx.same_paths({5000}, steps, {5000}, steps, {})
        assert cx.same_paths({5000}, steps, {5002}, shifted, {})
        assert not cx.same_paths({5000}, steps, {5001}, shifted, {})


def test_braid_class_dihedral():
    i5 = cx.dihedral(5)
    # the moves at positions 0 and 1, each undone by the move back
    assert braid_words(i5, (2, 1, 2, 1, 2, 1)) == {(2, 1, 2, 1, 2, 1), (1, 2, 1, 2, 1, 1), (2, 2, 1, 2, 1, 2)}
    assert braid_words(i5, (1, 2, 1, 2, 1)) == {(1, 2, 1, 2, 1), (2, 1, 2, 1, 2)}
    # shorter than m = 5, so no move applies
    assert braid_words(i5, (1, 2, 1)) == {(1, 2, 1)}
    assert braid_words(i5, (1, 2, 1, 2)) == {(1, 2, 1, 2)}
    with pytest.raises(ValueError):
        cx.braid_class(i5, (1, 3), {})


def test_multiply_involution(a3, b2):
    s2 = cx.simple(a3, 2)
    assert cx.multiply(s2, s2) == cx.identity(a3)
    s0 = cx.simple(b2, 0)
    assert cx.multiply(s0, s0) == cx.identity(b2)


def test_multiply_word_oracle(a3):
    # fold the word s2 s1 s3 s2 through plain image-tuple composition
    expected = perm_from_word(4, [2, 1, 3, 2])
    assert expected == (3, 4, 1, 2)
    assert cx.element_from_word(a3, [2, 1, 3, 2]).data == expected


def test_multiply_system_mismatch(a2, a3):
    with pytest.raises(ValueError):
        cx.multiply(cx.identity(a2), cx.identity(a3))


def test_multiply_matches_oracle_exhaustive(a3):
    els = list(cx.all_elements(a3))
    for w in els[:8]:
        for v in els:
            assert cx.multiply(w, v).data == perm_mult(w.data, v.data)


def test_act_on_the_window_only(a2, b2):
    w = cx.element_from_images(a2, (2, 3, 1))
    assert [cx.act(w, x) for x in (1, 2, 3)] == [2, 3, 1]
    for x in (0, -1, 4):
        with pytest.raises(ValueError):
            cx.act(w, x)
    v = cx.element_from_images(b2, (-2, 1))
    assert [cx.act(v, x) for x in range(-2, 3)] == [-1, 2, 0, -2, 1]
    for x in (-3, 3):
        with pytest.raises(ValueError):
            cx.act(v, x)
    with pytest.raises(ValueError):
        cx.act(cx.identity(cx.dihedral(5)), 1)


def test_length_examples(a3):
    assert cx.length(cx.identity(a3)) == 0
    w = cx.element_from_images(a3, (3, 4, 1, 2))
    assert cx.length(w) == inversion_count(w.data) == 4
    v = cx.element_from_images(a3, (3, 4, 2, 1))
    assert cx.length(v) == inversion_count(v.data) == 5


@pytest.mark.parametrize("system", SMALL_SYSTEMS, ids=str)
def test_length_is_cayley_distance(system):
    dist = cayley_distances(system)
    assert len(dist) == cx.group_order(system)
    for w, d in dist.items():
        assert cx.length(w) == d


def test_descent_examples(a2, a3):
    assert cx.left_descents(cx.identity(a3)) == frozenset()
    w = cx.element_from_images(a3, (3, 4, 1, 2))
    assert cx.left_descents(w) == frozenset({2})
    assert cx.right_descents(w) == frozenset({2})
    w0 = cx.element_from_images(a2, (3, 2, 1))
    assert cx.left_descents(w0) == frozenset({1, 2})


@pytest.mark.parametrize("system", SMALL_SYSTEMS, ids=str)
def test_descents_match_length_definition(system):
    for w in cx.all_elements(system):
        lw = cx.length(w)
        expect_left = frozenset(
            i
            for i in system.simple_indices
            if cx.length(cx.multiply(cx.simple(system, i), w)) < lw
        )
        expect_right = frozenset(
            i
            for i in system.simple_indices
            if cx.length(cx.multiply(w, cx.simple(system, i))) < lw
        )
        assert cx.left_descents(w) == expect_left
        assert cx.right_descents(w) == expect_right
        assert cx.left_descents(w) == cx.right_descents(cx.inverse(w))


@pytest.mark.parametrize(
    "systems",
    [[cx.type_a(r) for r in range(7)], [cx.type_b(r) for r in range(6)], [cx.dihedral(m) for m in range(3, 9)]],
    ids=["A0-A6", "B0-B5", "I2(3..8)"],
)
def test_left_descents_agree_with_the_inverse_oracle(systems, monkeypatch):
    # every (w, i); the library reads the position list (A, B) or the word
    # (I2), so it builds no inverse
    inverses = count_calls(monkeypatch, cx.inverse)
    for system in systems:
        inverses.clear()  # the oracle below builds inverses
        elements = list(cx.all_elements(system))
        found = [(cx.left_descents(w), [cx.is_left_descent(w, i) for i in system.simple_indices]) for w in elements]
        assert not inverses
        for w, (descents, each) in zip(elements, found):
            assert descents == left_descents_oracle(w), w
            assert each == [is_left_descent_oracle(w, i) for i in system.simple_indices], w


def test_reduced_word_examples(a2, a3):
    assert cx.reduced_word(cx.identity(a3)) == ()
    assert cx.reduced_word(cx.element_from_images(a2, (3, 2, 1))) == (1, 2, 1)
    w = cx.element_from_images(a3, (3, 4, 1, 2))
    word = cx.reduced_word(w)
    assert len(word) == 4
    assert cx.element_from_word(a3, word) == w


@pytest.mark.parametrize(
    "system",
    [cx.type_a(r) for r in (1, 2, 3, 4)]
    + [cx.type_b(r) for r in (1, 2, 3)]
    + [cx.dihedral(m) for m in range(3, 8)],
    ids=str,
)
def test_reduced_word_roundtrip_exhaustive(system):
    for w in cx.all_elements(system):
        word = cx.reduced_word(w)
        assert len(word) == cx.length(w)
        assert cx.element_from_word(system, word) == w


@pytest.mark.parametrize(
    "system",
    [cx.type_a(r) for r in range(6)] + [cx.type_b(r) for r in range(5)] + [cx.dihedral(m) for m in range(3, 13)],
    ids=str,
)
def test_reduced_word_is_the_per_letter_word(system):
    # the round trip above takes any reduced word; this pins the one word
    for w in cx.all_elements(system):
        assert cx.reduced_word(w) == reduced_word_oracle(w)
        if system.cartan == "I2":
            assert cx.reduced_word(w) == w.data


@pytest.mark.parametrize(
    "system",
    [cx.type_a(r) for r in range(4)] + [cx.type_b(r) for r in range(4)] + [cx.dihedral(m) for m in range(3, 8)],
    ids=str,
)
def test_star_product_is_the_per_letter_product(system):
    els = list(cx.all_elements(system))
    e = cx.identity(system)
    for w in els:
        for v in els:
            assert cx.star_product(w, v) == star_product_oracle(w, v)
        # the identity is the unit
        assert cx.star_product(w, e) == w and cx.star_product(e, w) == w


def test_star_examples(a2):
    s1, s2 = cx.simple(a2, 1), cx.simple(a2, 2)
    assert cx.star_product(s1, s1) == s1
    acc = cx.identity(a2)
    for v in (s1, s2, s1, s2):
        acc = cx.star_product(acc, v)
    assert acc.data == (3, 2, 1)
    w = cx.element_from_images(a2, (2, 3, 1))
    assert cx.star_product(w, cx.identity(a2)) == w
    with pytest.raises(ValueError):
        cx.star_product(cx.identity(a2), cx.identity(cx.type_a(3)))


@pytest.mark.parametrize("system", SMALL_SYSTEMS, ids=str)
def test_star_agreement_exhaustive(system):
    els = list(cx.all_elements(system))
    for w in els:
        for v in els:
            star = cx.star_product(w, v)
            prod = cx.multiply(w, v)
            assert cx.length(star) >= max(cx.length(w), cx.length(v))
            additive = cx.length(prod) == cx.length(w) + cx.length(v)
            assert (star == prod) == additive


@pytest.mark.parametrize("system", [cx.type_a(2), cx.type_b(2), cx.dihedral(5)], ids=str)
def test_star_associative_exhaustive(system):
    els = list(cx.all_elements(system))
    for w, v, u in itertools.product(els, repeat=3):
        assert cx.star_product(cx.star_product(w, v), u) == cx.star_product(
            w, cx.star_product(v, u)
        )


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(3), cx.dihedral(6)], ids=str)
def test_star_braid_relation(system):
    for i in system.simple_indices:
        for j in system.simple_indices:
            if i >= j:
                continue
            m = cx.coxeter_m(system, i, j)
            a, b = cx.simple(system, i), cx.simple(system, j)
            lhs, rhs = cx.identity(system), cx.identity(system)
            for k in range(m):
                lhs = cx.star_product(lhs, a if k % 2 == 0 else b)
                rhs = cx.star_product(rhs, b if k % 2 == 0 else a)
            assert lhs == rhs


def test_bruhat_examples(a2):
    els = list(cx.all_elements(a2))
    for w in els:
        assert bruhat_leq_oracle(cx.identity(a2), w)
    s1 = cx.simple(a2, 1)
    w0 = cx.element_from_images(a2, (3, 2, 1))
    assert bruhat_leq_oracle(s1, w0)
    s1s2 = cx.element_from_word(a2, (1, 2))
    s2s1 = cx.element_from_word(a2, (2, 1))
    assert not bruhat_leq_oracle(s1s2, s2s1)


def test_bruhat_partial_order_on_s4(a3):
    els = list(cx.all_elements(a3))
    leq = {(w, v): bruhat_leq_oracle(w, v) for w in els for v in els}
    for w in els:
        assert leq[w, w]
        for v in els:
            if leq[w, v] and leq[v, w]:
                assert w == v
            if leq[w, v] and w != v:
                assert cx.length(w) < cx.length(v)
    for w in els:
        for v in els:
            if not leq[w, v]:
                continue
            for u in els:
                if leq[v, u]:
                    assert leq[w, u]


def test_simple_conjugate_examples(a3, b2):
    for i in a3.simple_indices:
        assert conjugate(cx.identity(a3), i) == cx.simple(a3, i)
        assert cx.simple_conjugate(cx.identity(a3), i) == i
    w0 = cx.element_from_word(a3, (1, 2, 1, 3, 2, 1))
    assert w0.data == (4, 3, 2, 1)
    assert conjugate(w0, 1) == cx.simple(a3, 3)
    assert cx.simple_conjugate(w0, 1) == 3  # 1 is a right descent of w0
    assert as_simple(cx.element_from_images(a3, (2, 1, 3, 4))) == 1
    assert as_simple(cx.element_from_images(a3, (3, 4, 1, 2))) is None
    assert as_simple(cx.identity(a3)) is None
    # s_1 s_1 s_1 = s_1 at the right descent 1; s_1 s_2 s_1 swaps 1 and 3
    s1 = cx.simple(a3, 1)
    assert cx.simple_conjugate(s1, 1) == 1
    assert cx.simple_conjugate(s1, 2) is None
    assert cx.simple_conjugate(cx.element_from_images(a3, (3, 4, 1, 2)), 1) == 3
    # type B: s_0 is fixed exactly when |w(1)| = 1, and two negative neighbours give s_i
    for images, expected in [((1, 2), 0), ((-1, 2), 0), ((1, -2), 0), ((2, 1), None), ((-2, -1), None)]:
        assert cx.simple_conjugate(cx.element_from_images(b2, images), 0) == expected
    assert cx.simple_conjugate(cx.element_from_images(b2, (-2, -1)), 1) == 1
    assert cx.simple_conjugate(cx.element_from_images(b2, (-1, 2)), 1) is None
    # I2: the longest element swaps s_1 and s_2 when m is odd and fixes them when m is even
    for m, swapped in [(5, True), (4, False)]:
        system = cx.dihedral(m)
        w0 = cx.element_from_word(system, cx._i2_longest(system))
        for j in (1, 2):
            assert cx.simple_conjugate(w0, j) == (3 - j if swapped else j)
    i25 = cx.dihedral(5)
    assert cx.simple_conjugate(cx.element_from_word(i25, (2, 1, 2, 1)), 2) == 1
    assert cx.simple_conjugate(cx.element_from_word(i25, (2, 1)), 2) is None
    with pytest.raises(ValueError):
        cx.simple_conjugate(cx.identity(a3), 0)


@pytest.mark.parametrize(
    "systems",
    [[cx.type_a(r) for r in range(7)], [cx.type_b(r) for r in range(6)], [cx.dihedral(m) for m in range(3, 9)]],
    ids=["A0-A6", "B0-B5", "I2(3..8)"],
)
def test_simple_conjugate_agrees_with_the_product_oracle(systems):
    # every simple index, right descents included
    for system in systems:
        for w in cx.all_elements(system):
            for j in system.simple_indices:
                assert cx.simple_conjugate(w, j) == as_simple(conjugate(w, j)), (w, j)


def _length_oracle(w):
    return inversion_count(w.data) + sum(-x for x in w.data if x < 0)


@pytest.mark.parametrize(
    "systems", [[cx.type_a(r) for r in range(7)], [cx.type_b(r) for r in range(6)]], ids=["A0-A6", "B0-B5"]
)
def test_length_agrees_with_the_pair_count(systems):
    for system in systems:
        for w in cx.all_elements(system):
            assert cx.length.__wrapped__(w) == _length_oracle(w), w


@pytest.mark.parametrize("cartan", ["A", "B"])
def test_length_agrees_with_the_pair_count_at_large_rank(cartan):
    rng = random.Random(20)
    for rank in (20, 21, 57, 120, 300):
        system = cx.CoxeterSystem(cartan, rank)
        n = system.points
        for _ in range(3):
            images = rng.sample(range(1, n + 1), n)
            if cartan == "B":
                images = [x * rng.choice((1, -1)) for x in images]
            w = cx.element_from_images(system, images)
            assert cx.length.__wrapped__(w) == _length_oracle(w)
        # the reversed window has the most inversions
        top = cx.element_from_images(system, range(n, 0, -1))
        assert cx.length.__wrapped__(top) == _length_oracle(top) == n * (n - 1) // 2


@pytest.mark.parametrize("system", SMALL_SYSTEMS + [cx.type_b(3), cx.dihedral(7)], ids=str)
def test_all_elements_complete(system):
    els = list(cx.all_elements(system))
    assert len(els) == cx.group_order(system)
    assert len(set(els)) == len(els)


def test_i2_normal_forms():
    s = cx.dihedral(4)
    w0 = cx.element_from_word(s, (2, 1, 2, 1))
    assert w0.data == (1, 2, 1, 2)  # canonical spelling starts with 1
    assert cx.length(w0) == 4
    assert cx.left_descents(w0) == frozenset({1, 2})
    v = cx.element_from_word(s, (1, 2, 2, 1))
    assert v == cx.identity(s)
    u = cx.element_from_word(s, (2, 1, 2))
    assert cx.inverse(u) == u
    assert cx.length(cx.multiply(u, cx.simple(s, 2))) == 2


def test_element_text_forms(a3, b2):
    w = cx.element_from_images(a3, (3, 4, 1, 2))
    assert cx.format_element(w) == "[3,4,1,2]"
    assert cx.parse_element(a3, "[3,4,1,2]") == w
    v = cx.element_from_images(b2, (-2, 1))
    assert cx.format_element(v) == "[-2,1]"
    assert cx.parse_element(b2, "[-2,1]") == v
    s = cx.dihedral(5)
    u = cx.element_from_word(s, (2, 1))
    assert cx.format_element(u) == "2 1"
    assert cx.parse_element(s, "2 1") == u
    with pytest.raises(ValueError):
        cx.parse_element(a3, "[1,1,2,3]")
    with pytest.raises(ValueError):
        cx.parse_element(a3, "3,4,1,2")


@pytest.mark.parametrize(
    "cartan, data, text",
    [("A", [3, 4, 1, 2], "[3,4,1,2]"), ("B", (-2, 1), "[-2,1]"), ("A", (1,), "[1]"), ("A", [], "[]"),
     ("B", (-12, 3, 10), "[-12,3,10]"), ("I2", (2, 1), "2 1"), ("I2", (), "")],
)
def test_format_data_inverts_parse_data(cartan, data, text):
    assert cx.format_data(cartan, data) == text
    assert cx.parse_data(cartan, text) == list(data)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), max_size=10))
def test_star_fold_dominates_product(word):
    system = cx.type_a(4)
    w = cx.element_from_word(system, word)
    star = cx.identity(system)
    for i in word:
        star = cx.star_product(star, cx.simple(system, i))
    assert cx.length(star) >= cx.length(w)
    assert bruhat_leq_oracle(w, star)
    if cx.length(w) == len(word):
        assert star == w


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(1, 6))))
def test_inverse_and_length_symmetry(images):
    system = cx.type_a(4)
    w = cx.element_from_images(system, tuple(images))
    assert cx.length(cx.inverse(w)) == cx.length(w)
    assert cx.multiply(w, cx.inverse(w)) == cx.identity(system)
    reversed_word = tuple(reversed(cx.reduced_word(w)))
    assert cx.element_from_word(system, reversed_word) == cx.inverse(w)


@pytest.mark.parametrize("make", [cx.type_a, cx.type_b], ids=["A", "B"])
def test_equal_elements_hash_equal_across_constructors_and_systems(make):
    one, two = make(3), make(3)
    assert one is two and one == two and hash(one) == hash(two)
    word = (2, 1, 2) + tuple(one.simple_indices)
    by_word = cx.element_from_word(one, word)
    by_images = cx.element_from_images(two, by_word.data)
    by_product = cx.multiply(cx.element_from_word(two, word[:2]), cx.element_from_word(one, word[2:]))
    for w in (by_images, by_product):
        assert w == by_word and hash(w) == hash(by_word)
    assert len({by_word, by_images, by_product}) == 1
    assert cx.multiply(cx.simple(one, 1), cx.simple(two, 1)) == cx.identity(two)


def test_equal_dihedral_elements_hash_equal():
    one, two = cx.dihedral(5), cx.dihedral(5)
    w = cx.element_from_word(one, (2, 1, 2))
    v = cx.multiply(cx.simple(two, 2), cx.element_from_word(two, (1, 2)))
    assert w == v and hash(w) == hash(v)


def test_elements_of_different_systems_with_the_same_data_are_unequal():
    a2, b3 = cx.type_a(2), cx.type_b(3)
    assert cx.identity(a2).data == cx.identity(b3).data
    assert cx.identity(a2) != cx.identity(b3)
    assert len({cx.identity(a2), cx.identity(b3)}) == 2
    i5, i7 = cx.dihedral(5), cx.dihedral(7)
    assert cx.simple(i5, 1).data == cx.simple(i7, 1).data
    assert cx.simple(i5, 1) != cx.simple(i7, 1)
    assert cx.identity(a2) != cx.identity(a2).data


def test_element_is_immutable_and_keeps_its_constructor_and_repr(a3):
    w = cx.simple(a3, 1)
    for name, value in (("data", (1, 2, 3, 4)), ("system", cx.type_a(3)), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(w, name, value)
    with pytest.raises(AttributeError):
        del w.data
    assert w.data == (2, 1, 3, 4) and w.system is a3
    assert repr(w) == "Element(system=CoxeterSystem(cartan='A', rank=3, bond=None), data=(2, 1, 3, 4))"
    assert cx.Element(a3, (2, 1, 3, 4)) == cx.Element(system=a3, data=(2, 1, 3, 4)) == w
    assert copy.deepcopy(w) == w and pickle.loads(pickle.dumps(w)) == w
    # the cosets built on it, too; their systems come back interned
    p = cs.DoubleCoset(a3, frozenset({3}), frozenset({2}), w)
    a = at.atomic_from(a3, {1, 2}, 1)
    system_repr = "CoxeterSystem(cartan='A', rank=3, bond=None)"
    assert repr(p) == (
        f"DoubleCoset(system={system_repr}, left=frozenset({{3}}), right=frozenset({{2}}), min={w!r})"
    )
    assert repr(a) == (
        f"AtomicCoset(system={system_repr}, left=frozenset({{2}}), mid=frozenset({{1, 2}}),"
        " right=frozenset({1}), added=1, removed=2)"
    )
    assert cs.DoubleCoset(system=a3, left=p.left, right=p.right, min=w) == p
    assert hash(p) == hash((a3, p.left, p.right, w))
    for x, name in ((p, "min"), (p, "left"), (a, "mid"), (a, "added"), (p, "other"), (a, "other")):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    for x, name in ((p, "min"), (a, "right")):
        with pytest.raises(AttributeError):
            delattr(x, name)
    for x in (p, a):
        for back in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert back == x and back.system is a3 and back.left == x.left
    # none of the three values carries an instance dict
    for x in (w, p, a):
        assert not hasattr(x, "__dict__"), type(x).__name__


@pytest.mark.parametrize("system", SMALL_SYSTEMS, ids=str)
def test_simple_is_cached_and_still_checks_its_index(system):
    for i in system.simple_indices:
        assert cx.simple(system, i) is cx.simple(system, i)
        assert cx.length(cx.simple(system, i)) == 1
    assert cx.identity(system) is cx.identity(system)
    assert system.index_set == frozenset(system.simple_indices)
    for i in (system.simple_indices.start - 1, system.simple_indices.stop, -1):
        with pytest.raises(ValueError):
            cx.simple(system, i)


def test_simple_matches_the_permutation_oracle(a3):
    for i in a3.simple_indices:
        assert cx.simple(a3, i).data == perm_simple(4, i)


def _all_elements_by_type(system):
    """The element order all_elements keeps: a branch for each type."""
    if system.cartan == "A":
        return list(itertools.permutations(range(1, system.rank + 2)))
    if system.cartan == "B":
        return [
            tuple(s * x for s, x in zip(signs, p))
            for p in itertools.permutations(range(1, system.rank + 1))
            for signs in itertools.product((1, -1), repeat=system.rank)
        ]
    words = [()] + [
        tuple(first if k % 2 == 0 else 3 - first for k in range(ell))
        for ell in range(1, system.bond)
        for first in (1, 2)
    ]
    return words + [tuple(1 if k % 2 == 0 else 2 for k in range(system.bond))]


@pytest.mark.parametrize(
    "system",
    [cx.type_a(r) for r in range(6)] + [cx.type_b(r) for r in range(5)] + [cx.dihedral(m) for m in range(3, 8)],
    ids=str,
)
def test_all_elements_keeps_its_order(system):
    assert [w.data for w in cx.all_elements(system)] == _all_elements_by_type(system)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_type_a_is_the_unsigned_part_of_type_b(rank):
    a, b = cx.type_a(rank), cx.type_b(rank + 1)
    assert a.points == b.points == rank + 1
    for w in cx.all_elements(a):
        v = cx.element_from_images(b, w.data)
        assert cx.inverse(w).data == cx.inverse(v).data
        assert cx.length(w) == cx.length(v)
        assert cx.right_descents(w) == cx.right_descents(v) - {0}
    flipped = (-1,) + tuple(range(2, rank + 2))
    with pytest.raises(ValueError, match=rf"is not a permutation of 1\.\.{rank + 1}$"):
        cx.element_from_images(a, flipped)
    assert cx.element_from_images(b, flipped) == cx.simple(b, 0)
    with pytest.raises(ValueError, match=rf"is not a signed permutation of 1\.\.{rank + 1}$"):
        cx.element_from_images(b, (2,) * (rank + 1))


def _reduced_words_recursive(w, memo):
    """The recursive search that reduced_words replaced, kept as its reference."""
    if w not in memo:
        ld = cx.left_descents(w)
        if not ld:
            memo[w] = ((),)
        else:
            out = []
            for i in sorted(ld):
                rest = _reduced_words_recursive(cx.multiply(cx.simple(w.system, i), w), memo)
                out.extend((i,) + word for word in rest)
            memo[w] = tuple(out)
    return memo[w]


@pytest.mark.parametrize(
    "system", [cx.type_a(r) for r in range(1, 5)] + [cx.type_b(r) for r in range(1, 4)], ids=str
)
def test_reduced_words_match_the_recursive_version(system):
    memo = {}
    for w in cx.all_elements(system):
        assert cx.reduced_words(w) == _reduced_words_recursive(w, memo)


@pytest.mark.parametrize(
    "w, word",
    [
        # s_1 s_2 .. s_n of A_n has one reduced word, n letters long
        (cx.element_from_word(cx.type_a(300), range(1, 301)), tuple(range(1, 301))),
        # an alternating element shorter than the bond has one reduced word
        (cx.element_from_word(cx.dihedral(400), (1, 2) * 100), (1, 2) * 100),
    ],
    ids=["A300", "I2(400)"],
)
def test_reduced_words_needs_no_deep_recursion(w, word):
    with recursion_headroom(100):
        with pytest.raises(RecursionError):
            _reduced_words_recursive(w, {})
        assert cx.reduced_words(w) == (word,)
