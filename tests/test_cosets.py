import re

import pytest

from cosetrex import coxeter as cx
from cosetrex import cosets as cs
from conftest import all_subsets, enumerate_core_cosets_oracle, enumerate_cosets_oracle


def exs4_p(a3):
    """The length-4 core coset of S4 from the worked example."""
    w = cx.element_from_word(a3, (2, 1, 3, 2))
    return cs.coset_of(a3, {1}, w, {3})


def test_longest_element_examples(a2, a3):
    assert cs.longest_element(a3, frozenset()) == cx.identity(a3)
    assert cs.parabolic_length(a3, frozenset()) == 0
    assert cs.longest_element(a2, frozenset({1, 2})).data == (3, 2, 1)
    assert cs.parabolic_length(a2, frozenset({1, 2})) == 3
    w13 = cs.longest_element(a3, frozenset({1, 3}))
    assert w13 == cx.multiply(cx.simple(a3, 1), cx.simple(a3, 3))
    assert cs.parabolic_length(a3, frozenset({1, 3})) == 2
    with pytest.raises(ValueError):
        cs.longest_element(a3, frozenset({7}))


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2), cx.dihedral(5)], ids=str)
def test_longest_element_is_maximal(system):
    for I in all_subsets(system):
        w = cs.longest_element(system, I)
        # an element lies in W_I iff its reduced word is supported on I
        members = [v for v in cx.all_elements(system) if set(cx.reduced_word(v)) <= I]
        assert max(cx.length(v) for v in members) == cx.length(w)
        assert w in members


def test_coset_of_examples(a2, a3):
    p = cs.coset_of(a2, {1}, cx.element_from_word(a2, (1, 2)), {2})
    assert p.min == cx.identity(a2)
    for I in all_subsets(a3):
        assert cs.coset_of(a3, I, cx.identity(a3), I).min == cx.identity(a3)
    p = exs4_p(a3)
    assert p.min.data == (3, 4, 1, 2)
    # canonicalization is idempotent
    assert cs.coset_of(a3, p.left, p.min, p.right) == p


def test_max_elem_examples(a3):
    for I in all_subsets(a3):
        assert cs.max_elem(cs.identity_coset(a3, I)) == cs.longest_element(a3, I)
    p = exs4_p(a3)
    assert cs.max_elem(p).data == (3, 4, 2, 1)
    assert cs.max_elem(p) == cx.element_from_word(a3, (1, 2, 1, 3, 2))
    assert cx.length(cs.max_elem(p)) == 5
    w = cx.element_from_images(a3, (2, 3, 4, 1))
    assert cs.max_elem(cs.coset_of(a3, frozenset(), w, frozenset())) == w


def test_redundancy_examples(a2, a3):
    q = cs.identity_coset(a3, frozenset({1, 3}))
    assert cs.left_redundancy(q) == frozenset({1, 3})
    assert cs.right_redundancy(q) == frozenset({1, 3})
    p = exs4_p(a3)
    assert cs.left_redundancy(p) == frozenset({1})
    assert cs.right_redundancy(p) == frozenset({3})
    r = cs.coset_of(a2, {1}, cx.simple(a2, 2), {1})
    assert cs.left_redundancy(r) == frozenset()
    assert cs.right_redundancy(r) == frozenset()


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2), cx.dihedral(5)], ids=str)
def test_redundancy_conjugation_bijection(system):
    # conjugation by the minimal element carries the right redundancy onto the left
    for I in all_subsets(system):
        for J in all_subsets(system):
            for p in cs.enumerate_cosets(system, I, J):
                image = frozenset(
                    cx.as_simple(cx.conjugate(p.min, j)) for j in cs.right_redundancy(p)
                )
                assert image == cs.left_redundancy(p)


def test_is_core_examples(a2, a3):
    assert cs.is_core(cs.identity_coset(a3, frozenset({1, 2})))
    w0 = cs.longest_element(a2, frozenset({1, 2}))
    assert cs.is_core(cs.coset_of(a2, {1}, w0, {2}))
    assert not cs.is_core(cs.coset_of(a2, {1}, cx.simple(a2, 2), {1}))


def test_core_examples(a2, a3):
    q = cs.identity_coset(a3, frozenset({2}))
    assert cs.core(q) == q
    r = cs.coset_of(a2, {1}, cx.simple(a2, 2), {1})
    c = cs.core(r)
    assert c.left == frozenset() and c.right == frozenset()
    assert c.min == cx.simple(a2, 2)
    assert cs.is_core(c)


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2)], ids=str)
def test_core_idempotent_exhaustive(system):
    for I in all_subsets(system):
        for J in all_subsets(system):
            for p in cs.enumerate_cosets(system, I, J):
                c = cs.core(p)
                assert cs.is_core(c)
                assert cs.core(c) == c
                assert c.min == p.min
                if cs.is_core(p):
                    assert c == p


def test_star_compose_examples(a2, a3):
    p = exs4_p(a3)
    assert cs.star_compose(p, cs.identity_coset(a3, p.right)) == p
    # the pair of opposed atomic cosets of S3 composes onto the coset of s2
    a = cs.coset_of(a2, {1}, cs.longest_element(a2, frozenset({1, 2})), {2})
    b = cs.coset_of(a2, {2}, cs.longest_element(a2, frozenset({1, 2})), {1})
    prod = cs.star_compose(a, b)
    assert prod.left == frozenset({1}) and prod.right == frozenset({1})
    assert prod.min == cx.simple(a2, 2)
    assert cs.max_elem(prod) == cs.longest_element(a2, frozenset({1, 2}))
    assert not cs.is_reduced_composition(a, b)
    with pytest.raises(ValueError):
        cs.star_compose(a, a)


def test_is_reduced_composition_examples(a2, a3):
    p = exs4_p(a3)
    assert cs.is_reduced_composition(p, cs.identity_coset(a3, p.right))
    with pytest.raises(ValueError):
        cs.is_reduced_composition(p, p)


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2)], ids=str)
def test_reduced_composition_of_cores_via_minima(system):
    # for core cosets, reducedness is detected on the minimal elements
    for J in all_subsets(system):
        left_here = cs.enumerate_core_cosets(system, J)
        for K in all_subsets(system):
            for _, q in cs.enumerate_core_cosets(system, K):
                if q.left != J:
                    continue
                for _, p in left_here:
                    lhs = cs.is_reduced_composition(p, q)
                    rhs = cx.length(cx.multiply(p.min, q.min)) == cx.length(
                        p.min
                    ) + cx.length(q.min)
                    assert lhs == rhs
                    if lhs:
                        r = cs.star_compose(p, q)
                        assert r.min == cx.multiply(p.min, q.min)
                        assert cs.is_core(r)


def test_invert_examples(a3):
    q = cs.identity_coset(a3, frozenset({2}))
    assert cs.invert(q) == q
    p = exs4_p(a3)
    ip = cs.invert(p)
    assert ip.left == frozenset({3}) and ip.right == frozenset({1})
    assert ip.min.data == (3, 4, 1, 2)  # this minimum is an involution
    assert cs.is_core(ip)
    for I in all_subsets(a3):
        for J in all_subsets(a3):
            for r in cs.enumerate_cosets(a3, I, J):
                assert cs.invert(cs.invert(r)) == r
                assert cs.is_core(cs.invert(r)) == cs.is_core(r)


def test_enumerate_examples(a2, a3):
    assert len(cs.enumerate_cosets(a2, {1}, {1})) == 2
    found = cs.enumerate_cosets(a3, {1, 3}, {1, 3})
    assert len(found) == 3
    assert sum(1 for p in found if cs.is_core(p)) == 2
    mins = {p.min.data for p in found}
    assert mins == {(1, 2, 3, 4), (1, 3, 2, 4), (3, 4, 1, 2)}
    assert len(cs.enumerate_core_cosets(a2, frozenset({2}))) == 2
    with pytest.raises(ValueError):
        cs.enumerate_cosets(cx.type_a(7), frozenset(), frozenset())
    with pytest.raises(ValueError):
        cs.enumerate_core_cosets(a3, frozenset({1}), budget=10)


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2), cx.dihedral(6)], ids=str)
def test_enumerate_core_matches_naive_filter(system):
    for J in all_subsets(system):
        fast = cs.enumerate_core_cosets(system, J)
        naive = []
        for I in all_subsets(system):
            for p in cs.enumerate_cosets(system, I, J):
                if cs.is_core(p):
                    naive.append((I, p))
        assert sorted(fast, key=repr) == sorted(naive, key=repr)


@pytest.mark.parametrize(
    "system",
    [cx.type_a(r) for r in range(5)] + [cx.type_b(r) for r in range(4)] + [cx.dihedral(m) for m in range(3, 8)],
    ids=str,
)
def test_enumerators_match_their_oracles(system):
    # equal as lists: the same cosets in the same order
    frames = all_subsets(system)
    for J in frames:
        assert cs.enumerate_core_cosets(system, J) == enumerate_core_cosets_oracle(system, J)
        for I in frames:
            assert cs.enumerate_cosets(system, I, J) == enumerate_cosets_oracle(system, I, J)


def test_enumerators_keep_the_budget(a3):
    assert len(cs.enumerate_core_cosets(a3, frozenset(), budget=24)) == 24
    assert len(cs.enumerate_cosets(a3, frozenset(), frozenset(), budget=None)) == 24
    with pytest.raises(ValueError, match="group order 24 exceeds budget 23"):
        cs.enumerate_cosets(a3, frozenset(), frozenset(), budget=23)


@pytest.mark.parametrize(
    "system",
    [cx.type_a(r) for r in range(6)] + [cx.type_b(r) for r in range(5)] + [cx.dihedral(m) for m in range(3, 8)],
    ids=str,
)
def test_check_budget_refuses_exactly_the_larger_groups(system):
    order = cx.group_order(system)
    for budget in range(-1, order + 2):
        if budget >= order:
            cs.check_budget(system, budget)
            continue
        with pytest.raises(ValueError) as refused:
            cs.check_budget(system, budget)
        if budget < 1:  # no group fits, so the budget itself is refused
            assert str(refused.value) == f"budget must be at least 1, got {budget}"
            continue
        stated = re.fullmatch(rf"group order (more than )?(\d+) exceeds budget {budget}", str(refused.value))
        assert stated, refused.value
        # a partial product stands below the order, a full one is the order
        assert budget < int(stated[2]) and (int(stated[2]) < order if stated[1] else int(stated[2]) == order)


def test_check_budget_refuses_a_huge_group_at_once():
    with pytest.raises(ValueError, match="^group order more than 40320 exceeds budget 10000$"):
        cs.check_budget(cx.type_a(100000), 10000)


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2)], ids=str)
def test_same_size_redundancy_forces_core(system):
    for I in all_subsets(system):
        for J in all_subsets(system):
            if len(I) != len(J):
                continue
            for p in cs.enumerate_cosets(system, I, J):
                if cs.left_redundancy(p) == p.left or cs.right_redundancy(p) == p.right:
                    assert cs.is_core(p)


def test_split_core_exhaustive(a3):
    # reduced factorizations of a core coset through an equal-size frame
    # have core factors
    subsets = all_subsets(a3)
    for K in subsets:
        for (I, r) in cs.enumerate_core_cosets(a3, K):
            for J in subsets:
                if len(J) != len(I):
                    continue
                for p in cs.enumerate_cosets(a3, I, J):
                    for q in cs.enumerate_cosets(a3, J, K):
                        if not cs.is_reduced_composition(p, q):
                            continue
                        if cs.star_compose(p, q) != r:
                            continue
                        assert cs.is_core(p)
                        assert cs.is_core(q)


def test_subset_text_forms():
    assert cs.format_subset(frozenset({3, 1, 4})) == "{1,3,4}"
    assert cs.format_subset(frozenset()) == "{}"
    assert cs.parse_subset("{1,3,4}") == frozenset({1, 3, 4})
    assert cs.parse_subset("{}") == frozenset()
    assert cs.parse_subset(" { 2 , 5 } ") == frozenset({2, 5})
    with pytest.raises(ValueError):
        cs.parse_subset("1,3")


def test_coset_json_roundtrip(a3, b2):
    p = exs4_p(a3)
    doc = cs.coset_to_json(p)
    assert doc == {
        "cartan": "A",
        "rank": 3,
        "left": [1],
        "right": [3],
        "min": [3, 4, 1, 2],
    }
    assert cs.coset_from_json(doc) == p
    q = cs.coset_of(b2, {0}, cs.longest_element(b2, frozenset({0, 1})), {0})
    assert cs.coset_from_json(cs.coset_to_json(q)) == q
    i2 = cx.dihedral(5)
    r = cs.coset_of(i2, {1}, cx.element_from_word(i2, (2, 1)), {2})
    doc = cs.coset_to_json(r)
    assert doc["bond"] == 5
    assert cs.coset_from_json(doc) == r


@pytest.mark.parametrize("system", [cx.type_a(4), cx.type_b(3), cx.dihedral(5)], ids=str)
def test_all_frames_matches_oracle(system):
    frames = cs.all_frames(system)
    assert frames == sorted(all_subsets(system), key=lambda J: (len(J), sorted(J)))
    assert len(set(frames)) == 2 ** system.rank


def test_coset_from_json_rejects_malformed_documents():
    good = {"cartan": "A", "rank": 3, "left": [1], "right": [3], "min": [3, 4, 1, 2]}
    for doc in (
        {},
        [],
        {key: value for key, value in good.items() if key != "min"},
        dict(good, rank="3"),
        dict(good, left=[1.5]),
        dict(good, min=None),
        dict(good, bond="5"),
    ):
        with pytest.raises(ValueError):
            cs.coset_from_json(doc)
