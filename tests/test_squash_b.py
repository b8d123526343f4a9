from math import factorial

import pytest

from cosetrex import atomic as at
from cosetrex import cosets as cs
from cosetrex import coxeter as cx
from cosetrex import squash_a as sqa
from cosetrex import squash_b as sq
from conftest import all_subsets, braid_words


def test_glued_runs_b_examples(b2, b3):
    # the window starts at 0; the run through 0 spreads to the central block
    assert sqa.glued_runs(b2, frozenset()) == ((0,), (1,), (2,))
    assert sqa.glued_runs(b2, {0}) == ((0, 1), (2,))
    assert sqa.glued_runs(b2, {1}) == ((0,), (1, 2))
    assert sqa.glued_runs(b2, {0, 1}) == ((0, 1, 2),)
    assert sqa.glued_runs(b3, {0, 2}) == ((0, 1), (2, 3))
    assert sqa.glued_runs(b3, frozenset()) == ((0,), (1,), (2,), (3,))
    with pytest.raises(ValueError):
        sqa.glued_runs(cx.dihedral(4), {1})


def test_block_images_b(b2):
    assert sqa._block_images(cx.identity(b2), frozenset({0}), frozenset({0})) is not None
    w0 = cs.longest_element(b2, frozenset({0, 1}))
    assert sqa._block_images(w0, frozenset(), frozenset()) is not None
    # s0 negates 1, which breaks the J = {1} block {1,2}
    assert sqa._block_images(cx.simple(b2, 0), frozenset({1}), frozenset({1})) is None


def test_squash_examples(b2):
    q = cs.identity_coset(b2, frozenset({0}))
    assert sqa.squash_coset(q) == cx.identity(cx.type_b(1))
    w0 = cs.longest_element(b2, frozenset({0, 1}))
    p = cs.coset_of(b2, frozenset(), w0, frozenset())
    assert sqa.squash_coset(p).data == (-1, -2)
    r = cs.coset_of(b2, {0}, w0, {0})
    assert r.min.data == (1, -2)
    assert cs.is_core(r)
    assert sqa.squash_coset(r).data == (-1,)
    with pytest.raises(ValueError):
        sqa.squash_coset(cs.coset_of(b2, {1}, cx.simple(b2, 0), {1}))


def test_unsquash_examples(b2):
    J = frozenset({0})
    sigma = cx.element_from_images(cx.type_b(1), (-1,))
    I, p = sqa.unsquash(b2, J, sigma)
    assert I == J
    assert p.min.data == (1, -2)
    ident = cx.identity(cx.type_b(1))
    I, q = sqa.unsquash(b2, J, ident)
    assert I == J and q == cs.identity_coset(b2, J)
    with pytest.raises(ValueError):
        sqa.unsquash(b2, J, cx.identity(cx.type_b(2)))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_core_counts_and_roundtrip(rank):
    system = cx.type_b(rank)
    for J in all_subsets(system):
        found = cs.enumerate_core_cosets(system, J)
        k = rank - len(J)
        assert len(found) == 2 ** k * factorial(k)
        small = at.squashed_system(system, J)
        assert small.rank == k
        for I, p in found:
            sigma = sqa.squash_coset(p)
            assert sqa.unsquash(system, J, sigma) == (I, p)
        for sigma in cx.all_elements(small):
            I, p = sqa.unsquash(system, J, sigma)
            assert sqa.squash_coset(p) == sigma


def test_atomic_generator_b_examples(b2, b3):
    a = at.atomic_generator(b2, frozenset({0}), 0)
    assert (sorted(a.left), sorted(a.mid), sorted(a.right)) == ([0], [0, 1], [0])
    b = at.atomic_generator(b2, frozenset(), 0)
    assert at.coset_of_atom(b).min == cx.simple(b2, 0)
    c = at.atomic_generator(b3, frozenset({1, 2}), 0)
    assert c.right == frozenset({1, 2}) and c.mid == frozenset({0, 1, 2})
    with pytest.raises(ValueError):
        at.atomic_generator(b2, frozenset({0}), 1)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_atomic_generator_b_squashes_to_simple(rank):
    system = cx.type_b(rank)
    for J in all_subsets(system):
        small = at.squashed_system(system, J)
        for i in range(small.rank):
            a = at.atomic_generator(system, J, i)
            assert a.right == J
            assert at.atomic_index(a) == i
            assert sqa.squash_coset(at.coset_of_atom(a)) == cx.simple(small, i)


@pytest.mark.parametrize("rank", [2, 3])
def test_lift_word_roundtrip_b(rank):
    system = cx.type_b(rank)
    for J in all_subsets(system):
        small = at.squashed_system(system, J)
        for _, p in cs.enumerate_core_cosets(system, J):
            for rex in at.all_atomic_rexes(p):
                word = at.word_of_rex(rex)
                assert at.lift_word(system, J, word) == rex
                assert cx.element_from_word(small, word) == sqa.squash_coset(p)


def test_braid_class_examples_b(b3):
    assert braid_words(b3, (1, 0, 1, 0)) == {(1, 0, 1, 0), (0, 1, 0, 1)}
    assert braid_words(b3, (0, 1, 0, 1)) == {(1, 0, 1, 0), (0, 1, 0, 1)}
    assert braid_words(b3, (0, 2)) == {(0, 2), (2, 0)}
    assert braid_words(b3, (1, 2, 1)) == {(1, 2, 1), (2, 1, 2)}
    # m_01 = 4, so no move applies to these
    for word in ((1, 0, 1), (0, 1, 0), (1, 0, 1, 1), (0, 1)):
        assert braid_words(b3, word) == {word}


def test_matsumoto_b_examples(b2):
    assert sq.matsumoto_connected_b(cs.identity_coset(b2, frozenset({1})))
    w0 = cs.longest_element(b2, frozenset({0, 1}))
    p = cs.coset_of(b2, frozenset(), w0, frozenset())
    words = {at.word_of_rex(r) for r in at.all_atomic_rexes(p)}
    assert words == {(0, 1, 0, 1), (1, 0, 1, 0)}
    assert braid_words(b2, (1, 0, 1, 0)) == words
    assert sq.matsumoto_connected_b(p)


@pytest.mark.parametrize("rank", [1, 2])
def test_matsumoto_b_exhaustive_small(rank):
    system = cx.type_b(rank)
    for J in all_subsets(system):
        for _, p in cs.enumerate_core_cosets(system, J):
            assert sq.matsumoto_connected_b(p)


@pytest.mark.parametrize("rank", [2, 3])
def test_atomic_rex_bijection_b(rank):
    system = cx.type_b(rank)
    for J in all_subsets(system):
        for _, p in cs.enumerate_core_cosets(system, J):
            words = {at.word_of_rex(rex) for rex in at.all_atomic_rexes(p)}
            assert words == set(cx.reduced_words(sqa.squash_coset(p)))


@pytest.mark.parametrize("rank", [2, 3])
def test_s0_redundancy_symmetry(rank):
    system = cx.type_b(rank)
    for I in all_subsets(system):
        for J in all_subsets(system):
            for p in cs.enumerate_cosets(system, I, J):
                lred = cs.left_redundancy(p)
                rred = cs.right_redundancy(p)
                assert (0 in lred) == (0 in rred)
                if 0 in rred:
                    assert 0 in I and 0 in J
                    assert cx.multiply(p.min, cx.simple(system, 0)) == cx.multiply(
                        cx.simple(system, 0), p.min
                    )


@pytest.mark.parametrize("rank", [2, 3])
def test_squash_b_is_reduced_homomorphism(rank):
    system = cx.type_b(rank)
    by_left, by_right = {}, {}
    for J in all_subsets(system):
        for I, p in cs.enumerate_core_cosets(system, J):
            by_left.setdefault(I, []).append(p)
            by_right.setdefault(J, []).append(p)
    for J, qs in by_left.items():
        for p in by_right.get(J, []):
            for q in qs:
                r = cs.reduced_composite(p, q)
                if r is None:
                    continue
                sp, sq_ = sqa.squash_coset(p), sqa.squash_coset(q)
                assert sqa.squash_coset(r) == cx.multiply(sp, sq_)
                assert cx.length(cx.multiply(sp, sq_)) == cx.length(sp) + cx.length(sq_)
