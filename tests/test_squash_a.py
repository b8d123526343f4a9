from math import factorial

import pytest

from cosetrex import atomic as at
from cosetrex import cosets as cs
from cosetrex import coxeter as cx
from cosetrex import expressions as ex
from cosetrex import squash_a as sq
from conftest import all_subsets, braid_words, compose_atomics_oracle


def exs4_p(a3):
    return cs.coset_of(a3, {1}, cx.element_from_word(a3, (2, 1, 3, 2)), {3})


def test_glued_runs_examples(a3):
    a6 = cx.type_a(6)
    assert sq.glued_runs(a6, {2, 3, 6}) == ((1,), (2, 3, 4), (5,), (6, 7))
    assert sq.glued_runs(a6, frozenset()) == tuple((x,) for x in range(1, 8))
    assert sq.glued_runs(a6, set(range(1, 7))) == (tuple(range(1, 8)),)
    assert sq.glued_runs(a3, {1}) == ((1, 2), (3,), (4,))
    assert sq.glued_runs(a3, {1, 3}) == ((1, 2), (3, 4))
    with pytest.raises(ValueError):
        sq.glued_runs(cx.dihedral(5), {1})


@pytest.mark.parametrize("system", [cx.type_a(1), cx.type_a(4), cx.type_b(3)], ids=str)
def test_glued_runs_partition_the_window(system):
    start = system.simple_indices.start
    window = tuple(range(start, system.points + 1))
    for J in all_subsets(system):
        runs = sq.glued_runs(system, J)
        assert sum(runs, ()) == window
        assert len(runs) == len(window) - len(J)
        # x - 1 and x share a run exactly when x - 1 is in J
        for run in runs:
            assert all(x - 1 in J for x in run[1:])
        assert all(run[0] - 1 not in J for run in runs[1:])


def test_block_images(a3):
    assert sq._block_images(cx.identity(a3), frozenset({1, 3}), frozenset({1, 3})) is not None
    y = cx.element_from_images(a3, (3, 4, 1, 2))
    assert sq._block_images(y, frozenset({1}), frozenset({3})) is not None
    swap = cx.element_from_images(a3, (2, 1, 3, 4))
    assert sq._block_images(swap, frozenset({1}), frozenset({3})) is None


def test_squash_examples(a3):
    q = cs.identity_coset(a3, frozenset({2}))
    assert sq.squash_coset(q) == cx.identity(cx.type_a(2))
    p = exs4_p(a3)
    assert sq.squash_coset(p).data == (2, 3, 1)
    with pytest.raises(ValueError):
        sq.squash_coset(cs.coset_of(a3, {1, 3}, cx.simple(a3, 2), {1, 3}))


def test_unsquash_examples(a3):
    J = frozenset({3})
    sigma = cx.element_from_images(cx.type_a(2), (2, 3, 1))
    I, p = sq.unsquash(a3, J, sigma)
    assert I == frozenset({1})
    assert p.min.data == (3, 4, 1, 2)
    ident = cx.identity(cx.type_a(2))
    I, q = sq.unsquash(a3, J, ident)
    assert I == J and q == cs.identity_coset(a3, J)
    with pytest.raises(ValueError):
        sq.unsquash(a3, J, cx.identity(cx.type_a(1)))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_squash_bijection_small(rank):
    system = cx.type_a(rank)
    for J in all_subsets(system):
        found = cs.enumerate_core_cosets(system, J)
        small = at.squashed_system(system, J)
        assert len(found) == factorial(small.rank + 1)
        for I, p in found:
            sigma = sq.squash_coset(p)
            assert sq.unsquash(system, J, sigma) == (I, p)
        for sigma in cx.all_elements(small):
            I, p = sq.unsquash(system, J, sigma)
            assert sq.squash_coset(p) == sigma


def test_atomic_generator_examples(a3):
    a = at.atomic_generator(a3, frozenset({3}), 2)
    assert (sorted(a.left), sorted(a.mid), sorted(a.right)) == ([2], [2, 3], [3])
    b = at.atomic_generator(a3, frozenset({2}), 1)
    assert (sorted(b.left), sorted(b.mid), sorted(b.right)) == ([1], [1, 2], [2])
    with pytest.raises(ValueError):
        at.atomic_generator(a3, frozenset({3}), 3)
    with pytest.raises(ValueError):
        at.atomic_generator(a3, frozenset({3}), 0)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_atomic_generator_squashes_to_simple(rank):
    system = cx.type_a(rank)
    for J in all_subsets(system):
        small = at.squashed_system(system, J)
        k = small.rank + 1
        for i in range(1, k):
            a = at.atomic_generator(system, J, i)
            assert a.right == J
            assert at.atomic_index(a) == i
            assert sq.squash_coset(at.coset_of_atom(a)) == cx.simple(small, i)


def test_lift_word_examples(a3):
    assert at.lift_word(a3, frozenset({3}), ()) == ()
    atoms = at.lift_word(a3, frozenset({3}), (1, 2))
    assert at.atomic_rex_of_core(exs4_p(a3)) == atoms
    assert at.word_of_rex(atoms) == (1, 2)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_lift_word_roundtrip(rank):
    system = cx.type_a(rank)
    for J in all_subsets(system):
        small = at.squashed_system(system, J)
        for _, p in cs.enumerate_core_cosets(system, J):
            for rex in at.all_atomic_rexes(p):
                word = at.word_of_rex(rex)
                assert at.lift_word(system, J, word) == rex
                assert cx.element_from_word(small, word) == sq.squash_coset(p)


@pytest.mark.parametrize("rank", [2, 3])
def test_squash_is_reduced_homomorphism(rank):
    system = cx.type_a(rank)
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
                sp, sq_ = sq.squash_coset(p), sq.squash_coset(q)
                assert sq.squash_coset(r) == cx.multiply(sp, sq_)
                assert cx.length(cx.multiply(sp, sq_)) == cx.length(sp) + cx.length(sq_)


def test_braid_class_examples():
    a4 = cx.type_a(4)
    assert braid_words(a4, (1, 2, 1)) == {(1, 2, 1), (2, 1, 2)}
    assert braid_words(a4, (2, 1, 2)) == {(1, 2, 1), (2, 1, 2)}
    assert braid_words(a4, (1, 3)) == {(1, 3), (3, 1)}
    assert (4, 2, 1, 2) in braid_words(a4, (4, 1, 2, 1))
    # no move applies: m = 3 needs three letters, and equal letters have none
    assert braid_words(a4, (1, 2)) == {(1, 2)}
    assert braid_words(a4, (1, 2, 2)) == {(1, 2, 2)}


def test_braid_moves_preserve_coset(a3):
    J = frozenset()
    word = (1, 2, 1, 3)
    base, _ = compose_atomics_oracle(a3, at.lift_word(a3, J, word), J)
    small = at.squashed_system(a3, J)
    moved = braid_words(small, word)
    assert {(2, 1, 2, 3), (1, 2, 3, 1)} <= moved  # the moves at positions 0 and 2
    for w in moved:
        got, reduced = compose_atomics_oracle(a3, at.lift_word(a3, J, w), J)
        assert reduced and got == base


def test_matsumoto_examples(a2):
    assert at.matsumoto_connected(cs.identity_coset(a2, frozenset({1})))
    w0 = cs.longest_element(a2, frozenset({1, 2}))
    p = cs.coset_of(a2, frozenset(), w0, frozenset())
    assert braid_words(a2, (1, 2, 1)) == {(1, 2, 1), (2, 1, 2)}
    assert at.matsumoto_connected(p)


@pytest.mark.parametrize("rank", [2, 3])
def test_matsumoto_exhaustive_small(rank):
    system = cx.type_a(rank)
    for J in all_subsets(system):
        for _, p in cs.enumerate_core_cosets(system, J):
            assert at.matsumoto_connected(p)


@pytest.mark.parametrize("rank", [2, 3])
def test_braid3_chain_middle_expression(rank):
    # the two orders of adjacent atoms express the same coset, which is the
    # two-column expression through the doubled-up middle frame
    system = cx.type_a(rank)
    for J0 in all_subsets(system):
        k = at.squashed_system(system, J0).rank + 1
        for i in range(1, k - 1):
            lhs = at.lift_word(system, J0, (i, i + 1, i))
            rhs = at.lift_word(system, J0, (i + 1, i, i + 1))
            pl, rl = compose_atomics_oracle(system, lhs)
            pr, rr = compose_atomics_oracle(system, rhs)
            assert rl and rr and pl == pr
            a, c = lhs[0].added, lhs[1].added
            middle = ex.MultistepExpression(
                system, (lhs[0].left, lhs[0].left | {a, c}, lhs[-1].right)
            )
            assert ex.is_reduced(middle)
            assert ex.evaluate(middle) == pl
            a2_, c2_ = rhs[0].added, rhs[1].added
            assert rhs[0].left | {a2_, c2_} == lhs[0].left | {a, c}


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_aa_is_never_reduced(rank):
    # a_i with right frame J, preceded by a_i with right frame the left frame
    # of the first: never reduced, lands on [J, Js, J]
    system = cx.type_a(rank)
    for J in all_subsets(system):
        k = at.squashed_system(system, J).rank + 1
        for i in range(1, k):
            aJ = at.atomic_generator(system, J, i)
            aI = at.atomic_generator(system, aJ.left, i)
            assert aI.right == aJ.left
            pI, pJ = at.coset_of_atom(aI), at.coset_of_atom(aJ)
            assert cs.reduced_composite(pI, pJ) is None
            expected = cs.coset_of(system, J, cs.longest_element(system, aJ.mid), J)
            assert cs.star_compose(pI, pJ) == expected


@pytest.mark.parametrize("rank", [2, 3])
def test_redundancy_by_consecutive_values(rank):
    # right redundancy = positions sent to consecutive values landing in I
    system = cx.type_a(rank)
    for I in all_subsets(system):
        for J in all_subsets(system):
            for p in cs.enumerate_cosets(system, I, J):
                rred = cs.right_redundancy(p)
                for j in J:
                    stated = (
                        cx.act(p.min, j + 1) == cx.act(p.min, j) + 1
                        and cx.act(p.min, j) in I
                    )
                    assert stated == (j in rred)
                if cs.is_core(p):
                    for j in J:
                        assert (cx.act(p.min, j + 1) == cx.act(p.min, j) + 1) == (
                            j in rred
                        )
                assert frozenset(cx.act(p.min, j) for j in rred) == cs.left_redundancy(p)
