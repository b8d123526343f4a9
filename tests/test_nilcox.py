from math import factorial

import pytest

from cosetrex import atomic as at
from cosetrex import cosets as cs
from cosetrex import coxeter as cx
from cosetrex import nilcox as nc
from cosetrex import squash_a as sqa
from conftest import all_subsets, reduced_composite_oracle


def exs4_p(a3):
    return cs.coset_of(a3, {1}, cx.element_from_word(a3, (2, 1, 3, 2)), {3})


def test_d_compose_examples(a2, a3):
    d = nc.basis_morphism
    p = exs4_p(a3)
    assert nc.ad_compose(d(p), d(cs.identity_coset(a3, p.right))) == d(p)
    # the opposed rank-2 atoms compose to zero
    a = at.coset_of_atom(at.atomic_from(a2, {1, 2}, 2))
    b = at.coset_of_atom(at.atomic_from(a2, {1, 2}, 1))
    z = nc.ad_compose(d(a), d(b))
    assert z.coeffs == {}
    assert z.source == frozenset({1}) and z.target == frozenset({1})
    # the two chained worked-example atoms compose to the worked-example symbol
    first = at.coset_of_atom(at.atomic_from(a3, {1, 2}, 2))
    second = at.coset_of_atom(at.atomic_from(a3, {2, 3}, 3))
    assert nc.ad_compose(d(first), d(second)) == d(p)
    with pytest.raises(ValueError):
        nc.ad_compose(d(first), d(first))


@pytest.mark.parametrize("system", [cx.type_a(2), cx.type_b(2), cx.dihedral(5)], ids=str)
def test_ad_compose_follows_the_basis_rule(system):
    # d_p . d_q = d_{p*q} when p * q is reduced and 0 otherwise, on every composable pair
    frames = all_subsets(system)
    for I in frames:
        for J in frames:
            for K in frames:
                for p in cs.enumerate_cosets(system, I, J):
                    for q in cs.enumerate_cosets(system, J, K):
                        f = nc.ad_compose(nc.basis_morphism(p), nc.basis_morphism(q))
                        assert (f.source, f.target) == (K, I)
                        r = reduced_composite_oracle(p, q)
                        assert f.coeffs == ({} if r is None else {r: 1})


def test_ad_compose_bilinear(a3):
    p = exs4_p(a3)
    f = nc.basis_morphism(p)
    assert nc.ad_compose(f, nc.identity_morphism(a3, p.right)) == f
    assert nc.ad_compose(nc.identity_morphism(a3, p.left), f) == f
    first = nc.basis_morphism(at.coset_of_atom(at.atomic_from(a3, {1, 2}, 2)))
    second = nc.basis_morphism(at.coset_of_atom(at.atomic_from(a3, {2, 3}, 3)))
    (a,) = first.coeffs
    doubled = nc.ad_compose(nc.ADMorphism(a3, first.source, first.target, {a: 2}), second)
    single = nc.ad_compose(first, second)
    assert single.coeffs
    assert doubled == nc.ADMorphism(a3, single.source, single.target, {r: 2 * c for r, c in single.coeffs.items()})


def test_ad_compose_associative_on_generators(a3):
    # every composable generator triple, checked both ways
    for J in all_subsets(a3):
        k = at.squashed_system(a3, J).points
        for i1 in range(1, k):
            g1 = nc.generator(a3, J, i1)
            for i2 in range(1, k):
                g2 = nc.generator(a3, g1.target, i2)
                for i3 in range(1, k):
                    g3 = nc.generator(a3, g2.target, i3)
                    lhs = nc.ad_compose(nc.ad_compose(g3, g2), g1)
                    rhs = nc.ad_compose(g3, nc.ad_compose(g2, g1))
                    assert lhs == rhs


def test_generator_examples(a3, b2):
    g = nc.generator(a3, frozenset({3}), 2)
    (coset,) = g.coeffs
    assert coset == at.coset_of_atom(at.atomic_generator(a3, frozenset({3}), 2))
    assert g.source == frozenset({3}) and g.target == frozenset({2})
    gb = nc.generator(b2, frozenset({0}), 0)
    (coset_b,) = gb.coeffs
    assert coset_b.left == frozenset({0}) and coset_b.right == frozenset({0})
    with pytest.raises(ValueError):
        nc.generator(cx.dihedral(5), frozenset(), 1)


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2)], ids=str)
def test_generator_squares_to_zero(system):
    for J in all_subsets(system):
        k = at.squashed_system(system, J).points
        indices = range(1, k) if system.cartan == "A" else range(k)
        for i in indices:
            assert nc.psi(system, J, (i, i)).coeffs == {}


def test_psi_examples(a3):
    J = frozenset({3})
    assert nc.psi(a3, J, ()) == nc.identity_morphism(a3, J)
    assert nc.psi(a3, J, (1, 2)) == nc.basis_morphism(exs4_p(a3))
    assert nc.psi(a3, frozenset(), (1, 1, 2)).coeffs == {}


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2)], ids=str)
def test_psi_nonzero_iff_reduced(system):
    from itertools import product

    for J in all_subsets(system):
        small = at.squashed_system(system, J)
        indices = list(small.simple_indices)
        if not indices:
            continue
        for n_letters in range(4):
            for word in product(indices, repeat=n_letters):
                f = nc.psi(system, J, word)
                sigma = cx.element_from_word(small, word)
                reduced = cx.length(sigma) == len(word)
                assert bool(f.coeffs) == reduced
                if reduced:
                    _, p = sqa.unsquash(system, J, sigma)
                    assert f == nc.basis_morphism(p)


@pytest.mark.parametrize(
    "system", [cx.type_a(2), cx.type_a(3), cx.type_b(2), cx.type_b(3)], ids=str
)
def test_verify_relations_small(system):
    report = nc.verify_relations(system)
    assert report.ok
    assert report.checked > 0


@pytest.mark.parametrize(
    "system", [cx.type_a(r) for r in (2, 3, 4)] + [cx.type_b(r) for r in (2, 3)], ids=str
)
def test_generator_words_hit_the_basis_bijectively(system):
    # folding one reduced word per squashed element yields each basis
    # symbol exactly once
    for J in all_subsets(system):
        k = at.squashed_system(system, J).points
        small = cx.type_a(k - 1) if system.cartan == "A" else cx.type_b(k)
        images = set()
        for sigma in cx.all_elements(small):
            f = nc.psi(system, J, cx.reduced_word(sigma))
            (p,) = f.coeffs
            assert f.coeffs[p] == 1
            images.add(p)
        basis = [p for _, p in cs.enumerate_core_cosets(system, J)]
        assert len(images) == len(list(cx.all_elements(small)))
        assert images == set(basis)


def test_ad_basis_examples(a2, a3):
    assert len(cs.enumerate_core_cosets(a3, frozenset({1, 3}))) == 2
    assert len(cs.enumerate_core_cosets(a2, frozenset({2}))) == 2
    assert len(cs.enumerate_core_cosets(a3, frozenset({1}))) == factorial(3)
    assert len(cs.enumerate_core_cosets(cx.type_a(4), frozenset({1}))) == factorial(4)


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2)], ids=str)
def test_reachable_equals_core_basis(system):
    for J in all_subsets(system):
        reached = nc.reachable_cosets(system, J)
        assert reached == {p for _, p in cs.enumerate_core_cosets(system, J)}
        for p in reached:
            assert cs.is_core(p)
            # frames of a reachable symbol are conjugate via the minimum
            assert frozenset(
                cx.as_simple(cx.conjugate(p.min, j)) for j in p.right
            ) == p.left


def test_s4_noncore_coset_unreachable(a3):
    q = cs.coset_of(a3, {1, 3}, cx.simple(a3, 2), {1, 3})
    assert not cs.is_core(q)
    for J in all_subsets(a3):
        assert q not in nc.reachable_cosets(a3, J)


def test_running_example_strand_labels():
    system = cx.type_a(10)
    left = frozenset({2, 3, 6, 10})
    right = frozenset({3, 4, 6, 9})
    # the strand labels are the run lengths of the window glued along a frame
    assert tuple(map(len, sqa.glued_runs(system, right))) == (1, 1, 3, 2, 1, 2, 1)
    assert tuple(map(len, sqa.glued_runs(system, left))) == (1, 3, 1, 2, 1, 1, 2)
    f = nc.psi(system, right, (5, 6, 4, 5, 3, 4, 2))
    (p,) = f.coeffs
    assert p.left == left and p.right == right
