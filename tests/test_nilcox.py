from math import comb, factorial

import pytest

from cosetrex import atomic as at
from cosetrex import cosets as cs
from cosetrex import coxeter as cx
from cosetrex import nilcox as nc
from cosetrex import squash_a as sqa
from cosetrex.cli import main
from conftest import all_subsets, as_simple, conjugate, reduced_composite_oracle


def exs4_p(a3):
    return cs.coset_of(a3, {1}, cx.element_from_word(a3, (2, 1, 3, 2)), {3})


def test_d_compose_examples(a2, a3):
    p = exs4_p(a3)
    assert cs.reduced_composite(p, cs.identity_coset(a3, p.right)) == p
    # the opposed rank-2 atoms compose to zero
    a = at.coset_of_atom(at.atomic_from(a2, {1, 2}, 2))
    b = at.coset_of_atom(at.atomic_from(a2, {1, 2}, 1))
    assert cs.reduced_composite(a, b) is None
    # the two chained worked-example atoms compose to the worked-example symbol
    first = at.coset_of_atom(at.atomic_from(a3, {1, 2}, 2))
    second = at.coset_of_atom(at.atomic_from(a3, {2, 3}, 3))
    assert cs.reduced_composite(first, second) == p
    with pytest.raises(ValueError):
        cs.reduced_composite(first, first)


@pytest.mark.parametrize(
    "system",
    [cx.type_a(r) for r in (1, 2, 3)] + [cx.type_b(r) for r in (1, 2)] + [cx.dihedral(m) for m in (3, 5)],
    ids=str,
)
def test_reduced_composite_follows_the_basis_rule(system):
    # d_p . d_q = d_{p*q} when p * q is reduced and 0 otherwise, on every composable pair
    frames = all_subsets(system)
    found = {(I, J): cs.enumerate_cosets(system, I, J) for I in frames for J in frames}
    for (I, J), ps in found.items():
        for K in frames:
            for p in ps:
                for q in found[J, K]:
                    r = cs.reduced_composite(p, q)
                    assert r == reduced_composite_oracle(p, q), (p, q)
                    assert r is None or (r.left, r.right) == (I, K)


def test_identity_symbols_are_units(a3):
    p = exs4_p(a3)
    assert cs.reduced_composite(p, cs.identity_coset(a3, p.right)) == p
    assert cs.reduced_composite(cs.identity_coset(a3, p.left), p) == p


def test_reduced_composite_associative_on_generators(a3):
    # every composable generator triple, checked both ways; 0 absorbs
    def compose(f, g):
        return None if f is None or g is None else cs.reduced_composite(f, g)

    for J in all_subsets(a3):
        k = at.squashed_system(a3, J).points
        for i1 in range(1, k):
            g1 = nc.generator(a3, J, i1)
            for i2 in range(1, k):
                g2 = nc.generator(a3, g1.left, i2)
                for i3 in range(1, k):
                    g3 = nc.generator(a3, g2.left, i3)
                    assert compose(compose(g3, g2), g1) == compose(g3, compose(g2, g1))


def test_generator_examples(a3, b2):
    g = nc.generator(a3, frozenset({3}), 2)
    assert g == at.coset_of_atom(at.atomic_generator(a3, frozenset({3}), 2))
    assert g.right == frozenset({3}) and g.left == frozenset({2})
    gb = nc.generator(b2, frozenset({0}), 0)
    assert gb.left == frozenset({0}) and gb.right == frozenset({0})
    with pytest.raises(ValueError):
        nc.generator(cx.dihedral(5), frozenset(), 1)


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2)], ids=str)
def test_generator_squares_to_zero(system):
    for J in all_subsets(system):
        k = at.squashed_system(system, J).points
        indices = range(1, k) if system.cartan == "A" else range(k)
        for i in indices:
            assert nc.psi(system, J, (i, i)) is None


def test_psi_examples(a3):
    J = frozenset({3})
    assert nc.psi(a3, J, ()) == cs.identity_coset(a3, J)
    assert nc.psi(a3, J, (1, 2)) == exs4_p(a3)
    assert nc.psi(a3, frozenset(), (1, 1, 2)) is None
    # a bad letter is refused wherever it stands, also after the fold reaches 0
    for word in ((5, 1, 1), (1, 1, 5), (5,)):
        with pytest.raises(ValueError, match=r"^generator index 5 out of range 1\.\.3$"):
            nc.psi(a3, frozenset(), word)


def test_psi_refuses_a_word_on_i2():
    i2 = cx.dihedral(5)
    with pytest.raises(ValueError):
        nc.psi(i2, frozenset(), (1,))
    assert nc.psi(i2, frozenset(), ()) == cs.identity_coset(i2, frozenset())


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
                assert (f is not None) == reduced
                if reduced:
                    _, p = sqa.unsquash(system, J, sigma)
                    assert f == p


# relation instances per rank n: at each object J, k = n - |J| nil relations
# and one braid relation per pair of the k squashed generators
_RELATIONS = {"A": (1, 5, 18, 56), "B": (1, 5, 18)}


@pytest.mark.parametrize(
    "system", [cx.type_a(2), cx.type_a(3), cx.type_a(4), cx.type_b(2), cx.type_b(3)], ids=str
)
def test_verify_relations_small(capsys, system):
    argv = ["verify", "nilcox-relations", "--type", system.cartan, "--max-rank", str(system.rank)]
    assert main(argv) == 0
    *cells, last = capsys.readouterr().out.splitlines()
    ranks = range(1, system.rank + 1)
    counts = [sum(comb(n, s) * (n - s) * (n - s + 1) // 2 for s in range(n + 1)) for n in ranks]
    assert counts == list(_RELATIONS[system.cartan][: system.rank])
    assert cells == [f"nilcox-relations {system.cartan} rank={n}: {c} relation instances" for n, c in zip(ranks, counts)]
    assert last == "nilcox-relations: all checks passed"


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
            p = nc.psi(system, J, cx.reduced_word(sigma))
            assert p is not None
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
                as_simple(conjugate(p.min, j)) for j in p.right
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
    p = nc.psi(system, right, (5, 6, 4, 5, 3, 4, 2))
    assert p.left == left and p.right == right
