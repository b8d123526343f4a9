"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every check is exhaustive at the stated rank and exact (no
tolerances: all quantities are integers or discrete structures).
"""
from math import factorial

import pytest

from cosetrex import atomic as at
from cosetrex import cosets as cs
from cosetrex import coxeter as cx
from cosetrex import expressions as ex
from cosetrex import nilcox as nc
from cosetrex import squash_a as sqa
from cosetrex import squash_b as sqb
from conftest import all_subsets

S11_TEXT = "[{2,3,6,10} +8 -8 +9 -10 +7 -6 +8 -8 +5 -5 +6 -7 +4 -2]"

CORE_ATOMIC_SYSTEMS = (
    [cx.type_a(r) for r in range(1, 6)]
    + [cx.type_b(r) for r in range(1, 4)]
    + [cx.dihedral(m) for m in range(3, 8)]
)


def _core_cosets(system):
    for J in all_subsets(system):
        yield from (p for _, p in cs.enumerate_core_cosets(system, J))


def test_criterion_1_core_has_atomic_rex():
    """Greedy atomic expressions of core cosets are reduced and compose back."""
    checked = 0
    for system in CORE_ATOMIC_SYSTEMS:
        for p in _core_cosets(system):
            rex = at.atomic_rex_of_core(p)
            composed, reduced = at.compose_atomics(system, rex, p.left)
            assert reduced, f"greedy rex not reduced at {p}"
            assert composed == p, f"greedy rex composes wrong at {p}"
            expr = at.one_step_of_atoms(system, rex, p.left)
            assert ex.is_reduced(expr), f"one-step form not reduced at {p}"
            assert ex.evaluate(expr) == p
            checked += 1
    print(f"\nACCEPTANCE 1 PASS: core-atomic, {checked} core cosets "
          "(A rank<=5, B rank<=3, I2 bond<=7)")


def test_criterion_2_squash_bijection():
    """Core-coset counts are (n-m)! and squashing round-trips, type A n<=6."""
    cells = 0
    for rank in range(1, 6):
        system = cx.type_a(rank)
        for J in all_subsets(system):
            found = cs.enumerate_core_cosets(system, J)
            small = at.squashed_system(system, J)
            assert len(found) == factorial(small.rank + 1)
            for I, p in found:
                assert sqa.unsquash(system, J, sqa.squash_coset(p)) == (I, p)
            for sigma in cx.all_elements(small):
                I, p = sqa.unsquash(system, J, sigma)
                assert sqa.squash_coset(p) == sigma
            cells += 1
    print(f"\nACCEPTANCE 2 PASS: squash bijection, {cells} (rank, J) cells")


def test_criterion_3_atomic_rex_bijection():
    """Atomic index words = reduced words of the squashed permutation, S5."""
    system = cx.type_a(4)
    checked = 0
    for J in all_subsets(system):
        for _, p in cs.enumerate_core_cosets(system, J):
            words = {at.word_of_rex(rex) for rex in at.all_atomic_rexes(p)}
            assert words == set(cx.reduced_words(sqa.squash_coset(p))), f"at {p}"
            checked += 1
    print(f"\nACCEPTANCE 3 PASS: atomic rex bijection, {checked} core cosets in S5")


def test_criterion_4_atomic_matsumoto():
    """Braid-move closure reaches every atomic expression, S5 and B3."""
    checked = 0
    for system, connected in (
        (cx.type_a(4), at.matsumoto_connected),
        (cx.type_b(3), sqb.matsumoto_connected_b),
    ):
        for p in _core_cosets(system):
            assert connected(p), f"closure misses expressions at {p}"
            checked += 1
    print(f"\nACCEPTANCE 4 PASS: atomic Matsumoto, {checked} core cosets (S5, B3)")


def test_criterion_5_core_composition_minima():
    """Reducedness of core compositions is visible on minima; products stay core."""
    pairs = 0
    for system in (cx.type_a(4), cx.type_b(3)):
        by_left, by_right = {}, {}
        for J in all_subsets(system):
            for I, p in cs.enumerate_core_cosets(system, J):
                by_left.setdefault(I, []).append(p)
                by_right.setdefault(J, []).append(p)
        for J, qs in by_left.items():
            for p in by_right.get(J, []):
                for q in qs:
                    pairs += 1
                    reduced = cs.is_reduced_composition(p, q)
                    prod = cx.multiply(p.min, q.min)
                    additive = (
                        cx.length(prod) == cx.length(p.min) + cx.length(q.min)
                    )
                    assert reduced == additive, f"at {p} * {q}"
                    if reduced:
                        r = cs.star_compose(p, q)
                        assert r.min == prod, f"at {p} * {q}"
                        assert cs.is_core(r), f"at {p} * {q}"
    print(f"\nACCEPTANCE 5 PASS: core composition minima, {pairs} pairs (S5, B3)")


def test_criterion_6_atomic_composition_laws():
    """Sandwich identity, non-reduced pair law, and the doubled-index law."""
    checked = 0
    for system in (cx.type_a(4), cx.type_b(3)):
        atoms = [
            at.atomic_from(system, M, s)
            for M in all_subsets(system)
            for s in sorted(M)
        ]
        for a in atoms:
            p = at.coset_of_atom(a)
            assert cs.star_compose(cs.star_compose(p, cs.invert(p)), p) == p
            checked += 1
        for a in atoms:
            for b in atoms:
                pa, pb = at.coset_of_atom(a), at.coset_of_atom(b)
                if pa.right != pb.left or cs.is_reduced_composition(pa, pb):
                    continue
                prod = cs.star_compose(pa, pb)
                assert cs.is_core(prod) == (pa == pb)
                if pa == pb:
                    assert prod == pa
                checked += 1
        base = 1 if system.cartan == "A" else 0
        gen = at.atomic_generator
        for J in all_subsets(system):
            gaps = len(set(system.simple_indices) - J)
            for k in range(gaps):
                aJ = gen(system, J, base + k)
                aI = gen(system, aJ.left, base + k)
                pI, pJ = at.coset_of_atom(aI), at.coset_of_atom(aJ)
                assert not cs.is_reduced_composition(pI, pJ), f"J={sorted(J)} i={base+k}"
                expected = cs.coset_of(
                    system, J, cs.longest_element(system, aJ.mid), J
                )
                assert cs.star_compose(pI, pJ) == expected
                checked += 1
    print(f"\nACCEPTANCE 6 PASS: atomic composition laws, {checked} checks (S5, B3)")


def test_criterion_7_atomic_algebroid():
    """Generator relations, basis ranks, and unreachability of a non-core coset."""
    instances = 0
    for system in [cx.type_a(r) for r in range(1, 5)] + [cx.type_b(r) for r in range(1, 4)]:
        report = nc.verify_relations(system)
        assert report.ok, report.failures
        instances += report.checked
        for J in all_subsets(system):
            k = at.squashed_system(system, J).points
            expected = factorial(k) if system.cartan == "A" else 2 ** k * factorial(k)
            basis = [p for _, p in cs.enumerate_core_cosets(system, J)]
            assert len(basis) == expected
            assert nc.reachable_cosets(system, J) == set(basis)
    a3 = cx.type_a(3)
    stranded = cs.coset_of(a3, {1, 3}, cx.simple(a3, 2), {1, 3})
    assert not cs.is_core(stranded)
    for J in all_subsets(a3):
        assert stranded not in nc.reachable_cosets(a3, J)
    print(f"\nACCEPTANCE 7 PASS: atomic algebroid, {instances} relation instances "
          "(A n<=5, B n<=3), ranks k!/2^k k!, non-core coset unreachable")


def test_criterion_8_running_example():
    """The 7-atom one-step expression on 11 strands parses, is reduced, and
    connects the stated frames."""
    system = cx.type_a(10)
    expr = ex.parse_expression(system, S11_TEXT)
    assert isinstance(expr, ex.OneStepExpression)
    assert expr.start == frozenset({2, 3, 6, 10})
    assert len(expr.steps) == 14  # seven atoms
    p = ex.evaluate(expr)
    assert p.left == frozenset({2, 3, 6, 10})
    assert p.right == frozenset({3, 4, 6, 9})
    assert cs.is_core(p)
    assert ex.is_reduced(expr)
    tops = ex.to_multistep(expr).frames[1::2]
    interior = ex.to_multistep(expr).frames[2:-1:2]
    alternating = sum(cs.parabolic_length(system, K) for K in tops) - sum(
        cs.parabolic_length(system, K) for K in interior
    )
    assert cx.length(cs.max_elem(p)) == alternating
    assert cx.length(sqa.squash_coset(p)) == 7
    print(f"\nACCEPTANCE 8 PASS: 11-strand running example, length {alternating}, "
          "frames {2,3,6,10} -> {3,4,6,9}")


def test_criterion_9_s4_golden_data():
    """Frames, minima, maxima, and coreness of the two S4 worked cosets."""
    a3 = cx.type_a(3)
    p = cs.coset_of(a3, {1}, cx.element_from_word(a3, (2, 1, 3, 2)), {3})
    assert p.min.data == (3, 4, 1, 2)
    assert cx.length(cs.max_elem(p)) == 5
    assert cs.max_elem(p) == cx.element_from_word(a3, (2, 1, 2, 3, 2))
    assert cs.is_core(p)
    q = cs.coset_of(a3, {2}, cx.element_from_word(a3, (1, 2, 1, 3)), {1})
    assert q.min == cx.element_from_word(a3, (1, 2, 3))
    assert q.min.data == (2, 3, 4, 1)
    assert cs.max_elem(q) == cx.element_from_word(a3, (1, 2, 1, 3))
    assert cs.is_core(q)
    print("\nACCEPTANCE 9 PASS: S4 golden data (min [3,4,1,2], max length 5, both core)")


def test_criterion_10_redundancy_and_add_remove():
    """Consecutive-value redundancy in S5; add/remove via expression prefixes."""
    system = cx.type_a(4)
    cosets_checked = 0
    for I in all_subsets(system):
        for J in all_subsets(system):
            for p in cs.enumerate_cosets(system, I, J):
                cosets_checked += 1
                rred = cs.right_redundancy(p)
                for j in J:
                    stated = (
                        cx.act(p.min, j + 1) == cx.act(p.min, j) + 1
                        and cx.act(p.min, j) in I
                    )
                    assert stated == (j in rred), f"j={j} at {p}"
                if cs.is_core(p):
                    for j in J:
                        assert (cx.act(p.min, j + 1) == cx.act(p.min, j) + 1) == (
                            j in rred
                        )
    add_remove_checked = 0
    for system in (cx.type_a(3), cx.type_b(3)):
        for I in all_subsets(system):
            for J in all_subsets(system):
                for p in cs.enumerate_cosets(system, I, J):
                    pmax = cs.max_elem(p)
                    ldes = cx.left_descents(pmax)
                    lred = cs.left_redundancy(p)
                    rdes = cx.right_descents(pmax)
                    rred = cs.right_redundancy(p)
                    wI = cs.longest_element(system, I)
                    wJ = cs.longest_element(system, J)
                    for s in system.simple_indices:
                        # the remainder coset of a reduced one-step factorization
                        # is pinned by the length bookkeeping: its maximum is
                        # w_K w_I max(p) on the left, max(p) w_J w_K on the right
                        if s not in I:
                            tail = at.factor_through_core(
                                cs.coset_of(system, I | {s}, pmax, J)
                            )
                            expr = ex.concatenate(
                                ex.MultistepExpression(system, (I, I | {s}, I | {s})),
                                tail,
                            )
                            works = ex.is_reduced(expr) and ex.evaluate(expr) == p
                            assert works == (s in ldes), f"+{s} left at {p}"
                        else:
                            K = I - {s}
                            nmax = cx.multiply(
                                cx.multiply(cs.longest_element(system, K), wI), pmax
                            )
                            tail = at.factor_through_core(cs.coset_of(system, K, nmax, J))
                            expr = ex.concatenate(
                                ex.MultistepExpression(system, (I, I, K)), tail
                            )
                            works = ex.is_reduced(expr) and ex.evaluate(expr) == p
                            assert works == (s not in lred), f"-{s} left at {p}"
                        if s not in J:
                            head = at.factor_through_core(
                                cs.coset_of(system, I, pmax, J | {s})
                            )
                            expr = ex.concatenate(
                                head,
                                ex.MultistepExpression(system, (J | {s}, J | {s}, J)),
                            )
                            works = ex.is_reduced(expr) and ex.evaluate(expr) == p
                            assert works == (s in rdes), f"+{s} right at {p}"
                        else:
                            K = J - {s}
                            nmax = cx.multiply(
                                cx.multiply(pmax, wJ), cs.longest_element(system, K)
                            )
                            head = at.factor_through_core(cs.coset_of(system, I, nmax, K))
                            expr = ex.concatenate(
                                head, ex.MultistepExpression(system, (K, J, J))
                            )
                            works = ex.is_reduced(expr) and ex.evaluate(expr) == p
                            assert works == (s not in rred), f"-{s} right at {p}"
                        add_remove_checked += 2
    print(f"\nACCEPTANCE 10 PASS: redundancy on {cosets_checked} S5 cosets; "
          f"add/remove on {add_remove_checked} (coset, index) pairs (S4, B3)")
