import gc
import re

import pytest

from cosetrex import cli
from cosetrex import coxeter as cx
from cosetrex import cosets as cs
from conftest import (
    all_subsets,
    as_simple,
    conjugate,
    count_calls,
    descent_table_oracle,
    drop_table_row,
    enumerate_core_cosets_oracle,
    enumerate_cosets_oracle,
    longest_element_oracle,
    max_elem_oracle,
    reduced_composite_oracle,
    redundancy_oracle,
    star_product_oracle,
    table_rows,
)


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


@pytest.mark.parametrize(
    "systems",
    [[cx.type_a(r) for r in range(8)], [cx.type_b(r) for r in range(7)], [cx.dihedral(m) for m in range(3, 9)]],
    ids=["A0-A7", "B0-B6", "I2(3..8)"],
)
def test_longest_element_agrees_with_the_descent_loop(systems):
    for system in systems:
        for I in all_subsets(system):
            assert cs.longest_element(system, I) == longest_element_oracle(system, I), (system, I)


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(3), cx.dihedral(5)], ids=str)
def test_the_empty_frames_maximum_is_the_cosets_own_minimum(system):
    # max_elem returns min for empty frames, so a J = {} cell's cache holds
    # no second element per coset
    cs.max_elem.cache_clear()
    for w in cx.all_elements(system):
        p = cs.coset_of(system, frozenset(), w, frozenset())
        assert cs.max_elem(p) is p.min
    assert cs.longest_element(system, frozenset()) == cx.identity(system)


@pytest.mark.parametrize(
    "systems",
    [[cx.type_a(r) for r in range(6)], [cx.type_b(r) for r in range(5)], [cx.dihedral(m) for m in range(3, 9)]],
    ids=["A0-A5", "B0-B4", "I2(3..8)"],
)
def test_max_elem_agrees_with_the_star_fold(systems):
    # the body past the cache, so the run fills no cache with every coset
    for system in systems:
        for I in all_subsets(system):
            for J in all_subsets(system):
                for p in cs.enumerate_cosets(system, I, J, budget=None):
                    assert cs.max_elem.__wrapped__(p) == max_elem_oracle(p), p


@pytest.mark.parametrize(
    "systems",
    [[cx.type_a(r) for r in range(6)], [cx.type_b(r) for r in range(5)], [cx.dihedral(m) for m in range(3, 9)]],
    ids=["A0-A5", "B0-B4", "I2(3..8)"],
)
def test_sorting_runs_is_the_star_product_with_the_longest_element(systems):
    for system in systems:
        for K in all_subsets(system):
            wK = longest_element_oracle(system, K)
            for x in cx.all_elements(system):
                assert cs.star_longest(x, [K]) == star_product_oracle(x, wK), (x, K)


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(3), cx.dihedral(5)], ids=str)
def test_star_longest_folds_its_frames_in_order(system):
    x = cx.simple(system, system.simple_indices[-1])
    assert cs.star_longest(x, [frozenset(), frozenset()]) == x
    K, L = frozenset(system.simple_indices[:1]), frozenset(system.simple_indices[-2:])
    expected = star_product_oracle(cs.longest_element(system, K), cs.longest_element(system, L))
    assert cs.star_longest(cx.identity(system), [K, frozenset(), L]) == expected


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
                    as_simple(conjugate(p.min, j)) for j in cs.right_redundancy(p)
                )
                assert image == cs.left_redundancy(p)


@pytest.mark.parametrize(
    "system",
    [cx.type_a(r) for r in range(5)] + [cx.type_b(r) for r in range(4)] + [cx.dihedral(m) for m in range(3, 8)],
    ids=str,
)
def test_redundancy_core_and_is_core_agree_with_the_two_loop_oracle(system):
    for I in all_subsets(system):
        for J in all_subsets(system):
            for p in cs.enumerate_cosets(system, I, J, budget=None):
                left, right = redundancy_oracle(p)
                assert (cs.left_redundancy(p), cs.right_redundancy(p)) == (left, right), p
                assert cs.core(p) == cs.coset_of(system, left, p.min, right)
                assert cs.is_core(p) == (left == I and right == J)
                # a frame equal to the coset's own is the coset's own object
                assert (cs.left_redundancy(p) is p.left) == (left == I)
                assert (cs.right_redundancy(p) is p.right) == (right == J)


@pytest.mark.parametrize(
    "system",
    [cx.type_a(r) for r in range(1, 5)] + [cx.type_b(r) for r in range(1, 4)] + [cx.dihedral(m) for m in range(3, 8)],
    ids=str,
)
def test_core_frames_the_minimum_with_no_walk(monkeypatch, system):
    # min(p) has no left descent in p's left frame nor a right descent in
    # its right frame, so it is the minimum of the coset the redundancies
    # frame: core builds that coset with no walk, equal to the walked one
    found = [p for I in all_subsets(system) for J in all_subsets(system) for p in cs.enumerate_cosets(system, I, J)]
    walks = count_calls(monkeypatch, cs.coset_of)
    cores = [cs.core(p) for p in found]
    assert walks == []
    monkeypatch.undo()
    for p, c in zip(found, cores):
        left, right = redundancy_oracle(p)
        assert c == cs.coset_of(system, left, p.min, right), p


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
    assert cs.reduced_composite(a, b) is None
    with pytest.raises(ValueError):
        cs.star_compose(a, a)


def test_reduced_composite_examples(a3):
    p = exs4_p(a3)
    assert cs.reduced_composite(p, cs.identity_coset(a3, p.right)) == p
    with pytest.raises(ValueError, match="frame mismatch"):
        cs.reduced_composite(p, p)


@pytest.mark.parametrize(
    "system",
    [cx.type_a(r) for r in (1, 2, 3)] + [cx.type_b(r) for r in (1, 2)] + [cx.dihedral(m) for m in (3, 5)],
    ids=str,
)
def test_composes_reducedly_to_agrees_with_the_two_call_check(system):
    # every composable triple (p, q, r): p an (I, J)-, q a (J, K)- and r an (I, K)-coset
    frames = cs.all_frames(system)
    found = {(I, J): cs.enumerate_cosets(system, I, J) for I in frames for J in frames}
    for (I, J), ps in found.items():
        for K in frames:
            for p in ps:
                for q in found[J, K]:
                    composite = reduced_composite_oracle(p, q)
                    for r in found[I, K]:
                        assert cs.composes_reducedly_to(p, q, r) == (r == composite), (p, q, r)
                    if I != J:  # q's frames are not the composite's
                        assert not cs.composes_reducedly_to(p, q, q)
    p = found[frozenset(), system.index_set][0]
    with pytest.raises(ValueError, match="frame mismatch"):
        cs.composes_reducedly_to(p, p, p)


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
                    r = cs.reduced_composite(p, q)
                    rhs = cx.length(cx.multiply(p.min, q.min)) == cx.length(
                        p.min
                    ) + cx.length(q.min)
                    assert (r is not None) == rhs
                    if r is not None:
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
    for I in frames:
        for J in frames:
            assert cs.enumerate_cosets(system, I, J) == enumerate_cosets_oracle(system, I, J)


@pytest.mark.parametrize(
    "system",
    [cx.type_a(r) for r in range(6)] + [cx.type_b(r) for r in range(5)] + [cx.dihedral(m) for m in range(3, 9)],
    ids=str,
)
def test_core_enumerator_matches_its_oracle(system):
    # equal as lists, on every right frame: the index's merge keeps the order
    for J in all_subsets(system):
        assert list(cs.enumerate_core_cosets(system, J)) == enumerate_core_cosets_oracle(system, J)


@pytest.mark.parametrize(
    "system",
    [cx.type_a(r) for r in range(5)] + [cx.type_b(r) for r in range(4)] + [cx.dihedral(m) for m in range(3, 8)],
    ids=str,
)
def test_core_cosets_view_reads_as_a_sequence(system):
    # len and slices of the view agree with its iteration and the oracle;
    # an int index and a stepped slice are refused
    for J in all_subsets(system):
        view = cs.enumerate_core_cosets(system, J)
        expected = enumerate_core_cosets_oracle(system, J)
        assert isinstance(view, cs.CoreCosets)
        assert list(view) == expected and len(view) == len(expected) > 0
        n = len(view)
        for i in (0, -1, n):
            with pytest.raises(TypeError):
                view[i]
        for s in (slice(None, None, 2), slice(None, None, -1), slice(-2, 0, -3)):
            with pytest.raises(ValueError):
                view[s]
        for s in (slice(None, -1), slice(0, 0), slice(n, None), slice(-1, None), slice(1, -1), slice(5, 2)):
            part = view[s]
            assert isinstance(part, cs.CoreCosets)
            assert list(part) == expected[s] and len(part) == len(expected[s])
        assert list(view[:-1][1:]) == expected[:-1][1:]
        # chunks gathers the minima's data: every chunk but the last holds
        # size rows, and a chunk's left frames follow the view's order; a
        # size below 1 is refused, as no chunk could take a row
        for size in (0, -1):
            with pytest.raises(ValueError):
                next(view.chunks(size))
        for size in (1, 3, n):
            chunks = list(view[1:].chunks(size))
            counts = [sum(m for _, m, _ in chunk) for chunk in chunks]
            assert sum(counts) == n - 1 and all(c == size for c in counts[:-1])
            assert all(0 < c <= size for c in counts)
            assert [(I, d) for chunk in chunks for I, m, data in chunk for d in _rows(system, m, data)] == [
                (I, p.min.data) for I, p in expected[1:]
            ]


def _rows(system, n, data):
    """The n rows of a chunk's data: words for I2, else image tuples of equal width."""
    if system.cartan == "I2":
        assert len(data) == n
        return list(data)
    assert len(data) == n * system.points
    return [data[k * system.points : (k + 1) * system.points] for k in range(n)]


@pytest.mark.parametrize("system", [cx.type_a(4), cx.type_b(3)], ids=str)
def test_enumerators_leave_the_length_cache_empty(system):
    # the table carries the order, so no coset's length is looked up
    for cache in (cx.length, cs._descent_table):
        cache.cache_clear()
    frames = all_subsets(system)
    for J in frames:
        assert cs.enumerate_core_cosets(system, J)
        for I in frames:
            assert cs.enumerate_cosets(system, I, J)
    assert cx.length.cache_info().currsize == 0


def test_core_enumeration_decodes_only_the_rows_it_returns(monkeypatch, capsys):
    # a row is visited when an enumerator decodes its element; the CLI
    # listing reads the rows' data and decodes none
    system = cx.type_a(5)
    table = cs._descent_table(system)
    visited = []

    class CountingTable(cs.DescentTable):
        __slots__ = ()

        def element(self, k):
            visited.append(k)
            return super().element(k)

    counting = CountingTable(*table)
    monkeypatch.setattr(cs, "_descent_table", lambda system: counting)
    cs.enumerate_core_cosets(system, frozenset({1}))
    for J in all_subsets(system):
        visited.clear()
        found = list(cs.enumerate_core_cosets(system, J))
        assert len(visited) == len(set(visited)) == len(found) > 0, J
    for fmt in ("text", "json"):
        for J in all_subsets(system):
            visited.clear()
            assert cli.main(["enumerate-core", "--rank", "5", "--right", cs.format_subset(J), "--format", fmt]) == 0
            out = capsys.readouterr().out.splitlines()
            assert visited == [] and out[-1] == f"count: {len(out) - 1}" and len(out) > 1, (fmt, J)


def test_core_enumeration_reads_the_current_table(monkeypatch):
    # each call reads the table _descent_table returns then: a table that
    # lacks a row lists one coset fewer, and the cached table is read again
    system, J = cx.type_a(3), frozenset({1})
    full = list(cs.enumerate_core_cosets(system, J))
    table = cs._descent_table(system)
    last = next(k for k, (w, _, _, _) in enumerate(table_rows(table)) if w == full[-1][1].min)
    monkeypatch.setattr(cs, "_descent_table", lambda system: drop_table_row(table, last))
    assert list(cs.enumerate_core_cosets(system, J)) == full[:-1]
    monkeypatch.undo()
    assert list(cs.enumerate_core_cosets(system, J)) == full


@pytest.mark.parametrize(
    "system",
    [cx.type_a(r) for r in range(7)] + [cx.type_b(r) for r in range(6)] + [cx.dihedral(m) for m in range(3, 8)],
    ids=str,
)
def test_descent_table_agrees_with_the_product_oracle(system, monkeypatch):
    # rank 0 included: B0's image tuple is empty; A6 and B5 are what enum-core builds
    cx.length.cache_clear()
    cs._descent_table.cache_clear()
    inverses = count_calls(monkeypatch, cx.inverse)
    drawn = count_calls(monkeypatch, cx.all_elements)
    table = cs._descent_table(system)
    # no product, so no inverse; the order's lengths are not cached; types
    # A and B build their rows rank by rank, drawing no element of W
    assert not inverses and cx.length.cache_info().currsize == 0
    assert len(drawn) == (system.cartan == "I2")
    monkeypatch.undo()
    rows = table_rows(table)
    assert rows == descent_table_oracle(system)
    # equal conj tuples are one object
    shared = {}
    assert all(shared.setdefault(conj, conj) is conj for _, _, _, conj in rows)
    # row 0 is the identity
    assert rows[0][0] == cx.identity(system)


@pytest.mark.parametrize("systems", [[cx.type_a(r) for r in range(1, 8)], [cx.type_b(r) for r in range(1, 7)]], ids=["A1-A7", "B1-B6"])
def test_prefix_build_lengths_are_lengths(systems, monkeypatch):
    # the last rank of a build orders its rows by lengths computed from the
    # rank below, whose rows it is handed in data order: every row of A0-A6
    # and B0-B5 is checked against coxeter's length, uncached
    handed = []
    by_new_length = cs._by_new_length

    def spy(firsts, lookups, key, lengths, top):
        handed.append(list(lengths))
        return by_new_length(firsts, lookups, key, lengths, top)

    monkeypatch.setattr(cs, "_by_new_length", spy)
    for system in systems:
        cs._descent_table.cache_clear()
        cs._descent_table(system)
        below = cx.CoxeterSystem(system.cartan, system.rank - 1)
        elements = sorted(cx.all_elements(below), key=lambda w: w.data)
        assert handed.pop() == [cx.length.__wrapped__(w) for w in elements], below
    cs._descent_table.cache_clear()


def test_descent_table_columns_hold_no_element():
    system = cx.type_a(6)
    table = cs._descent_table(system)
    positions = [positions for _, groups in table.by_mask for _, positions in groups]
    columns = [table.data, table.left, table.right, table.by_mask]
    seen, reached = set(), list(columns)
    while reached:
        x = reached.pop()
        if id(x) not in seen and not isinstance(x, type):  # an array refers to its type
            seen.add(id(x))
            assert not isinstance(x, cx.Element)
            reached += gc.get_referents(x)
    # 7 image bytes, two 4-byte masks and a 4-byte position a row
    rows = len(table.left)
    assert rows == 5040
    assert sum(memoryview(column).nbytes for column in columns[:3] + positions) <= 32 * rows


@pytest.mark.parametrize(
    "systems",
    [[cx.type_a(r) for r in range(7)], [cx.type_b(r) for r in range(6)], [cx.dihedral(m) for m in range(3, 9)]],
    ids=["A0-A6", "B0-B5", "I2(3..8)"],
)
def test_descent_table_conj_column_is_simple_conjugate(systems):
    # the table's inline read and simple_conjugate, at every j that is not a right descent
    for system in systems:
        for w, _, rd, conj in table_rows(cs._descent_table(system)):
            for j, c in zip(system.simple_indices, conj):
                if not rd >> j & 1:
                    assert c == cx.simple_conjugate(w, j), (w, j)


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
                        if cs.reduced_composite(p, q) != r:
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
