import argparse
import functools
import gc
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetrex import atomic, cli
from cosetrex import cosets as cs
from cosetrex import coxeter as cx
from cosetrex import squash_a
from cosetrex.cli import _SUITES, build_parser, main
from conftest import braid_closure_oracle

S11_TEXT = "[{2,3,6,10} +8 -8 +9 -10 +7 -6 +8 -8 +5 -5 +6 -7 +4 -2]"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_expr_running_example(capsys):
    code, out, _ = run(
        capsys, "eval-expr", "--type", "A", "--rank", "10", "--expr", S11_TEXT
    )
    assert code == 0
    assert "right={3,4,6,9}" in out
    assert "left={2,3,6,10}" in out
    assert "reduced: true" in out


def test_eval_expr_json_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "eval-expr", "--type", "A", "--rank", "10", "--expr", S11_TEXT,
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced"] is True
    p = cs.coset_from_json(doc["coset"])
    assert p.right == frozenset({3, 4, 6, 9})
    # deterministic output
    code2, out2, _ = run(
        capsys,
        "eval-expr", "--type", "A", "--rank", "10", "--expr", S11_TEXT,
        "--format", "json",
    )
    assert out2 == out


def test_eval_expr_parse_error_exit_code(capsys):
    code, _, err = run(
        capsys, "eval-expr", "--type", "A", "--rank", "3", "--expr", "[{1} +2 +2]"
    )
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval-expr", "--type", "Q", "--rank", "3", "--expr", "[[{1}]]"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_enumerate_core(capsys):
    code, out, _ = run(
        capsys, "enumerate-core", "--type", "A", "--rank", "2", "--right", "{2}"
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "count: 2"


def test_atomic_rex_from_json(capsys):
    doc = json.dumps(
        {"cartan": "A", "rank": 3, "left": [1], "right": [3], "min": [3, 4, 1, 2]}
    )
    code, out, _ = run(capsys, "atomic-rex", "--coset", doc)
    assert code == 0
    assert out.strip() == "[{1} +2 -1 +3 -2]"
    code, out, _ = run(capsys, "atomic-rex", "--coset", doc, "--all")
    assert code == 0
    assert out.strip().splitlines() == ["[{1} +2 -1 +3 -2]"]


def test_atomic_rex_from_flags(capsys):
    code, out, _ = run(
        capsys,
        "atomic-rex", "--type", "A", "--rank", "3",
        "--left", "{1}", "--right", "{3}", "--min", "[3,4,1,2]",
    )
    assert code == 0
    assert out.strip() == "[{1} +2 -1 +3 -2]"


def test_squash_unsquash_roundtrip(capsys):
    doc = json.dumps(
        {"cartan": "A", "rank": 3, "left": [1], "right": [3], "min": [3, 4, 1, 2]}
    )
    code, out, _ = run(capsys, "squash", "--coset", doc)
    assert code == 0
    assert out.strip() == "[2,3,1]"
    code, out, _ = run(
        capsys,
        "unsquash", "--type", "A", "--rank", "3", "--right", "{3}",
        "--sigma", "[2,3,1]", "--format", "json",
    )
    assert code == 0
    assert cs.coset_from_json(json.loads(out)) == cs.coset_from_json(json.loads(doc))


def test_squash_type_b(capsys):
    doc = json.dumps(
        {"cartan": "B", "rank": 2, "left": [0], "right": [0], "min": [1, -2]}
    )
    code, out, _ = run(capsys, "squash", "--coset", doc)
    assert code == 0
    assert out.strip() == "[-1]"


def test_compose_chain(tmp_path, capsys):
    exprs = tmp_path / "exprs.txt"
    exprs.write_text("[{1} +2 -1]\n[{2} +3 -2]\n")
    code, out, _ = run(
        capsys, "compose", "--type", "A", "--rank", "3", "--exprs", str(exprs),
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced"] is True
    assert doc["coset"]["min"] == [3, 4, 1, 2]
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    code, _, err = run(
        capsys, "compose", "--type", "A", "--rank", "3", "--exprs", str(empty)
    )
    assert code == 2


def test_verify_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "matsumoto", "--type", "A", "--max-rank", "3", "--quiet")
    assert code == 0
    assert "all checks passed" in out


def test_verify_streams_cells(capsys):
    code, out, _ = run(capsys, "verify", "squash-bijection", "--type", "A", "--max-rank", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert any("J={1}" in line for line in lines)
    assert lines[-1] == "squash-bijection: all checks passed"


def test_verify_type_b_suite(capsys):
    code, out, _ = run(capsys, "verify", "type-b", "--type", "B", "--max-rank", "2", "--quiet")
    assert code == 0


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()


I2_COSET = json.dumps({"cartan": "I2", "rank": 2, "bond": 5, "left": [], "right": [], "min": [1]})
# nested deeper than the JSON decoder's recursion limit
DEEP_JSON = "[" * 100000


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "squash-bijection", "--type", "I2"),
        ("verify", "redundancy-a", "--type", "B"),
        ("verify", "type-b", "--type", "A"),
        ("verify", "matsumoto", "--type", "I2"),
        ("verify", "atomic-rex-bijection", "--type", "I2"),
        ("verify", "atomatom", "--type", "I2"),
        ("squash", "--coset", I2_COSET),
        ("squash", "--coset", "{}"),
        ("atomic-rex", "--type", "A", "--rank", "3"),
        ("enumerate-core", "--type", "I2", "--rank", "5", "--right", "{}"),
        ("enumerate-core", "--type", "I2", "--rank", "3", "--bond", "5", "--right", "{}"),
        ("unsquash", "--type", "A", "--rank", "3", "--right", "{3}", "--sigma", "[2,3,1]", "--bond", "4"),
        ("atomic-rex", "--left", "{1}", "--right", "{3}", "--min", "[3,4,1,2]"),
        ("squash", "--left", "{1}", "--right", "{3}", "--min", "[3,4,1,2]"),
        ("verify", "core-atomic", "--type", "A", "--max-rank", "4", "--budget", "100"),
        ("enumerate-core", "--type", "A", "--rank", "7", "--right", "{}"),
        ("enumerate-core", "--type", "A", "--rank", "100000", "--right", "{}"),
        ("squash", "--coset", DEEP_JSON),
        # JSON true and false are not the integers 1 and 0
        ("squash", "--coset", '{"cartan":"A","rank":true,"left":[],"right":[],"min":[2,1]}'),
        ("atomic-rex", "--coset", '{"cartan":"B","rank":2,"left":[false],"right":[false],"min":[1,2]}'),
        ("atomic-rex", "--coset", '{"cartan":"I2","rank":2,"bond":true,"left":[],"right":[],"min":[]}'),
    ],
    ids=lambda argv: " ".join(argv).replace(DEEP_JSON, "[*100000"),
)
def test_unsupported_input_is_a_one_line_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "all checks passed" not in out
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command", ["atomic-rex", "squash"])
def test_coset_flags_without_a_rank_name_the_missing_rank(capsys, command):
    code, _, err = run(capsys, command, "--left", "{1}", "--right", "{3}", "--min", "[3,4,1,2]")
    assert code == 2
    assert "--rank" in err and "permutation" not in err


def test_verify_over_budget_prints_no_cell(capsys):
    code, out, _ = run(capsys, "verify", "core-atomic", "--type", "A", "--max-rank", "4", "--budget", "100")
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "cartan, constructor, ranks, order",
    [("A", "CoxeterSystem", range(1, 7), 40320), ("B", "CoxeterSystem", range(1, 6), 46080),
     ("I2", "dihedral", range(3, 5001), 10002)],
    ids=["A", "B", "I2"],
)
def test_verify_builds_no_system_past_the_first_over_budget_rank(capsys, monkeypatch, cartan, constructor, ranks, order):
    built = []
    build = getattr(cli, constructor)

    def counting(*args):
        built.append(args[-1])  # the rank, or the bond of a dihedral group
        return build(*args)

    monkeypatch.setattr(cli, constructor, counting)
    code, out, err = run(capsys, "verify", "core-atomic", "--type", cartan, "--max-rank", "1000000")
    assert code == 2 and out == ""
    assert err == f"error: group order {order} exceeds budget 10000\n"
    assert built == list(ranks)


def test_enumerate_core_refuses_a_huge_rank_before_building_it(capsys, monkeypatch):
    # the interned systems, less any rank 100000 that another test built
    monkeypatch.setattr(cx, "_SYSTEMS", {key: s for key, s in cx._SYSTEMS.items() if key.rank != 100000})
    code, out, err = run(capsys, "enumerate-core", "--type", "A", "--rank", "100000", "--right", "{}")
    assert code == 2 and out == ""
    assert err == "error: group order more than 40320 exceeds budget 10000\n"
    assert not [key for key in cx._SYSTEMS if key.rank == 100000]


def test_budget_admits_a_group_of_its_order(capsys):
    code, out, _ = run(capsys, "verify", "core-atomic", "--type", "A", "--max-rank", "4", "--budget", "120")
    assert code == 0
    assert out.splitlines()[-1] == "core-atomic: all checks passed"
    code, out, _ = run(capsys, "enumerate-core", "--type", "A", "--rank", "4", "--right", "{}", "--budget", "120")
    assert code == 0
    assert out.splitlines()[-1] == "count: 120"


@pytest.mark.parametrize(
    "argv, budget",
    [(("enumerate-core", "--type", "A", "--rank", "1", "--right", "{}"), "0"),
     (("verify", "core-atomic", "--type", "A"), "-5")],
    ids=["enumerate-core", "verify"],
)
def test_a_budget_below_one_is_refused_by_name(capsys, argv, budget):
    code, out, err = run(capsys, *argv, "--budget", budget)
    assert code == 2 and out == ""
    assert err == f"error: budget must be at least 1, got {budget}\n"


def test_verify_with_no_cells_fails(capsys):
    code, out, err = run(capsys, "verify", "core-atomic", "--type", "A", "--max-rank", "-1")
    assert code == 1
    assert "all checks passed" not in out
    assert "no cells checked" in err


@pytest.mark.parametrize("cartan, max_rank", [("A", "0"), ("I2", "1")], ids=" ".join)
def test_verify_below_the_smallest_rank_fails(capsys, cartan, max_rank):
    code, out, err = run(capsys, "verify", "core-atomic", "--type", cartan, "--max-rank", max_rank)
    assert code == 1
    assert "all checks passed" not in out
    assert "no cells checked" in err


def test_i2_system_takes_its_bond(capsys):
    code, out, _ = run(capsys, "enumerate-core", "--type", "I2", "--rank", "2", "--bond", "5", "--right", "{}")
    assert code == 0
    assert out.strip().splitlines()[-1] == "count: 10"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "squash-bijection", "--type", "A", "--max-rank", "3"),
        ("verify", "type-b", "--type", "B", "--max-rank", "2"),
        ("verify", "atomic-rex-bijection", "--type", "B", "--max-rank", "2"),
    ],
    ids=" ".join,
)
def test_verify_catches_a_wrong_squash(capsys, monkeypatch, argv):
    right = squash_a.squash_coset

    def swapped(p):
        sigma = right(p)
        return cx.Element(sigma.system, sigma.data[1::-1] + sigma.data[2:])

    monkeypatch.setattr(squash_a, "squash_coset", swapped)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "all checks passed" not in out
    assert "FAIL: " in err


@pytest.mark.parametrize(
    "suite, cartan",
    [(suite, cartan) for suite, (_, supported) in _SUITES.items() for cartan in supported],
)
def test_every_suite_passes_at_small_rank(capsys, suite, cartan):
    max_rank = "3" if cartan == "I2" else "2"
    code, out, err = run(capsys, "verify", suite, "--type", cartan, "--max-rank", max_rank)
    lines = out.splitlines()
    assert code == 0, err
    assert len(lines) >= 2
    assert lines[-1] == f"{suite}: all checks passed"


def _drop_last_atom(monkeypatch):
    right = atomic.atomic_rex_of_core
    monkeypatch.setattr(atomic, "atomic_rex_of_core", lambda p: right(p)[:-1])


def _peel_to_the_identity(monkeypatch):
    # every remainder becomes the identity coset of the right frame; a fresh
    # step cache keeps steps cached by earlier tests out, and the fault's own
    # steps out of later tests
    monkeypatch.setattr(atomic, "_peel", lambda p, a, pmax: cs.identity_coset(p.system, p.right))
    monkeypatch.setattr(atomic, "_greedy_step", functools.lru_cache(maxsize=None)(atomic._greedy_step.__wrapped__))


def _stop_one_atom_early(monkeypatch):
    # the greedy step that would leave the identity coset of its frames is
    # not taken, so each greedy expression loses its last atom; a fresh step
    # cache as in _peel_to_the_identity
    right = atomic._greedy_step.__wrapped__

    def step(cur):
        found = right(cur)
        if found is not None and found[1] == cs.identity_coset(cur.system, cur.right):
            return None
        return found

    monkeypatch.setattr(atomic, "_greedy_step", functools.lru_cache(maxsize=None)(step))


def _swap_two_atom_indices(monkeypatch):
    # the first two indices of each squashed group trade places in the walk's
    # labels
    right = atomic.atomic_index

    def swapped(a):
        i, start = right(a), a.system.simple_indices.start
        if len(a.system.index_set - a.right) < 2:
            return i
        return {start: start + 1, start + 1: start}.get(i, i)

    monkeypatch.setattr(atomic, "atomic_index", swapped)


def _drop_a_commutation(monkeypatch):
    # each system's braid table, built afresh, loses its first commuting
    # pair, so the braid side of matsumoto lacks moves the group has
    right = cx._braid_table

    @functools.lru_cache(maxsize=None)
    def table(system):
        rows = [list(row) for row in right(system)]
        pairs = [(i, j) for i, row in enumerate(rows) for j, move in enumerate(row) if move and move[0] == 2]
        for i, j in pairs[:1]:
            rows[i][j] = rows[j][i] = None
        return rows

    monkeypatch.setattr(cx, "_braid_table", table)


def _package_modules():
    return [m for name, m in sys.modules.items() if name.partition(".")[0] == "cosetrex"]


def _rebind_everywhere(monkeypatch, old, new):
    # modules import library functions by name, so every module-level binding
    # of old in the package is rebound, not only the one where it is defined
    for module in _package_modules():
        for name, obj in list(vars(module).items()):
            if obj is old:
                monkeypatch.setattr(module, name, new)


def _negate_reducedness(monkeypatch):
    right = cs.is_reduced_composition
    _rebind_everywhere(monkeypatch, right, lambda p, q: not right(p, q))


def _compose_to_the_tail(monkeypatch):
    monkeypatch.setattr(cs, "star_compose", lambda p, q: q)


def _no_right_redundancy(monkeypatch):
    monkeypatch.setattr(cs, "right_redundancy", lambda p: frozenset())


def _peel_to_itself(monkeypatch):
    # no step shortens its coset, which _greedy_step's cross-check raises on
    monkeypatch.setattr(atomic, "_peel", lambda p, a, pmax: p)


def _unsquash_off_the_minimum(monkeypatch):
    # the cross-check in unsquash sees each lifted coset with the identity as
    # its minimum
    monkeypatch.setattr(squash_a, "coset_of", lambda system, I, y, J: cs.identity_coset(system, J))


# faults, each with a run that must catch it; the last two always raise
# inside a library cross-check, which verify reports as a FAIL line
_WALK_FAULTS = [
    (_stop_one_atom_early, "core-atomic", "A", "3"),
    (_drop_last_atom, "matsumoto", "B", "2"),
    (_peel_to_the_identity, "core-atomic", "A", "3"),
    (_swap_two_atom_indices, "matsumoto", "B", "3"),
    (_drop_a_commutation, "matsumoto", "A", "3"),
    (_swap_two_atom_indices, "atomic-rex-bijection", "A", "3"),
    (_negate_reducedness, "core-atomic", "A", "3"),
    (_compose_to_the_tail, "core-atomic", "A", "3"),
    (_negate_reducedness, "mimimi", "A", "3"),
    (_no_right_redundancy, "redundancy-a", "A", "3"),
    (_peel_to_itself, "core-atomic", "A", "3"),
    (_unsquash_off_the_minimum, "squash-bijection", "A", "3"),
]


def _fault_id(value):
    return getattr(value, "__name__", value)


@pytest.mark.parametrize("fault, suite, cartan, max_rank", _WALK_FAULTS, ids=_fault_id)
def test_verify_catches_a_wrong_answer_in_each_walk(capsys, monkeypatch, fault, suite, cartan, max_rank):
    fault(monkeypatch)
    code, out, err = run(capsys, "verify", suite, "--type", cartan, "--max-rank", max_rank)
    assert code == 1
    assert "all checks passed" not in out
    assert any(
        line.startswith(f"FAIL: {suite}") and "DoubleCoset(" in line for line in err.splitlines()
    )


def _clear_every_cache():
    for module in _package_modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "after-a-clean-run"])
@pytest.mark.parametrize("fault, suite, cartan, max_rank", _WALK_FAULTS, ids=_fault_id)
def test_a_wrong_answer_is_caught_whatever_the_caches_hold(capsys, monkeypatch, warm, fault, suite, cartan, max_rank):
    argv = ("verify", suite, "--type", cartan, "--max-rank", max_rank)
    _clear_every_cache()
    if warm:
        assert run(capsys, *argv)[0] == 0
    fault(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "all checks passed" not in out
    assert any(
        line.startswith(f"FAIL: {suite}") and "DoubleCoset(" in line for line in err.splitlines()
    )


def test_a_failed_cross_check_ends_its_system_only(capsys, monkeypatch):
    # the first step of each system raises, and the run goes on with the
    # next system, so each of A1, A2 and A3 has its FAIL line
    _peel_to_itself(monkeypatch)
    code, out, err = run(capsys, "verify", "core-atomic", "--type", "A", "--max-rank", "3")
    fails = [line for line in err.splitlines() if line.startswith("FAIL: core-atomic: ")]
    assert code == 1
    assert len(fails) == 3
    assert all(f"rank={r}," in line for r, line in zip((1, 2, 3), fails))
    assert all("atomic peeling failed to shorten the coset DoubleCoset(" in line for line in fails)
    assert "Traceback" not in err


def _cache_keys(cache):
    """The argument tuples an lru_cache holds.  CPython keeps them as the keys
    of the one dict the cache object refers to besides its __dict__."""
    (table,) = [d for d in gc.get_referents(cache) if isinstance(d, dict) and d is not cache.__dict__]
    return list(table)


def _system_of(key):
    first = key[0]
    return first if isinstance(first, cx.CoxeterSystem) else first.system


def test_verify_scopes_its_caches_to_the_cell_and_the_system(capsys, monkeypatch):
    coset_keyed = [cs.max_elem, cs.left_redundancy, cs.right_redundancy, cs.is_core, atomic._greedy_step]
    system_keyed = coset_keyed + [
        cx.length, cx.inverse, cx.right_descents, cx.reduced_word, cs.longest_element,
        cs._descent_table, atomic._atom, atomic.coset_of_atom,
    ]
    systems = [cx.type_a(r) for r in range(1, 5)]
    # each step reads the maximum of its atom's coset, whose right frame is
    # the remainder's left frame; only max_elem holds those
    atom_cosets = {
        atomic.coset_of_atom(atomic.atomic_from(system, M, s))
        for system in systems for M in cs.all_frames(system) for s in M
    }
    check, supported = _SUITES["core-atomic"]
    seen = []

    def inspecting(system, emit, fail):
        def inspect(line):
            J = cs.parse_subset(line.rpartition("J=")[2].partition(":")[0])
            for cache in coset_keyed:
                for (p,) in _cache_keys(cache):
                    assert p.right == J or (cache is cs.max_elem and p in atom_cosets), (cache, p, line)
            keys = [key for cache in system_keyed for key in _cache_keys(cache)]
            assert all(_system_of(key) is system for key in keys), line
            seen.append(len(keys))
            emit(line)

        check(system, inspect, fail)

    monkeypatch.setitem(cli._SUITES, "core-atomic", (inspecting, supported))
    code, out, err = run(capsys, "verify", "core-atomic", "--type", "A", "--max-rank", "4")
    assert code == 0, err
    assert len(seen) == sum(2 ** system.rank for system in systems)
    assert min(seen) > 0


def _rebind_cached_functions(monkeypatch):
    # as the benchmark's tracer does: each public lru_cache'd function becomes
    # a plain pass-through wrapper, which has no cache_clear
    cached = {id(obj): obj for module in _package_modules() for name, obj in vars(module).items()
              if not name.startswith("_") and hasattr(obj, "cache_clear")}
    for fn in cached.values():
        def wrapper(*args, _fn=fn, **kwargs):
            return _fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        _rebind_everywhere(monkeypatch, fn, wrapper)


@pytest.mark.parametrize("cartan", ["A", "B"])
@pytest.mark.parametrize("suite", ["core-atomic", "matsumoto", "atomic-rex-bijection"])
def test_verify_clears_its_caches_when_the_public_names_are_rebound(capsys, monkeypatch, suite, cartan):
    argv = ("verify", suite, "--type", cartan, "--max-rank", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    _rebind_cached_functions(monkeypatch)
    assert not hasattr(cs.max_elem, "cache_clear") and not hasattr(atomic.max_elem, "cache_clear")
    assert run(capsys, *argv)[:2] == (0, out)


def _matsumoto_by_words(p):
    """The braid check by listing words: the breadth-first closure of the
    greedy index word against every atomic index word of p."""
    small = atomic.squashed_system(p.system, p.right)
    closure = braid_closure_oracle(small, atomic.word_of_rex(atomic.atomic_rex_of_core(p)))
    return closure == set(cx.all_paths(p, atomic._atomic_steps, {}))


@pytest.mark.parametrize(
    "fault", [None, _drop_a_commutation, _swap_two_atom_indices, _drop_last_atom],
    ids=lambda f: getattr(f, "__name__", "clean"),
)
def test_matsumoto_agrees_with_the_word_listing_check(monkeypatch, fault):
    if fault is not None:
        fault(monkeypatch)
    verdicts = []
    for system in [cx.type_a(r) for r in range(1, 5)] + [cx.type_b(r) for r in range(1, 4)]:
        memo = {}
        for _, found in cli._core_by_right(system):
            for _, p in found:
                verdicts.append(atomic.matsumoto_connected(p, memo))
                assert verdicts[-1] == _matsumoto_by_words(p), p
    assert len(verdicts) == 419
    assert all(verdicts) == (fault is None)


def _drop_a_table_row(monkeypatch):
    right = cs._descent_table
    monkeypatch.setattr(cs, "_descent_table", lambda system: right(system)[:-1])


def _identity_conjugates_to_nothing(monkeypatch):
    right = cs._descent_table

    def table(system):
        (w, ld, rd, conj), *rest = right(system)
        assert w == cx.identity(system)
        return ((w, ld, rd, (None,) * len(conj)), *rest)

    monkeypatch.setattr(cs, "_descent_table", table)


@pytest.mark.parametrize("fault", [_drop_a_table_row, _identity_conjugates_to_nothing], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "squash-bijection", "--type", "A", "--max-rank", "3"),
        ("verify", "type-b", "--type", "B", "--max-rank", "2"),
    ],
    ids=" ".join,
)
def test_verify_catches_a_wrong_descent_table(capsys, monkeypatch, fault, argv):
    fault(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "all checks passed" not in out
    assert any(line.startswith("FAIL: squash count at ") for line in err.splitlines())


# ---------------------------------------------------------------------------
# fuzzing: argument vectors of the real subcommands and flags, with junk values

_JUNK = st.sampled_from(["", " ", "x", "-1", "1.5", "[", "]", "{", "}", "--"])
_SMALL_INTS = st.lists(st.integers(-1, 6), max_size=4)


@st.composite
def _coset_docs(draw):
    """A well-formed coset of A or B up to rank 4 (core or not), or one with
    a key dropped or given a junk value."""
    cartan = draw(st.sampled_from(["A", "B"]))
    rank = draw(st.integers(0, 4))
    start = 1 if cartan == "A" else 0
    images = draw(st.permutations(range(1, rank + start + 1)))
    signs = [draw(st.sampled_from([1, -1])) if cartan == "B" else 1 for _ in images]
    frames = st.lists(st.integers(start, rank + start), max_size=rank, unique=True)  # the last index is one too far
    doc = {"cartan": cartan, "rank": rank, "left": draw(frames), "right": draw(frames),
           "min": [s * x for s, x in zip(signs, images)]}
    key = draw(st.sampled_from([None, "cartan", "rank", "left", "right", "min", "bond"]))
    if key is not None:
        junk = draw(st.sampled_from(["I2", "Z", 1, 2.5, True, None, -1, 13, "x", [[1]], [1.5], [9], {"a": 1}, "drop"]))
        if junk == "drop":
            doc.pop(key, None)
        else:
            doc[key] = junk
    return doc


_COSETS = st.one_of(
    _coset_docs().map(json.dumps),
    st.sampled_from(["{}", "[]", "null", "not json", '"A"', '{"cartan": }', "1e999", "[" * 50 + "]" * 50, DEEP_JSON]),
)
_SUBSETS = st.one_of(
    _SMALL_INTS.map(lambda xs: "{" + ",".join(map(str, xs)) + "}"),
    st.sampled_from(["{1,,2}", "{a}", "1,2", "{1", "{1.0}", "{13}"]),
)
_ELEMENTS = st.one_of(
    st.integers(1, 5).flatmap(lambda n: st.permutations(range(1, n + 1))).map(lambda xs: "[" + ",".join(map(str, xs)) + "]"),
    st.lists(st.integers(-5, 6), max_size=6).map(lambda xs: "[" + ",".join(map(str, xs)) + "]"),
    st.lists(st.integers(0, 3), max_size=6).map(lambda xs: " ".join(map(str, xs))),
    _JUNK,
)
_EXPRS = st.one_of(
    st.sampled_from(["[{1} +2 -1]", "[[{1} < {1,2} > {2}]]", "[{1} +2 +2]", "[{9} +1 -1]", "[[{}]]", "[{1} +x]"]),
    st.text(alphabet="[]{}<>+-, 0123456789", max_size=20),
)
# a value for every flag that takes one; ranks and bonds stay at most 12
_VALUES = {
    "--type": st.sampled_from(["A", "A", "B", "B", "I2", "C"]),
    "--rank": st.one_of(st.integers(-1, 4).map(str), st.integers(-2, 12).map(str), _JUNK),
    "--bond": st.one_of(st.integers(-1, 12).map(str), _JUNK),
    "--expr": _EXPRS,
    "--format": st.sampled_from(["text", "json", "xml"]),
    "--coset": _COSETS,
    "--left": _SUBSETS,
    "--right": _SUBSETS,
    "--min": _ELEMENTS,
    "--sigma": _ELEMENTS,
    "--exprs": st.just("no-such-file.txt"),
    "--budget": st.one_of(st.integers(-5, 1000).map(str), _JUNK),
    # verify always gets a small max rank: its defaults take seconds per suite
    "--max-rank": st.one_of(st.integers(-1, 3).map(str), _JUNK),
}
_SUBCOMMANDS = next(
    action.choices for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
)


@st.composite
def _junk_argv(draw):
    """A subcommand with a random choice of its flags (a required one is left
    out now and then), each with a value drawn from _VALUES."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [command]
    for action in _SUBCOMMANDS[command]._actions:
        if not action.option_strings:  # the verify suite
            argv += draw(st.sampled_from([[], ["nope"]] + [[suite] for suite in sorted(_SUITES)]))
        elif action.dest == "help":
            continue
        elif action.nargs == 0:
            argv += draw(st.sampled_from([[], action.option_strings]))
        elif action.dest == "max_rank" or draw(st.integers(0, 9)) < (9 if action.required else 5):
            argv += [action.option_strings[0], draw(_VALUES[action.option_strings[0]])]
    return argv


def _run_quietly(argv):
    """main(argv)'s exit code, stdout and stderr; argparse's refusals included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# a refusal by argparse, a coset query and a verify run
_REUSE_ARGVS = [
    ["squash", "--nope"],
    ["squash", "--coset", json.dumps({"cartan": "A", "rank": 3, "left": [1], "right": [3], "min": [3, 4, 1, 2]})],
    ["verify", "core-atomic", "--type", "A", "--max-rank", "2"],
]


def test_a_shared_parser_answers_each_call_as_a_fresh_one():
    fresh = []
    for argv in _REUSE_ARGVS:
        build_parser.cache_clear()  # each call the first of its process
        fresh.append(_run_quietly(argv))
    build_parser.cache_clear()
    assert [_run_quietly(argv) for argv in _REUSE_ARGVS] == fresh
    assert [code for code, _, _ in fresh] == [2, 0, 0]
    assert fresh[1][1] == "[2,3,1]\n" and fresh[2][1].endswith("core-atomic: all checks passed\n")


def test_main_builds_the_parser_once():
    build_parser.cache_clear()
    for _ in range(10):
        for argv in _REUSE_ARGVS[:2]:
            _run_quietly(argv)
    assert build_parser.cache_info().misses == 1


def test_every_flag_has_junk_values():
    flags = {
        action.option_strings[0]
        for sub in _SUBCOMMANDS.values()
        for action in sub._actions
        if action.option_strings and action.nargs != 0 and action.dest != "help"
    }
    assert flags == set(_VALUES)


@settings(max_examples=200, deadline=None)
@given(_junk_argv())
def test_junk_arguments_end_in_an_exit_code_not_a_traceback(argv):
    code, _, err = _run_quietly(argv)  # an uncaught exception fails the test here
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        assert re.match(r"(cosetrex( [\w-]+)?: )?error: ", lines[-1]), err
        assert len(lines) == 1 or lines[0].startswith("usage: "), err
        assert not any("error:" in line for line in lines[:-1]), err
