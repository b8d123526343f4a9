import argparse
import ast
import functools
import gc
import hashlib
import importlib
import io
import json
import os
import pkgutil
import re
import runpy
import shlex
import subprocess
import sys
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetrex import atomic, cli, verify
from cosetrex import cosets as cs
from cosetrex import coxeter as cx
from cosetrex import expressions as ex
from cosetrex import squash_a, squash_b
from cosetrex.cli import build_parser, main
from cosetrex.verify import _SUITES
from conftest import (
    add_remove_oracle,
    braid_closure_oracle,
    count_calls,
    drop_table_row,
    enumerate_core_cosets_oracle,
    package_modules,
    rebind_everywhere,
    star_product_oracle,
)

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


@pytest.mark.parametrize(
    "argv",
    [
        ("eval-expr", "--rank", "1000000000000000", "--expr", "[{}]"),
        ("eval-expr", "--rank", "9223372036854775808", "--expr", "[{}]"),
        ("unsquash", "--rank", "1000000000000000", "--right", "{}", "--sigma", "[1]"),
        ("unsquash", "--rank", "9223372036854775808", "--right", "{}", "--sigma", "[1]"),
        ("compose", "--rank", "1000000000000000", "--exprs", "CHAIN"),
        ("compose", "--rank", "9223372036854775808", "--exprs", "CHAIN"),
        ("eval-expr", "--type", "I2", "--rank", "2", "--bond", "1000000000000000", "--expr", "[[{} < {1,2} > {}]]"),
    ],
    ids=" ".join,
)
def test_a_huge_rank_or_bond_is_a_usage_error(capsys, tmp_path, argv):
    # each fails at its first allocation, which no host can make: a system of
    # 10^15 points, a rank past the C size type, or the longest word of I2(10^15)
    chain = tmp_path / "chain.txt"
    chain.write_text("[{}]\n")
    code, out, err = run(capsys, *(str(chain) if arg == "CHAIN" else arg for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: input too large: ") and err.count("\n") == 1, err


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


def _system_flags(system):
    flags = ["--type", system.cartan, "--rank", str(system.rank)]
    return flags if system.bond is None else flags + ["--bond", str(system.bond)]


def _oracle_lines(found, fmt):
    """The lines of the pairs (I, p) found, built here and not by cli: text
    from format_subset and format_data, JSON as json.dumps of the coset's
    document with sorted keys (I2 adds the bond key)."""
    if fmt == "json":
        return "".join(
            json.dumps(cs.coset_document(p.system, I, p.right, p.min.data), sort_keys=True) + "\n" for I, p in found
        )
    return "".join(
        f"coset: left={cs.format_subset(I)} right={cs.format_subset(p.right)}"
        f" min={cx.format_data(p.system.cartan, p.min.data)}\n"
        for I, p in found
    )


@pytest.mark.parametrize("chunk", [1, 3, cli._CHUNK])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "system",
    [cx.type_a(r) for r in range(5)] + [cx.type_b(r) for r in range(4)] + [cx.dihedral(m) for m in range(3, 8)],
    ids=str,
)
def test_enumerate_core_lines_match_an_oracle_built_without_cli(capsys, monkeypatch, system, fmt, chunk):
    # the expected lines come from the brute-force oracle, not from the view;
    # chunks of 1 and 3 rows break inside and across left frames
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    for J in cs.all_frames(system):
        found = enumerate_core_cosets_oracle(system, J)
        expected = _oracle_lines(found, fmt)
        argv = ["enumerate-core", *_system_flags(system), "--format", fmt, "--right", cs.format_subset(J)]
        assert run(capsys, *argv) == (0, expected + f"count: {len(found)}\n", "")
        # _print_coset, which unsquash, eval-expr and compose call, writes the same lines
        for _, p in found:
            cli._print_coset(p, fmt)
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(3)], ids=str)
def test_enumerate_core_lists_what_the_enumerator_returns(capsys, monkeypatch, system, fmt):
    # a wrapper that drops the last coset, as the benchmark's drop-coset
    # fault does, drops it from the listing and from the count
    fn = cs.enumerate_core_cosets
    monkeypatch.setattr(cs, "enumerate_core_cosets", lambda *a, **k: fn(*a, **k)[:-1])
    for J in cs.all_frames(system):
        found = enumerate_core_cosets_oracle(system, J)[:-1]
        expected = _oracle_lines(found, fmt) + f"count: {len(found)}\n"
        argv = ["enumerate-core", *_system_flags(system), "--format", fmt, "--right", cs.format_subset(J)]
        assert run(capsys, *argv) == (0, expected, "")


def test_enumerate_core_writes_a_chunk_of_lines_at_a_time(monkeypatch):
    # A6 with J = {} lists 5040 cosets: two chunks of at most 4096 lines, then the count
    system = cx.type_a(6)
    expected = _oracle_lines(enumerate_core_cosets_oracle(system, frozenset()), "text") + "count: 5040\n"
    writes = []

    class Recording(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Recording())
    assert main(["enumerate-core", "--type", "A", "--rank", "6", "--right", "{}"]) == 0
    assert [text.count("\n") for text in writes] == [4096, 944, 1]
    assert "".join(writes) == expected
    # the bytes the listing wrote in one call before it wrote in chunks
    digest = "b7b2375e706642d5f09fd2b5122e7b5814fff6d16f1f48f464aef13ba85b6ce5"
    assert hashlib.sha256(expected.encode()).hexdigest() == digest


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


@pytest.mark.parametrize(
    "system, chain, fmt, out",
    [
        (cx.type_a(3), ["[[{} < {1,2,3} > {}]]"] * 2, "text",
         "coset: left={} right={} min=[4,3,2,1]\nreduced: false\n"),
        (cx.type_a(3), ["[{1} +2 -1]", "[{2} +1 -2]"], "json",
         '{"coset": {"cartan": "A", "left": [1], "min": [1, 3, 2, 4], "rank": 3, "right": [1]},'
         ' "reduced": false}\n'),
        (cx.type_b(2), ["[[{} < {0,1} > {}]]", "[[{} < {0} > {}]]"], "text",
         "coset: left={} right={} min=[-1,-2]\nreduced: false\n"),
        (cx.dihedral(5), ["[[{} < {1,2} > {}]]", "[[{} < {1} > {}]]"], "text",
         "coset: left={} right={} min=1 2 1 2 1\nreduced: false\n"),
    ],
    ids=str,
)
def test_compose_star_composes_a_composition_that_is_not_reduced(
    tmp_path, capsys, monkeypatch, system, chain, fmt, out
):
    exprs = tmp_path / "exprs.txt"
    exprs.write_text("\n".join(chain) + "\n")
    star = count_calls(monkeypatch, cs.star_compose)
    flags = ["--type", system.cartan, "--rank", str(system.rank)]
    flags += ["--bond", str(system.bond)] if system.bond else []
    assert run(capsys, "compose", *flags, "--exprs", str(exprs), "--format", fmt) == (0, out, "")
    p, q = (ex.evaluate(ex.parse_expression(system, text)) for text in chain)
    assert star == [(p, q)]
    r = cs.coset_of(system, p.left, star_product_oracle(cs.max_elem(p), cs.max_elem(q)), q.right)
    if fmt == "json":
        assert json.loads(out)["coset"] == cs.coset_to_json(r)
    else:
        left, right = cs.format_subset(r.left), cs.format_subset(r.right)
        assert out.splitlines()[0] == f"coset: left={left} right={right} min={cx.format_element(r.min)}"


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


A3_CORE = json.dumps({"cartan": "A", "rank": 3, "left": [1], "right": [3], "min": [3, 4, 1, 2]})
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
        # --coset gives the whole coset, so any other coset flag is refused
        ("atomic-rex", "--coset", A3_CORE, "--left", "{2}", "--rank", "7"),
        ("squash", "--coset", A3_CORE, "--min", "[1,2,3,4]"),
        ("squash", "--coset", A3_CORE, "--type", "B"),
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


@pytest.mark.parametrize(
    "flag, value",
    [("--left", "{1}"), ("--right", "{3}"), ("--min", "[3,4,1,2]"), ("--type", "A"), ("--rank", "3"),
     ("--bond", "4")],
)
def test_coset_with_another_coset_flag_names_the_flag(capsys, flag, value):
    # each value agrees with A3_CORE, and the flag is refused all the same
    for command in ("atomic-rex", "squash"):
        code, out, err = run(capsys, command, "--coset", A3_CORE, flag, value)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.rstrip().endswith(f"drop {flag}")
        code, out, _ = run(capsys, command, "--coset", A3_CORE)
        assert code == 0 and out


def test_a_short_coset_document_builds_no_system_of_its_rank(capsys, monkeypatch):
    # the window is checked against min before the system of rank 10**6 is built
    monkeypatch.setattr(cx, "_SYSTEMS", {key: s for key, s in cx._SYSTEMS.items() if key.rank != 10**6})
    doc = json.dumps({"cartan": "A", "rank": 10**6, "left": [], "right": [], "min": [1, 2]})
    code, out, err = run(capsys, "squash", "--coset", doc)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert ("A", 10**6, None) not in cx._SYSTEMS


@pytest.mark.parametrize("command", ["atomic-rex", "squash"])
def test_a_short_min_flag_builds_no_system_of_its_rank(capsys, monkeypatch, command):
    # the flag twin: --min is checked against the window before the system is built
    monkeypatch.setattr(cx, "_SYSTEMS", {key: s for key, s in cx._SYSTEMS.items() if key.rank != 10**6})
    code, out, err = run(capsys, command, "--type", "A", "--rank", str(10**6),
                         "--left", "{1}", "--right", "{3}", "--min", "[3,4,1,2]")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert ("A", 10**6, None) not in cx._SYSTEMS


@pytest.mark.parametrize(
    "system", [cx.type_a(r) for r in range(1, 4)] + [cx.type_b(r) for r in range(1, 3)]
    + [cx.dihedral(m) for m in range(3, 6)], ids=str,
)
def test_flags_and_coset_json_build_the_same_coset(capsys, system):
    commands = ["atomic-rex"] if system.cartan == "I2" else ["atomic-rex", "squash"]
    for J in cs.all_frames(system):
        for _, p in enumerate_core_cosets_oracle(system, J):
            flags = [*_system_flags(system), "--left", cs.format_subset(p.left), "--right",
                     cs.format_subset(p.right), "--min", cx.format_data(system.cartan, p.min.data)]
            doc = json.dumps(cs.coset_to_json(p))
            for command in commands:
                from_flags = run(capsys, command, *flags)
                assert from_flags[0] == 0 and from_flags[1]
                assert from_flags == run(capsys, command, "--coset", doc)


@pytest.mark.parametrize("command", ["atomic-rex", "squash"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--min", "[3,4]", "min lists 2 images, but A3 acts on 4 points"),
        ("--bond", "4", "bond is only meaningful for I2"),
        ("--left", "{x}", "invalid literal for int() with base 10: 'x'"),
    ],
)
def test_a_bad_coset_flag_is_a_one_line_usage_error(capsys, command, flag, value, message):
    flags = {"--type": "A", "--rank": "3", "--left": "{1}", "--right": "{3}", "--min": "[3,4,1,2]", flag: value}
    argv = [part for pair in flags.items() for part in pair]
    assert run(capsys, command, *argv) == (2, "", f"error: {message}\n")


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
     ("I2", "CoxeterSystem", range(3, 5001), 10002)],
    ids=["A", "B", "I2"],
)
def test_verify_builds_no_system_past_the_first_over_budget_rank(capsys, monkeypatch, cartan, constructor, ranks, order):
    # the walks build their systems through the coxeter module's attribute
    built = []
    build = getattr(cx, constructor)

    def counting(*args):
        built.append(args[-1])  # the rank, or the bond of a dihedral group
        return build(*args)

    monkeypatch.setattr(cx, constructor, counting)
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
    # every remainder becomes the identity coset of the right frame
    monkeypatch.setattr(atomic, "_peel", lambda p, a, pmax: cs.identity_coset(p.system, p.right))


def _stop_one_atom_early(monkeypatch):
    # the greedy step that would leave the identity coset of its frames is
    # not taken, so each greedy expression loses its last atom
    right = atomic._greedy_step

    def step(cur):
        found = right(cur)
        if found is not None and found[1] == cs.identity_coset(cur.system, cur.right):
            return None
        return found

    monkeypatch.setattr(atomic, "_greedy_step", step)


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
        pairs = [(i, j) for i, row in enumerate(rows) for j, move in enumerate(row) if move and len(move[0]) == 2]
        for i, j in pairs[:1]:
            rows[i][j] = rows[j][i] = None
        return rows

    monkeypatch.setattr(cx, "_braid_table", table)


def _negate_reducedness(monkeypatch):
    # both reducedness checks: reduced_composite, which gives the star
    # composite where the composition is not reduced and 0 where it is, and
    # the one-product check
    right = cs.reduced_composite
    star = cs.star_compose
    rebind_everywhere(monkeypatch, right, lambda p, q: star(p, q) if right(p, q) is None else None)
    composes = cs.composes_reducedly_to
    rebind_everywhere(monkeypatch, composes, lambda p, q, r: not composes(p, q, r))


def _compose_to_the_tail(monkeypatch):
    # every composite: star_compose's, reduced_composite's, and the one
    # composes_reducedly_to compares against
    monkeypatch.setattr(cs, "star_compose", lambda p, q: q)
    right = cs.reduced_composite
    rebind_everywhere(monkeypatch, right, lambda p, q: None if right(p, q) is None else q)
    composes = cs.composes_reducedly_to
    monkeypatch.setattr(cs, "composes_reducedly_to", lambda p, q, r: composes(p, q, q))


def _no_right_redundancy(monkeypatch):
    # redundancy-a reads both redundancies from one _redundancy call
    right = cs._redundancy
    monkeypatch.setattr(cs, "_redundancy", lambda p: (right(p)[0], frozenset()))


def _peel_to_itself(monkeypatch):
    # no step shortens its coset, which _greedy_step's cross-check raises on
    monkeypatch.setattr(atomic, "_peel", lambda p, a, pmax: p)


def _factor_the_core(monkeypatch):
    # each coset's factorization is its core's, which evaluates to the core
    right = atomic.factor_through_core
    monkeypatch.setattr(atomic, "factor_through_core", lambda p: right(cs.core(p)))


def _unsquash_off_the_minimum(monkeypatch):
    # the cross-check in unsquash sees each lifted coset with the identity as
    # its minimum
    monkeypatch.setattr(squash_a, "coset_of", lambda system, I, y, J: cs.identity_coset(system, J))


def _max_keeps_the_signs(monkeypatch):
    # max_elem sorts the type-B run s_0..s_{k-1} like the run s_1..s_{k-1},
    # keeping the signs of its places instead of writing -|x|
    right = cs.max_elem.__wrapped__
    rebind_everywhere(
        monkeypatch, cs.max_elem, lambda p: right(p._replace(left=p.left - {0}, right=p.right - {0}))
    )


def _simple_conjugate_misses_the_identity(monkeypatch):
    right = cx.simple_conjugate
    rebind_everywhere(monkeypatch, right, lambda w, j: None if w == cx.identity(w.system) else right(w, j))


# faults, each with a run that must catch it; _peel_to_itself,
# _unsquash_off_the_minimum and the four type-B rows at the end always raise
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
    (_compose_to_the_tail, "mimimi", "A", "3"),
    (_no_right_redundancy, "redundancy-a", "A", "3"),
    (_negate_reducedness, "add-remove", "A", "3"),
    (_factor_the_core, "add-remove", "B", "3"),
    (_peel_to_itself, "core-atomic", "A", "3"),
    (_unsquash_off_the_minimum, "squash-bijection", "A", "3"),
    (_unsquash_off_the_minimum, "squash-bijection", "B", "3"),
    (_max_keeps_the_signs, "core-atomic", "B", "3"),
    (_max_keeps_the_signs, "matsumoto", "B", "3"),
    (_simple_conjugate_misses_the_identity, "core-atomic", "B", "3"),
    (_simple_conjugate_misses_the_identity, "matsumoto", "B", "3"),
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
    for module in package_modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "after-a-clean-run"])
@pytest.mark.parametrize("fault, suite, cartan, max_rank", _WALK_FAULTS, ids=_fault_id)
def test_a_wrong_answer_is_caught_whatever_the_caches_hold(capsys, monkeypatch, warm, fault, suite, cartan, max_rank):
    # after a clean run, the library caches are warm, and so would be any
    # walk memo that outlived its walk: the faulted run must not read the
    # clean answers from either
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


@pytest.mark.parametrize(
    "suite, line",
    [("atomatom", "FAIL: aa=a: reduced composition at J=[] i=1"),
     ("nilcox-relations", "FAIL: reachable generator products differ from the core basis at ")],
)
def test_verify_catches_a_negated_reducedness_in_the_generator_suites(capsys, monkeypatch, suite, line):
    # these suites' FAIL lines do not start with the suite name, so they are
    # not rows of _WALK_FAULTS
    _negate_reducedness(monkeypatch)
    code, out, err = run(capsys, "verify", suite, "--type", "A", "--max-rank", "3")
    assert code == 1
    assert "all checks passed" not in out
    assert any(text.startswith(line) for text in err.splitlines())


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


def test_core_atomic_walks_each_remainder_once(capsys, monkeypatch):
    # one coset_of per greedy step, from the remainder's minimum, and one per
    # atom's coset; no star composition
    calls = {"coset_of": 0, "star_compose": 0}
    for name in calls:
        right = getattr(cs, name)

        def counted(*args, name=name, right=right):
            calls[name] += 1
            return right(*args)

        rebind_everywhere(monkeypatch, right, counted)
    code, out, err = run(capsys, "verify", "core-atomic", "--type", "A", "--max-rank", "4")
    assert code == 0, err
    systems = [cx.type_a(r) for r in range(1, 5)]
    cores = sum(len(cs.enumerate_core_cosets(s, J)) for s in systems for J in cs.all_frames(s))
    atoms = sum(len(M) for s in systems for M in cs.all_frames(s))
    assert calls["star_compose"] == 0
    assert 0 < calls["coset_of"] <= cores + atoms


def _walked_cosets(system):
    frames = cs.all_frames(system)
    return [p for I in frames for J in frames for p in cs.enumerate_cosets(system, I, J)]


def test_add_remove_factors_each_coset_once(capsys, monkeypatch):
    calls = []
    right = atomic.factor_through_core
    rebind_everywhere(monkeypatch, right, lambda p: calls.append(p) or right(p))
    code, out, err = run(capsys, "verify", "add-remove", "--type", "B", "--max-rank", "3")
    assert code == 0, err
    walked = [p for r in range(1, 4) for p in _walked_cosets(cx.type_b(r))]
    assert len(calls) == len(set(calls)) == len(walked)
    assert set(calls) == set(walked)


def test_add_remove_agrees_with_the_whole_expression_oracle(monkeypatch):
    # each (p, s) verdict of the suite, recorded at its one composition, is
    # the oracle's verdict on the whole expression; and each coset's own
    # factorization is reduced and evaluates to it
    systems = [cx.type_a(r) for r in range(1, 5)] + [cx.type_b(r) for r in range(1, 4)]
    systems += [cx.dihedral(m) for m in range(3, 8)]
    right = cs.composes_reducedly_to
    verdicts = {}

    def recording(h, q, p):
        verdicts[p, h.right] = found = right(h, q, p)
        return found

    monkeypatch.setattr(cs, "composes_reducedly_to", recording)
    cases = 0
    for system in systems:
        failures = []
        verify._check_add_remove(system, lambda line: None, failures.append)
        assert not failures
        for p in _walked_cosets(system):
            expr = atomic.factor_through_core(p)
            assert ex.is_reduced(expr) and ex.evaluate(expr) == p, p
            pmax = cs.max_elem(p)
            wI = cs.longest_element(system, p.left)
            for s in system.simple_indices:
                M = p.left ^ {s}
                qmax = cx.multiply(cx.multiply(cs.longest_element(system, M), wI), pmax) if s in p.left else pmax
                assert verdicts.pop((p, M)) == add_remove_oracle(p, p.left, M, qmax), (p, s)
                cases += 1
        assert not verdicts
    assert cases == 14862


def _cache_keys(cache):
    """The argument tuples an lru_cache holds.  CPython keeps them as the keys
    of the one dict the cache object refers to besides its __dict__."""
    (table,) = [d for d in gc.get_referents(cache) if isinstance(d, dict) and d is not cache.__dict__]
    return list(table)


def _system_of(key):
    first = key[0]
    return first if isinstance(first, cx.CoxeterSystem) else first.system


def test_verify_scopes_its_caches_to_the_cell_and_the_system(capsys, monkeypatch):
    coset_keyed = [cs.max_elem]
    system_keyed = coset_keyed + [
        cx.length, cx.reduced_word, cs.longest_element,
        cs._descent_table, atomic._atom, atomic.coset_of_atom,
    ]
    systems = [cx.type_a(r) for r in range(1, 5)]

    def scoped(suite, in_cell):
        # at each cell line, in_cell(cache, p, frame) holds for every coset p
        # of the coset-keyed caches, and every key belongs to the system
        check, supported = _SUITES[suite]
        seen = []

        def inspecting(system, emit, fail):
            def inspect(line):
                frame = cs.parse_subset(line.rpartition("=")[2].partition(":")[0])
                cosets = [(cache, p) for cache in coset_keyed for (p,) in _cache_keys(cache)]
                outside = [(cache, p) for cache, p in cosets if not in_cell(cache, p, frame)]
                assert not outside, (outside[:3], line)
                keys = [key for cache in system_keyed for key in _cache_keys(cache)]
                assert all(_system_of(key) is system for key in keys), line
                seen.append((len(keys), len(cosets)))
                emit(line)

            check(system, inspect, fail)

        monkeypatch.setitem(verify._SUITES, suite, (inspecting, supported))
        code, out, err = run(capsys, "verify", suite, "--type", "A", "--max-rank", "4")
        assert code == 0, err
        assert len(seen) == sum(2 ** system.rank for system in systems)
        assert min(n for n, _ in seen) > 0 and max(n for _, n in seen) > 0

    # each step reads the maximum of its atom's coset, whose right frame is
    # the remainder's left frame; only max_elem holds those
    atom_cosets = {
        atomic.coset_of_atom(atomic.atomic_from(system, M, s))
        for system in systems for M in cs.all_frames(system) for s in M
    }
    scoped("core-atomic", lambda cache, p, J: p.right == J or (cache is cs.max_elem and p in atom_cosets))
    # a walk over every coset, by left frame
    scoped("redundancy-a", lambda cache, p, I: p.left == I)


def test_verify_gives_every_library_cache_a_lifetime():
    # every cache of the package lasts one system of a verify run, or is one
    # of the few that stay for the process: the simple reflections and braid
    # tables of the interned systems, and the shared argument parser
    process_wide = {cx.simple, cx._braid_table, cli.build_parser}
    caches = {obj for module in package_modules() for obj in vars(module).values() if hasattr(obj, "cache_clear")}
    assert caches - process_wide <= set(verify._SYSTEM_CACHES)
    assert set(verify._CELL_CACHES) <= set(verify._SYSTEM_CACHES)


# a core coset of A8 and one of A9, each by its right frame and squashed permutation
_QUERIES = {8: ("{2,5,6}", "[3,1,6,2,5,4]"), 9: ("{1,4}", "[2,8,1,7,3,6,4,5]")}


def _query(capsys, rank, after=lambda: None):
    """The four single-coset commands on the A<rank> coset of _QUERIES, as
    query-mix runs them: unsquash, then squash and atomic-rex of its coset,
    then eval-expr of the atomic expression; their outputs, calling after
    after each command."""
    right, sigma = _QUERIES[rank]
    outs = []

    def command(*argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        outs.append(out)
        after()
        return out.strip()

    doc = command("unsquash", "--type", "A", "--rank", str(rank), "--right", right, "--sigma", sigma, "--format", "json")
    command("squash", "--coset", doc)
    rex = command("atomic-rex", "--coset", doc)
    command("eval-expr", "--type", "A", "--rank", str(rank), "--expr", rex, "--format", "json")
    return outs


def _system_cache_sizes():
    return [cache.cache_info().currsize for cache in verify._SYSTEM_CACHES]


def test_cli_commands_keep_one_systems_cache_entries(capsys):
    # a long-lived caller of main holds what its commands on the current
    # system filled, as after a clear, however many systems came before
    cold = {}
    for rank in _QUERIES:
        verify._clear(verify._SYSTEM_CACHES)
        _query(capsys, rank, lambda: cold.setdefault(rank, []).append(_system_cache_sizes()))
    verify._clear(verify._SYSTEM_CACHES)
    for rank in (8, 9, 8, 9, 8):
        sizes = []
        _query(capsys, rank, lambda: sizes.append(_system_cache_sizes()))
        assert sizes == cold[rank], rank
    # a second round on the same system reads what the first one filled
    sizes = []
    _query(capsys, 8, lambda: sizes.append(_system_cache_sizes()))
    assert sizes == [cold[8][-1]] * 4


def test_cli_commands_on_one_system_share_its_descent_table(capsys, monkeypatch):
    argvs = [["enumerate-core", *_system_flags(system), "--right", cs.format_subset(J)]
             for system in (cx.type_a(4), cx.type_b(3)) for J in cs.all_frames(system)]
    assert len(argvs) == 16 + 8
    cold = []
    for argv in argvs:
        verify._clear(verify._SYSTEM_CACHES)
        cold.append(run(capsys, *argv))
    verify._clear(verify._SYSTEM_CACHES)
    builds = count_calls(monkeypatch, cs._prefix_rows)
    assert [run(capsys, *argv) for argv in argvs] == cold
    assert len(builds) == 2
    assert cs._descent_table.cache_info().currsize == 1  # B3's; A4's went with the move to B3


def test_cli_output_does_not_depend_on_the_commands_before(capsys):
    _clear_every_cache()
    cold = _query(capsys, 8)
    _query(capsys, 9)
    assert _query(capsys, 8) == cold
    assert _query(capsys, 8) == cold


def test_core_atomic_keeps_no_memo_per_coset(capsys, monkeypatch):
    # core-atomic reads each coset's greedy step, core test and redundancy
    # once: they are plain functions, and no dict keyed by cosets outlives
    # the run; the only coset-keyed cache left is max_elem's, which its last
    # cell emptied at its start.  Left descents read the position list, so
    # no inverse or descent set is built or cached per element.
    _clear_every_cache()
    inverses = count_calls(monkeypatch, cx.inverse)
    code, out, err = run(capsys, "verify", "core-atomic", "--type", "A", "--max-rank", "4")
    assert code == 0, err
    for fn in (cs.is_core, cs._redundancy, atomic._greedy_step, cx.right_descents):
        assert not hasattr(fn, "cache_info"), fn
    gc.collect()
    memos = [obj for obj in gc.get_objects()
             if type(obj) is dict and obj and isinstance(next(iter(obj)), cs.DoubleCoset)]
    assert not memos
    caches = {obj for module in package_modules() for obj in vars(module).values() if hasattr(obj, "cache_clear")}
    keyed = {cache for cache in caches
             if any(isinstance(arg, cs.DoubleCoset) for key in _cache_keys(cache) for arg in key)}
    assert keyed == {cs.max_elem}
    last = [p for (p,) in _cache_keys(cs.max_elem) if p.system == cx.type_a(4)]
    assert len(last) == len(_cache_keys(cs.max_elem)) <= cx.group_order(cx.type_a(4))
    assert not inverses


@pytest.mark.parametrize(
    "suite, cartan",
    [("core-atomic", "A"), ("core-atomic", "B"), ("core-atomic", "I2"), ("matsumoto", "A"), ("matsumoto", "B")],
)
def test_verify_prints_the_same_under_python_O(suite, cartan):
    # -O strips is_core's __debug__ cross-check: a check, never a change of
    # what a run prints or returns
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = ["-m", "cosetrex", "verify", suite, "--type", cartan]
    runs = [subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True, text=True, timeout=300)
            for flags in ([], ["-O"])]
    plain, optimized = runs
    assert plain.returncode == 0 and plain.stdout.endswith(f"{suite}: all checks passed\n"), plain.stderr
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)


# stdout of `verify <suite> --type <type>` at the default ranks, as (line
# count, sha256); it does not depend on the hash seed
_DEFAULT_OUTPUT = {
    ("core-atomic", "A"): (63, "9862db093c7f435ed2676c33b25a5a084b8b8de39bfeced492df87836c1dc333"),
    ("core-atomic", "B"): (15, "838d5ba5d09fb08801d05efd6aa54aba2c3db05c5978c3c84856a4f8665cfde0"),
    ("core-atomic", "I2"): (21, "db17003718709713903273f0bf5599c7ce0b7180e0c845511c2902d21daaca5f"),
    ("squash-bijection", "A"): (63, "f0b1557abfc5912d9bd601669f4499a643f36acdc9b876818b74c69a1c9461f4"),
    ("squash-bijection", "B"): (15, "b280c6e8533b18bc36979b9eda12259df3779457b7c40bb8dde045caf7a30023"),
    ("atomic-rex-bijection", "A"): (31, "105dbf6bf6f137ebce646852f1783cbb803ddb9e4b858b437c76c2e3d091ed2d"),
    ("atomic-rex-bijection", "B"): (15, "36e493d031599708691c9fa26990781d8190f5880714350a2b7be8d296ed1ff2"),
    ("matsumoto", "A"): (31, "551ee814f060f3a4643929c866f5c25934cd79dd00c373ff92395ceb6b99ea7c"),
    ("matsumoto", "B"): (15, "13b7168fcd1e316376760f5bbfaef5eda714c00e9d05daac0a5055c7b00e2954"),
    ("mimimi", "A"): (35, "083d95c92f6f5a6f1cdd3c8372473bced9f10f7e171c48b84875ead68f9e2bfe"),
    ("mimimi", "B"): (18, "7c53bbeaab02a0aaf48539e9bd414be5c0eb45802ef0764ca39307554d046eb5"),
    ("mimimi", "I2"): (6, "f699f444157e46d62c5cd105a6592761e661e6a4fb31741b9dc377bc81c428d5"),
    ("atomatom", "A"): (5, "62d0afea460780cac40b8c0bf78b362b795e63969560b20d352ae5ab8dc6252e"),
    ("atomatom", "B"): (4, "4159aa3d325d4c0bfceae3725fc2d9445b1b2ed87adb099fa69ae2f667ce6e32"),
    ("nilcox-relations", "A"): (5, "5e3fc90cd7f56a0258c31d7198e33a3fea79ee74a88005f25826b746c35942b7"),
    ("nilcox-relations", "B"): (4, "292d541f2c57c617aee0c60f934d76fb39a620954522153cf7f096d753d74e8c"),
    ("add-remove", "A"): (15, "c4ba7d941635e5b54c12c84968706c8bc132dc19da4aaeb1e166744c1be81cde"),
    ("add-remove", "B"): (15, "4d9ec2bbadd0f602d373e39dd8745ebb25a74b769956634aef90942fe9a6e818"),
    ("add-remove", "I2"): (5, "81cb95bfc92adb6f2b96523c34531a1e83d8b0a0fdb44dd169a9107a11e2cfcf"),
    ("redundancy-a", "A"): (31, "f5666aefbf7ec3e440b8bd1417c8fd62a29e5864d7efe638040528672fa5fe19"),
    ("type-b", "B"): (18, "37ae0918caf0e046d57ca5e10c0176934d238d87b957a1df8f297e6011e3ad8b"),
}


@pytest.mark.parametrize("suite, cartan", [(suite, cartan) for suite, (_, types) in _SUITES.items() for cartan in types])
def test_verify_default_output_is_pinned(capsys, suite, cartan):
    code, out, err = run(capsys, "verify", suite, "--type", cartan)
    assert code == 0, err
    lines, digest = _DEFAULT_OUTPUT[suite, cartan]
    assert (out.count("\n"), hashlib.sha256(out.encode()).hexdigest()) == (lines, digest)


_WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))


@pytest.mark.parametrize(
    "workload, argv",
    [("verify-core-a6", ("core-atomic", "A")), ("verify-braid-b4", ("matsumoto", "B"))],
    ids=["core-atomic", "matsumoto"],
)
def test_verify_output_passes_the_benchmark_gates(capsys, workload, argv):
    # the lines the benchmark's verify workloads parse, at a small rank
    suite, cartan = argv
    code, out, _ = run(capsys, "verify", suite, "--type", cartan, "--max-rank", "3")
    *cells, last = out.splitlines()
    assert code == 0 and last == f"{suite}: all checks passed"
    assert len(cells) == sum(2 ** rank for rank in range(1, 4))
    for line in cells:
        m = _WORKLOADS["CELL"][workload].match(line)
        assert m, line
        if suite == "core-atomic":
            size = len(m[2].split(",")) if m[2] else 0
            assert int(m[3]) == _WORKLOADS["core_count"](cartan, int(m[1]), size), line


def _benchmark_modules():
    """The modules whose names the benchmark's child rebinds, read from
    perfbench/child.py's MODULE_NAMES without importing it, with the package
    itself, as the child loads them."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "child.py").read_text())
    (names,) = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["MODULE_NAMES"]]
    return [sys.modules["cosetrex"]] + [sys.modules[f"cosetrex.{name}"] for name in names]


def test_benchmark_rebinding_reaches_the_verify_walks(capsys, monkeypatch):
    # the benchmark's tracer and faults rebind names in its modules only; a
    # module outside them that imported a library name would keep the original
    modules = _benchmark_modules()
    connected = squash_b.matsumoto_connected_b
    calls = []
    rebind_everywhere(monkeypatch, connected, lambda *args: calls.append(args) or connected(*args), modules)
    assert run(capsys, "verify", "matsumoto", "--type", "B", "--max-rank", "4")[0] == 0
    assert len(calls) == _WORKLOADS["EXPECTED_COSETS"]["verify-braid-b4"]
    # the child's drop-atom and drop-coset faults
    rex = atomic.atomic_rex_of_core
    rebind_everywhere(monkeypatch, rex, lambda p: rex(p)[:-1], modules)
    assert run(capsys, "verify", "matsumoto", "--type", "B", "--max-rank", "2")[0] == 1
    monkeypatch.undo()
    found = cs.enumerate_core_cosets
    rebind_everywhere(monkeypatch, found, lambda *a, **k: found(*a, **k)[:-1], modules)
    assert run(capsys, "verify", "core-atomic", "--type", "A", "--max-rank", "3")[0] == 1


# stdout of the enum-core benchmark workload, every right frame of A6 and
# then of B5 in text, as (line count, sha256), as the listing wrote it
# when it formatted one line per row
_ENUM_CORE_OUTPUT = (18170, "b1d83c0d5731517a72b6ca41381085348e67fbccf378a8317453b67ab0bc7383")


def test_enum_core_workload_output_is_pinned(capsys):
    digest, lines = hashlib.sha256(), 0
    for calls in _WORKLOADS["build"]("enum-core", 0, 0):
        for argv, expected in calls:
            code, out, err = run(capsys, *argv)
            assert (code, err, out.count("\n")) == (0, "", expected + 1)
            digest.update(out.encode())
            lines += expected + 1
    assert (lines, digest.hexdigest()) == _ENUM_CORE_OUTPUT


def _rebind_cached_functions(monkeypatch):
    # as the benchmark's tracer does: each public lru_cache'd function becomes
    # a plain pass-through wrapper, which has no cache_clear
    cached = {id(obj): obj for module in package_modules() for name, obj in vars(module).items()
              if not name.startswith("_") and hasattr(obj, "cache_clear")}
    for fn in cached.values():
        def wrapper(*args, _fn=fn, **kwargs):
            return _fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        rebind_everywhere(monkeypatch, fn, wrapper)


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
        for _, found in verify._core_by_right(system, pytest.fail):
            with atomic.keeping_greedy_steps():
                for _, p in found:
                    verdicts.append(atomic.matsumoto_connected(p, memo))
                    assert verdicts[-1] == _matsumoto_by_words(p), p
    assert len(verdicts) == 419
    assert all(verdicts) == (fault is None)


def _drop_a_table_row(monkeypatch):
    right = cs._descent_table
    monkeypatch.setattr(cs, "_descent_table", lambda system: drop_table_row(right(system), len(right(system).left) - 1))


def _drop_a_middle_table_row(monkeypatch):
    right = cs._descent_table
    monkeypatch.setattr(cs, "_descent_table", lambda system: drop_table_row(right(system), len(right(system).left) // 2))


def _identity_conjugates_to_nothing(monkeypatch):
    right = cs._descent_table

    def table(system):
        table = right(system)
        assert table.element(0) == cx.identity(system)
        # position 0 leaves its group for a new all-None one, of mask 0
        by_mask = tuple(
            (mask, [(conj, array("I", (k for k in positions if k))) for conj, positions in groups])
            for mask, groups in table.by_mask
        )
        nothing = (None,) * len(system.simple_indices)
        return table._replace(by_mask=by_mask + ((0, [(nothing, array("I", [0]))]),))

    monkeypatch.setattr(cs, "_descent_table", table)


@pytest.mark.parametrize(
    "system",
    [cx.type_a(r) for r in range(1, 5)] + [cx.type_b(r) for r in range(1, 4)] + [cx.dihedral(m) for m in (3, 5, 8)],
    ids=str,
)
def test_core_count_is_the_size_of_each_cell(system):
    for J in cs.all_frames(system):
        assert verify._core_count(system, J) == len(enumerate_core_cosets_oracle(system, J))


# every (suite, type) pair that walks verify._core_by_right
_CORE_WALKS = [
    (suite, cartan)
    for suite in ("core-atomic", "squash-bijection", "atomic-rex-bijection", "matsumoto", "mimimi",
                  "nilcox-relations", "type-b")
    for cartan in _SUITES[suite][1]
]


@pytest.mark.parametrize(
    "fault", [_drop_a_table_row, _drop_a_middle_table_row, _identity_conjugates_to_nothing], ids=lambda f: f.__name__
)
@pytest.mark.parametrize(
    "argv", [("verify", suite, "--type", cartan, "--max-rank", "3") for suite, cartan in _CORE_WALKS], ids=" ".join
)
def test_verify_catches_a_wrong_descent_table(capsys, monkeypatch, fault, argv):
    fault(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "all checks passed" not in out
    failures = err.splitlines()
    assert any(line.startswith("FAIL: core count at ") for line in failures)
    # each short cell is reported once, by the walk's own count
    counts = [line for line in failures if "count at" in line]
    assert all(line.startswith("FAIL: core count at ") for line in counts)
    cells = [line.rpartition(": ")[0] for line in counts]
    assert len(cells) == len(set(cells))


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


_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_block(heading, lang):
    """The first ```lang block under the README's ## heading."""
    section = _README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_example_gives_its_commented_values():
    # each comment states the value of the expression on the code line
    # it ends, or of the last such line when it stands alone
    namespace: dict = {}
    checked = []
    for line in _readme_block("Example", "python").splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if code:
            try:
                value = eval(compile(code, "README", "eval"), namespace)
            except SyntaxError:
                exec(code, namespace)
        if comment:
            assert value == ast.literal_eval(comment), line
            checked.append(value)
    assert checked == [(3, 4, 1, 2), True, "[{1} +2 -1 +3 -2]", (2, 3, 1)]


def test_readme_names_resolve():
    # a backticked module.name or cosetrex.module.name, alone or called, names
    # an attribute of that package module, so a rename cannot leave it behind
    import cosetrex

    modules = {info.name for info in pkgutil.iter_modules(cosetrex.__path__)}
    names = {(module, name) for module, name in re.findall(r"`(?:cosetrex\.)?(\w+)\.(\w+)[`(]", _README)
             if module in modules}
    assert names
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"cosetrex.{module}"), name)]
    assert missing == []


def test_readme_command_lines_exit_zero(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # compose reads chain.txt from here
    (tmp_path / "chain.txt").write_text("[{1} +2 -1]\n[{2} +3 -2]\n", encoding="utf-8")
    lines = _readme_block("Command line", "sh").replace("\\\n", " ").splitlines()
    assert len(lines) == 8
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "cosetrex", line
        code, out, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), line
        assert out, line
