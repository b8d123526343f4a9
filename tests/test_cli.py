import json

import pytest

from cosetrex import atomic
from cosetrex import cosets as cs
from cosetrex import coxeter as cx
from cosetrex import squash_a
from cosetrex.cli import _SUITES, main

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
    ],
    ids=" ".join,
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


def test_budget_admits_a_group_of_its_order(capsys):
    code, out, _ = run(capsys, "verify", "core-atomic", "--type", "A", "--max-rank", "4", "--budget", "120")
    assert code == 0
    assert out.splitlines()[-1] == "core-atomic: all checks passed"
    code, out, _ = run(capsys, "enumerate-core", "--type", "A", "--rank", "4", "--right", "{}", "--budget", "120")
    assert code == 0
    assert out.splitlines()[-1] == "count: 120"


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


def _negate_reducedness(monkeypatch):
    right = cs.is_reduced_composition
    monkeypatch.setattr(cs, "is_reduced_composition", lambda p, q: not right(p, q))


def _no_right_redundancy(monkeypatch):
    monkeypatch.setattr(cs, "right_redundancy", lambda p: frozenset())


@pytest.mark.parametrize(
    "fault, suite, cartan, max_rank",
    [
        (_drop_last_atom, "core-atomic", "A", "3"),
        (_drop_last_atom, "matsumoto", "B", "2"),
        (_negate_reducedness, "mimimi", "A", "3"),
        (_no_right_redundancy, "redundancy-a", "A", "3"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_verify_catches_a_wrong_answer_in_each_walk(capsys, monkeypatch, fault, suite, cartan, max_rank):
    fault(monkeypatch)
    code, out, err = run(capsys, "verify", suite, "--type", cartan, "--max-rank", max_rank)
    assert code == 1
    assert "all checks passed" not in out
    assert any(
        line.startswith(f"FAIL: {suite}") and "DoubleCoset(" in line for line in err.splitlines()
    )


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
