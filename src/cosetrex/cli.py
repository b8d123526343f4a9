"""Command-line front end: expression evaluation, enumeration, atomic
expressions, squashing, and the exhaustive verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Callable, Sequence

from . import atomic, cosets, coxeter, expressions, nilcox, squash_a, squash_b
from .coxeter import CoxeterSystem, dihedral


def _system_from_args(args, budget: int | None = None) -> CoxeterSystem:
    key = coxeter.system_key(args.type, args.rank, args.bond)
    cosets.check_budget(key, budget)  # before a huge system is built
    return CoxeterSystem(*key)


def _print_coset(p, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(cosets.coset_to_json(p), sort_keys=True))
    else:
        print(
            f"coset: left={cosets.format_subset(p.left)}"
            f" right={cosets.format_subset(p.right)}"
            f" min={coxeter.format_element(p.min)}"
        )


def _print_result(p, reduced: bool, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"coset": cosets.coset_to_json(p), "reduced": reduced}, sort_keys=True))
    else:
        _print_coset(p, "text")
        print(f"reduced: {str(reduced).lower()}")


def _cmd_eval_expr(args) -> int:
    system = _system_from_args(args)
    expr = expressions.parse_expression(system, args.expr)
    _print_result(expressions.evaluate(expr), expressions.is_reduced(expr), args.format)
    return 0


def _coset_from_args(args):
    if args.coset:
        try:
            doc = json.loads(args.coset)
        except RecursionError:
            raise ValueError("coset JSON is nested too deeply") from None
        return cosets.coset_from_json(doc)
    if None in (args.left, args.right, args.min):
        raise ValueError("give the coset as --coset JSON, or as --left, --right and --min")
    if args.rank is None:
        raise ValueError("--left, --right and --min need --rank")
    system = _system_from_args(args)
    w = coxeter.parse_element(system, args.min)
    return cosets.coset_of(
        system, cosets.parse_subset(args.left), w, cosets.parse_subset(args.right)
    )


def _cmd_atomic_rex(args) -> int:
    p = _coset_from_args(args)
    rexes = atomic.all_atomic_rexes(p) if args.all else [atomic.atomic_rex_of_core(p)]
    for rex in rexes:
        print(expressions.format_expression(atomic.one_step_of_atoms(p.system, rex, p.left)))
    return 0


def _cmd_squash(args) -> int:
    p = _coset_from_args(args)
    print(coxeter.format_element(squash_a.squash_coset(p)))
    return 0


def _cmd_unsquash(args) -> int:
    system = _system_from_args(args)
    J = cosets.parse_subset(args.right)
    sigma = coxeter.parse_element(atomic.squashed_system(system, J), args.sigma)
    _, p = squash_a.unsquash(system, J, sigma)
    _print_coset(p, args.format)
    return 0


def _cmd_enumerate_core(args) -> int:
    system = _system_from_args(args, args.budget)
    J = cosets.parse_subset(args.right)
    found = cosets.enumerate_core_cosets(system, J, budget=args.budget)
    for _, p in found:
        _print_coset(p, args.format)
    print(f"count: {len(found)}")
    return 0


def _cmd_compose(args) -> int:
    system = _system_from_args(args)
    with open(args.exprs, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        print("error: no expressions to compose", file=sys.stderr)
        return 2
    parsed = [expressions.parse_expression(system, line) for line in lines]
    acc = expressions.evaluate(parsed[0])
    reduced = expressions.is_reduced(parsed[0])
    for expr in parsed[1:]:
        q = expressions.evaluate(expr)
        reduced = reduced and expressions.is_reduced(expr) and cosets.is_reduced_composition(acc, q)
        acc = cosets.star_compose(acc, q)
    _print_result(acc, reduced, args.format)
    return 0


# ---------------------------------------------------------------------------
# verification suites: each check(system, emit, fail) checks one system,
# emits one line per cell and reports each failure through fail


def _systems(cartan: str, max_rank: int, budget: int) -> list[CoxeterSystem]:
    """The systems of a verify run, each checked against the budget before
    it is built and before any is verified; the walks below therefore
    enumerate with no limit.  Group orders grow with the rank, so the first
    rank over the budget ends the run, and no system over it is built."""
    systems = []
    for r in range(3 if cartan == "I2" else 1, max_rank + 1):
        key = coxeter.system_key("I2", 2, r) if cartan == "I2" else coxeter.system_key(cartan, r)
        cosets.check_budget(key, budget)
        systems.append(dihedral(r) if cartan == "I2" else CoxeterSystem(cartan, r))
    return systems


# verify empties the coset-keyed caches at the start of each cell of
# _core_by_right, and all of these at the start of each system
_CELL_CACHES = cosets.COSET_CACHES + atomic.COSET_CACHES
_SYSTEM_CACHES = _CELL_CACHES + coxeter.SYSTEM_CACHES + cosets.SYSTEM_CACHES + atomic.SYSTEM_CACHES


def _clear(caches) -> None:
    for cache in caches:
        cache.cache_clear()


def _core_by_right(system: CoxeterSystem):
    """Each right frame J with the core cosets (I, p) out of it.  Each cell
    starts with the coset-keyed caches empty: a greedy or atomic step keeps
    the right frame, so a walk from a cell reads no coset of another cell
    but the atoms' cosets, whose maxima are cheap to compute again."""
    for J in cosets.all_frames(system):
        _clear(_CELL_CACHES)
        yield J, cosets.enumerate_core_cosets(system, J, budget=None)


def _cosets_by_left(system: CoxeterSystem):
    """Each left frame I with every (I, J)-coset, over all right frames J."""
    frames = cosets.all_frames(system)
    for I in frames:
        yield I, (p for J in frames for p in cosets.enumerate_cosets(system, I, J, budget=None))


def _composable_core_pairs(core):
    """Group the core cosets of _core_by_right by frame: each frame J with the
    pairs (p, q) where p has right frame J and q has left frame J."""
    by_left: dict[frozenset, list] = {}
    by_right: dict[frozenset, list] = {}
    for J, found in core:
        for I, p in found:
            by_left.setdefault(I, []).append(p)
            by_right.setdefault(J, []).append(p)
    for J, qs in by_left.items():
        yield J, ((p, q) for p in by_right.get(J, []) for q in qs)


def _check_core_atomic(system: CoxeterSystem, emit, fail) -> None:
    """Check one greedy step per core coset p: p is its frame's identity coset,
    or p = a . q reduced with q in p's cell.  q is shorter, so by induction
    every greedy atomic expression is reduced and composes to its coset."""
    for J, found in _core_by_right(system):
        cell = {p for _, p in found}
        for _, p in found:
            if not _greedy_step_holds(J, cell, p):
                fail(f"core-atomic: {p}")
        emit(f"core-atomic {system.cartan} rank={system.rank}"
             f"{'' if system.bond is None else f' m={system.bond}'}"
             f" J={cosets.format_subset(J)}: {len(found)} cosets")


def _greedy_step_holds(J: frozenset, cell: set, p) -> bool:
    if not cosets.is_core(p):
        return False
    step = atomic._greedy_step(p)
    if step is None:
        return p == cosets.identity_coset(p.system, J)
    head, q = atomic.coset_of_atom(step[0]), step[1]
    return (q in cell and q.left == head.right and cosets.is_reduced_composition(head, q)
            and cosets.star_compose(head, q) == p)


def _check_squash_bijection(system: CoxeterSystem, J: frozenset, found, fail) -> None:
    """Check that squashing the core cosets found with right frame J is a
    bijection onto the squashed group: the counts agree, squashing is
    injective, and squash and unsquash invert each other."""
    small = atomic.squashed_system(system, J)
    expected = coxeter.group_order(small)
    if len(found) != expected:
        fail(f"squash count at {system} J={sorted(J)}: {len(found)} != {expected}")
    images = set()
    for I, p in found:
        sigma = squash_a.squash_coset(p)
        images.add(sigma)
        if squash_a.unsquash(system, J, sigma) != (I, p):
            fail(f"squash round-trip fails at {p}")
    if len(images) != len(found):
        fail(f"squash not injective at {system} J={sorted(J)}")
    for sigma in coxeter.all_elements(small):
        _, p = squash_a.unsquash(system, J, sigma)
        if squash_a.squash_coset(p) != sigma:
            fail(f"unsquash round-trip fails at {sigma}")


def _check_squash(system: CoxeterSystem, emit, fail) -> None:
    for J, found in _core_by_right(system):
        _check_squash_bijection(system, J, found, fail)
        emit(f"squash-bijection A rank={system.rank} J={cosets.format_subset(J)}: {len(found)} cosets")


def _check_atomic_rex_bijection(system: CoxeterSystem, emit, fail) -> None:
    # the atomic walk from p and the reduced-word walk from squash(p) carry
    # the same words; memo keeps the pairs found equal, all in one cell
    for J, found in _core_by_right(system):
        memo: dict = {}
        for _, p in found:
            sigma = squash_a.squash_coset(p)
            if not coxeter.same_paths({p}, atomic._atomic_steps, {sigma}, coxeter._strip_left_descents, memo):
                fail(f"atomic-rex-bijection: {p}")
        emit(f"atomic-rex-bijection {system.cartan} rank={system.rank} J={cosets.format_subset(J)}: ok")


def _check_matsumoto(system: CoxeterSystem, emit, fail) -> None:
    connected = squash_b.matsumoto_connected_b if system.cartan == "B" else atomic.matsumoto_connected
    memo: dict = {}  # braid classes and compared pairs, for this system's cells
    for J, found in _core_by_right(system):
        for _, p in found:
            if not connected(p, memo):
                fail(f"matsumoto: braid closure misses expressions of {p}")
        emit(f"matsumoto {system.cartan} rank={system.rank} J={cosets.format_subset(J)}: ok")


def _check_mimimi(system: CoxeterSystem, emit, fail) -> None:
    pairs = 0
    for J, composable in _composable_core_pairs(_core_by_right(system)):
        for p, q in composable:
            pairs += 1
            lhs = cosets.is_reduced_composition(p, q)
            prod = coxeter.multiply(p.min, q.min)
            rhs = coxeter.length(prod) == coxeter.length(p.min) + coxeter.length(q.min)
            if lhs != rhs:
                fail(f"mimimi reducedness mismatch: {p} * {q}")
            elif lhs:
                r = cosets.star_compose(p, q)
                if r.min != prod or not cosets.is_core(r):
                    fail(f"mimimi composite mismatch: {p} * {q}")
        emit(f"mimimi {system.cartan} rank={system.rank} through J={cosets.format_subset(J)}: ok")
    emit(f"mimimi {system.cartan} rank={system.rank}: {pairs} pairs")


def _check_atomatom(system: CoxeterSystem, emit, fail) -> None:
    atoms = [atomic.atomic_from(system, M, s) for M in cosets.all_frames(system) for s in sorted(M)]
    for a in atoms:
        p = atomic.coset_of_atom(a)
        chain = cosets.star_compose(cosets.star_compose(p, cosets.invert(p)), p)
        if chain != p:
            fail(f"atomatom: p*(p^-1)*p != p at {a}")
    for a in atoms:
        for b in atoms:
            pa, pb = atomic.coset_of_atom(a), atomic.coset_of_atom(b)
            if pa.right != pb.left:
                continue
            if cosets.is_reduced_composition(pa, pb):
                continue
            prod = cosets.star_compose(pa, pb)
            if cosets.is_core(prod) != (pa == pb):
                fail(f"atomatom: non-reduced core test fails at {a}, {b}")
            if pa == pb and prod != pa:
                fail(f"atomatom: p*p != p at {a}")
    # a_i^I * a_i^J is never reduced and lands on the [J, Js, J]-coset
    for J in cosets.all_frames(system):
        for i in atomic.squashed_system(system, J).simple_indices:
            aJ = atomic.atomic_generator(system, J, i)
            aI = atomic.atomic_generator(system, aJ.left, i)
            pI, pJ = atomic.coset_of_atom(aI), atomic.coset_of_atom(aJ)
            if cosets.is_reduced_composition(pI, pJ):
                fail(f"aa=a: reduced composition at J={sorted(J)} i={i}")
            expected = cosets.coset_of(system, J, cosets.longest_element(system, aJ.mid), J)
            if cosets.star_compose(pI, pJ) != expected:
                fail(f"aa=a: wrong composite at J={sorted(J)} i={i}")
    emit(f"atomatom {system.cartan} rank={system.rank}: {len(atoms)} atoms")


def _check_nilcox_relations(system: CoxeterSystem, emit, fail) -> None:
    report = nilcox.verify_relations(system)
    for failure in report.failures:
        fail(failure)
    for J, found in _core_by_right(system):
        expected = coxeter.group_order(atomic.squashed_system(system, J))
        basis = [p for _, p in found]
        if len(basis) != expected:
            fail(f"basis count at {system} J={sorted(J)}: {len(basis)} != {expected}")
        if nilcox.reachable_cosets(system, J) != set(basis):
            fail(f"reachable generator products differ from the core basis at {system} J={sorted(J)}")
    emit(f"nilcox-relations {system.cartan} rank={system.rank}: {report.checked} relation instances")


def _add_remove_works(p, I: frozenset, M: frozenset, pmax) -> bool:
    """Whether the one-step expression [I, I|M, M] followed by the core
    factorization of the (M, J)-coset of pmax is reduced and evaluates to p."""
    tail = atomic.factor_through_core(cosets.coset_of(p.system, M, pmax, p.right))
    expr = expressions.concatenate(expressions.MultistepExpression(p.system, (I, I | M, M)), tail)
    return expressions.is_reduced(expr) and expressions.evaluate(expr) == p


def _check_add_remove(system: CoxeterSystem, emit, fail) -> None:
    for I, found in _cosets_by_left(system):
        wI = cosets.longest_element(system, I)
        for p in found:
            pmax = cosets.max_elem(p)
            ldes = coxeter.left_descents(pmax)
            lred = cosets.left_redundancy(p)
            for s in system.simple_indices:
                if s not in I:
                    if _add_remove_works(p, I, I | {s}, pmax) != (s in ldes):
                        fail(f"add-remove: +{s} at {p}")
                else:
                    smaller = I - {s}
                    # the remainder coset of a reduced removal has
                    # maximum w_{I-s} w_I max(p)
                    nmax = coxeter.multiply(
                        coxeter.multiply(cosets.longest_element(system, smaller), wI), pmax
                    )
                    if _add_remove_works(p, I, smaller, nmax) != (s not in lred):
                        fail(f"add-remove: -{s} at {p}")
        emit(f"add-remove {system.cartan} rank={system.rank} I={cosets.format_subset(I)}: ok")


def _check_redundancy_a(system: CoxeterSystem, emit, fail) -> None:
    for I, found in _cosets_by_left(system):
        for p in found:
            rred = cosets.right_redundancy(p)
            lred = cosets.left_redundancy(p)
            pmin = p.min
            for j in p.right:
                stated = coxeter.act(pmin, j + 1) == coxeter.act(pmin, j) + 1 and coxeter.act(pmin, j) in I
                if stated != (j in rred):
                    fail(f"redundancy-a: j={j} at {p}")
            if frozenset(coxeter.act(pmin, j) for j in rred) != lred:
                fail(f"redundancy-a: leftred != min(rightred) at {p}")
            if cosets.is_core(p):
                for j in p.right:
                    stated = coxeter.act(pmin, j + 1) == coxeter.act(pmin, j) + 1
                    if stated != (j in rred):
                        fail(f"redundancy-a (core): j={j} at {p}")
        emit(f"redundancy-a rank={system.rank} I={cosets.format_subset(I)}: ok")


def _check_type_b(system: CoxeterSystem, emit, fail) -> None:
    for _, found in _cosets_by_left(system):
        for p in found:
            if (0 in cosets.left_redundancy(p)) != (0 in cosets.right_redundancy(p)):
                fail(f"type-b: s0 redundancy asymmetry at {p}")
    core = list(_core_by_right(system))
    for J, found in core:
        _check_squash_bijection(system, J, found, fail)
        emit(f"type-b rank={system.rank} J={cosets.format_subset(J)}: {len(found)} core cosets")
    # squashing is a homomorphism on reduced core compositions
    for _, composable in _composable_core_pairs(core):
        for p, q in composable:
            if not cosets.is_reduced_composition(p, q):
                continue
            r = cosets.star_compose(p, q)
            sp, sq = squash_a.squash_coset(p), squash_a.squash_coset(q)
            if squash_a.squash_coset(r) != coxeter.multiply(sp, sq):
                fail(f"type-b: squash not multiplicative at {p} * {q}")
            if coxeter.length(coxeter.multiply(sp, sq)) != coxeter.length(sp) + coxeter.length(sq):
                fail(f"type-b: squash not length-additive at {p} * {q}")
    emit(f"type-b rank={system.rank}: done")


# each suite's check, and the types it supports with their default max rank
# (max bond for I2)
_SUITES: dict[str, tuple[Callable, dict[str, int]]] = {
    "core-atomic": (_check_core_atomic, {"A": 5, "B": 3, "I2": 7}),
    "squash-bijection": (_check_squash, {"A": 5}),
    "atomic-rex-bijection": (_check_atomic_rex_bijection, {"A": 4, "B": 3}),
    "matsumoto": (_check_matsumoto, {"A": 4, "B": 3}),
    "mimimi": (_check_mimimi, {"A": 4, "B": 3, "I2": 3}),
    "atomatom": (_check_atomatom, {"A": 4, "B": 3}),
    "nilcox-relations": (_check_nilcox_relations, {"A": 4, "B": 3}),
    "add-remove": (_check_add_remove, {"A": 3, "B": 3, "I2": 3}),
    "redundancy-a": (_check_redundancy_a, {"A": 4}),
    "type-b": (_check_type_b, {"B": 3}),
}


def _cmd_verify(args) -> int:
    check, supported = _SUITES[args.suite]
    cartan = args.type
    if cartan not in supported:
        raise ValueError(f"suite {args.suite} supports --type {', '.join(supported)}, not {cartan}")
    max_rank = supported[cartan] if args.max_rank is None else args.max_rank
    cells = 0

    def emit(line: str) -> None:
        nonlocal cells
        cells += 1
        if not args.quiet:
            print(line)

    failures: list[str] = []
    for system in _systems(cartan, max_rank, args.budget):
        _clear(_SYSTEM_CACHES)
        try:
            check(system, emit, failures.append)
        except AssertionError as exc:  # a library cross-check; its message names the coset
            failures.append(f"{args.suite}: {exc}")
    if not cells:
        failures.append(f"no cells checked at max rank {max_rank}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        print(f"{args.suite}: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print(f"{args.suite}: all checks passed")
    return 0


def _add_system_flags(parser, need_rank=True) -> None:
    parser.add_argument("--type", choices=("A", "B", "I2"), default="A")
    parser.add_argument("--rank", type=int, required=need_rank)
    parser.add_argument("--bond", type=int, help="bond m for I2 systems, which have --rank 2")


def _add_budget_flag(parser) -> None:
    parser.add_argument("--budget", type=int, default=cosets.DEFAULT_BUDGET,
                        help="largest group order to take on (default %(default)s)")


def _add_coset_flags(parser) -> None:
    """A coset, as --coset JSON or as --left, --right and --min with the system flags."""
    _add_system_flags(parser, need_rank=False)
    parser.add_argument("--coset", help="coset as JSON")
    parser.add_argument("--left")
    parser.add_argument("--right")
    parser.add_argument("--min")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    it binds only the _cmd_* functions and immutable defaults."""
    parser = argparse.ArgumentParser(prog="cosetrex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-expr", help="evaluate a one-step or multistep expression")
    _add_system_flags(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_eval_expr)

    p = sub.add_parser("atomic-rex", help="atomic expression of a core coset")
    _add_coset_flags(p)
    p.add_argument("--all", action="store_true", help="list every atomic expression")
    p.set_defaults(func=_cmd_atomic_rex)

    p = sub.add_parser("squash", help="squashed permutation of a core coset")
    _add_coset_flags(p)
    p.set_defaults(func=_cmd_squash)

    p = sub.add_parser("unsquash", help="lift a squashed permutation to a core coset")
    _add_system_flags(p)
    p.add_argument("--right", required=True)
    p.add_argument("--sigma", required=True, help="image list of the squashed permutation")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_unsquash)

    p = sub.add_parser("enumerate-core", help="list core cosets with a given right frame")
    _add_system_flags(p)
    p.add_argument("--right", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_budget_flag(p)
    p.set_defaults(func=_cmd_enumerate_core)

    p = sub.add_parser("compose", help="star-compose a chain of expressions from a file")
    _add_system_flags(p)
    p.add_argument("--exprs", required=True, help="file with one expression per line")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("verify", help="run an exhaustive verification suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--type", choices=("A", "B", "I2"), default="A")
    p.add_argument("--max-rank", type=int, help="max rank (max bond for I2)")
    p.add_argument("--quiet", action="store_true", help="suppress per-cell progress")
    _add_budget_flag(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
