"""Command-line front end: reads the arguments of expression evaluation,
enumeration, atomic expressions, squashing and the exhaustive verification
suites (cosetrex.verify), and prints the results.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Sequence

from . import atomic, cosets, coxeter, expressions, squash_a, verify
from .coxeter import CoxeterSystem


def _system_from_args(args, budget: int | None = None) -> CoxeterSystem:
    key = coxeter.system_key(args.type, args.rank, args.bond)
    cosets.check_budget(key, budget)  # before a huge system is built
    return verify.use_system(CoxeterSystem(*key))


def _template(system: CoxeterSystem, I: frozenset, J: frozenset, fmt: str) -> str:
    """The line of an (I, J)-coset in format fmt, with one %d per image of
    its min (types A and B) or one %s for its word (I2).  The JSON document
    is dumped once, with an empty min and sorted keys, and split where
    min's images go."""
    images = "%s" if system.cartan == "I2" else ("," if fmt == "text" else ", ").join(["%d"] * system.points)
    if fmt == "json":
        doc = json.dumps(cosets.coset_document(system, I, J, ()), sort_keys=True)
        head, tail = doc.split('"min": []')
        head, tail = head + '"min": [', "]" + tail
    else:
        head = f"coset: left={cosets.format_subset(I)} right={cosets.format_subset(J)} min="
        head, tail = (head, "") if system.cartan == "I2" else (head + "[", "]")
    return head + images + tail + "\n"


def _lines(system: CoxeterSystem, I: frozenset, J: frozenset, fmt: str, n: int, data: tuple) -> str:
    """The lines of n (I, J)-cosets in format fmt, their minima's data in
    one tuple as DescentTable.images holds it, by one % format.  An I2
    word is joined first: by spaces in text, as format_data writes it,
    and by ", " in JSON."""
    if system.cartan == "I2":
        sep = " " if fmt == "text" else ", "
        data = tuple(sep.join(map(str, word)) for word in data)
    return (_template(system, I, J, fmt) * n) % data


def _print_coset(p, fmt: str) -> None:
    data = (p.min.data,) if p.system.cartan == "I2" else p.min.data
    sys.stdout.write(_lines(p.system, p.left, p.right, fmt, 1, data))


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
        extra = [f"--{flag}" for flag in ("left", "right", "min", "type", "rank", "bond")
                 if getattr(args, flag) is not None]
        if extra:
            raise ValueError(f"--coset gives the whole coset; drop {', '.join(extra)}")
        try:
            doc = json.loads(args.coset)
        except RecursionError:
            raise ValueError("coset JSON is nested too deeply") from None
    elif None in (args.left, args.right, args.min):
        raise ValueError("give the coset as --coset JSON, or as --left, --right and --min")
    elif args.rank is None:
        raise ValueError("--left, --right and --min need --rank")
    else:
        cartan = args.type or "A"
        doc = {"cartan": cartan, "rank": args.rank, "bond": args.bond,
               "min": coxeter.parse_data(cartan, args.min),
               "left": sorted(cosets.parse_subset(args.left)),
               "right": sorted(cosets.parse_subset(args.right))}
    p = cosets.coset_from_json(doc)
    verify.use_system(p.system)
    return p


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


# the lines enumerate-core writes per call; the listing holds no more at once
_CHUNK = 4096


def _cmd_enumerate_core(args) -> int:
    """_print_coset's lines, written a chunk of at most _CHUNK rows at a
    time: each left frame's rows in a chunk are one % format of its line
    template, repeated, over the rows' data gathered from the view's
    groups, with no Element, coset or per-row Python frame."""
    system = _system_from_args(args, args.budget)  # checks the budget before building
    J = cosets.parse_subset(args.right)
    found = cosets.enumerate_core_cosets(system, J, budget=None)
    for chunk in found.chunks(_CHUNK):
        sys.stdout.write("".join(_lines(system, I, J, args.format, n, data) for I, n, data in chunk))
    sys.stdout.write(f"count: {len(found)}\n")
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
        r = cosets.reduced_composite(acc, q)
        reduced = reduced and r is not None and expressions.is_reduced(expr)
        acc = cosets.star_compose(acc, q) if r is None else r
    _print_result(acc, reduced, args.format)
    return 0


def _cmd_verify(args) -> int:
    supported = verify._SUITES[args.suite][1]
    if args.type not in supported:
        raise ValueError(f"suite {args.suite} supports --type {', '.join(supported)}, not {args.type}")
    max_rank = supported[args.type] if args.max_rank is None else args.max_rank
    show = (lambda line: None) if args.quiet else print
    failures = verify.run_suite(args.suite, args.type, max_rank, args.budget, show)
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
    parser.set_defaults(type=None)  # A, unless --coset is given, which refuses any --type
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
    p.add_argument("suite", choices=sorted(verify._SUITES))
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:  # a rank or bond too large to build; MemoryError has no text
        print(f"error: input too large: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
