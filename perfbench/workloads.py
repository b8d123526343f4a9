"""The four benchmark workloads: their inputs and their correctness gates.

Each workload drives the program only through ``cosetrex.cli.main(argv)``.
A workload's ``build`` step is the set-up that ``setup_s`` times; its
``run`` step is one iteration, whose wall time is ``wall_s``.  Every gate
is a closed form from the paper (numbers of core cosets are (n-|J|)! in
type A and 2^k k! in type B) or a round trip through the CLI, so a run
that checks less or answers wrongly counts as failed, never as fast.
"""
from __future__ import annotations

import json
import random
import re
from itertools import combinations
from math import factorial

WORKLOADS = ("verify-core-a6", "verify-braid-b4", "enum-core", "query-mix")

VERIFY_ARGV = {
    "verify-core-a6": ["verify", "core-atomic", "--type", "A", "--max-rank", "6"],
    "verify-braid-b4": ["verify", "matsumoto", "--type", "B", "--max-rank", "4"],
}
CELL = {
    "verify-core-a6": re.compile(r"core-atomic A rank=(\d+) J=\{([\d,]*)\}: (\d+) cosets$"),
    "verify-braid-b4": re.compile(r"matsumoto B rank=(\d+) J=\{([\d,]*)\}: ok$"),
}
EXPECTED_CELLS = {"verify-core-a6": 126, "verify-braid-b4": 30}
# core cosets of A1..A6, and of B1..B4, over every right frame
EXPECTED_COSETS = {"verify-core-a6": 13698, "verify-braid-b4": 728}
ENUM_SYSTEMS = (("A", 6, 11743), ("B", 5, 6331))

# every query-mix batch has the same composition: each rank 8..14 with each
# strand count k = 3..8, five rounds (210 queries); only the frame J and the
# permutation sigma are drawn, so batches differ in content, not in size
QUERY_RANKS = range(8, 15)
QUERY_STRANDS = range(3, 9)
QUERY_ROUNDS = 5
QUERIES_PER_BATCH = len(QUERY_RANKS) * len(QUERY_STRANDS) * QUERY_ROUNDS


def core_count(cartan: str, rank: int, frame_size: int) -> int:
    """Number of core cosets with a given right frame: |S_k| or |B_k|."""
    if cartan == "A":
        return factorial(rank + 1 - frame_size)
    k = rank - frame_size
    return 2 ** k * factorial(k)


def frames(cartan: str, rank: int) -> list[tuple[int, ...]]:
    indices = range(1, rank + 1) if cartan == "A" else range(rank)
    return [J for size in range(rank + 1) for J in combinations(indices, size)]


def subset_text(J) -> str:
    return "{" + ",".join(str(i) for i in sorted(J)) + "}"


def ops_per_iteration(workload: str) -> int:
    """Operations one iteration attempts: a verify run, a CLI call, a query."""
    if workload in VERIFY_ARGV:
        return 1
    if workload == "enum-core":
        return sum(len(frames(cartan, rank)) for cartan, rank, _ in ENUM_SYSTEMS)
    return QUERIES_PER_BATCH


class Outcome:
    """One iteration's operation count, failures and requests (start, seconds)."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.messages: list[str] = []
        self.units: list[tuple[float, float]] = []

    def op(self, problems: list[str]) -> None:
        self.ops += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems[:3])


# --------------------------------------------------------------------------
# set-up


def build(workload: str, seed: int, batch: int):
    """The inputs of one iteration; everything here counts as set-up."""
    if workload in VERIFY_ARGV:
        return list(VERIFY_ARGV[workload])
    if workload == "enum-core":
        systems = []
        for cartan, rank, expected in ENUM_SYSTEMS:
            calls = [
                (["enumerate-core", "--type", cartan, "--rank", str(rank), "--right", subset_text(J)],
                 core_count(cartan, rank, len(J)))
                for J in frames(cartan, rank)
            ]
            # the per-call gates then also pin the totals 11 743 and 6 331
            if sum(count for _, count in calls) != expected:
                raise AssertionError(f"closed forms for {cartan}{rank} do not sum to {expected}")
            systems.append(calls)
        return systems
    if workload == "query-mix":
        rng = random.Random(f"query-mix:{seed}:{batch}")
        return [make_query(rng, rank, k) for _ in range(QUERY_ROUNDS)
                for rank in QUERY_RANKS for k in QUERY_STRANDS]
    raise ValueError(f"unknown workload {workload!r}")


def make_query(rng: random.Random, rank: int, k: int) -> dict:
    """A random core coset of type A with k strands, built from its right
    frame J and its squashed permutation sigma by direct block arithmetic
    (not by unsquash)."""
    n = rank + 1
    J = sorted(rng.sample(range(1, n), n - k))
    blocks: list[list[int]] = []
    for x in range(1, n + 1):
        if x - 1 in J:
            blocks[-1].append(x)
        else:
            blocks.append([x])
    sigma = rng.sample(range(1, k + 1), k)
    # source block c lands, order-preservingly, at target position sigma[c]
    images = [0] * n
    left = []
    start = 1
    for c in sorted(range(k), key=lambda c: sigma[c]):
        for offset, x in enumerate(blocks[c]):
            images[x - 1] = start + offset
        left.extend(range(start, start + len(blocks[c]) - 1))
        start += len(blocks[c])
    coset = {"cartan": "A", "rank": rank, "left": left, "right": J, "min": images}
    inversions = sum(1 for a, b in combinations(sigma, 2) if a > b)
    return {"coset": coset, "sigma": sigma, "inversions": inversions}


# --------------------------------------------------------------------------
# one iteration


def run(workload: str, inputs, call, outcome: Outcome, add_span) -> None:
    """Run one iteration through ``call(argv) -> (code, lines, stamps)``."""
    if workload in VERIFY_ARGV:
        _run_verify(workload, inputs, call, outcome, add_span)
    elif workload == "enum-core":
        _run_enum(inputs, call, outcome, add_span)
    else:
        _run_queries(inputs, call, outcome, add_span)


def _run_verify(workload, argv, call, outcome, add_span) -> None:
    # one request is the whole verify run
    cartan = argv[3]
    start = call.clock()
    code, lines, stamps = call(argv)
    outcome.units.append((start, call.clock() - start))
    problems = []
    if code != 0:
        problems.append(f"{workload}: exit code {code}")
    if not lines or lines[-1] != f"{argv[1]}: all checks passed":
        problems.append(f"{workload}: no 'all checks passed' line")
    cells = 0
    total = 0
    prev = start
    for line, stamp in zip(lines, stamps):
        m = CELL[workload].match(line)
        if not m:
            continue
        cells += 1
        rank, size = int(m[1]), len(m[2].split(",")) if m[2] else 0
        expected = core_count(cartan, rank, size)
        reported = int(m[3]) if workload == "verify-core-a6" else expected
        if reported != expected:
            problems.append(f"{line!r}: expected {expected} cosets")
        total += reported
        add_span("verify.cell", prev, stamp - prev)
        prev = stamp
    if cells != EXPECTED_CELLS[workload]:
        problems.append(f"{workload}: {cells} cells, expected {EXPECTED_CELLS[workload]}")
    if total != EXPECTED_COSETS[workload]:
        problems.append(f"{workload}: {total} cosets, expected {EXPECTED_COSETS[workload]}")
    outcome.op(problems)


def _run_enum(systems, call, outcome, add_span) -> None:
    for calls in systems:
        for argv, expected in calls:
            t0 = call.clock()
            code, lines, _ = call(argv)
            dt = call.clock() - t0
            outcome.units.append((t0, dt))
            add_span("enum.call", t0, dt)
            problems = []
            m = re.fullmatch(r"count: (\d+)", lines[-1]) if lines else None
            count = int(m[1]) if m else -1
            if code != 0 or count != expected or len(lines) - 1 != expected:
                problems.append(f"{' '.join(argv)}: exit {code}, count {count}, expected {expected}")
            outcome.op(problems)


def _run_queries(queries, call, outcome, add_span) -> None:
    for q in queries:
        coset = q["coset"]
        doc = json.dumps(coset)
        sigma_text = "[" + ",".join(map(str, q["sigma"])) + "]"
        rank = str(coset["rank"])
        t0 = call.clock()
        squashed = call(["squash", "--coset", doc])
        rex = call(["atomic-rex", "--coset", doc])
        expr = rex[1][0] if rex[0] == 0 and rex[1] else "[{}]"
        evaluated = call(["eval-expr", "--type", "A", "--rank", rank, "--expr", expr, "--format", "json"])
        lifted = call(["unsquash", "--type", "A", "--rank", rank, "--right", subset_text(coset["right"]),
                       "--sigma", sigma_text, "--format", "json"])
        dt = call.clock() - t0
        outcome.units.append((t0, dt))
        add_span("query", t0, dt)
        outcome.op(_check_query(q, sigma_text, squashed, rex, evaluated, lifted))


def _check_query(q, sigma_text, squashed, rex, evaluated, lifted) -> list[str]:
    coset = q["coset"]
    problems = []
    if squashed[0] != 0 or squashed[1] != [sigma_text]:
        problems.append(f"squash of {coset} gave {squashed[1][:1]}, expected {sigma_text}")
    atoms = rex[1][0].count("+") if rex[0] == 0 and len(rex[1]) == 1 else -1
    if atoms != q["inversions"]:
        problems.append(f"atomic-rex of {coset}: {atoms} atoms, expected inv(sigma) = {q['inversions']}")
    try:
        got = json.loads(evaluated[1][0]) if evaluated[0] == 0 else None
    except (IndexError, json.JSONDecodeError):
        got = None
    if got != {"coset": coset, "reduced": True}:
        problems.append(f"eval-expr of the atomic expression of {coset} gave {got}")
    try:
        got = json.loads(lifted[1][0]) if lifted[0] == 0 else None
    except (IndexError, json.JSONDecodeError):
        got = None
    if got != coset:
        problems.append(f"unsquash {sigma_text} gave {got}, expected {coset}")
    return problems
