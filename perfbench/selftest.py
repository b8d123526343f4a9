"""Self-test of the benchmark itself.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py faults   # about a minute
    python3 perfbench/selftest.py counts   # a few minutes
    python3 perfbench/selftest.py          # both

``faults`` injects a wrong answer into the child (a dropped atom, a wrong
squashed permutation, a lost coset) and asserts that the run reports
``failed_frac`` > 0 and ``correct: false`` instead of a timing; a clean
run must report ``failed_frac`` = 0, and a directory holding only the
benchmark must make ``run.py`` exit non-zero without a result.
``counts`` runs the traced benchmark twice with different seeds and
asserts that every ``*.calls``, ``*.scanned`` and ``*.words`` count is
identical on the deterministic workloads.  Exits 1 on the first failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

FAULT_CASES = (
    ("query-mix", "drop-atom"),
    ("query-mix", "wrong-sigma"),
    ("enum-core", "drop-coset"),
    ("verify-braid-b4", "drop-atom"),
)
COUNT_WORKLOADS = ("verify-core-a6", "verify-braid-b4", "enum-core")
COUNT_KINDS = (".calls", ".scanned", ".words")


def bench(workload: str, seed: int, trace: int, fault: str | None = None, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def faults() -> None:
    for workload, fault in ((FAULT_CASES[0][0], None),) + FAULT_CASES:
        code, lines = bench(workload, 1, 0, fault)
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        frac = details["failed_frac"]["value"]
        if fault is None:
            check(code == 0 and result["correct"] and frac == 0, f"{workload} clean: failed_frac = 0")
        else:
            check(code == 0 and not result["correct"] and frac > 0,
                  f"{workload} with fault {fault}: failed_frac = {frac:.3f} > 0")
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines = bench("enum-core", 1, 0, cwd=bare)
        check(code != 0 and not lines, f"a directory without the program: exit {code}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def counts() -> None:
    for workload in COUNT_WORKLOADS:
        seen = []
        for seed in (1, 2):
            code, lines = bench(workload, seed, 1)
            result = json.loads(lines[-1])
            check(code == 0 and result["correct"], f"{workload} traced, seed {seed}")
            seen.append({name: m["value"] for name, m in result["metrics"].items()
                         if name.endswith(COUNT_KINDS)})
        differ = sorted(k for k in seen[0] if seen[0][k] != seen[1][k])
        check(not differ, f"{workload}: {len(seen[0])} counts identical across seeds {differ or ''}")


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else "all"
    if mode in ("faults", "all"):
        faults()
    if mode in ("counts", "all"):
        counts()
