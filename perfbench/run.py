"""Benchmark runner for cosetrex.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each iteration of the workload runs in a fresh child process
(``child.py``), one at a time, so caches start cold as they do for a CLI
user and each child's peak RSS is its own.  With ``--trace 0`` it
repeats iterations for about ``--seconds`` seconds (at least one) and
reports the end-to-end metrics; with ``--trace 1`` it runs one untraced
and one traced iteration and reports the per-layer metrics.  Metric names
and units come from ``BENCHMARK.json``; ``perfbench/README.md`` documents
them.  The last line of standard output is the result object; the line
before it gives details (seed, samples, tail percentile, failures).
Exit code 0 means a result was printed; 2 means no program to measure.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170  # a run, children included, ends within three minutes
MIN_SETUP_SAMPLES = 15


def child(args, batch: int, *, trace: int = 0, setup_only: bool = False) -> dict | None:
    """Run one child process; None if it crashed, timed out or printed no report."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--batch", str(batch), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.fault:
        cmd += ["--fault", args.fault]
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32), PYTHONDONTWRITEBYTECODE="1")
    budget = RUN_LIMIT_S - (time.perf_counter() - args.started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(budget, 1))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        args.messages.append(f"child batch {batch} timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        args.messages.append(f"child batch {batch} exit {proc.returncode}: {last[0][:300]}")
        return None
    report = json.loads(lines[-1])
    args.messages.extend(report.get("messages", []))
    return report


def tail(samples: list[float]) -> tuple[float, float]:
    """The value with exactly ten samples above it, and its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_untraced(args) -> tuple[dict, dict, list]:
    reports = []
    while True:
        report = child(args, len(reports))
        reports.append(report)
        elapsed = time.perf_counter() - args.started
        if report is None or elapsed * (len(reports) + 1) / len(reports) > args.seconds:
            break
    done = [r for r in reports if r is not None]
    setups = list(done)
    while len(setups) < MIN_SETUP_SAMPLES and done:
        extra = child(args, len(setups), setup_only=True)
        if extra is None:
            break
        setups.append(extra)
    values, details = {}, {"iterations": len(reports), "setup_samples": len(setups)}
    if done:
        # each figure is taken per iteration (times already scaled to the
        # reference host speed, see hostspeed.py), then its median over the
        # run, so it does not depend on how many iterations fitted in the run
        tails = [tail(r["unit_ms"]) for r in done]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in done),
            "query_p50_ms": statistics.median(statistics.median(r["unit_ms"]) for r in done),
            "query_tail_ms": statistics.median(t for t, _ in tails),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
        }
        details.update(raw_wall_s_each=[r["raw_wall_s"] for r in done],
                       speed_each=[r["speed"] for r in done],
                       raw_setup_s_each=[r["raw_setup_s"] for r in setups],
                       query_samples_per_iteration=len(done[0]["unit_ms"]),
                       query_tail_percentile=tails[0][1])
    return values, details, reports


def layer_metric(name: str, plain: dict, traced: dict) -> float:
    """A per-layer metric, computed from its name (see README.md)."""
    stats, caches = traced["stats"], plain["caches"]
    if name == "trace.overhead":
        return traced["wall_s"] / plain["wall_s"]
    head, _, kind = name.rpartition(".")
    if kind == "self_s":
        return sum(v[1] for k, v in stats.items() if k.startswith(head + "."))
    if kind == "cache_entries":
        return sum(v[2] for k, v in caches.items() if k.startswith(head + "."))
    if kind == "hit_ratio":
        hits, misses, _ = caches.get(head, (0, 0, 0))
        return hits / (hits + misses) if hits + misses else 0.0
    calls, _, inclusive, returned = stats.get(head, (0, 0.0, 0.0, 0))
    scanned = traced["items"].get("coxeter.all_elements", {}).get(head, 0)
    if kind == "calls":
        return calls
    if kind == "busy_s":
        return inclusive
    if kind == "words":
        return returned
    if kind == "scanned":
        return scanned
    if kind == "yield":
        return returned / scanned if scanned else 0.0
    raise ValueError(f"no rule computes the metric {name!r}")


def run_traced(args, names: list[str]) -> tuple[dict, dict, list]:
    plain = child(args, 0)
    traced = child(args, 0, trace=1) if plain is not None else None
    reports = [plain, traced]
    if traced is None:
        return {}, {}, reports
    values = {name: layer_metric(name, plain, traced) for name in names}
    details = {"spans": f"perfbench/out/spans-{args.workload}-seed{args.seed}.json",
               "calls": {k: v[0] for k, v in sorted(traced["stats"].items()) if v[0]}}
    return values, details, reports


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", help=argparse.SUPPRESS)  # self-test only
    args = parser.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "cosetrex" / "cli.py").is_file():
        print(f"error: no cosetrex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    args.started = time.perf_counter()
    args.messages = []

    if args.trace:
        values, details, reports = run_traced(args, [m["name"] for m in metrics])
    else:
        values, details, reports = run_untraced(args)
    per_iteration = workloads.ops_per_iteration(args.workload)
    attempted = sum(r["ops"] if r else per_iteration for r in reports)
    failed = sum(r["failed"] if r else per_iteration for r in reports)
    correct = failed == 0 and len(values) == len(metrics)
    if not correct:  # flagged by correct: false; what was not measured reads 0
        values = {m["name"]: values.get(m["name"], 0.0) for m in metrics}
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   failed_frac={"value": failed / attempted, "unit": "1"},
                   messages=args.messages[:10])
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
