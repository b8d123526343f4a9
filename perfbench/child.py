"""One benchmark iteration in a fresh process, started by ``run.py``.

Usage: child.py --workload NAME --seed N --batch I [--setup-only]
                [--trace 0|1] [--fault NAME]

Imports ``cosetrex`` from ``src/`` of the checkout, builds the inputs
(timed as set-up), runs one iteration of the workload through
``cosetrex.cli.main`` with caches cold, checks every output, and prints
one JSON report as its last line of standard output.  Untraced children
also sample the host's speed (``hostspeed.py``) and report it beside
every duration.
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (set-up time is measured from the line above)
import io
import json
import resource
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer, public_functions, replace_everywhere  # noqa: E402

MODULE_NAMES = ("coxeter", "cosets", "expressions", "atomic", "squash_a", "squash_b", "nilcox", "cli")
SPANS_DIR = HERE / "out"


class _StampedLines(io.TextIOBase):
    """A stdout stand-in that keeps each line and the time it was finished."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self.partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if "\n" in text:
            now = self.clock()
            parts = (self.partial + text).split("\n")
            self.partial = parts.pop()
            self.lines.extend(parts)
            self.stamps.extend([now] * len(parts))
        else:
            self.partial += text
        return len(text)


class Cli:
    """Calls ``cosetrex.cli.main(argv)`` in-process and captures its output."""

    def __init__(self, cli_module, clock) -> None:
        self.cli = cli_module
        self.clock = clock
        self.errors: list[str] = []

    def __call__(self, argv: list[str]):
        out, err = _StampedLines(self.clock), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            code = self.cli.main(argv)  # looked up per call, so tracing sees it
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a crash
            code = -1
            err.write(traceback.format_exc())
        finally:
            sys.stdout, sys.stderr = saved
        if out.partial:
            out.write("\n")
        if code != 0 and len(self.errors) < 5:
            first = err.getvalue().strip().splitlines()[-1:] or [""]
            self.errors.append(f"{' '.join(argv[:2])}: exit {code}: {first[0][:300]}")
        return code, out.lines, out.stamps


def _load_package():
    import importlib

    import cosetrex

    origin = Path(cosetrex.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"cosetrex was imported from {origin}, not from this checkout")
    modules = [cosetrex] + [importlib.import_module(f"cosetrex.{name}") for name in MODULE_NAMES]
    return {m.__name__.rsplit(".", 1)[-1]: m for m in modules}


def _inject_fault(name: str, modules: dict) -> None:
    """Make one library function answer wrongly, for the benchmark self-test."""
    coxeter = modules["coxeter"]
    faults = {
        # the last atom of every greedy atomic expression goes missing
        "drop-atom": ("atomic", "atomic_rex_of_core", lambda fn: lambda p: fn(p)[:-1]),
        # the first two strands of every squashed permutation are swapped
        "wrong-sigma": ("squash_a", "squash_coset", lambda fn: lambda p: _swap(coxeter, fn(p))),
        # every core-coset enumeration loses its last coset
        "drop-coset": ("cosets", "enumerate_core_cosets",
                       lambda fn: lambda *a, **k: fn(*a, **k)[:-1]),
    }
    module, attr, make = faults[name]
    original = getattr(modules[module], attr)
    replace_everywhere(list(modules.values()), original, make(original))


def _swap(coxeter, sigma):
    data = sigma.data
    return coxeter.Element(sigma.system, data[1::-1] + data[2:]) if len(data) > 1 else sigma


def _cache_info(modules: dict) -> dict:
    out = {}
    for key, fn in public_functions(list(modules.values())):
        if hasattr(fn, "cache_info"):
            info = fn.cache_info()
            out[key] = [info.hits, info.misses, info.currsize]
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault")
    args = parser.parse_args()

    speed = HostSpeed()  # sampled only when untraced; see hostspeed.py
    mark = 0  # index of the first slice taken after set-up
    if not args.trace:
        speed.start()
    modules = _load_package()
    inputs = workloads.build(args.workload, args.seed, args.batch)
    setup_s = speed.clock() - STARTED
    report: dict = {"raw_setup_s": setup_s, "setup_s": setup_s}
    if not args.trace:
        # set-up is too short for many timer samples: add a burst of them
        speed.stop()
        speed.burst()
        report["setup_s"] = setup_s * speed.factor()
        mark = len(speed.slices)
        speed.start()
    if not args.setup_only:
        if args.fault:
            _inject_fault(args.fault, modules)
        tracer = Tracer()
        if args.trace:
            tracer.install(list(modules.values()))
        call = Cli(modules["cli"], speed.clock)
        outcome = workloads.Outcome()
        t0 = speed.clock()
        workloads.run(args.workload, inputs, call, outcome, tracer.add_span)
        wall_s = speed.clock() - t0
        # durations scaled to the reference host speed (hostspeed.py): the
        # iteration's by the mean speed over it, a request's by the speed
        # sampled around it; unscaled when tracing
        report.update(raw_wall_s=wall_s, wall_s=wall_s, speed=1.0)
        unit_ms = [dt * 1e3 for _, dt in outcome.units]
        if not args.trace:
            speed.stop()
            report["speed"] = speed.factor(mark)
            report["wall_s"] = wall_s * report["speed"]
            unit_ms = [dt * 1e3 * speed.local_factor(start, start + dt, mark)
                       for start, dt in outcome.units]
        if args.trace:
            report["stats"] = tracer.stats
            report["items"] = tracer.items
            calls = tracer.stats["squash_b.matsumoto_connected_b"][0]
            expected = workloads.EXPECTED_COSETS["verify-braid-b4"]
            if args.workload == "verify-braid-b4" and calls != expected:
                outcome.failed = outcome.ops  # the whole run checked the wrong number of cosets
                outcome.messages.append(f"matsumoto_connected_b called {calls} times, expected {expected}")
            SPANS_DIR.mkdir(exist_ok=True)
            path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps(tracer.spans))
        else:
            report["caches"] = _cache_info(modules)
        report.update(ops=outcome.ops, failed=outcome.failed, unit_ms=unit_ms,
                      messages=(outcome.messages + call.errors)[:10])
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))


if __name__ == "__main__":
    main()
