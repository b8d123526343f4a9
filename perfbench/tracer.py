"""Call tracing for the traced benchmark run.

Every public function of the ``cosetrex`` package is replaced, in every
module namespace that holds it, by a wrapper that counts calls and
measures self time: the call's duration minus the time spent in wrapped
children, kept on an explicit stack.  Per-function totals are aggregated
online.  Full spans (start, duration, caller) are kept only for the
coarse boundary functions in ``SPAN_FUNCTIONS``, so that the million-odd
element-layer calls of a verify run do not fill memory.

The wrapping works because the library calls its helpers through module
globals (``multiply(...)`` looks up ``coxeter.multiply`` at call time), so
patching the globals catches intra-module calls as well.
"""
from __future__ import annotations

import inspect
import time
from types import ModuleType

# boundary functions whose every call is kept as a span; their results'
# lengths are summed as well (cosets found, atoms, braid-closure words)
SPAN_FUNCTIONS = (
    "cosets.enumerate_core_cosets",
    "atomic.atomic_rex_of_core",
    "squash_a.braid_closure",
    "squash_b.braid_closure_b",
)


def public_functions(modules: list[ModuleType]):
    """Yield (key, function) for each public package function, once each."""
    seen = set()
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or isinstance(obj, (type, ModuleType)) or not callable(obj):
                continue
            if not getattr(obj, "__module__", "").startswith("cosetrex") or id(obj) in seen:
                continue
            seen.add(id(obj))
            yield f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}", obj


def replace_everywhere(modules: list[ModuleType], old, new) -> None:
    """Rebind every module-level name that refers to ``old``."""
    for module in modules:
        for name, obj in list(vars(module).items()):
            if obj is old:
                setattr(module, name, new)


class Tracer:
    """Per-function call counts, self and inclusive time, and boundary spans."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.keys = ["<root>"]  # innermost wrapped call is last
        self.child_time = [0.0]
        # key -> [calls, self_s, inclusive_s, summed result length]
        self.stats: dict[str, list] = {}
        # span name -> list of (start_s, duration_s, caller key)
        self.spans: dict[str, list] = {name: [] for name in SPAN_FUNCTIONS}
        # generator function key -> {key of the consumer that drew from it: items}
        self.items: dict[str, dict[str, int]] = {}

    def install(self, modules: list[ModuleType]) -> None:
        for key, fn in list(public_functions(modules)):
            if inspect.isgeneratorfunction(fn):
                wrapper = self._wrap_generator(fn, key)
            else:
                wrapper = self._wrap(fn, key)
            replace_everywhere(modules, fn, wrapper)

    def add_span(self, name: str, start: float, duration: float) -> None:
        """Record a span measured outside the wrappers (a query, a verify cell)."""
        self.spans.setdefault(name, []).append((start - self.origin, duration, self.keys[-1]))

    def _wrap(self, fn, key: str):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        spans = self.spans.get(key)
        keys, child_time, clock, origin = self.keys, self.child_time, self.clock, self.origin

        def wrapper(*args, **kwargs):
            keys.append(key)
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                keys.pop()
                inner = child_time.pop()
                child_time[-1] += dt
                stat[0] += 1
                stat[1] += dt - inner
                stat[2] += dt
            if spans is not None:
                spans.append((t0 - origin, dt, keys[-1]))
                stat[3] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, key: str):
        # the generator body runs in its consumer's frame, so its time is the
        # consumer's self time; only calls and yielded items are counted here
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        items = self.items.setdefault(key, {})
        keys = self.keys

        def wrapper(*args, **kwargs):
            stat[0] += 1  # counted, like the owner, when the first item is drawn
            owner = keys[-1]
            count = 0
            try:
                for item in fn(*args, **kwargs):
                    count += 1
                    yield item
            finally:
                items[owner] = items.get(owner, 0) + count
                stat[3] += count

        wrapper.__wrapped__ = fn
        return wrapper
