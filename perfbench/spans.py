"""Per-layer tracing for the benchmark, done entirely from outside the package.

`Tracer.install` replaces every binding of the traced public functions in the
loaded `braidmscp` modules (a module's own definition and each `from ...
import` copy in other modules) with a timing wrapper, and `uninstall` puts
the originals back, so the package source is never edited.  Spans are not
kept one by one: a search makes millions of calls, so each traced name keeps
only its call count, total time and self time (total minus the time covered
by the child spans it caused).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import random
import sys
import time
import types

def package_modules(package) -> list[types.ModuleType]:
    prefix = package.__name__
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == prefix or name.startswith(prefix + "."))
    ]


def package_caches(package) -> list:
    """Every functools cache in the package, deduplicated."""
    found = {}
    for module in package_modules(package):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return list(found.values())


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "result_len")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.result_len = 0

    def values(self) -> dict[str, float]:
        """The span's figures under their metric suffixes."""
        return {"calls": self.calls, "s": self.total, "self_s": self.self_time, "bytes": self.result_len}


class Tracer:
    """Aggregated spans of the named functions ("module.function") of one loaded package.

    For the names in `measure_result` the length of every result is summed too.
    """

    def __init__(self, package, names, measure_result=()):
        self.package = package
        self.stats: dict[str, SpanStats] = {}
        self.active = True
        self._stack: list[list[float]] = []
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        for name in names:
            mod_name, fn_name = name.split(".")
            fn = getattr(sys.modules[f"{package.__name__}.{mod_name}"], fn_name)
            self._wrappers[id(fn)] = self._wrap(name, fn, name in measure_result)

    def _wrap(self, name: str, fn, measure: bool):
        stats = self.stats[name] = SpanStats()
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if measure:
                stats.result_len += len(result)
            return result

        return wrapper

    def install(self) -> None:
        for module in package_modules(self.package):
            for name, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untimed, e.g. the benchmark's own checks."""
        self.active = False
        try:
            yield
        finally:
            self.active = True


class GcClock:
    """Time spent in the cyclic garbage collector, via gc.callbacks."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


def deep_sizeof(root) -> int:
    """Bytes of every object reachable from root, each counted once.

    Classes, modules and functions are shared program structure, not data
    owned by root, so the walk stops at them.
    """
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def braid_probe(package, forms, seed: int, pairs: int = 2000) -> dict[str, float]:
    """Microseconds per call of the public lattice operations of `braid`.

    The operands are pairs of simple factors drawn from the given normal
    forms.  Every cache of the package is cleared before each operation's
    first (cold) pass; the second (warm) pass repeats the same operands.
    """
    by_n: dict[int, list] = {}
    for f in forms:
        by_n.setdefault(f.n, []).extend(f.factors)
    pools = [factors for factors in by_n.values() if factors]
    if not pools:
        raise ValueError("the workload's normal forms have no simple factors to probe")
    rng = random.Random(seed)
    operands = []
    for _ in range(pairs):
        pool = rng.choice(pools)
        operands.append((rng.choice(pool), rng.choice(pool)))
    braid = package.braid
    ops = {
        "meet": braid.meet,
        "join": braid.join,
        "left_complement_simple": braid.left_complement_simple,
        "tau": lambda a, b: braid.tau(a),
        "simple_divides": braid.simple_divides,
    }
    caches = package_caches(package)
    out = {}
    for name, op in ops.items():
        for cache in caches:
            cache.cache_clear()
        for label in ("cold_us", "warm_us"):
            start = time.perf_counter()
            for a, b in operands:
                op(a, b)
            out[f"braid.{name}.{label}"] = (time.perf_counter() - start) / len(operands) * 1e6
    return out
