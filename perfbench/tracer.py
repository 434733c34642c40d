"""Outside-in tracer for karith.

``install()`` wraps, from outside the package, every public function of
every karith module, ``PrefixSums.weighted``, each generator's ``term`` and
the census kernel ``generated._divisor_count_capped``.  It then rebinds every
module attribute that still points at an original, so the copies made by
``from .core import ...`` in collatz, coverage and cli are traced too.

Per function it keeps calls, total time and self time (total minus the time
of traced callees) rather than one span per call, plus a few counters that
the hooks below read from arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

SCANS = frozenset({
    "generated.seq_divisors", "generated.seq_is_prime",
    "generated.seq_primes_below", "generated.exact_divisor_count_numbers",
})


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)
        # Each open call is [time spent in traced callees, layer].
        self._stack: list[list] = []
        self._scan_depth = 0
        self._handler_depth = 0

    def wrap(self, name: str, fn, after=None):
        layer = name.split(".", 1)[0]
        scan = name in SCANS
        handler = name.startswith("cli.cmd_")
        stack, calls, total_s, self_s = self._stack, self.calls, self.total_s, self.self_s
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            self._scan_depth += scan
            self._handler_depth += handler
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self._scan_depth -= scan
                self._handler_depth -= handler
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    # Library work a CLI handler asked for, as opposed to its
                    # own argument handling and rendering.
                    if self._handler_depth and parent[1] == "cli" and layer != "cli":
                        counters["cli.handler_library_s"] += elapsed
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - frame[0]
            if after is not None:
                after(args, result)
            return result

        return traced

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }


def _hooks(tracer: Tracer) -> dict:
    counters = tracer.counters

    def quotient(args, result):
        if not isinstance(result, int):
            counters["core.k_quotient.not_divisible"] += 1

    def nth_prime(args, result):
        counters["generators.nth_prime.max_index"] = max(
            counters["generators.nth_prime.max_index"], args[0])

    def weighted(args, result):
        if tracer._scan_depth:
            counters["generated.term_counts_scanned"] += 1

    def divisors_found(args, result):
        counters["generated.divisors_found"] += len(result.divisors)

    def capped_count(args, result):
        counters["generated.divisors_found"] += result

    def orbit(args, result):
        counters["collatz.classified"] += result.kind.value in ("cycle", "fixed_point")

    def primes_used(args, result):
        counters["coverage.primes_used"] += len(result.primes_used)

    return {
        "core.k_quotient": quotient,
        "generators.nth_prime": nth_prime,
        "generators.weighted": weighted,
        "generated.seq_divisors": divisors_found,
        "generated._divisor_count_capped": capped_count,
        "collatz.orbit": orbit,
        "coverage.residual_set": primes_used,
        "coverage.seq_residual_set": primes_used,
    }


def install() -> Tracer:
    """Import every karith module and route its functions through a Tracer."""
    import karith

    modules = [karith] + [
        importlib.import_module(f"karith.{info.name}")
        for info in pkgutil.iter_modules(karith.__path__)
        if info.name != "__main__"
    ]
    tracer = Tracer()
    hooks = _hooks(tracer)

    def wrap(name, fn):
        return tracer.wrap(name, fn, hooks.get(name))

    replacements = {}
    for module in modules[1:]:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and (not attr.startswith("_") or f"{short}.{attr}" in hooks)):
                replacements[obj] = wrap(f"{short}.{attr}", obj)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(module, attr, replacements[obj])

    generators = sys.modules["karith.generators"]
    generators.PrefixSums.weighted = wrap("generators.weighted",
                                          generators.PrefixSums.weighted)
    for obj in vars(generators).values():
        if (inspect.isclass(obj) and issubclass(obj, generators.Generator)
                and obj is not generators.Generator and "term" in vars(obj)):
            obj.term = wrap("generators.term", vars(obj)["term"])
    return tracer
