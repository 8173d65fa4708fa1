"""Spans and counters around lucasprod's public functions, from outside.

``Tracer.install`` replaces every public function of each layer module with
a wrapper, in every lucasprod module namespace that binds it (``factorize``
is bound in factoring, solver, square_class and primitive), and wraps the
``FactorCache`` load, lookup and append methods. Each wrapper records a span
(name, start, end, parent, tag) in memory; ``summary`` turns one pass of
spans and counters into per-layer metrics. ``uninstall`` restores the
original bindings, so untraced passes run the program unmodified.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "solver", "factoring", "square_class", "primitive", "abc_evidence", "lucas", "intmath")


def _bits_tag(n: int) -> str:
    bits = abs(n).bit_length()
    return "bits_le64" if bits <= 64 else "bits_65_128" if bits <= 128 else "bits_gt128"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_inputs: set[int] = set()  # distinct factorize inputs of the current operation
        self._restore: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new CLI operation: distinct inputs are counted per operation."""
        self.counts["factoring.factorize.distinct"] += len(self._op_inputs)
        self._op_inputs = set()

    def reset(self) -> None:
        """Drop what was recorded; wrappers keep appending to the same objects."""
        self.begin_op()
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn, before=None, after=None, tag=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tag(*args, **kwargs) if tag else None)
                counts[name + ".calls"] += 1
            if after:
                after(result, state, *args, **kwargs)
            return result

        return traced

    # --- observers for the metrics that need arguments or results ---------

    def _after_factorize(self, result, _state, n, *args, **kwargs):
        self._op_inputs.add(n)
        if not result.complete:
            self.counts["factoring.factorize.incomplete"] += 1

    def _after_admissible(self, result, _state, eq, *args, **kwargs):
        self.counts["solver.admissible_indices.tested"] += eq.max_index - 1
        self.counts["solver.admissible_indices.admitted"] += len(result.indices)

    def _after_rank(self, result, _state, *args, **kwargs):
        self.counts["primitive.rank_of_apparition.steps"] += result.z

    def _after_cache_get(self, result, _state, *args, **kwargs):
        self.counts["factoring.cache.hits" if result is not None else "factoring.cache.misses"] += 1

    def _after_cache_add(self, _result, size_before, cache, *args, **kwargs):
        if cache.path is not None and len(cache) > size_before:
            self.counts["factoring.cache.appends"] += 1

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        modules = {name: sys.modules[name] for name in list(sys.modules) if name == "lucasprod" or name.startswith("lucasprod.")}
        observers = {
            "factoring.factorize": dict(after=self._after_factorize, tag=lambda n, *a, **k: _bits_tag(n)),
            "solver.admissible_indices": dict(after=self._after_admissible),
            "primitive.rank_of_apparition": dict(after=self._after_rank),
        }
        for layer in LAYERS:
            module = modules[f"lucasprod.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, **observers.get(name, {}))
                for other in modules.values():
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            self._restore.append((other, other_attr, fn))
                            setattr(other, other_attr, wrapper)
        cache_cls = modules["lucasprod.factoring"].FactorCache
        for attr, kwargs in (
            ("__init__", {}),
            ("get", dict(after=self._after_cache_get)),
            ("add", dict(before=lambda cache, *a, **k: len(cache), after=self._after_cache_add)),
        ):
            fn = vars(cache_cls)[attr]
            self._restore.append((cache_cls, attr, fn))
            setattr(cache_cls, attr, self._wrap(f"factoring.FactorCache.{attr.strip('_')}", fn, **kwargs))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # --- per-pass summary ------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since ``reset``."""
        self.begin_op()
        spans, counts = self.spans, self.counts
        child = [0.0] * len(spans)
        for _name, start, end, parent, _tag in spans:
            if parent >= 0:
                child[parent] += end - start
        self_by_name: defaultdict[str, float] = defaultdict(float)
        self_by_module: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, tag) in enumerate(spans):
            own = end - start - child[i]
            self_by_name[name] += own
            self_by_module[name.split(".")[0]] += own
            if tag:
                self_by_name[f"{name}.self_s.{tag}"] += own
        calls = counts["factoring.factorize.calls"]
        tested = counts["solver.admissible_indices.tested"]
        load_s = sum(end - start for name, start, end, _p, _t in spans if name == "factoring.FactorCache.init")
        return {
            "cli.self_s": self_by_module["cli"],
            "solver.admissible_indices.self_s": self_by_name["solver.admissible_indices"],
            "solver.admissible_indices.admitted_ratio": counts["solver.admissible_indices.admitted"] / tested if tested else 0.0,
            "solver.enumerate_solutions.self_s": self_by_name["solver.enumerate_solutions"],
            "solver.verify_solution.calls": counts["solver.verify_solution.calls"],
            "solver.verify_solution.self_s": self_by_name["solver.verify_solution"],
            "factoring.factorize.calls": calls,
            "factoring.factorize.distinct": counts["factoring.factorize.distinct"],
            "factoring.factorize.distinct_ratio": counts["factoring.factorize.distinct"] / calls if calls else 0.0,
            "factoring.factorize.incomplete": counts["factoring.factorize.incomplete"],
            "factoring.factorize.self_s": self_by_name["factoring.factorize"],
            **{
                f"factoring.factorize.self_s.{tag}": self_by_name[f"factoring.factorize.self_s.{tag}"]
                for tag in ("bits_le64", "bits_65_128", "bits_gt128")
            },
            "factoring.cache.load_s": load_s,
            "factoring.cache.hits": counts["factoring.cache.hits"],
            "factoring.cache.misses": counts["factoring.cache.misses"],
            "factoring.cache.appends": counts["factoring.cache.appends"],
            "square_class.self_s": self_by_module["square_class"],
            "primitive.rank_of_apparition.calls": counts["primitive.rank_of_apparition.calls"],
            "primitive.rank_of_apparition.steps": counts["primitive.rank_of_apparition.steps"],
            "primitive.rank_of_apparition.self_s": self_by_name["primitive.rank_of_apparition"],
            "primitive.primitive_divisors.self_s": self_by_name["primitive.primitive_divisors"],
            "primitive.obstruction_filter.self_s": self_by_name["primitive.obstruction_filter"],
            "abc_evidence.quality_report.self_s": self_by_name["abc_evidence.quality_report"],
            "lucas.calls": sum(v for key, v in counts.items() if key.startswith("lucas.") and key.endswith(".calls")),
            "lucas.self_s": self_by_module["lucas"],
            "intmath.is_probable_prime.calls": counts["intmath.is_probable_prime.calls"],
            "intmath.self_s": self_by_module["intmath"],
        }
