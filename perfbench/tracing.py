"""Span tracer that times qwalk1d's layers from outside the package.

The package itself carries no instrumentation.  For a traced iteration
the tracer replaces each public function listed in ``WRAPPED`` by a
closure, under the module name its caller looks it up by, and restores
the originals afterwards.  Every call records one span ``(name, start,
end, parent)`` in memory; a layer's self time is the duration of its
spans minus the part covered by their child spans.  A function missing
from its module is skipped, so a refactor that removes it makes its
layer report zero calls instead of breaking the benchmark.

Work done in worker processes is not traced (their spans would die with
them); it shows up as child CPU time around ``run_ensemble`` instead.
"""

from __future__ import annotations

import importlib
import os
import resource
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

ROOT_SPAN = "bench.iteration"
LAYERS = ("cli", "core", "ensemble", "evolution", "observables")


def _size_of_first(args, kwargs) -> int:
    value = args[0] if args else kwargs.get("up_weight")
    return int(getattr(value, "size", 1))


def _ensemble_records(args, kwargs) -> int:
    grid = args[0] if args else kwargs["grid"]
    plan = args[2] if len(args) > 2 else kwargs["plan"]
    return len(grid) * len(plan.record_times())


def _walk_records(args, kwargs) -> int:
    plan = args[2] if len(args) > 2 else kwargs["plan"]
    return len(plan.record_times())


# (module the caller looks the name up in, attribute, span name, counter)
WRAPPED = (
    ("qwalk1d.cli", "main", "cli.main", None),
    ("qwalk1d.cli", "parse_config", "cli.parse_config", None),
    ("qwalk1d.cli", "expand_runs", "cli.expand_runs", None),
    ("qwalk1d.cli", "execute", "cli.execute", None),
    ("qwalk1d.cli", "emit_results", "cli.emit_results", None),
    ("qwalk1d.cli", "run_walk", "ensemble.run_walk", ("ensemble.records", _walk_records)),
    ("qwalk1d.cli", "run_ensemble", "ensemble.run_ensemble", ("ensemble.records", _ensemble_records)),
    ("qwalk1d.cli", "make_qubit_grid", "ensemble.make_qubit_grid", None),
    ("qwalk1d.cli", "fit_dispersion_slope", "ensemble.fit_dispersion_slope", None),
    ("qwalk1d.ensemble", "run_walk", "ensemble.run_walk", ("ensemble.records", _walk_records)),
    ("qwalk1d.ensemble", "run_ensemble", "ensemble.run_ensemble", ("ensemble.records", _ensemble_records)),
    ("qwalk1d.ensemble", "make_qubit_grid", "ensemble.make_qubit_grid", None),
    ("qwalk1d.ensemble", "fit_dispersion_slope", "ensemble.fit_dispersion_slope", None),
    ("qwalk1d.ensemble", "build_initial_state", "core.build_initial_state", None),
    ("qwalk1d.ensemble", "step", "evolution.step", None),
    ("qwalk1d.ensemble", "evolve", "evolution.evolve", None),
    ("qwalk1d.ensemble", "prepared", "evolution.prepared", None),
    ("qwalk1d.evolution", "step", "evolution.step", None),
    ("qwalk1d.evolution", "reachable_window", "evolution.reachable_window", None),
    ("qwalk1d.ensemble", "entropy_bits_vec", "observables.entropy_bits_vec",
     ("observables.entropy_vec_points", _size_of_first)),
    ("qwalk1d.ensemble", "distribution", "observables.distribution", None),
    ("qwalk1d.ensemble", "dispersion", "observables.dispersion", None),
    ("qwalk1d.ensemble", "reduced_coin", "observables.reduced_coin", None),
    ("qwalk1d.ensemble", "entanglement_entropy", "observables.entanglement_entropy", None),
)

# The per-walk observer closure that run_walk hands to evolve is ensemble
# code running inside the evolution loop; it gets a span of its own.
OBSERVER_SPAN = "ensemble.observer"
# Pool accounting: CPU of this process and of reaped workers around these spans.
RESOURCE_SPANS = frozenset({"ensemble.run_ensemble"})


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


@dataclass
class IterationTrace:
    """Spans and counters of one traced iteration."""

    names: list[str]
    spans: list[tuple[int, float, float, int]]
    counters: Counter = field(default_factory=Counter)

    def wall_s(self) -> float:
        _, start, end, _ = self.spans[0]
        return end - start

    def by_name(self) -> dict[str, dict[str, float]]:
        """Total time, self time and call count per span name."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for i, (name_id, start, end, _) in enumerate(self.spans):
            entry = out[self.names[name_id]]
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["calls"] += 1
        return dict(out)

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer; ``bench`` is the untraced remainder."""
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, entry in self.by_name().items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + entry["self_s"]
        return out


class Tracer:
    """Installs the span wrappers for one iteration at a time."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._spans: list = []
        self._current = -1
        self._counters: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _record(self, name_id: int, fn, args, kwargs):
        """Call ``fn`` inside a span."""
        parent = self._current
        index = len(self._spans)
        self._spans.append(None)
        self._current = index
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._current = parent
            self._spans[index] = (name_id, start, time.perf_counter(), parent)

    def _traced(self, fn, name: str, counter=None):
        tracer = self
        name_id = self._name_id(name)
        observer_id = self._name_id(OBSERVER_SPAN)
        wrap_observer = name == "evolution.evolve"
        count_resources = name in RESOURCE_SPANS

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:  # inherited by a forked worker
                return fn(*args, **kwargs)
            if wrap_observer:
                args, kwargs = tracer._with_traced_observer(args, kwargs, observer_id)
            if counter is not None:
                key, count = counter
                try:
                    tracer._counters[key] += count(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # signature changed; the count stays at zero
            if not count_resources:
                return tracer._record(name_id, fn, args, kwargs)
            wall0, cpu0, child0 = time.perf_counter(), time.process_time(), children_cpu_s()
            try:
                return tracer._record(name_id, fn, args, kwargs)
            finally:
                child = children_cpu_s() - child0
                tracer._counters["ensemble.pool_cpu_s"] += child
                tracer._counters["ensemble.span_cpu_s"] += time.process_time() - cpu0 + child
                tracer._counters["ensemble.span_wall_s"] += time.perf_counter() - wall0

        return traced

    def _with_traced_observer(self, args, kwargs, observer_id):
        positional = len(args) > 2
        observer = args[2] if positional else kwargs.get("observer")
        if observer is None:
            return args, kwargs

        def traced(*a, **kw):
            return self._record(observer_id, observer, a, kw)

        if positional:
            return (*args[:2], traced, *args[3:]), kwargs
        return args, {**kwargs, "observer": traced}

    def trace(self, call) -> tuple[object, IterationTrace]:
        """Run ``call()`` with every wrapper installed; return its result and trace."""
        self._spans, self._counters, self._current = [], Counter(), -1
        restore = []
        try:
            for module_name, attr, name, counter in WRAPPED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self._traced(fn, name, counter))
                    restore.append((module, attr, fn))
            result = self._record(self._name_id(ROOT_SPAN), call, (), {})
        finally:
            for module, attr, fn in reversed(restore):
                setattr(module, attr, fn)
        return result, IterationTrace(list(self._names), self._spans, self._counters)
