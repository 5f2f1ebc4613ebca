"""Span recording around hybridopt's public functions, from outside the package.

``Tracer.install()`` replaces each traced function under the name its caller
looks up (``hybridopt.pso.compute_velocity``, ``hybridopt.executor.evaluate``,
``CmaRunner.generation``, ...) with a wrapper that records one span: name,
start, end, parent span and run id.  Spans live in flat arrays in memory
and ``save()`` writes them out.
``uninstall()`` puts every original back, so untraced runs in the same
process pay nothing.  ``SpanTable`` turns span sets into per-name call
counts, total times and self times (a span's duration minus the durations
of its direct children).

A few wrappers also look at arguments or results to count outcomes where the
work happens: DE trials that improved, local-search runs that improved, CMA-ES
samples that had to be clamped into the box.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import hybridopt.cli
import hybridopt.cmaes
import hybridopt.de
import hybridopt.executor
import hybridopt.localsearch
import hybridopt.pso

# Module-level functions to wrap: (module, attribute).  The span name is
# "<module>.<attribute>" of the module that defines the function, which is
# also its layer.  Each entry patches the name the caller binds.
_FUNCTIONS = (
    (hybridopt.executor, "dispatch_update", "executor"),
    (hybridopt.executor, "update_execution_parameters", "executor"),
    (hybridopt.executor, "apply_reinitialization", "executor"),
    (hybridopt.executor, "evaluate", "core"),
    (hybridopt.executor, "mtsls_run", "localsearch"),
    (hybridopt.executor, "schedule_ls", "localsearch"),
    (hybridopt.pso, "compute_velocity", "pso"),
    (hybridopt.pso, "update_position", "pso"),
    (hybridopt.pso, "neighbors", "pso"),
    (hybridopt.pso, "build_topology", "pso"),
    (hybridopt.pso, "advance_topology", "pso"),
    (hybridopt.pso, "random_velocity", "pso"),
    (hybridopt.pso, "stagnation_check", "pso"),
    (hybridopt.pso, "perturbation_magnitude", "pso"),
    (hybridopt.de, "select_base_and_donors", "de"),
    (hybridopt.de, "mutate", "de"),
    (hybridopt.de, "recombine", "de"),
    (hybridopt.de, "select_greedy", "de"),
    (hybridopt.de, "recompute_velocity", "de"),
    (hybridopt.de, "num_vector_differences", "de"),
    (hybridopt.de, "population_eigenbasis", "de"),
    (hybridopt.de, "eigen_recombination_wrap", "de"),
    (hybridopt.cmaes, "init_state", "cmaes"),
    (hybridopt.cmaes, "sample_population", "cmaes"),
    (hybridopt.cmaes, "update_mean", "cmaes"),
    (hybridopt.cmaes, "update_paths_and_sigma", "cmaes"),
    (hybridopt.cmaes, "update_covariance", "cmaes"),
    (hybridopt.cmaes, "record_generation", "cmaes"),
    (hybridopt.cmaes, "check_restart", "cmaes"),
    (hybridopt.cmaes, "on_restart", "cmaes"),
    (hybridopt.cmaes, "matrix_mode_tick", "cmaes"),
    (hybridopt.cli, "validate", "config"),
    (hybridopt.cli, "run", "executor"),
    (hybridopt, "run", "executor"),
)
_METHODS = (
    (hybridopt.cmaes.CmaRunner, "generation", "cmaes"),
    (hybridopt.localsearch.NestedCmaes, "run_slice", "localsearch"),
)

OBJECTIVE = "benchmarks.objective"
RUN = "executor.run"


class TracedObjective:
    """Stands in for an ObjectiveInstance: same ``d`` and ``bounds``, and
    every call is one ``benchmarks.objective`` span."""

    def __init__(self, inner, tracer: "Tracer"):
        self.inner = inner
        self.d = inner.d
        self.bounds = inner.bounds
        self._call = tracer.wrap(OBJECTIVE, inner.__call__)

    def __call__(self, x):
        return self._call(x)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_id = 0
        self.counts: dict[str, int] = {}
        self.run_wall_ms = 0.0  # as reported by the traced run() calls
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        """``fn`` wrapped so that each call records one span called ``name``.

        ``observe(args, result)`` runs after a call that returned normally.
        """
        nid = self._name_id(name)
        names, parents, runs = self.name, self.parent, self.run
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        observers = {
            "select_greedy": self._observe_greedy,
            "mtsls_run": self._observe_mtsls,
            "run_slice": self._observe_slice,
            "on_restart": lambda args, result: self.count("cmaes.restarts"),
            "run": self._observe_run,
        }
        for module, attr, layer in _FUNCTIONS:
            self._patch(module, attr, self.wrap(f"{layer}.{attr}",
                                                getattr(module, attr),
                                                observers.get(attr)))
        for cls, attr, layer in _METHODS:
            self._patch(cls, attr, self.wrap(f"{layer}.{cls.__name__}.{attr}",
                                             getattr(cls, attr),
                                             observers.get(attr)))
        # CmaRunner.generation clamps each sample through this name before
        # evaluating it; count the coordinates that left the box.
        repair = hybridopt.cmaes.repair_to_bounds

        def counted_repair(x, bounds):
            inside = repair(x, bounds)
            self.count("cmaes.coords", x.size)
            self.count("cmaes.clamped", int(np.count_nonzero(inside != x)))
            return inside

        self._patch(hybridopt.cmaes, "repair_to_bounds", counted_repair)
        # target-runner builds its own instance: hand it a traced objective.
        make_instance = self.wrap("benchmarks.make_instance",
                                  hybridopt.cli.make_instance)
        self._patch(hybridopt.cli, "make_instance",
                    lambda *a, **k: TracedObjective(make_instance(*a, **k), self))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _observe_run(self, args, result) -> None:
        self.run_wall_ms += result.wall_ms

    def _observe_greedy(self, args, result) -> None:
        self.count("de.trials")
        if result[1]:
            self.count("de.improved")

    def _observe_mtsls(self, args, result) -> None:
        self.count("localsearch.runs")
        self.count("localsearch.fes", result.evals)
        if result.fitness < args[1]:
            self.count("localsearch.improved")

    def _observe_slice(self, args, result) -> None:
        self.count("localsearch.runs")
        self.count("localsearch.fes", result[2])
        if result[1] < args[2]:
            self.count("localsearch.improved")

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path, **extra) -> None:
        np.savez(path, **extra, names=np.array(self.names, dtype=str),
                 counts_keys=np.array(list(self.counts), dtype=str),
                 counts_values=np.array(list(self.counts.values()), dtype=np.int64),
                 **self.arrays())


def load(path):
    """(names, span arrays, counts, extra scalars) saved by ``Tracer.save``."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        arrays = {k: data[k] for k in ("name", "parent", "run", "start", "end")}
        counts = {str(k): int(v) for k, v in
                  zip(data["counts_keys"], data["counts_values"])}
        extra = {k: float(data[k]) for k in data.files
                 if k not in arrays and k not in ("names", "counts_keys", "counts_values")}
    return names, arrays, counts, extra


def _inside(ids: np.ndarray, parent: np.ndarray, root: int) -> np.ndarray:
    """Mask of the spans that are a ``root`` span or lie below one."""
    mask = ids == root
    has_parent = parent >= 0
    while True:
        grown = mask.copy()
        grown[has_parent] |= mask[parent[has_parent]]
        if np.array_equal(grown, mask):
            return mask
        mask = grown


class SpanTable:
    """Per-name totals over any number of span sets (one per process)."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.run_self = 0.0  # self time of every span inside a run() span

    def add(self, names, arrays, counts=None) -> None:
        dur = arrays["end"] - arrays["start"]
        parent = arrays["parent"]
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=dur.size)[:dur.size]
        own = dur - child
        ids = arrays["name"]
        if RUN in names:
            self.run_self += float(own[_inside(ids, parent, names.index(RUN))].sum())
        for nid, name in enumerate(names):
            sel = ids == nid
            if not sel.any():
                continue
            self.calls[name] = self.calls.get(name, 0) + int(sel.sum())
            self.total[name] = self.total.get(name, 0.0) + float(dur[sel].sum())
            self.self_time[name] = self.self_time.get(name, 0.0) + float(own[sel].sum())
        for key, value in (counts or {}).items():
            self.counts[key] = self.counts.get(key, 0) + value

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items()
                   if k.split(".", 1)[0] == layer)

    def mean_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.total[name] / calls * 1e6 if calls else 0.0

    def mean_self_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.self_time[name] / calls * 1e6 if calls else 0.0
