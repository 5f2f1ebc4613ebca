"""Subordinate local search interleaved with the main algorithm.

Two searchers are available: a dimension-sweep trajectory search with
step-size halving, and a nested, fully independent CMA-ES instance whose
state persists across its scheduled slices.  Both are fed the incumbent
best and may never return anything worse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cmaes import CmaParams, CmaRunner
from .core import Bounds, BudgetExhausted, repair_to_bounds

CONVERGENCE_EPS = 1e-20


@dataclass
class LsParams:
    algo: str = "none"             # none | mtsls | cmaes
    budget: float = 0.25           # fraction of the total FE budget given to LS
    divide: int = 10               # number of scheduled independent runs
    mtsls_init_ss: float = 0.5     # initial step as a fraction of the box width
    mtsls_iterations: int = 1      # dimension sweeps per scheduled run
    mtsls_bias: float = 0.5        # pull of restart points toward the incumbent
    nested_cma: CmaParams | None = None


def schedule_ls(total_fes: int, params: LsParams) -> tuple[int, int]:
    """(per_run, total_ls): the LS share total_ls = floor(budget*total) and
    the grant per_run = floor(total_ls/divide) of each run; runs go on past
    ``divide`` until the share is spent."""
    total_ls = int(params.budget * total_fes)
    return total_ls // params.divide, total_ls


@dataclass
class MtslsResult:
    solution: np.ndarray
    fitness: float
    evals: int
    ss_history: list[float] = field(default_factory=list)


def bound_penalty(x: np.ndarray, inside: np.ndarray) -> float:
    """Sum of squared offsets between a raw probe and its clamped image."""
    offsets = x - inside
    return float(np.dot(offsets, offsets))


def mtsls_run(start: np.ndarray, start_fitness: float, f, bounds: Bounds,
              budget: int, params: LsParams, rng: np.random.Generator) -> MtslsResult:
    """Dimension-sweep local search from `start`.

    Per dimension, the probe s_j - ss is tried first and s_j + ss/2 second;
    a fruitless full sweep halves the step everywhere.  Out-of-bounds probes
    are charged the clamped evaluation plus the squared offsets.  The best
    feasible point seen is returned and is never worse than the input.

    Parameters
    ----------
    f : callable evaluating a feasible point for one FE; may raise
        BudgetExhausted, which ends the run gracefully.
    budget : FE slice for this run; the sweep stops exactly at the limit.
    """
    d = bounds.d
    width = bounds.width()
    ss = params.mtsls_init_ss * width
    s = np.asarray(start, dtype=float).copy()
    current_f = float(start_fitness)

    best_x = repair_to_bounds(s, bounds).copy()
    best_f = current_f
    evals = 0
    ss_history: list[float] = []

    def probe(x):
        nonlocal evals, best_x, best_f
        if evals >= budget:
            raise BudgetExhausted("local-search slice spent")
        inside = repair_to_bounds(x, bounds)
        value = f(inside)
        evals += 1
        if value < best_f:
            best_f = value
            best_x = inside.copy()
        return value + bound_penalty(x, inside)

    try:
        for sweep in range(params.mtsls_iterations):
            if sweep > 0 and improvement <= CONVERGENCE_EPS:
                # restart between a random point and the best found so far
                r = rng.uniform(bounds.lower, bounds.upper)
                pull = (1.0 - params.mtsls_bias) * rng.uniform(size=d) + params.mtsls_bias
                s = r + pull * (best_x - r)
                current_f = probe(s)

            f_sweep_start = current_f
            for j in range(d):
                for step in (-ss[j], 0.5 * ss[j]):
                    trial = s.copy()
                    trial[j] = s[j] + step
                    val = probe(trial)
                    if val < current_f:
                        s, current_f = trial, val
                        break

            improvement = f_sweep_start - current_f
            if not current_f < f_sweep_start:
                ss = ss / 2.0
            elif improvement <= CONVERGENCE_EPS:
                # converged: the step restarts at a random fraction of the box
                ss = float(rng.uniform(0.3, 0.6)) * width
            ss_history.append(float(ss[0]))
    except BudgetExhausted:
        pass

    return MtslsResult(solution=best_x, fitness=best_f, evals=evals,
                       ss_history=ss_history)


class NestedCmaes:
    """CMA-ES used as local search: independent params, state kept across slices."""

    def __init__(self, params: CmaParams, bounds: Bounds):
        self.params = params
        self.bounds = bounds
        self.runner: CmaRunner | None = None
        self.stalled = False  # set when a slice cannot fit one generation

    def run_slice(self, best: np.ndarray, best_fitness: float, f, budget: int,
                  rng: np.random.Generator, fes_used: int = 0) -> tuple[np.ndarray, float, int]:
        """Advance the nested instance by up to `budget` FEs.

        f evaluates a block of points, one per row, and returns their values
        as a list, as ``CmaRunner.generation`` expects.  Returns (solution,
        fitness, consumed); the solution is the input when no strict
        improvement was sampled.  A block that f ends with BudgetExhausted is
        not counted.
        """
        if self.runner is None:
            self.runner = CmaRunner(self.params, self.bounds.d, self.bounds, rng,
                                    mean=np.asarray(best, dtype=float),
                                    fes_used=fes_used)
        out_x = np.asarray(best, dtype=float)
        out_f = float(best_fitness)
        consumed = 0

        def tracked(X):
            nonlocal out_x, out_f, consumed
            values = f(X)
            consumed += len(X)
            best = min(values)
            if best < out_f:   # the first row of lowest value
                out_f = float(best)
                out_x = X[values.index(best)].copy()
            return values

        if self.runner.state.lam > budget:
            self.stalled = True  # a whole generation no longer fits a slice
            return out_x, out_f, consumed
        try:
            while consumed + self.runner.state.lam <= budget:
                self.runner.generation(tracked, rng, fes_used=fes_used + consumed)
        except BudgetExhausted:
            pass
        return out_x, out_f, consumed
