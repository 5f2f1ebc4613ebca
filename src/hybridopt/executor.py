"""Run template: initialization, the generation loop under the three
execution modes (array steps of DE and PSO, split by a gate mask in the
probabilistic mode), the local-search hook, optional population
re-initialization, and dynamic parameter updates."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import de as de_mod
from . import pso as pso_mod
from .cmaes import CmaParams, CmaRunner
from .core import (Bounds, BudgetExhausted, EvalBudget, Population, RunResult,
                   repair_to_bounds, rng_stream, spread)
from .core import evaluate  # noqa: F401  (unused here; bench/tracing.py wraps this name)
from .de import DeParams
from .localsearch import LsParams, NestedCmaes, mtsls_run, schedule_ls
from .pso import PsoParams

# Most donor-block elements (targets x donors x d) one DE proposal step holds.
DONOR_BLOCK = 1 << 18


@dataclass
class ExecutionConfig:
    mode: str = "component_based"        # component_based | probabilistic | multiple_phases
    module_order: tuple[str, ...] = ("pso",)
    pr: float = 0.5
    gate_dist: str = "uniform"           # uniform | normal | levy
    par_std: float = 1.0
    phase_fractions: tuple[float, ...] = ()
    reinit: str = "none"                 # none | change | similarity


@dataclass
class PopulationSettings:
    size: int = 40
    mode: str = "constant"               # constant | incremental | time_varying
    min_size: int = 40
    max_size: int = 100
    interval: int = 10


@dataclass
class AlgorithmConfig:
    """Validated, typed view of one flat parameter assignment."""

    execution: ExecutionConfig
    population: PopulationSettings
    pso: PsoParams | None = None
    de: DeParams | None = None
    cmaes: CmaParams | None = None
    ls: LsParams = field(default_factory=LsParams)


@dataclass
class ExecState:
    """Per-run mutable execution variables (iteration, gate sharpness, windows)."""

    t: int = 0
    gamma_t: int = 10
    windows: tuple[tuple[str, int, int], ...] = ()


def phase_windows(order, fractions, max_evals: int):
    """FE window [start, end) per module under multiple-phases execution."""
    windows = []
    start = 0
    acc = 0.0
    for module, frac in zip(order, fractions):
        acc += frac
        end = max_evals if module == order[-1] else int(math.floor(acc * max_evals))
        windows.append((module, start, end))
        start = end
    return tuple(windows)


def gate_mask(cfg: ExecutionConfig, state: ExecState, n: int, rng) -> np.ndarray:
    """The probabilistic gate of n individuals as one block of draws: True
    where the draw is at most pr, which sends the row to the first module of
    the order."""
    if cfg.gate_dist == "uniform":
        draws = rng.random(n)
    elif cfg.gate_dist == "normal":
        draws = np.abs(rng.normal(0.0, cfg.par_std, n))
    elif cfg.gate_dist == "levy":
        # gamma_t in {10..20} maps to stability index gamma_t/10 in [1, 2]
        draws = np.abs(cfg.par_std * pso_mod.mantegna_levy(state.gamma_t / 10.0, rng, n))
    else:
        raise ValueError(f"unknown gate distribution {cfg.gate_dist!r}")
    return draws <= cfg.pr


def dispatch_update(cfg: ExecutionConfig, state: ExecState,
                    fes_used: int) -> tuple[str, ...]:
    """Modules of the next generation: the current phase under
    multiple-phases execution, else the whole order."""
    if cfg.mode == "multiple_phases":
        for module, start, end in state.windows:
            if start <= fes_used < end:
                return (module,)
        return (state.windows[-1][0],)
    return tuple(cfg.module_order)


def update_execution_parameters(cfg: ExecutionConfig, state: ExecState, rng,
                                topology=None) -> None:
    """Advance the iteration counter and every time-keyed execution variable."""
    state.t += 1
    if cfg.mode == "probabilistic" and cfg.gate_dist == "levy":
        state.gamma_t = int(rng.integers(10, 21))
    if topology is not None:
        pso_mod.advance_topology(topology, state.t, rng)


# ---------------------------------------------------------------------------
# re-initialization
# ---------------------------------------------------------------------------

def reinit_indices(kind: str, positions: np.ndarray, best_position: np.ndarray,
                   best_history) -> list[int]:
    """Members to re-initialize under RI-change / RI-similarity (empty if none)."""
    n, d = positions.shape
    if kind == "change":
        # np.mean(np.std(positions, axis=0)) bit for bit, without numpy's wrappers
        centred = positions - positions.sum(axis=0) / n
        centred *= centred
        diversity = float(np.sqrt(centred.sum(axis=0) / n).sum() / d)
        window = math.ceil(10.0 * d / n)
        # equal ends (two +inf too) are no improvement
        stalled = (len(best_history) > window
                   and spread(best_history[-1 - window], best_history[-1]) < 1e-8)
        if diversity < 1e-3 or stalled:
            return list(range(n))
        return []
    if kind == "similarity":
        dist = np.linalg.norm(positions - best_position, axis=1)
        keep = int(np.argmin(dist))  # the member closest to the incumbent survives
        return [i for i in range(n) if i != keep and dist[i] < 1e-3]
    raise ValueError(f"unknown re-initialization kind {kind!r}")


def sample_member(bounds: Bounds, rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows (X, V) of count new members from one draw: per member a uniform
    x, then a random velocity."""
    half = bounds.width() / 2.0
    U = rng.uniform(np.stack((bounds.lower, -half)), np.stack((bounds.upper, half)),
                    size=(count, 2, bounds.d))
    return U[:, 0], U[:, 1]


def apply_reinitialization(kind: str, pop: Population, best_position: np.ndarray,
                           bounds: Bounds, best_history, rng, evaluator) -> list[int]:
    """Re-initialize the selected members uniformly; ``evaluator`` gets their
    positions as one block.  Returns their indices."""
    idx = reinit_indices(kind, pop.x, best_position, best_history)
    if not idx:
        return []
    X, V = sample_member(bounds, rng, len(idx))
    pop.reset(idx, X, V, evaluator(X))
    return idx


# ---------------------------------------------------------------------------
# the run itself
# ---------------------------------------------------------------------------

class _Run:
    def __init__(self, cfg: AlgorithmConfig, objective, seed: int,
                 budget: EvalBudget, trace_every: int | None):
        self.cfg = cfg
        self.obj = objective
        self.bounds: Bounds = objective.bounds
        self.d = objective.d
        self.budget = budget
        self.rng = rng_stream(seed)
        self.order = cfg.execution.module_order
        self.exec_state = ExecState(gamma_t=10)
        if cfg.execution.mode == "multiple_phases":
            self.exec_state.windows = phase_windows(
                self.order, cfg.execution.phase_fractions, budget.max_evals)
        if cfg.execution.mode == "probabilistic" and cfg.execution.gate_dist == "levy":
            self.exec_state.gamma_t = int(self.rng.integers(10, 21))

        self.has_population = any(m in ("pso", "de") for m in self.order)
        self.n = cfg.population.min_size if cfg.population.mode != "constant" \
            else cfg.population.size
        self.pop: Population | None = None
        self.topology = None
        # per-particle success windows (see pso.perturbation_magnitude), read
        # only by pso.pm_mode = success_rate; a swarm never grows (validate
        # allows growth schedules for DE only)
        self.success: np.ndarray | None = None
        self.cma: CmaRunner | None = None
        self.nested_ls = NestedCmaes(cfg.ls.nested_cma, self.bounds) \
            if cfg.ls.algo == "cmaes" else None
        self.ls_per_run, self.ls_total = schedule_ls(budget.max_evals, cfg.ls) \
            if cfg.ls.algo != "none" else (0, 0)

        self.best_x: np.ndarray | None = None
        self.best_f = math.inf
        self.best_history: list[float] = []
        self.module_evals: dict[str, int] = {}
        self.active_module = self.order[0]
        self.current_phase: tuple[str, ...] | None = None
        self.trace_every = trace_every
        self.trace: list[tuple[int, float]] | None = [] if trace_every else None
        self._trace_mark = -1

        # schedule horizon in iterations for inertia/AC/topology schedules
        self.total_iters = max(1, budget.max_evals // max(1, self.n))

    # -- evaluation funnel --------------------------------------------------

    def ev_block(self, X: np.ndarray) -> list[float]:
        """Evaluate the rows of the (n, d) array X as n FEs, in index order.

        The budget is charged once for the rows it still covers, and the wall
        clock is read once, before the objective call.  An objective with a
        ``batch`` method gets one call for those rows; any other objective
        gets one call per row.  A NaN value counts as +inf.  The rows are
        counted under the active module, and the incumbent (the first row of
        lowest value, if below the old one) and the trace are updated.  When
        not every row fits, BudgetExhausted is raised after the rows that fit
        are counted; this is the one rule that ends a run.  Returns the n
        values as floats.
        """
        n = len(X)
        fit = self.budget.charge(n)
        fs = []
        if fit:
            batch = getattr(self.obj, "batch", None)
            values = np.asarray(batch(X[:fit]), dtype=float).tolist() if batch is not None \
                else [float(self.obj(x)) for x in X[:fit]]
            fs = [math.inf if f != f else f for f in values]   # NaN counts as +inf
            module = self.active_module
            self.module_evals[module] = self.module_evals.get(module, 0) + fit
            if self.trace is not None:   # the running best at each mark the rows pass
                used, best = self.budget.used_evals - fit, self.best_f
                for f in fs:
                    used += 1
                    if f < best:
                        best = f
                    if used // self.trace_every > self._trace_mark:
                        self._trace_mark = used // self.trace_every
                        self.trace.append((used, best))
            best = min(fs)
            if best < self.best_f:
                self.best_f = best
                self.best_x = X[fs.index(best)].copy()
        if fit < n:
            raise BudgetExhausted("FE or wall-clock budget spent")
        return fs

    def ev(self, x: np.ndarray) -> float:
        """One FE at the point x: the one-row case of ``ev_block``."""
        return self.ev_block(x[None])[0]

    # -- initialization -----------------------------------------------------

    def initialize(self) -> None:
        if self.has_population:
            X, V = sample_member(self.bounds, self.rng, self.n)
            self.pop = Population.fresh(X, V, self.ev_block(X))
            if self.cfg.pso is not None and self.cfg.pso.pm_mode == "success_rate":
                self.success = np.full((self.n, pso_mod.SUCCESS_WINDOW), -1, np.int8)
            if "pso" in self.order:
                self.topology = pso_mod.build_topology(
                    self.cfg.pso.topology, self.n, self.rng, self.total_iters)

    def _enter_phase(self, modules: tuple[str, ...]) -> None:
        """Start a module set: CMA-ES gets a runner from the incumbent, and a
        PSO phase of multiple-phases execution redraws the velocities."""
        self.current_phase = modules
        self.active_module = modules[0]
        if modules == ("cmaes",):
            self.cma = CmaRunner(self.cfg.cmaes, self.bounds, self.rng,
                                 mean=self.best_x, fes_used=self.budget.used_evals)
        elif modules == ("pso",) and self.cfg.execution.mode == "multiple_phases":
            self.pop.v = pso_mod.random_velocity(self.bounds, self.rng, len(self.pop))

    # -- generation ---------------------------------------------------------

    def generation(self) -> None:
        modules = dispatch_update(self.cfg.execution, self.exec_state,
                                  self.budget.used_evals)
        if modules != self.current_phase:
            self._enter_phase(modules)
        if modules == ("cmaes",):
            self.cma.generation(self.ev_block, self.rng, fes_used=self.budget.used_evals)
        else:
            self._population_generation(modules)

    def _population_generation(self, modules: tuple[str, ...]) -> None:
        """Propose, evaluate and select every individual once.

        Each step reads its inputs from the state at the start of the
        generation; this method picks the rows each step moves, computes the
        eigenbasis they share and keeps that start's personal bests.  A
        generation of PSO alone is one PSO step over the swarm, and one of DE
        alone is one DE step.  Component-based DE∘PSO is a DE step and then a
        PSO step over every member (under ``de.pso_only_on_fail`` over those
        DE did not move); PSO on member i reads its position, velocity and
        personal best after DE, and its neighbourhood best and informants
        from the start of the generation.  The probabilistic mode draws one
        gate block, then makes a DE step over the rows the gate sends to DE
        and a PSO step over the others.
        """
        pop = self.pop
        basis = None
        if (("pso" in modules and self.cfg.pso.vector_basis == "eigenvector")
                or ("de" in modules and self.cfg.de.vector_basis == "eigenvector")):
            basis = de_mod.population_eigenbasis(pop.x)
        if modules == ("pso",):
            self._pso_generation(slice(None), pop.p, pop.pf, basis)
            return
        # DE proposes from pop before it records anything; the PSO step after
        # it reads the personal bests from the start of the generation
        pbests, pbest_fits = (pop.p.copy(), pop.pf.copy()) if "pso" in modules \
            else (pop.p, pop.pf)
        if self.cfg.execution.mode == "probabilistic":
            first = gate_mask(self.cfg.execution, self.exec_state, len(pop), self.rng)
            to_de = first if self.order[0] == "de" else ~first
            self._de_generation(np.flatnonzero(to_de), pbests, basis)
            rows = np.flatnonzero(~to_de)
        else:
            moved = self._de_generation(np.arange(len(pop)), pbests, basis)
            if "pso" not in modules:
                return
            rows = np.flatnonzero(~moved) if self.cfg.de.pso_only_on_fail else slice(None)
        self._pso_generation(rows, pbests, pbest_fits, basis)

    def _de_generation(self, targets, pbests, basis) -> np.ndarray:
        """One DE step of the members targets (an index array in ascending
        order): propose their trials from the population as it is (the state
        at the start of the generation; pbests are its personal bests), repair
        the block into the box, evaluate it and keep each trial that is
        strictly better than its target.  Returns which targets moved."""
        pop = self.pop
        r = len(targets)
        if r == 0:
            return np.zeros(0, dtype=bool)
        k = de_mod.num_vector_differences(self.cfg.de.diff_fraction, len(pop))
        leaders = de_mod.best_two(pop.f)
        # bound the donor blocks to DONOR_BLOCK elements for large populations
        chunks = min(r, -(-r * (2 * k + 1) * self.d // DONOR_BLOCK))
        if chunks == 1:
            X = self._de_propose(targets, pbests, k, leaders, basis)
        else:
            X = np.concatenate([self._de_propose(rows, pbests, k, leaders, basis)
                                for rows in np.array_split(targets, chunks)])
        X = repair_to_bounds(X, self.bounds)
        kind = self.cfg.de.recompute_velocity
        # the targets' positions before the record, for their new velocities
        old = pop.x.take(targets, axis=0) if kind != "none" else None
        moved = pop.record_better(X, self.ev_block(X),
                                  slice(None) if r == len(pop) else targets)
        if kind != "none":
            members = targets[moved]
            pop.v[members] = de_mod.recompute_velocity(kind, old[moved], X[moved],
                                                       pop.v[members], self.rng, self.bounds)
        return moved

    def _pso_generation(self, rows, pbests, pbest_fits, basis) -> None:
        """One PSO step of the members rows (an index array in ascending order,
        or slice(None) for every member): rank their informants on their rows
        of the topology by pbest_fits, the fitnesses of pbests (the personal
        bests at the start of the generation), and let ``pso.swarm_step`` move
        the rows at once from their own x, v and p toward them.  The moves are
        evaluated as one block, and the success windows record which personal
        bests improved."""
        pop = self.pop
        par = self.cfg.pso
        if not isinstance(rows, slice) and rows.size == 0:
            return
        self.active_module = "pso"
        informants = None
        if par.moi == "best_of_neighborhood":
            l_idx = pso_mod.neighborhood_best(self.topology.adjacency[rows], pbest_fits)
        else:
            idx, m = pso_mod.ranked_informants(self.topology.adjacency[rows], pbest_fits)
            l_idx, informants = idx[:, 0], (pbests[idx], m)
        windows = self.success
        X, pop.v[rows] = pso_mod.swarm_step(
            pop.x[rows], pop.v[rows], pop.p[rows], pbests[l_idx], informants, par,
            self.exec_state.t, self.total_iters, self.rng, self.bounds,
            fp=pop.pf[rows], fl=pbest_fits[l_idx],
            success=None if windows is None else windows[rows],
            basis=basis if par.vector_basis == "eigenvector" else None)
        improved = pop.record_all(X, self.ev_block(X), rows)
        if windows is not None:   # shift each window by one update
            windows[rows, :-1] = windows[rows, 1:]
            windows[rows, -1] = improved

    def _de_propose(self, targets, pbests, k, leaders, basis) -> np.ndarray:
        """Trial rows for the target rows ``targets``, read from the population
        before this generation's DE step records anything."""
        par = self.cfg.de
        pop = self.pop
        self.active_module = "de"
        base, donors = de_mod.select_base_and_donors(
            par.base_vector, pop.x, pbests, pop.f, targets, k, par.beta,
            par.vectors, self.rng, leaders)
        mutant = de_mod.mutate(base, donors, par.beta, par.base_vector)
        target = pop.x.take(targets, axis=0)
        if par.vector_basis == "eigenvector":
            t_rot, m_rot, unrotate = de_mod.eigen_recombination_wrap(target, mutant, basis)
            return unrotate(de_mod.recombine(par.recombination, t_rot, m_rot,
                                             par.p_a, self.rng))
        return de_mod.recombine(par.recombination, target, mutant, par.p_a, self.rng)

    # -- local search -------------------------------------------------------

    def local_search(self) -> None:
        """One LS run from the incumbent while the FEs the funnel booked under
        "ls" fall short of the LS share: ``ls_per_run`` FEs, or what is left."""
        left = self.ls_total - self.module_evals.get("ls", 0)
        if left <= 0 or self.best_x is None \
                or (self.nested_ls is not None and self.nested_ls.stalled):
            return
        grant = min(self.ls_per_run, left)
        previous = self.active_module
        self.active_module = "ls"
        try:
            if self.cfg.ls.algo == "mtsls":
                mtsls_run(self.best_x, self.best_f, self.ev, self.bounds, grant,
                          self.cfg.ls, self.rng)
            else:
                self.nested_ls.run_slice(self.best_x, self.best_f, self.ev_block, grant,
                                         self.rng, fes_used=self.budget.used_evals)
        finally:
            self.active_module = previous

    # -- dynamic population size (DE growth schedules) ----------------------

    def update_population_parameters(self) -> None:
        settings = self.cfg.population
        if self.pop is None or self.exec_state.t % max(1, settings.interval) != 0:
            return
        progress = self.budget.used_evals / max(1, self.budget.max_evals)
        target = settings.min_size + round(
            (settings.max_size - settings.min_size) * progress)
        count = target - len(self.pop)
        if count > 0:
            X, V = sample_member(self.bounds, self.rng, count)
            self.pop.extend(X, V, self.ev_block(X))

    # -- main loop ----------------------------------------------------------

    def execute(self) -> RunResult:
        started = time.monotonic()
        reinit = self.cfg.execution.reinit
        resizes = self.cfg.population.mode != "constant"
        try:
            self.initialize()
            while True:   # every generation evaluates, so ev_block ends the run
                self.generation()
                self.best_history.append(self.best_f)
                if self.ls_per_run > 0:
                    self.local_search()
                if (reinit != "none" and self.pop is not None
                        and self.active_module in ("pso", "de")):
                    changed = apply_reinitialization(
                        reinit, self.pop, self.best_x,
                        self.bounds, self.best_history, self.rng, self.ev_block)
                    if changed and reinit == "change":
                        self.best_history.clear()
                if resizes:
                    self.update_population_parameters()
                update_execution_parameters(self.cfg.execution, self.exec_state,
                                            self.rng, self.topology)
        except BudgetExhausted:
            pass

        wall_ms = (time.monotonic() - started) * 1000.0
        if self.best_x is None:
            best_x, best_f = np.full(self.d, np.nan), math.inf
        else:
            best_x, best_f = self.best_x, self.best_f
        return RunResult(best_position=best_x, best_fitness=best_f,
                         evals_used=self.budget.used_evals, wall_ms=wall_ms,
                         trace=self.trace, module_evals=self.module_evals)


def run(config: AlgorithmConfig, objective, seed: int,
        max_evals: int | None = None, wallclock_ms: float | None = None,
        trace_every: int | None = None) -> RunResult:
    """Execute one seeded run of the configured algorithm on the objective.

    The FE budget defaults to 5000 * d; budgets and trace_every must be above
    0.  Identical (config, objective, seed) triples produce bitwise-identical
    results.
    """
    if trace_every is not None and trace_every < 1:
        raise ValueError(f"trace_every must be at least 1, got {trace_every}")
    if objective.d != objective.bounds.d:
        raise ValueError(f"objective has d = {objective.d} but bounds of "
                         f"d = {objective.bounds.d}")
    if max_evals is None:
        max_evals = 5000 * objective.d
    budget = EvalBudget(max_evals=max_evals, wallclock_ms=wallclock_ms)
    return _Run(config, objective, seed, budget, trace_every).execute()
