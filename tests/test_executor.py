import math
import warnings

import numpy as np
import pytest

import hybridopt.cmaes as cmaes_mod
import hybridopt.de as de_mod
import hybridopt.executor as executor_mod
import hybridopt.pso as pso_mod
from hybridopt import (Bounds, default_config, dispatch_update, make_instance,
                       rng_stream, run, validate)
from hybridopt.core import BudgetExhausted, EvalBudget, Population
from hybridopt.executor import (ExecState, ExecutionConfig, _Run,
                                apply_reinitialization, gate_mask, phase_windows,
                                reinit_indices, update_execution_parameters)
from hybridopt.localsearch import NestedCmaes
from hybridopt.pso import neighborhood_best, neighbors, random_velocity


def _cfg(**overrides):
    cfg = validate(default_config({k: str(v) for k, v in overrides.items()}))
    assert hasattr(cfg, "execution"), getattr(cfg, "describe", lambda: "")()
    return cfg


def test_budget_equal_to_init_returns_best_of_initial_population():
    cfg = _cfg(**{"exec.order": "pso", "pop.size": 12})
    obj = make_instance("sphere", 4)
    result = run(cfg, obj, seed=5, max_evals=12)
    assert result.evals_used == 12

    # recompute the initial sample with the same stream discipline
    rng = rng_stream(5)
    best = np.inf
    for _ in range(12):
        x = obj.bounds.sample_uniform(rng)
        random_velocity(obj.bounds, rng)
        best = min(best, obj(x))
    assert result.best_fitness == best


def test_same_seed_identical_results():
    obj = make_instance("shifted_rastrigin", 5, instance_seed=2)
    for overrides in (
        {"exec.order": "pso"},
        {"exec.order": "de"},
        {"exec.order": "cmaes"},
        {"exec.order": "de,pso", "de.recompute_velocity": "goBack"},
        {"exec.order": "pso,de", "exec.mode": "probabilistic", "exec.pr": "0.3",
         "exec.gate_dist": "uniform"},
        {"exec.order": "cmaes,de", "exec.mode": "multiple_phases",
         "exec.phases": "0.5,0.5"},
        {"exec.order": "de", "ls.algo": "mtsls"},
    ):
        cfg = _cfg(**{"pop.size": 16, **overrides})
        a = run(cfg, obj, seed=77, max_evals=1500)
        b = run(cfg, obj, seed=77, max_evals=1500)
        assert a.best_fitness == b.best_fitness, overrides
        assert a.evals_used == b.evals_used


def test_trace_is_monotone():
    cfg = _cfg(**{"exec.order": "de", "pop.size": 15})
    obj = make_instance("shifted_ackley", 4, instance_seed=1)
    result = run(cfg, obj, seed=3, max_evals=2000, trace_every=50)
    values = [f for _, f in result.trace]
    assert values == sorted(values, reverse=True)
    evals = [e for e, _ in result.trace]
    assert evals == sorted(evals)


def test_default_budget_is_5000_d():
    cfg = _cfg(**{"exec.order": "de", "pop.size": 10})
    obj = make_instance("sphere", 2)
    result = run(cfg, obj, seed=1)
    assert result.evals_used == 10000


def test_phase_windows_arithmetic():
    windows = phase_windows(("a", "b"), (0.4, 0.6), 10000)
    assert windows == (("a", 0, 4000), ("b", 4000, 10000))
    state = ExecState(windows=windows)
    cfg = ExecutionConfig(mode="multiple_phases", module_order=("a", "b"))
    assert dispatch_update(cfg, state, 0) == ("a",)
    assert dispatch_update(cfg, state, 3999) == ("a",)
    assert dispatch_update(cfg, state, 4000) == ("b",)
    assert dispatch_update(cfg, state, 9999) == ("b",)


def test_dispatch_probabilistic_uniform():
    state = ExecState()
    rng = rng_stream(1)
    sure = ExecutionConfig(mode="probabilistic", module_order=("pso", "de"),
                           pr=1.0, gate_dist="uniform")
    assert gate_mask(sure, state, 10000, rng).all()

    half = ExecutionConfig(mode="probabilistic", module_order=("pso", "de"),
                           pr=0.5, gate_dist="uniform")
    n = 100000
    hits = int(gate_mask(half, state, n, rng).sum())
    sigma = (0.25 / n) ** 0.5
    assert abs(hits / n - 0.5) < 3 * sigma


def test_dispatch_gate_distributions():
    state = ExecState(gamma_t=15)
    rng = rng_stream(2)
    for dist in ("normal", "levy"):
        cfg = ExecutionConfig(mode="probabilistic", module_order=("pso", "de"),
                              pr=0.8, gate_dist=dist, par_std=0.5)
        first = gate_mask(cfg, state, 500, rng)
        assert first.any() and not first.all()   # both sides reachable


def test_update_execution_parameters_levy_gamma():
    cfg = ExecutionConfig(mode="probabilistic", module_order=("pso", "de"),
                          gate_dist="levy")
    state = ExecState(t=0, gamma_t=10)
    rng = rng_stream(3)
    seen = set()
    for _ in range(200):
        update_execution_parameters(cfg, state, rng)
        assert 10 <= state.gamma_t <= 20
        seen.add(state.gamma_t)
    assert state.t == 200
    assert len(seen) > 5   # actually redrawn

    fixed = ExecutionConfig(mode="probabilistic", module_order=("pso", "de"),
                            gate_dist="uniform")
    s2 = ExecState(t=0, gamma_t=13)
    update_execution_parameters(fixed, s2, rng)
    assert s2.gamma_t == 13   # untouched for the uniform gate


def _uniform_population(n, d, rng, bounds, fn):
    X = np.array([bounds.sample_uniform(rng) for _ in range(n)])
    return Population.fresh(X, np.zeros((n, d)), fn(X))


def test_reinit_similarity():
    best = np.zeros(3)
    clones = np.tile(best, (6, 1))
    idx = reinit_indices("similarity", clones, best, [], 3)
    assert len(idx) == 5   # everyone but the keeper

    spread = np.arange(18.0).reshape(6, 3)
    assert reinit_indices("similarity", spread + 1.0, best, [], 3) == []


def test_reinit_change():
    packed = np.full((5, 4), 3.3) + 1e-6 * np.arange(20).reshape(5, 4)
    assert reinit_indices("change", packed, np.zeros(4), [], 4) == list(range(5))

    spread = np.arange(20.0).reshape(5, 4)
    window = int(np.ceil(10 * 4 / 5))   # 8 iterations
    flat_history = [5.0] * (window + 2)
    assert reinit_indices("change", spread, np.zeros(4), flat_history, 4) \
        == list(range(5))
    falling = [5.0 - 0.1 * k for k in range(window + 2)]
    assert reinit_indices("change", spread, np.zeros(4), falling, 4) == []
    # equal ends count as no improvement, two +inf too
    undefined = [math.inf] * (window + 2)
    assert reinit_indices("change", spread, np.zeros(4), undefined, 4) \
        == list(range(5))
    found = [math.inf] * (window + 1) + [5.0]
    assert reinit_indices("change", spread, np.zeros(4), found, 4) == []


def test_reinit_change_diversity_is_the_mean_column_std():
    """RI-change fires below a diversity of 1e-3, the mean over columns of
    np.std(positions, axis=0), also on blocks within rounding of it."""
    rng = rng_stream(30)
    fired = 0
    for _ in range(400):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 12))
        z = rng.normal(size=(n, d))
        positions = rng.normal(size=d) * 50 + z * (1e-3 / np.mean(np.std(z, axis=0)))
        positions *= 1.0 + rng.normal() * 1e-12
        expected = np.mean(np.std(positions, axis=0)) < 1e-3
        got = reinit_indices("change", positions, np.zeros(d), [], d)
        assert got == (list(range(n)) if expected else [])
        fired += expected
    assert 0 < fired < 400


def test_apply_reinitialization_selecting_nobody_draws_nothing():
    obj = make_instance("sphere", 3)
    rng = rng_stream(5)
    pop = _uniform_population(6, 3, rng, obj.bounds, obj.batch)
    before = [a.copy() for a in (pop.x, pop.v, pop.p, pop.f, pop.pf)]
    state = rng.bit_generator.state
    calls = []
    changed = apply_reinitialization("similarity", pop, np.full(3, 50.0), obj.bounds, [],
                                     rng, lambda X: calls.append(X) or obj.batch(X))
    assert changed == [] and calls == []
    assert rng.bit_generator.state == state
    for a, old in zip((pop.x, pop.v, pop.p, pop.f, pop.pf), before):
        assert a.tobytes() == old.tobytes()


def test_apply_reinitialization_keeps_incumbent():
    obj = make_instance("sphere", 3)
    rng = rng_stream(4)
    pop = _uniform_population(6, 3, rng, obj.bounds, obj.batch)
    best = np.zeros(3)
    pop.x[:] = best   # make everyone a clone of the best
    changed = apply_reinitialization("similarity", pop, best, obj.bounds, [],
                                     rng, obj.batch)
    assert len(changed) == 5
    keeper = ({*range(6)} - set(changed)).pop()
    assert np.array_equal(pop.x[keeper], best)
    for i in changed:   # fresh members: their own personal best, evaluated
        assert obj.bounds.contains(pop.x[i])
        assert np.array_equal(pop.p[i], pop.x[i])
        assert pop.f[i] == pop.pf[i] == obj(pop.x[i])


def test_component_based_pso_only_on_fail_accounting():
    obj = make_instance("sphere", 6)
    n = 20
    base = {"exec.order": "de,pso", "pop.size": n,
            "de.recompute_velocity": "goBack"}

    def one_generation(cfg):
        runner = _Run(cfg, obj, seed=9, budget=EvalBudget(max_evals=10 ** 6),
                      trace_every=None)
        runner.initialize()
        improvements = []
        inner = runner._de_generation

        def spy(*args):
            moved = inner(*args)
            improvements.append(int(moved.sum()))
            return moved

        runner._de_generation = spy
        before = dict(runner.module_evals)
        runner.generation()
        de_fes = runner.module_evals["de"] - before.get("de", 0)
        pso_fes = runner.module_evals.get("pso", 0) - before.get("pso", 0)
        return de_fes, pso_fes, sum(improvements)

    de_fes, pso_fes, _ = one_generation(_cfg(**base))
    assert (de_fes, pso_fes) == (n, n)   # composed generation costs 2n

    de_fes, pso_fes, improved = one_generation(
        _cfg(**{**base, "de.pso_only_on_fail": "true"}))
    assert de_fes == n
    assert improved >= 1   # DE improves someone on a random initial population
    assert pso_fes == n - improved   # exactly the improved ones skip PSO


def test_personal_best_dominance_through_generations():
    cfg = _cfg(**{"exec.order": "pso", "pop.size": 10})
    obj = make_instance("shifted_rastrigin", 4, instance_seed=3)
    runner = _Run(cfg, obj, seed=11, budget=EvalBudget(max_evals=5000),
                  trace_every=None)
    runner.initialize()
    for _ in range(20):
        runner.generation()
        pop = runner.pop
        assert np.all(pop.pf <= pop.f)
        for i in range(len(pop)):   # every stored fitness belongs to its point
            assert pop.f[i] == obj(pop.x[i]) and pop.pf[i] == obj(pop.p[i])


def test_de_population_fitness_monotone():
    cfg = _cfg(**{"exec.order": "de", "pop.size": 12})
    obj = make_instance("shifted_griewank", 5, instance_seed=1)
    runner = _Run(cfg, obj, seed=13, budget=EvalBudget(max_evals=8000),
                  trace_every=None)
    runner.initialize()
    previous = runner.pop.f.copy()
    for _ in range(25):
        runner.generation()
        current = runner.pop.f.copy()
        assert np.all(current <= previous + 1e-15)
        previous = current


def test_population_growth_schedule():
    cfg = _cfg(**{"exec.order": "de", "pop.mode": "time_varying",
                  "pop.min": 10, "pop.max": 30, "pop.interval": 2})
    obj = make_instance("sphere", 3)
    runner = _Run(cfg, obj, seed=17, budget=EvalBudget(max_evals=3000),
                  trace_every=None)
    runner.initialize()
    assert len(runner.pop) == 10
    sizes = []
    from hybridopt.core import BudgetExhausted
    try:
        while True:
            runner.generation()
            runner.update_population_parameters()
            update_execution_parameters(cfg.execution, runner.exec_state,
                                        runner.rng, runner.topology)
            sizes.append(len(runner.pop))
    except BudgetExhausted:
        pass
    assert sizes[-1] == 30
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))


def test_phase_transition_seeds_cma_mean_with_incumbent():
    cfg = _cfg(**{"exec.order": "de,cmaes", "exec.mode": "multiple_phases",
                  "exec.phases": "0.5,0.5", "pop.size": 10})
    obj = make_instance("sphere", 4)
    runner = _Run(cfg, obj, seed=19, budget=EvalBudget(max_evals=2000),
                  trace_every=None)
    runner.initialize()
    from hybridopt.core import BudgetExhausted
    try:
        while runner.budget.used_evals < 1100:
            runner.generation()
            update_execution_parameters(cfg.execution, runner.exec_state,
                                        runner.rng, runner.topology)
    except BudgetExhausted:
        pass
    assert runner.current_phase == ("cmaes",)
    assert runner.cma is not None


@pytest.mark.parametrize("order, inert", [("de", True), ("cmaes", True), ("pso", False)])
def test_one_phase_of_one_module_is_component_based(order, inert):
    """exec.mode = multiple_phases with exec.phases = 1.0 does nothing on a
    one-module de or cmaes order; a PSO phase redraws the velocities when it
    starts, so there it changes the run."""
    obj = make_instance("shifted_rotated_rastrigin", 10, instance_seed=1)
    results = [run(_cfg(**{"exec.order": order, **mode}), obj, seed=3, max_evals=5000)
               for mode in ({}, {"exec.mode": "multiple_phases", "exec.phases": "1.0"})]
    fingerprints = {(r.best_fitness.hex(), r.best_position.tobytes()) for r in results}
    assert len(fingerprints) == (1 if inert else 2)


def test_wallclock_limit_stops_run():
    cfg = _cfg(**{"exec.order": "de", "pop.size": 10})
    obj = make_instance("sphere", 3)
    result = run(cfg, obj, seed=23, max_evals=10_000_000, wallclock_ms=50.0)
    assert result.evals_used < 10_000_000


def test_run_rejects_non_positive_budgets_and_trace_steps():
    # a budget of -5 used to evaluate half of the initial population and
    # report evals_used = -5; a trace step of -10 gave an empty trace
    cfg = _cfg(**{"exec.order": "de", "pop.size": 10})
    obj = make_instance("sphere", 3)
    for limits in ({"max_evals": -5}, {"trace_every": -10}, {"trace_every": 0}):
        with pytest.raises(ValueError):
            run(cfg, obj, 1, **limits)


def test_run_rejects_an_objective_whose_d_differs_from_its_bounds():
    # ev_block does not check the blocks it is given; every block is as wide
    # as the bounds, so run() checks once that the objective agrees
    class Mismatched:
        d = 3
        bounds = Bounds.symmetric(5.0, 4)

        def __call__(self, x):
            return float(x @ x)

    with pytest.raises(ValueError, match="d = 3 but bounds of d = 4"):
        run(_cfg(**{"exec.order": "de", "pop.size": 10}), Mismatched(), 1, max_evals=50)


_PROBABILISTIC = {"exec.order": "pso,de", "exec.mode": "probabilistic",
                  "exec.pr": "0.5", "exec.gate_dist": "uniform", "exec.par_std": "1.0"}


@pytest.mark.parametrize("overrides", [
    {"exec.order": "pso"}, {"exec.order": "de,pso"}, {"exec.order": "cmaes"},
    _PROBABILISTIC,
    {"exec.order": "de,cmaes", "exec.mode": "multiple_phases", "exec.phases": "0.5,0.5"},
])
def test_every_generation_is_dispatched(monkeypatch, overrides):
    """Each generation asks dispatch_update for its modules, in every mode;
    the last one is cut short by the funnel before the run's update."""
    calls = {"dispatch": 0, "update": 0}

    def counted(name, step):
        def wrapper(*args):
            calls[name] += 1
            return step(*args)
        return wrapper

    monkeypatch.setattr(executor_mod, "dispatch_update",
                        counted("dispatch", executor_mod.dispatch_update))
    monkeypatch.setattr(executor_mod, "update_execution_parameters",
                        counted("update", executor_mod.update_execution_parameters))
    run(_cfg(**{"pop.size": 10, **overrides}), make_instance("sphere", 4), seed=1,
        max_evals=400)
    assert calls["update"] > 10 and calls["dispatch"] == calls["update"] + 1


class _RowsOnly:
    """An objective without ``batch``; ``sizes`` lists the rows of each call."""

    def __init__(self, inner):
        self.inner, self.d, self.bounds = inner, inner.d, inner.bounds
        self.sizes = []

    def __call__(self, x):
        self.sizes.append(1)
        return self.inner(x)


class _Blocks(_RowsOnly):
    """The same objective with ``batch``."""

    def batch(self, X):
        self.sizes.append(len(X))
        return self.inner.batch(X)


@pytest.mark.parametrize("kind", [_RowsOnly, _Blocks])
def test_budget_ending_mid_block_counts_each_row(kind):
    obj = kind(make_instance("sphere", 3))
    cfg = _cfg(**{**_PROBABILISTIC, "pop.size": 4})
    runner = _Run(cfg, obj, seed=1, budget=EvalBudget(max_evals=7), trace_every=1)
    runner.initialize()
    assert runner.module_evals == {"pso": 4} and runner.best_f > 9.0
    X = np.array([[3.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    runner.active_module = "de"
    with pytest.raises(BudgetExhausted):
        runner.ev_block(X)
    assert runner.budget.used_evals == 7
    assert sum(obj.sizes) == 7   # the row past the budget is never evaluated
    assert runner.module_evals == {"pso": 4, "de": 3}   # under the active module
    assert runner.best_f == 1.0 and np.array_equal(runner.best_x, X[2])
    assert runner.trace[-3:] == [(5, 9.0), (6, 4.0), (7, 1.0)]


@pytest.mark.parametrize("kind", [_RowsOnly, _Blocks])
def test_wallclock_is_read_once_per_block(kind):
    """A block that starts before the wall-clock limit is counted whole; the
    next block raises before any objective call and counts no FE."""
    obj = kind(make_instance("sphere", 3))
    runner = _Run(_cfg(**{"exec.order": "cmaes"}), obj, seed=1,
                  budget=EvalBudget(max_evals=100, wallclock_ms=10.0), trace_every=1)
    reads = []   # FEs used at each clock read; past the limit from 2 FEs on

    def elapsed_ms():
        reads.append(runner.budget.used_evals)
        return 20.0 if runner.budget.used_evals >= 2 else 0.0

    runner.budget.elapsed_ms = elapsed_ms
    assert runner.ev_block(np.ones((5, 3))) == [3.0] * 5
    assert reads == [0] and sum(obj.sizes) == 5
    with pytest.raises(BudgetExhausted):
        runner.ev_block(np.ones((5, 3)))
    assert reads == [0, 5] and sum(obj.sizes) == 5
    assert runner.budget.used_evals == 5
    assert runner.module_evals == {"cmaes": 5}
    assert runner.trace == [(i, 3.0) for i in range(1, 6)]


class _Column:
    """Objective whose value at x is x[1]; x[0] tells the rows apart."""

    d = 2
    bounds = Bounds.symmetric(100.0, 2)

    def __call__(self, x):
        return x[1]

    def batch(self, X):
        return X[:, 1]


def _book_row_by_row(blocks, max_evals, trace_every):
    """Reference bookkeeping of (module, block) pairs, one FE at a time:
    the incumbent, the trace and the FEs per module, up to the budget."""
    used, best_f, best_x, trace, mark, counts = 0, math.inf, None, [], -1, {}
    for module, X in blocks:
        for x in X:
            if used == max_evals:
                return best_f, best_x, trace, counts
            used += 1
            f = math.inf if math.isnan(x[1]) else float(x[1])
            counts[module] = counts.get(module, 0) + 1
            if f < best_f:
                best_f, best_x = f, x.copy()
            if used // trace_every > mark:
                mark = used // trace_every
                trace.append((used, best_f))
    return best_f, best_x, trace, counts


def _block(*values):
    return np.column_stack((np.arange(len(values), dtype=float), values))


_NAN = math.nan
_HAND_BLOCKS = [
    ("pso", _block(_NAN, _NAN)),                 # every row NaN: no incumbent yet
    ("pso", _block(_NAN, 5.0, 3.0, _NAN, 3.0)),  # NaN rows and a tied minimum
    ("de", _block(0.0, -0.0, 2.0)),              # -0.0 after +0.0
    ("de", _block(-0.0, 0.0, _NAN)),             # equal to the incumbent
    ("ls", _block(4.0)),                         # one row, as ``ev`` makes
    ("ls", _block(math.inf, -1.0, -1.0, -2.0, 7.0)),
    ("cmaes", _block(-3.0, -3.0)),
]


def _random_blocks(seed):
    rng = np.random.default_rng(seed)
    pool = np.array([_NAN, math.inf, 0.0, -0.0, 1.0, 2.0, -1.0])
    return [(str(rng.choice(["pso", "de", "ls"])), _block(*rng.choice(pool, rng.integers(1, 7))))
            for _ in range(8)]


@pytest.mark.parametrize("kind", [_RowsOnly, _Blocks])
@pytest.mark.parametrize("trace_every", [1, 3])
@pytest.mark.parametrize("blocks, max_evals", [
    (_HAND_BLOCKS, 100),
    (_HAND_BLOCKS, 17),   # the budget ends after the second -1.0 row
    *[(_random_blocks(seed), 20) for seed in range(12)],
])
def test_ev_block_books_as_the_row_by_row_loop(kind, trace_every, blocks, max_evals):
    obj = kind(_Column())
    runner = _Run(_cfg(**{"exec.order": "cmaes"}), obj, seed=1,
                  budget=EvalBudget(max_evals=max_evals), trace_every=trace_every)
    returned = []
    try:
        for module, X in blocks:
            runner.active_module = module
            returned += runner.ev_block(X)
    except BudgetExhausted:
        assert sum(len(X) for _, X in blocks) > max_evals
    best_f, best_x, trace, counts = _book_row_by_row(blocks, max_evals, trace_every)
    used = runner.budget.used_evals
    assert used == sum(obj.sizes) == min(max_evals, sum(len(X) for _, X in blocks))
    rows = np.concatenate([X for _, X in blocks])[:len(returned)]
    assert [f.hex() for f in returned] == \
        [math.inf.hex() if math.isnan(f) else f.hex() for f in rows[:, 1]]
    assert runner.best_f.hex() == best_f.hex()
    assert (runner.best_x is None) == (best_x is None)
    if best_x is not None:
        assert runner.best_x.tobytes() == best_x.tobytes()
    assert [(u, f.hex()) for u, f in runner.trace] == [(u, f.hex()) for u, f in trace]
    assert runner.module_evals == counts


@pytest.mark.parametrize("overrides, rows", [
    ({"exec.order": "pso"}, 10),
    ({"exec.order": "de"}, 10),
    # the probabilistic gate: a DE block and a PSO block that split the rows
    (_PROBABILISTIC, 10),
    ({"exec.order": "de,pso", "exec.mode": "multiple_phases",
      "exec.phases": "0.5,0.5"}, 10),
    ({"exec.order": "cmaes"}, 4 + int(3 * math.log(4))),
    # DE∘PSO: a DE block, then a PSO block
    ({"exec.order": "de,pso"}, 10),
    # DE alone recomputes velocities after its block's selection
    ({"exec.order": "de", "de.recompute_velocity": "goBack"}, 10),
    # and so does the DE block of the probabilistic gate
    ({**_PROBABILISTIC, "de.recompute_velocity": "random"}, 10),
])
def test_generation_block_sizes(overrides, rows):
    obj = _Blocks(make_instance("sphere", 4))
    runner = _Run(_cfg(**{"pop.size": 10, **overrides}), obj, seed=2,
                  budget=EvalBudget(max_evals=10 ** 6), trace_every=None)
    runner.initialize()
    split = []   # the members of the DE step and of the PSO step
    for name in ("_de_generation", "_pso_generation"):
        def spy(members, *args, step=getattr(runner, name)):
            split.append(np.arange(10)[members])
            return step(members, *args)

        setattr(runner, name, spy)
    for _ in range(3):
        obj.sizes.clear()
        split.clear()
        runner.generation()
        if overrides.get("exec.mode") == "probabilistic":
            assert len(obj.sizes) <= 2 and sum(obj.sizes) == rows
            assert np.array_equal(np.sort(np.concatenate(split)), np.arange(rows))
        else:
            assert set(obj.sizes) == {rows}


@pytest.mark.parametrize("order", ["pso,de", "de,pso"])
def test_gate_sending_every_row_to_one_module(order):
    """With pr = 1 the gate sends the whole population to the first module of
    the order, and the other module's step has no rows."""
    obj = _Blocks(make_instance("sphere", 4))
    cfg = _cfg(**{**_PROBABILISTIC, "exec.order": order, "exec.pr": "1.0",
                  "pop.size": 10, "de.recompute_velocity": "goBack"})
    result = run(cfg, obj, seed=2, max_evals=60)
    assert result.module_evals == {order.split(",")[0]: 60}
    assert obj.sizes == [10] * 6


def test_new_members_are_one_block(monkeypatch):
    obj = _Blocks(make_instance("sphere", 4))
    cfg = _cfg(**{"exec.order": "de", "pop.mode": "incremental", "pop.min": 6,
                  "pop.max": 30, "pop.interval": 1})
    runner = _Run(cfg, obj, seed=3, budget=EvalBudget(max_evals=1000),
                  trace_every=None)
    runner.initialize()
    assert obj.sizes == [6]
    obj.sizes.clear()
    runner.budget.used_evals = 500   # halfway: the target size is 6 + 12
    runner.update_population_parameters()
    assert obj.sizes == [12] and len(runner.pop) == 18
    assert runner.success is None   # DE: no perturbation magnitude reads them

    # re-initialize the whole population after every generation
    monkeypatch.setattr(executor_mod, "reinit_indices",
                        lambda kind, positions, *args: list(range(len(positions))))
    blocks = []
    reinit = executor_mod.apply_reinitialization

    def spy(*args):
        before = len(obj.sizes)
        idx = reinit(*args)
        blocks.append((len(idx), obj.sizes[before:]))
        return idx

    monkeypatch.setattr(executor_mod, "apply_reinitialization", spy)
    cfg = _cfg(**{"exec.order": "pso", "pop.size": 10, "exec.reinit": "change"})
    run(cfg, obj, seed=3, max_evals=205)
    assert blocks == [(10, [10])] * 9   # the tenth ends the budget


@pytest.mark.parametrize("overrides", [
    {"exec.order": "pso"},
    {"exec.order": "pso", "pso.moi": "fully_informed", "pso.topology": "ring"},
    {"exec.order": "de", "de.base_vector": "best"},
    {"exec.order": "de,pso"},
    {"exec.order": "de,pso", "de.recompute_velocity": "random",
     "de.pso_only_on_fail": "true"},
    {**_PROBABILISTIC, "exec.gate_dist": "levy"},
    {"exec.order": "pso,de,cmaes", "exec.mode": "multiple_phases",
     "exec.phases": "0.3,0.3,0.4"},
    {"exec.order": "cmaes"},
    {"exec.order": "pso", "ls.algo": "cmaes"},
    {"exec.order": "de", "ls.algo": "mtsls", "exec.reinit": "change"},
])
def test_objective_without_batch_gives_the_same_run(overrides):
    cfg = _cfg(**{"pop.size": 10, **overrides})
    obj = make_instance("shifted_rotated_weierstrass", 4, instance_seed=2)
    rows = _RowsOnly(obj)
    a, b = (run(cfg, o, seed=5, max_evals=997, trace_every=1) for o in (obj, rows))
    assert len(rows.sizes) == b.evals_used == a.evals_used == 997
    assert a.best_fitness.hex() == b.best_fitness.hex()
    assert a.best_position.tobytes() == b.best_position.tobytes()
    assert a.module_evals == b.module_evals
    assert a.trace == b.trace


def test_ls_budget_ceiling():
    obj = make_instance("shifted_rastrigin", 6, instance_seed=4)
    for algo in ("mtsls", "cmaes"):
        cfg = _cfg(**{"exec.order": "de", "pop.size": 15, "ls.algo": algo,
                      "ls.budget": 0.3, "ls.divide": 7})
        total = 6000
        result = run(cfg, obj, seed=31, max_evals=total)
        ls_budget = int(0.3 * total)
        per_run = ls_budget // 7
        used = result.module_evals.get("ls", 0)
        assert per_run < used <= ls_budget, (algo, used)


@pytest.mark.parametrize("algo", ["mtsls", "cmaes"])
@pytest.mark.parametrize("divide", [3, 7, 10])
def test_ls_spends_no_more_than_its_share(algo, divide):
    # the last run's grant is what is left of the share, not a whole per-run
    # grant; mtsls runs until the share is spent to the FE, the nested CMA-ES
    # spends whole generations only and may stop short of it
    cfg = _cfg(**{"exec.order": "de", "ls.algo": algo, "ls.budget": 0.25,
                  "ls.divide": divide})
    obj = make_instance("shifted_rotated_rastrigin", 10, instance_seed=1)
    used = run(cfg, obj, seed=1, max_evals=20000).module_evals["ls"]
    share = int(0.25 * 20000)
    assert used == share if algo == "mtsls" else used <= share


class _HalfUndefined:
    """Sphere that returns `bad` wherever x[0] > 0, one point per call."""

    def __init__(self, d, bad):
        self.inner = make_instance("sphere", d)
        self.d, self.bounds, self.bad = d, self.inner.bounds, bad

    def __call__(self, x):
        return self.bad if x[0] > 0 else self.inner(x)


class _HalfUndefinedBlock(_HalfUndefined):
    """The same values, evaluated as blocks."""

    def batch(self, X):
        return np.where(X[:, 0] > 0, self.bad, self.inner.batch(X))


@pytest.mark.parametrize("overrides", [
    {"exec.order": "de", "pop.size": 20, "de.base_vector": "best"},
    {"exec.order": "pso", "pop.size": 20},
    {"exec.order": "cmaes"},
    {"exec.order": "de", "pop.size": 20, "ls.algo": "mtsls"},
    {"exec.order": "pso", "pop.size": 20, "ls.algo": "cmaes"},
])
def test_nan_objective_values_count_as_inf(overrides):
    cfg = _cfg(**overrides)
    # point by point and as blocks: the block funnel maps NaN on its own
    for kind in (_HalfUndefined, _HalfUndefinedBlock):
        nan_run, inf_run = (run(cfg, kind(5, bad), seed=3, max_evals=5000,
                                trace_every=100) for bad in (math.nan, math.inf))
        assert nan_run.best_fitness == inf_run.best_fitness
        assert np.array_equal(nan_run.best_position, inf_run.best_position)
        assert nan_run.trace == inf_run.trace
        assert nan_run.module_evals == inf_run.module_evals


class _Undefined:
    """NaN at every point, one point per call or as a block."""

    def __init__(self, d):
        self.d, self.bounds = d, Bounds.symmetric(100.0, d)

    def __call__(self, x):
        return math.nan

    def batch(self, X):
        return np.full(len(X), math.nan)


def test_all_undefined_generations_restart_cmaes(monkeypatch):
    # every sample counts as +inf: a flat generation, so CMA-ES restarts
    restarts = []
    on_restart = cmaes_mod.on_restart

    def counted(state, *args, **kwargs):
        restarts.append(state.lam)
        on_restart(state, *args, **kwargs)

    monkeypatch.setattr(cmaes_mod, "on_restart", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(_cfg(**{"exec.order": "cmaes"}), _Undefined(4), seed=3,
                     max_evals=300)
    assert result.evals_used == 300
    assert result.best_fitness == math.inf
    assert len(restarts) >= 1


def test_reinit_change_fires_on_an_undefined_objective(monkeypatch):
    # every FE is NaN, so the best history stays +inf: that is a stall
    fired = []
    reinit = executor_mod.reinit_indices

    def recorded(*args, **kwargs):
        idx = reinit(*args, **kwargs)
        fired.append(len(idx))
        return idx

    monkeypatch.setattr(executor_mod, "reinit_indices", recorded)
    cfg = _cfg(**{"exec.order": "pso", "pop.size": 10, "exec.reinit": "change"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(cfg, _Undefined(4), seed=3, max_evals=600)
    assert result.evals_used == 600
    assert result.best_fitness == math.inf
    assert any(k == 10 for k in fired)


def test_success_windows_only_under_success_rate():
    obj = make_instance("sphere", 4)
    plain = _Run(_cfg(**{"exec.order": "pso", "pop.size": 8}), obj, seed=3,
                 budget=EvalBudget(max_evals=400), trace_every=None)
    plain.execute()
    assert plain.success is None
    cfg = _cfg(**{"exec.order": "pso", "pop.size": 8, "pso.pert_info": "gaussian",
                  "pso.pm_mode": "success_rate", "pso.pm": 0.1})
    rated = _Run(cfg, obj, seed=3, budget=EvalBudget(max_evals=400), trace_every=None)
    rated.execute()
    assert rated.success.shape == (len(rated.pop), pso_mod.SUCCESS_WINDOW) == (8, 10)
    assert set(np.unique(rated.success)) <= {0, 1}   # every window is full by now


def test_success_windows_record_the_record_all_mask(monkeypatch):
    """Each PSO step shifts its rows' windows by one update: the personal
    bests ``record_all`` reports improved."""
    cfg = _cfg(**{"exec.mode": "probabilistic", "exec.order": "pso,de", "pop.size": 10,
                  "exec.pr": 0.5, "exec.gate_dist": "uniform",
                  "pso.pert_info": "gaussian", "pso.pm_mode": "success_rate",
                  "pso.pm": 0.1})
    runner = _Run(cfg, make_instance("sphere", 4), seed=8,
                  budget=EvalBudget(max_evals=10 ** 6), trace_every=None)
    runner.initialize()
    assert runner.success.tolist() == [[-1] * 10] * 10
    seen = []
    record_all = Population.record_all

    def spy(pop, X, F, rows=slice(None)):
        improved = record_all(pop, X, F, rows)
        seen.append((np.arange(len(pop))[rows], improved))
        return improved

    monkeypatch.setattr(Population, "record_all", spy)
    for _ in range(6):
        before = runner.success.copy()
        seen.clear()
        runner.generation()
        pso_rows, improved = seen[-1]   # on some rows, DE records through record_all first
        moved = np.zeros(10, dtype=bool)
        moved[pso_rows] = True
        assert runner.success[~moved].tolist() == before[~moved].tolist()
        assert runner.success[moved, :-1].tolist() == before[moved, 1:].tolist()
        assert runner.success[moved, -1].tolist() == improved.astype(int).tolist()


def test_nested_ls_grant_below_lambda_runs_once(monkeypatch):
    slices = []
    run_slice = NestedCmaes.run_slice

    def counted(self, *args, **kwargs):
        slices.append(self)
        return run_slice(self, *args, **kwargs)

    monkeypatch.setattr(NestedCmaes, "run_slice", counted)
    # grant floor(0.1 * 2000) // 100 = 2 FEs against a nested lambda of
    # 4 + floor(3 ln 5) = 8
    cfg = _cfg(**{"exec.order": "de", "pop.size": 10, "ls.algo": "cmaes",
                  "ls.budget": 0.1, "ls.divide": 100})
    result = run(cfg, make_instance("sphere", 5), seed=11, max_evals=2000)
    assert len(slices) == 1 and slices[0].stalled
    assert "ls" not in result.module_evals
    assert result.evals_used == 2000


def test_informant_validity():
    cfg = _cfg(**{"exec.order": "pso", "pop.size": 9,
                  "pso.topology": "von_neumann"})
    obj = make_instance("shifted_griewank", 4, instance_seed=6)
    runner = _Run(cfg, obj, seed=37, budget=EvalBudget(max_evals=5000),
                  trace_every=None)
    runner.initialize()
    for _ in range(5):
        runner.generation()
        pf = runner.pop.pf
        for i, l_idx in enumerate(neighborhood_best(runner.topology.adjacency, pf)):
            nb = neighbors(runner.topology, i)
            assert l_idx in nb
            assert all(pf[l_idx] <= pf[k] for k in nb)
            assert l_idx == min(k for k in nb if pf[k] == pf[l_idx])   # ties: lowest


@pytest.mark.parametrize("overrides", [
    {"exec.order": "pso", "pso.dnpp": "spherical", "pso.topology": "ring"},
    {"exec.order": "pso", "pso.dnpp": "gaussian", "pso.topology": "wheel",
     "pso.omega1_mode": "linear_decreasing"},
    {"exec.order": "pso", "pso.dnpp": "standard", "pso.topology": "random_edge",
     "pso.stagnation_detection": "true"},
    {"exec.order": "pso", "pso.moi": "fully_informed",
     "pso.topology": "von_neumann", "pso.ac_mode": "time_varying"},
    {"exec.order": "pso", "pso.moi": "ranked_fully_informed",
     "pso.topology": "time_varying", "pso.vector_basis": "eigenvector"},
    {"exec.order": "pso", "pso.pert_info": "levy", "pso.pert_rand": "noisy",
     "pso.pm_mode": "success_rate", "pso.pm": "0.05"},
    {"exec.order": "pso", "pso.pert_rand": "rectangular",
     "pso.pm_mode": "euclidean_distance", "pso.ignore_pbest": "true"},
    {"exec.order": "de", "de.base_vector": "best",
     "de.recombination": "exponential", "de.vectors": "pbest"},
    {"exec.order": "de", "de.base_vector": "directed_best",
     "de.vector_basis": "eigenvector", "de.vectors": "mixture"},
    {"exec.order": "de", "de.base_vector": "target_to_best",
     "de.diff_fraction": "0.25", "exec.reinit": "similarity"},
    {"exec.order": "de", "de.base_vector": "directed_random",
     "exec.reinit": "change"},
    {"exec.order": "cmaes", "cmaes.matrix_mode": "full_then_diagonal",
     "cmaes.weights": "equal"},
    {"exec.order": "cmaes", "cmaes.matrix_mode": "diagonal",
     "cmaes.weights": "linear_decreasing", "cmaes.pop_mode": "constant"},
    {"exec.order": "de,pso", "de.pso_only_on_fail": "true",
     "de.recompute_velocity": "random", "pso.dnpp": "spherical"},
    {"exec.order": "pso,de", "exec.mode": "probabilistic", "exec.pr": "0.3",
     "exec.gate_dist": "levy", "exec.par_std": "0.8"},
    {"exec.order": "pso,cmaes", "exec.mode": "multiple_phases",
     "exec.phases": "0.3,0.7", "ls.algo": "mtsls"},
    {"exec.order": "de,pso,cmaes", "exec.mode": "multiple_phases",
     "exec.phases": "0.4,0.3,0.3", "ls.algo": "cmaes", "ls.budget": "0.2",
     "ls.divide": "5"},
    # ranked informants of uneven counts on the rows one step moves
    {**_PROBABILISTIC, "pso.moi": "ranked_fully_informed", "pso.topology": "random_edge"},
    {"exec.order": "de,pso", "de.pso_only_on_fail": "true",
     "pso.moi": "ranked_fully_informed", "pso.topology": "random_edge"},
])
def test_configuration_matrix_smoke(overrides):
    cfg = _cfg(**{"pop.size": 12, **overrides})
    obj = make_instance("shifted_rosenbrock", 5, instance_seed=8)
    result = run(cfg, obj, seed=41, max_evals=900)
    again = run(cfg, obj, seed=41, max_evals=900)
    assert result.evals_used == 900
    assert result.best_fitness == again.best_fitness


_SWARM_STEP_SETTINGS = [
    {"pso.topology": "ring"},
    {"pso.topology": "fully_connected"},
    {"pso.moi": "fully_informed", "pso.topology": "wheel"},
    {"pso.moi": "fully_informed", "pso.topology": "von_neumann"},
    {"pso.moi": "ranked_fully_informed", "pso.topology": "time_varying"},
    {"pso.ignore_pbest": "true", "pso.omega1_mode": "linear_decreasing",
     "pso.ac_mode": "time_varying", "pso.velocity_clamping": "false"},
    {"pso.moi": "ranked_fully_informed", "pso.topology": "random_edge"},
]


def _row_by_row(swarm_step):
    """``pso.swarm_step`` moving one row at a time, in row order, from the
    same stream.  Only for the settings whose rows draw nothing but their
    uniforms: no perturbation, no stagnation detection, no random mode."""
    def step(X, V, P, L, informants, *args, **kwargs):
        moves = [swarm_step(X[i:i + 1], V[i:i + 1], P[i:i + 1], L[i:i + 1],
                            None if informants is None
                            else (informants[0][i:i + 1, :informants[1][i]],
                                  informants[1][i:i + 1]),
                            *args, **kwargs)
                 for i in range(len(X))]
        return tuple(np.concatenate(parts) for parts in zip(*moves))
    return step


@pytest.mark.parametrize("dim", [5, 1])
@pytest.mark.parametrize("settings", _SWARM_STEP_SETTINGS)
def test_swarm_step_equals_the_per_particle_paths(settings, dim, monkeypatch):
    """Moving the whole swarm with one step and moving it one particle at a
    time give one run, at d = 5 bit for bit.  At d = 1 the swarm is moved
    by the block step too; there numpy may sum an unpadded row of informant
    terms pairwise, so the fully-informed runs are compared to 1e-9."""
    cfg = _cfg(**{"exec.order": "pso", "pop.size": 20, **settings})
    obj = make_instance("shifted_rotated_rastrigin", dim, instance_seed=3)
    steps = []
    swarm_step = pso_mod.swarm_step

    def counted(X, *args, **kwargs):
        steps.append(len(X))
        return swarm_step(X, *args, **kwargs)

    monkeypatch.setattr(pso_mod, "swarm_step", counted)
    block = run(cfg, obj, seed=9, max_evals=1500, trace_every=10)
    assert set(steps) == {20}
    steps.clear()
    monkeypatch.setattr(pso_mod, "swarm_step", _row_by_row(counted))
    other = run(cfg, obj, seed=9, max_evals=1500, trace_every=10)
    assert set(steps) == {1}
    assert other.module_evals == block.module_evals == {"pso": 1500}
    if dim == 1 and cfg.pso.moi != "best_of_neighborhood":
        assert other.best_fitness == pytest.approx(block.best_fitness, rel=1e-9, abs=1e-9)
        assert other.best_position == pytest.approx(block.best_position, rel=1e-9,
                                                    abs=1e-9)
        return
    assert other.best_fitness.hex() == block.best_fitness.hex()
    assert other.best_position.tobytes() == block.best_position.tobytes()
    assert other.trace == block.trace


@pytest.mark.parametrize("overrides, fes", [
    # the initial 10 FEs, three generations and the proposal the budget stops
    ({"exec.order": "de"}, 40),
    ({"exec.order": "de", "de.base_vector": "best", "de.vectors": "mixture",
      "de.recombination": "exponential", "de.vector_basis": "eigenvector",
      "de.recompute_velocity": "random"}, 40),
    # the DE phase: the initial 10 FEs and three generations
    ({"exec.order": "de,pso", "exec.mode": "multiple_phases",
      "exec.phases": "0.5,0.5"}, 80),
])
def test_de_alone_proposes_one_block(overrides, fes, monkeypatch):
    """A DE-alone generation selects every target's donors in one call, or in
    chunks of at most DONOR_BLOCK donor elements, and so does DE∘PSO's DE step."""
    calls = []
    select = de_mod.select_base_and_donors

    def counted(kind, positions, pbests, fitnesses, targets, *args):
        calls.append(len(targets))
        return select(kind, positions, pbests, fitnesses, targets, *args)

    monkeypatch.setattr(de_mod, "select_base_and_donors", counted)
    cfg = _cfg(**{"pop.size": 10, **overrides})
    obj = make_instance("sphere", 4)
    result = run(cfg, obj, seed=4, max_evals=fes)
    assert calls == [10] * 3 + [10] * (fes == 40) and result.evals_used == fes
    calls.clear()
    monkeypatch.setattr(executor_mod, "DONOR_BLOCK", 3 * 4 * 4)   # 4 targets of k = 1
    run(cfg, obj, seed=4, max_evals=fes)
    assert calls == [4, 3, 3] * (3 + (fes == 40))
    calls.clear()
    # the initial 10 FEs, three generations of 20 and the DE step the budget stops
    run(_cfg(**{"exec.order": "de,pso", "pop.size": 10}), obj, seed=4, max_evals=70)
    assert calls == [4, 3, 3] * 4


# DE∘PSO's PSO step on the swarm-step path (best of neighbourhood, and
# informants gathered from the generation-start personal bests) and on the
# per-particle path
_DE_PSO_STEPS = [
    {"pso.topology": "ring"},
    {"pso.moi": "fully_informed", "pso.topology": "von_neumann"},
    {"pso.moi": "fully_informed", "pso.topology": "von_neumann",
     "pso.pert_info": "gaussian", "pso.pm_mode": "constant", "pso.pm": "0.05"},
    {"pso.moi": "ranked_fully_informed", "pso.topology": "random_edge"},
]


@pytest.mark.parametrize("only_on_fail", [False, True])
@pytest.mark.parametrize("settings", _DE_PSO_STEPS)
def test_de_pso_moves_the_de_outcome_toward_start_informants(settings, only_on_fail,
                                                             monkeypatch):
    """PSO on member i reads its x, v and p after DE (velocities recomputed)
    and its neighbourhood best and informants from the personal bests at the
    start of the generation; under de.pso_only_on_fail it moves exactly the
    members DE did not move."""
    cfg = _cfg(**{"exec.order": "de,pso", "pop.size": 12,
                  "de.recompute_velocity": "goBack",
                  "de.pso_only_on_fail": str(only_on_fail).lower(), **settings})
    obj = make_instance("shifted_rastrigin", 5, instance_seed=2)
    runner = _Run(cfg, obj, seed=3, budget=EvalBudget(max_evals=10 ** 6),
                  trace_every=None)
    runner.initialize()
    for _ in range(3):   # personal bests then differ from positions
        runner.generation()
    pop = runner.pop
    start_p, start_pf = pop.p.copy(), pop.pf.copy()
    after_de = {}
    de_generation = runner._de_generation

    def spy_de(*args):
        moved = de_generation(*args)
        after_de.update(x=pop.x.copy(), v=pop.v.copy(), p=pop.p.copy(), moved=moved)
        return moved

    runner._de_generation = spy_de
    seen = []   # (x, v, p, l_best, informants) per row PSO moves, in order
    swarm_step = pso_mod.swarm_step

    def spy_swarm(X, V, P, L, informants, *args, **kwargs):
        for j in range(len(X)):   # X, V and P may be views of the population
            seen.append((X[j].copy(), V[j].copy(), P[j].copy(), L[j],
                         None if informants is None
                         else informants[0][j, :informants[1][j]].copy()))
        return swarm_step(X, V, P, L, informants, *args, **kwargs)

    monkeypatch.setattr(pso_mod, "swarm_step", spy_swarm)
    pso_fes = runner.module_evals["pso"]
    runner.generation()

    moved = after_de["moved"]
    rows = np.flatnonzero(~moved) if only_on_fail else np.arange(len(pop))
    assert moved.any() and rows.size   # both kinds of member occur
    assert (after_de["p"] != start_p).any()   # DE improved some personal best
    assert runner.module_evals["pso"] - pso_fes == len(seen) == rows.size
    if cfg.pso.moi == "best_of_neighborhood":
        l_best_idx, ranked = neighborhood_best(runner.topology.adjacency, start_pf), None
    else:
        ranked = idx, m = pso_mod.ranked_informants(runner.topology.adjacency, start_pf)
        l_best_idx = idx[:, 0]
    for i, (x, v, p, l_best, informants) in zip(rows, seen):
        assert np.array_equal(x, after_de["x"][i])
        assert np.array_equal(v, after_de["v"][i])
        assert np.array_equal(p, after_de["p"][i])
        assert np.array_equal(l_best, start_p[l_best_idx[i]])
        if ranked is not None:
            assert np.array_equal(informants, start_p[idx[i, :m[i]]])


@pytest.mark.parametrize("settings", [
    {"pso.topology": "ring"},
    {"pso.moi": "fully_informed", "pso.topology": "wheel"},
    {"pso.moi": "ranked_fully_informed", "pso.topology": "von_neumann",
     "de.recompute_velocity": "goBack", "de.pso_only_on_fail": "true"},
    {"pso.moi": "ranked_fully_informed", "pso.topology": "random_edge",
     "de.recompute_velocity": "goBack", "de.pso_only_on_fail": "true"},
])
def test_de_pso_swarm_step_equals_the_per_particle_path(settings, monkeypatch):
    """DE∘PSO gives one run whether its PSO step moves the rows at once or
    one particle at a time."""
    cfg = _cfg(**{"exec.order": "de,pso", "pop.size": 20, **settings})
    obj = make_instance("shifted_rotated_rastrigin", 5, instance_seed=3)
    steps = []
    swarm_step = pso_mod.swarm_step

    def counted(X, *args, **kwargs):
        steps.append(len(X))
        return swarm_step(X, *args, **kwargs)

    monkeypatch.setattr(pso_mod, "swarm_step", counted)
    block = run(cfg, obj, seed=9, max_evals=1500, trace_every=10)
    assert max(steps) > 1
    steps.clear()
    monkeypatch.setattr(pso_mod, "swarm_step", _row_by_row(counted))
    other = run(cfg, obj, seed=9, max_evals=1500, trace_every=10)
    assert set(steps) == {1}
    assert other.best_fitness.hex() == block.best_fitness.hex()
    assert other.best_position.tobytes() == block.best_position.tobytes()
    assert other.module_evals == block.module_evals
    assert other.trace == block.trace
