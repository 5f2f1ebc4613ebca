import numpy as np
import pytest

import hybridopt.executor
from hybridopt import (Bounds, CmaParams, default_config, make_instance, rng_stream, run,
                       validate)
from hybridopt.localsearch import LsParams, NestedCmaes, mtsls_run, schedule_ls


def test_schedule_ls_worked_example():
    assert schedule_ls(100000, LsParams(algo="mtsls", budget=0.25, divide=10)) \
        == (2500, 25000)
    assert schedule_ls(1000, LsParams(algo="mtsls", budget=1.0, divide=1)) == (1000, 1000)
    # 7*71 = 497: the 3 FEs left over go to an extra run
    assert schedule_ls(1000, LsParams(algo="mtsls", budget=0.5, divide=7)) == (71, 500)


def test_scheduler_extra_runs_until_spent(monkeypatch):
    # a share of 200 FEs in grants of 28: three sweeps at d=10 take at least
    # 30 probes, so every run spends its grant and 7*28 = 196 leave 4 FEs
    runs = []

    def counted(*args, **kwargs):
        result = mtsls_run(*args, **kwargs)
        runs.append(result.evals)
        return result

    monkeypatch.setattr(hybridopt.executor, "mtsls_run", counted)
    cfg = validate(default_config({"exec.order": "de", "pop.size": "20",
                                   "ls.algo": "mtsls", "ls.mtsls_iterations": "3",
                                   "ls.budget": "0.2", "ls.divide": "7"}))
    obj = make_instance("shifted_rotated_rastrigin", 10, instance_seed=1)
    result = run(cfg, obj, seed=5, max_evals=1000)
    assert runs == [28] * 7 + [4]           # an extra run gets what is left
    assert sum(runs) == result.module_evals["ls"] == 200


def test_mtsls_monotone_descent_1d():
    bounds = Bounds(np.array([0.0]), np.array([8.0]))
    visited = []

    def f(x):
        visited.append(float(x[0]))
        return float(x[0] ** 2)

    params = LsParams(algo="mtsls", mtsls_init_ss=1 / 8, mtsls_iterations=5,
                      mtsls_bias=0.5)
    res = mtsls_run(np.array([4.0]), 16.0, f, bounds, budget=100, params=params,
                    rng=rng_stream(0))
    assert visited[:4] == [3.0, 2.0, 1.0, 0.0]   # one step down per sweep
    assert res.fitness == 0.0
    assert res.solution == pytest.approx([0.0])
    # 4 improving sweeps keep ss = 1; the 5th is fruitless and halves it
    assert res.ss_history == pytest.approx([1.0, 1.0, 1.0, 1.0, 0.5])


def test_mtsls_no_improvement_halves_step():
    bounds = Bounds.symmetric(4.0, 2)

    def f(x):
        return float(np.dot(x, x))

    params = LsParams(algo="mtsls", mtsls_init_ss=0.25, mtsls_iterations=1)
    res = mtsls_run(np.zeros(2), 0.0, f, bounds, budget=50, params=params,
                    rng=rng_stream(1))
    assert res.fitness == 0.0
    assert res.ss_history == pytest.approx([1.0])   # ss0 = 2, halved once


def test_mtsls_step_halves_every_sweep_on_constant():
    bounds = Bounds.symmetric(4.0, 3)
    params = LsParams(algo="mtsls", mtsls_init_ss=0.5, mtsls_iterations=3)
    res = mtsls_run(np.ones(3), 1.0, lambda x: 1.0, bounds, budget=1000,
                    params=params, rng=rng_stream(2))
    ss0 = 0.5 * 8.0
    assert res.ss_history == pytest.approx([ss0 / 2, ss0 / 4, ss0 / 8])
    assert res.fitness == 1.0   # never worse than the input


def test_mtsls_out_of_bounds_penalty():
    # Minimizing -x^2 on [0,1]: the probe at 1.5 evaluates the clamped point
    # 1.0 and is rejected because of the +0.5^2 penalty, while a probe at 1.1
    # (penalty 0.01) is accepted.  Without the penalty both would win.
    seen = []

    def f(x):
        seen.append(float(x[0]))
        return -float(x[0] ** 2)

    bounds = Bounds(np.array([0.0]), np.array([1.0]))
    params = LsParams(algo="mtsls", mtsls_init_ss=1.0, mtsls_iterations=2)
    res = mtsls_run(np.array([0.5]), -0.25, f, bounds, budget=10, params=params,
                    rng=rng_stream(3))
    # sweep 1: 0.5-1.0 -> clamp 0 rejected; 0.5+0.5 = 1.0 accepted (f=-1)
    # sweep 2: 1.0-1.0 -> 0 rejected; 1.0+0.5 = 1.5 -> clamp 1.0, value
    #          -1 + 0.25 = -0.75 > -1 rejected, so the sweep is fruitless
    assert res.fitness == -1.0
    assert res.solution == pytest.approx([1.0])
    assert all(0.0 <= x <= 1.0 for x in seen)    # only feasible evaluations
    assert res.ss_history[-1] == pytest.approx(0.5)  # fruitless sweep halved ss

    accept = LsParams(algo="mtsls", mtsls_init_ss=0.4, mtsls_iterations=1)
    res2 = mtsls_run(np.array([0.9]), -0.81, f, bounds, budget=10,
                     params=accept, rng=rng_stream(4))
    # second probe 0.9 + 0.2 = 1.1 -> clamped value -1 + 0.01 = -0.99 < -0.81
    assert res2.fitness == -1.0
    assert res2.solution == pytest.approx([1.0])


def test_mtsls_tiny_improvement_triggers_reset_and_bias_restart():
    bounds = Bounds.symmetric(4.0, 1)

    def f(x):
        return 1e-21 * float(x[0] ** 2)

    params = LsParams(algo="mtsls", mtsls_init_ss=0.25, mtsls_iterations=2,
                      mtsls_bias=1.0)
    res = mtsls_run(np.array([2.0]), f(np.array([2.0])), f, bounds, budget=100,
                    params=params, rng=rng_stream(5))
    # first sweep improves by 4e-21 <= 1e-20: ss resets into [0.3, 0.6]*width
    assert 0.3 * 8.0 <= res.ss_history[0] <= 0.6 * 8.0
    # with bias 1 the restart point is exactly the best-so-far
    assert res.fitness <= f(np.array([2.0]))


def test_mtsls_budget_slice_respected():
    calls = []

    def f(x):
        calls.append(1)
        return float(np.dot(x, x))

    bounds = Bounds.symmetric(5.0, 4)
    params = LsParams(algo="mtsls", mtsls_init_ss=0.5, mtsls_iterations=3)
    res = mtsls_run(np.full(4, 3.0), 36.0, f, bounds, budget=5, params=params,
                    rng=rng_stream(6))
    assert res.evals == 5 == len(calls)
    assert res.fitness <= 36.0


def test_mtsls_determinism():
    bounds = Bounds.symmetric(5.0, 3)

    def f(x):
        return float(np.dot(x, x))

    params = LsParams(algo="mtsls", mtsls_init_ss=0.3, mtsls_iterations=3,
                      mtsls_bias=-0.5)
    a = mtsls_run(np.full(3, 2.0), 12.0, f, bounds, 40, params, rng_stream(7))
    b = mtsls_run(np.full(3, 2.0), 12.0, f, bounds, 40, params, rng_stream(7))
    assert np.array_equal(a.solution, b.solution)
    assert a.fitness == b.fitness and a.evals == b.evals


def _sphere_rows(X):
    """The sphere at every row of a block, as ``run_slice`` evaluates."""
    return [float(np.dot(x, x)) for x in X]


def test_cmaes_ls_improves_sphere():
    bounds = Bounds.symmetric(100.0, 5)

    def f(x):
        return float(np.dot(x, x))

    start = np.full(5, 5.0)
    for seed in range(10):
        x, fit, _ = NestedCmaes(CmaParams(c=0.1), bounds).run_slice(
            start, f(start), _sphere_rows, budget=5000, rng=rng_stream(seed))
        assert fit < f(start)


def test_cmaes_ls_zero_budget_returns_input():
    bounds = Bounds.symmetric(10.0, 3)
    start = np.ones(3)
    calls = []

    def f(X):
        calls.extend(X)
        return _sphere_rows(X)

    # lambda = 4 + floor(3 ln 3) = 7: no generation fits a slice of 0 or 6 FEs
    for budget in (0, 6):
        searcher = NestedCmaes(CmaParams(), bounds)
        assert not searcher.stalled
        x, fit, consumed = searcher.run_slice(start, 3.0, f, budget=budget,
                                              rng=rng_stream(1))
        assert searcher.runner.state.lam == 7
        assert np.array_equal(x, start)
        assert fit == 3.0
        assert consumed == 0 and not calls
        assert searcher.stalled


def test_cmaes_ls_degenerate_sigma_keeps_input():
    bounds = Bounds.symmetric(10.0, 3)
    searcher = NestedCmaes(CmaParams(restart=False), bounds)
    rng = rng_stream(2)
    start = np.ones(3)

    _, fit, _ = searcher.run_slice(start, 3.0, _sphere_rows, 60, rng)
    searcher.runner.state.sigma = 0.0
    mean_before = searcher.runner.state.mean.copy()
    _, fit2, consumed = searcher.run_slice(start, fit, _sphere_rows, 60, rng)
    # all samples collapse onto the mean: no real improvement, no blow-up
    assert consumed > 0
    assert fit2 <= fit
    assert fit2 == pytest.approx(fit, rel=1e-9, abs=1e-12)
    assert searcher.runner.state.mean == pytest.approx(mean_before, rel=1e-9)
    assert np.isfinite(searcher.runner.state.sigma)


def test_nested_cmaes_state_persists_across_slices():
    bounds = Bounds.symmetric(100.0, 4)
    searcher = NestedCmaes(CmaParams(c=0.1), bounds)
    rng = rng_stream(3)

    start = np.full(4, 20.0)
    _, fit1, used1 = searcher.run_slice(start, float(np.dot(start, start)),
                                        _sphere_rows, 200, rng)
    gen1 = searcher.runner.state.gen
    _, fit2, used2 = searcher.run_slice(start, fit1, _sphere_rows, 200, rng)
    assert searcher.runner.state.gen > gen1   # same instance kept evolving
    assert fit2 <= fit1
    assert used1 <= 200 and used2 <= 200
