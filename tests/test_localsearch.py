import numpy as np
import pytest

import hybridopt.executor
from hybridopt import Bounds, CmaParams, default_config, make_instance, run, validate
from hybridopt.core import rng_stream
from hybridopt.localsearch import LsParams, LsResult, NestedCmaes, mtsls_run, schedule_ls


def _rows(f, probes=None):
    """The block evaluator of the point function f, as the run's funnel takes
    blocks; each row it receives is appended to probes."""
    def ev(X):
        if probes is not None:
            probes.extend(x.copy() for x in X)
        return [f(x) for x in X]
    return ev


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
    bounds = Bounds(np.array([-8.0]), np.array([8.0]))
    probes = []
    params = LsParams(algo="mtsls", mtsls_init_ss=1 / 16, mtsls_iterations=6,
                      mtsls_bias=0.5)
    res = mtsls_run(np.array([4.0]), 16.0, _rows(lambda x: float(x[0] ** 2), probes),
                    bounds, budget=100, params=params, rng=rng_stream(0))
    visited = [float(x[0]) for x in probes]
    # 4 improving sweeps keep ss = 1: one step down per sweep
    assert visited[:4] == [3.0, 2.0, 1.0, 0.0]
    # the 5th sweep is fruitless (0 - 1, then 0 + 1/2) and halves ss; the 6th
    # restarts at visited[6] and its first probe is half a step below it
    assert visited[4:6] == [-1.0, 0.5]
    assert visited[6] - visited[7] == pytest.approx(0.5)
    assert res.fitness == 0.0
    assert res.solution == pytest.approx([0.0])


def test_mtsls_no_improvement_halves_step():
    bounds = Bounds.symmetric(4.0, 2)
    probes = []
    params = LsParams(algo="mtsls", mtsls_init_ss=0.25, mtsls_iterations=2)
    res = mtsls_run(np.zeros(2), 0.0, _rows(lambda x: float(np.dot(x, x)), probes),
                    bounds, budget=50, params=params, rng=rng_stream(1))
    assert res.fitness == 0.0
    # ss0 = 2: the first sweep's 4 probes all fail, so ss is halved once and
    # the second sweep's first probe, after its restart point, is 1 below it
    assert np.array_equal(probes[0], [-2.0, 0.0])
    restart, first = probes[4], probes[5]
    assert restart[0] - first[0] == pytest.approx(1.0)
    assert first[1] == restart[1]


def test_mtsls_step_halves_every_sweep_on_constant():
    bounds = Bounds.symmetric(4.0, 3)
    probes = []
    params = LsParams(algo="mtsls", mtsls_init_ss=0.5, mtsls_iterations=4)
    res = mtsls_run(np.ones(3), 1.0, _rows(lambda x: 1.0, probes), bounds,
                    budget=1000, params=params, rng=rng_stream(2))
    ss0 = 0.5 * 8.0
    # every probe fails: a sweep is 6 probes, and each later sweep starts at
    # a restart point, so sweeps 2-4 start at probes 6, 13 and 20
    assert len(probes) == 6 + 3 * 7
    assert probes[0][0] == 1.0 - ss0
    steps = [probes[i][0] - probes[i + 1][0] for i in (6, 13, 20)]
    assert steps == pytest.approx([ss0 / 2, ss0 / 4, ss0 / 8])
    assert res.fitness == 1.0   # never worse than the input


def test_mtsls_out_of_bounds_penalty():
    # Minimizing -x^2 on [0,1]: the probe at 1.5 evaluates the clamped point
    # 1.0 and is rejected because of the +0.5^2 penalty, while a probe at 1.1
    # (penalty 0.01) is accepted.  Without the penalty both would win.
    probes = []
    f = _rows(lambda x: -float(x[0] ** 2), probes)
    bounds = Bounds(np.array([0.0]), np.array([1.0]))
    params = LsParams(algo="mtsls", mtsls_init_ss=1.0, mtsls_iterations=3)
    res = mtsls_run(np.array([0.5]), -0.25, f, bounds, budget=10, params=params,
                    rng=rng_stream(3))
    seen = [float(x[0]) for x in probes]
    # sweep 1: 0.5-1.0 -> clamp 0 rejected; 0.5+0.5 = 1.0 accepted (f=-1)
    # sweep 2: 1.0-1.0 -> 0 rejected; 1.0+0.5 = 1.5 -> clamp 1.0, value
    #          -1 + 0.25 = -0.75 > -1 rejected, so the sweep is fruitless
    assert seen[:4] == [0.0, 1.0, 0.0, 1.0]
    assert res.fitness == -1.0
    assert res.solution == pytest.approx([1.0])
    assert all(0.0 <= x <= 1.0 for x in seen)    # only feasible evaluations
    # the fruitless sweep halved ss: sweep 3 probes half a step below its restart
    assert seen[4] - seen[5] == pytest.approx(0.5)

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

    probes = []
    params = LsParams(algo="mtsls", mtsls_init_ss=0.25, mtsls_iterations=2,
                      mtsls_bias=1.0)
    res = mtsls_run(np.array([2.0]), f(np.array([2.0])), _rows(f, probes), bounds,
                    budget=100, params=params, rng=rng_stream(5))
    seen = [float(x[0]) for x in probes]
    # first sweep: 2 - 2 = 0 improves by 4e-21 <= 1e-20, so ss resets into
    # [0.3, 0.6]*width; with bias 1 the restart point is exactly the best, 0.
    # The second sweep's first probe 0 - ss may be clamped, so read ss from
    # its second probe, 0 + ss/2
    assert seen[:2] == [0.0, 0.0]
    assert 0.3 * 8.0 <= 2.0 * seen[3] <= 0.6 * 8.0
    assert res.fitness <= f(np.array([2.0]))


def test_mtsls_budget_slice_respected():
    calls = []
    bounds = Bounds.symmetric(5.0, 4)
    params = LsParams(algo="mtsls", mtsls_init_ss=0.5, mtsls_iterations=3)
    res = mtsls_run(np.full(4, 3.0), 36.0, _rows(lambda x: float(np.dot(x, x)), calls),
                    bounds, budget=5, params=params, rng=rng_stream(6))
    assert res.evals == 5 == len(calls)
    assert res.fitness <= 36.0


def test_mtsls_determinism():
    bounds = Bounds.symmetric(5.0, 3)
    params = LsParams(algo="mtsls", mtsls_init_ss=0.3, mtsls_iterations=3,
                      mtsls_bias=-0.5)
    a = mtsls_run(np.full(3, 2.0), 12.0, _sphere_rows, bounds, 40, params, rng_stream(7))
    b = mtsls_run(np.full(3, 2.0), 12.0, _sphere_rows, bounds, 40, params, rng_stream(7))
    assert np.array_equal(a.solution, b.solution)
    assert a.fitness == b.fitness and a.evals == b.evals


_sphere_rows = _rows(lambda x: float(np.dot(x, x)))   # the sphere at every row


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


def test_both_searchers_return_ls_result():
    bounds = Bounds.symmetric(10.0, 3)
    start = np.full(3, 2.0)
    results = [
        mtsls_run(start, 12.0, _sphere_rows, bounds, 30, LsParams(algo="mtsls"),
                  rng_stream(8)),
        NestedCmaes(CmaParams(), bounds).run_slice(start, 12.0, _sphere_rows, 30,
                                                   rng_stream(8)),
    ]
    for res in results:
        assert type(res) is LsResult
        solution, fitness, evals = res   # index order: (solution, fitness, evals)
        assert fitness == res.fitness <= 12.0
        assert fitness == float(np.dot(solution, solution))
        assert 0 < evals == res.evals <= 30
