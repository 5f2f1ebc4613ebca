"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report while it executes.
"""

import functools
import json
import math

import numpy as np
import pytest

from hybridopt import (CmaParams, default_config, export_parameter_space,
                       make_instance, parse_parameter_file, run, validate)
from hybridopt.cli import run_batch
from hybridopt.cmaes import (CmaRunner, covariance_step, init_state,
                             recombination_weights)
from hybridopt.config import PARAMETER_SPACE, format_parameter_file
from hybridopt.core import Bounds, BudgetExhausted, rng_stream
from hybridopt.de import mutate, recombine
from hybridopt.executor import ExecState, ExecutionConfig, gate_mask
from hybridopt.localsearch import LsParams, bound_penalty, mtsls_run
from hybridopt.reporting import aggregate


def _report(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} FAIL - {description}")
                raise
            print(f"criterion {number:02d} PASS - {description}")
        return wrapper
    return decorate


def _cfg(**overrides):
    cfg = validate(default_config({k: str(v) for k, v in overrides.items()}))
    assert hasattr(cfg, "execution"), getattr(cfg, "describe", lambda: "")()
    return cfg


REL = 1e-9


@_report(1, "equation oracles within 1e-9 relative tolerance")
def test_criterion_01_equation_oracles():
    # recombination weights, lambda=7 / mu=3
    raw = np.array([math.log((7 - 1) / 2 + 1) - math.log(i) for i in (1, 2, 3)])
    assert raw == pytest.approx([1.3862943611, 0.6931471805, 0.2876820724],
                                rel=REL)
    weights = recombination_weights("logarithmic", 7, 3)
    assert weights == pytest.approx(raw / raw.sum(), rel=REL)

    # covariance hand update: decay + pure rank-one
    got = covariance_step(np.eye(2), np.array([1.0, 0.0]), np.zeros((1, 2)),
                          np.ones(1), 0.5, 1.0)
    assert got == pytest.approx(np.diag([1.0, 0.5]), rel=REL)

    # differential mutation, one scaled pair (donor rows b, c)
    m = mutate(np.array([1.0, 2.0]), np.array([[3.0, 4.0], [0.0, 1.0]]), 0.5,
               "random")
    assert m == pytest.approx([2.5, 3.5], rel=REL)

    # directed mutation as printed
    m = mutate(np.array([2.0, 2.0]), np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0,
               "directed_random")
    assert m == pytest.approx([2.5, 2.5], rel=REL)

    # initial population sizing
    st = init_state(CmaParams(a=3.0, b=2.0, c=0.5), Bounds.symmetric(100.0, 50),
                    rng_stream(0))
    assert st.lam == 15 and st.mu == 7

    # the out-of-bounds penalty: candidate 1.5 against box [0, 1]
    penalized = 1.0 + bound_penalty(np.array([1.5]), np.array([1.0]))
    assert penalized == pytest.approx(1.25, rel=REL)  # sphere f(1.0) + 0.5^2

    # dimension-sweep trace on f(x) = x^2 from 4 with step 1
    visited = []

    def f(x):
        visited.append(float(x[0]))
        return float(x[0] ** 2)

    res = mtsls_run(np.array([4.0]), 16.0, lambda X: [f(x) for x in X],
                    Bounds(np.zeros(1), np.full(1, 8.0)),
                    budget=50,
                    params=LsParams(algo="mtsls", mtsls_init_ss=1 / 8,
                                    mtsls_iterations=5),
                    rng=rng_stream(1))
    assert visited[:4] == [3.0, 2.0, 1.0, 0.0]
    assert res.fitness == 0.0

    # MAD of {1,2,3,4,100}
    stats = aggregate([1.0, 2.0, 3.0, 4.0, 100.0])
    assert stats.med == pytest.approx(3.0, rel=REL)
    assert stats.mad == pytest.approx(1.0, rel=REL)


@_report(2, "binomial-crossover mutant fraction matches (1-p)+p/d")
def test_criterion_02_binomial_distribution():
    d, trials = 20, 100_000
    rng = rng_stream(20)
    target = np.zeros((trials, d))
    mutant = np.ones((trials, d))
    for p_a in (0.1, 0.5, 0.9):
        total = int(recombine("binomial", target, mutant, p_a, rng).sum())
        fraction = total / (trials * d)
        expected = (1 - p_a) + p_a / d
        se = math.sqrt((d - 1) * p_a * (1 - p_a)) / (d * math.sqrt(trials))
        assert abs(fraction - expected) <= 3 * se, (p_a, fraction, expected)


@_report(3, "CMA-ES reaches 1e-8 on sphere d=10 in >= 9/10 seeds")
def test_criterion_03_cmaes_sanity():
    cfg = _cfg(**{"exec.order": "cmaes", "cmaes.a": 3, "cmaes.b": 2,
                  "cmaes.c": 0.5, "cmaes.matrix_mode": "full",
                  "cmaes.weights": "logarithmic", "cmaes.restart": "true",
                  "cmaes.e": -12, "cmaes.f": -12, "cmaes.g": -12})
    obj = make_instance("sphere", 10)
    hits = sum(run(cfg, obj, seed=s, max_evals=50_000).best_fitness < 1e-8
               for s in range(10))
    assert hits >= 9, f"only {hits}/10 seeds reached 1e-8"


@_report(4, "DE/rand/1/bin reaches 1e-6 on sphere d=10 in >= 8/10 seeds")
def test_criterion_04_de_sanity():
    cfg = _cfg(**{"exec.order": "de", "pop.size": 50, "de.base_vector": "random",
                  "de.recombination": "binomial", "de.beta": 0.5,
                  "de.p_a": 0.5, "de.diff_fraction": 0.02})
    obj = make_instance("sphere", 10)
    hits = sum(run(cfg, obj, seed=s, max_evals=50_000).best_fitness < 1e-6
               for s in range(10))
    assert hits >= 8, f"only {hits}/10 seeds reached 1e-6"


@_report(5, "multiple-phases FE ledger honours the (0.6, 0.4) split")
def test_criterion_05_phase_accounting():
    n = 20
    cfg = _cfg(**{"exec.order": "cmaes,de", "exec.mode": "multiple_phases",
                  "exec.phases": "0.6,0.4", "pop.size": n})
    obj = make_instance("sphere", 10)
    result = run(cfg, obj, seed=4, max_evals=10_000)
    lam = 4 + int(3.0 * math.log(10))
    slack = max(lam, n)   # one generation's worth of evaluations
    cma_fes = result.module_evals.get("cmaes", 0)
    de_fes = result.module_evals.get("de", 0)
    assert cma_fes + de_fes == result.evals_used == 10_000
    assert abs(cma_fes - 6000) <= slack, cma_fes
    assert abs(de_fes - 4000) <= slack, de_fes


@_report(6, "MTSls never degrades its input; step halves on a flat function")
def test_criterion_06_mtsls():
    obj = make_instance("shifted_sphere", 10, instance_seed=5)
    params = LsParams(algo="mtsls", mtsls_init_ss=0.5, mtsls_iterations=3,
                      mtsls_bias=0.5)
    rng = rng_stream(6)
    for trial in range(20):
        start = obj.bounds.sample_uniform(rng)
        start_fitness = obj(start)
        res = mtsls_run(start, start_fitness, obj.batch, obj.bounds, budget=200,
                        params=params, rng=rng)
        assert res.fitness <= start_fitness

    # whole-algorithm integration: the incumbent stays monotone with LS on
    cfg = _cfg(**{"exec.order": "de", "pop.size": 20, "ls.algo": "mtsls",
                  "ls.budget": 0.25, "ls.divide": 10})
    result = run(cfg, obj, seed=6, max_evals=5000, trace_every=25)
    values = [f for _, f in result.trace]
    assert values == sorted(values, reverse=True)
    assert result.module_evals.get("ls", 0) > 0

    # on a flat function every probe fails, so ss halves after every sweep:
    # sweeps 2-4 each start at a restart point, probes 6, 13 and 20, and
    # probe s_1 - ss first
    probes = []

    def flat(X):
        probes.extend(x.copy() for x in X)
        return [1.0] * len(X)

    res = mtsls_run(np.ones(3), 1.0, flat, Bounds.symmetric(4.0, 3), budget=500,
                    params=LsParams(algo="mtsls", mtsls_init_ss=0.5,
                                    mtsls_iterations=4),
                    rng=rng_stream(7))
    ss0 = 0.5 * 8.0
    assert res.fitness == 1.0 and res.evals == len(probes) == 6 + 3 * 7
    steps = [probes[i][0] - probes[i + 1][0] for i in (6, 13, 20)]
    assert steps == pytest.approx([ss0 / 2, ss0 / 4, ss0 / 8])


@_report(7, "covariance stays symmetric and positive definite on Rosenbrock")
def test_criterion_07_covariance_invariants():
    obj = make_instance("rosenbrock", 10)
    rng = rng_stream(70)
    runner = CmaRunner(CmaParams(a=3.0, b=2.0, c=0.5), obj.bounds, rng)
    used = [0]

    def ev(X):   # one FE per row, in order, until the budget is spent
        values = []
        for x in X:
            if used[0] >= 20_000:
                raise BudgetExhausted
            used[0] += 1
            values.append(obj(x))
        return values

    while used[0] < 20_000:
        try:
            runner.generation(ev, rng, fes_used=used[0])
        except BudgetExhausted:
            break
        st = runner.state
        assert np.min(st.eigen_D) > 0
        if not st.diagonal:
            assert np.max(np.abs(st.C - st.C.T)) < 1e-12


def _generations_to_target(instance, seed, target=1e-8, max_fes=100_000):
    rng = rng_stream(seed)
    runner = CmaRunner(CmaParams(a=3.0, b=2.0, c=0.5), instance.bounds, rng)
    used = [0]
    best = [math.inf]

    def ev(X):   # one FE per row, in order, until the budget is spent
        values = []
        for x in X:
            if used[0] >= max_fes:
                raise BudgetExhausted
            used[0] += 1
            value = instance(x)
            best[0] = min(best[0], value)
            values.append(value)
        return values

    generations = 0
    while best[0] >= target:
        try:
            runner.generation(ev, rng, fes_used=used[0])
        except BudgetExhausted:
            break
        generations += 1
    return generations


@_report(8, "rotation changes median generations-to-1e-8 by < 30%")
def test_criterion_08_rotation_invariance():
    plain = make_instance("sphere", 10)
    rotated = make_instance("rotated_sphere", 10, instance_seed=8)
    med_plain = float(np.median([_generations_to_target(plain, s)
                                 for s in range(20)]))
    med_rot = float(np.median([_generations_to_target(rotated, 100 + s)
                               for s in range(20)]))
    assert abs(med_rot - med_plain) / med_plain < 0.30, (med_plain, med_rot)


@_report(9, "bitwise determinism; every out-of-range value is reported")
def test_criterion_09_determinism_and_validation():
    obj = make_instance("shifted_rotated_rastrigin", 6, instance_seed=9)
    for overrides in ({"exec.order": "cmaes"},
                      {"exec.order": "de,pso", "pop.size": 15},
                      {"exec.order": "de", "ls.algo": "mtsls"}):
        cfg = _cfg(**overrides)
        a = run(cfg, obj, seed=123, max_evals=3000)
        b = run(cfg, obj, seed=123, max_evals=3000)
        assert a.best_fitness == b.best_fitness   # bitwise identical
        assert a.evals_used == b.evals_used

    report = validate(default_config({"exec.order": "cmaes", "cmaes.a": "12"}))
    assert any(n == "cmaes.a" for n, _, _ in report.out_of_range)
    report = validate(default_config({"exec.order": "de", "ls.algo": "mtsls",
                                      "ls.budget": "1.5"}))
    assert any(n == "ls.budget" for n, _, _ in report.out_of_range)

    for spec in PARAMETER_SPACE:   # every declared numeric range is enforced
        if spec.kind not in ("integer", "real"):
            continue
        raw = default_config({"exec.order": "de"})
        raw[spec.name] = str(spec.domain[1] + 1)
        report = validate(raw)
        assert any(n == spec.name for n, _, _ in report.out_of_range), spec.name


@_report(10, "target-runner/export/batch protocol conformance")
def test_criterion_10_protocol(capsys, tmp_path):
    from hybridopt.cli import main

    values = default_config({"exec.order": "de", "pop.size": "10"})
    switches = []
    for key, val in values.items():
        switches += [f"--{key}", str(val)]
    code = main(["target-runner", "c1", "sphere:3:0", "7", "--", *switches])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert float(lines[0]) <= 1e10

    # exported space round-trips through the parser for every default
    entries = json.loads(export_parameter_space("json"))
    assert {e["name"] for e in entries} == {s.name for s in PARAMETER_SPACE}
    for overrides in ({}, {"exec.order": "cmaes"}, {"exec.order": "de"},
                      {"exec.order": "de", "ls.algo": "cmaes"}):
        values = default_config(overrides)
        reparsed = parse_parameter_file(format_parameter_file(values))
        assert hasattr(validate(reparsed), "execution")

    plan = [
        {"config_id": "a", "params": default_config({"exec.order": "de",
                                                     "pop.size": "10"}),
         "function": "sphere", "dim": 3, "seeds": [1, 2], "fe_budget": 500},
        {"config_id": "b", "params": default_config({"exec.order": "cmaes"}),
         "function": "shifted_ackley", "dim": 3, "seeds": [3], "fe_budget": 500},
    ]
    serial, err1 = run_batch(plan, parallelism=1)
    parallel, err2 = run_batch(plan, parallelism=4)
    assert not err1 and not err2
    strip = lambda rs: [(r.function, r.dim, r.seed, r.config, r.best_fitness,
                         r.evals) for r in rs]
    assert strip(serial) == strip(parallel)


@_report(0, "auxiliary: probabilistic gate frequency sanity")
def test_probabilistic_gate_frequency():
    cfg = ExecutionConfig(mode="probabilistic", module_order=("pso", "de"),
                          pr=0.5, gate_dist="uniform")
    rng = rng_stream(10)
    n = 100_000
    hits = int(gate_mask(cfg, ExecState(), n, rng).sum())
    sigma = (0.25 / n) ** 0.5
    assert abs(hits / n - 0.5) < 3 * sigma
