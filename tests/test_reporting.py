import json

import pytest

from hybridopt import default_config
from hybridopt.cli import run_batch
from hybridopt.config import format_parameter_file
from hybridopt.core import rng_stream
from hybridopt.reporting import (EmptyGroup, RunRecord, aggregate, records_to_csv,
                                 records_to_json)


def test_aggregate_hand_case():
    stats = aggregate([1.0, 2.0, 3.0, 4.0, 100.0])
    assert stats.med == 3.0
    assert stats.mad == 1.0     # deviations {2,1,0,1,97} -> median 1


def test_aggregate_single_and_capped():
    single = aggregate([7.5])
    assert single.med == 7.5 and single.mad == 0.0
    capped = aggregate([1e12, 2e12])
    assert capped.med == 1e10
    with pytest.raises(EmptyGroup):
        aggregate([])


def test_aggregate_even_count_averages_centres():
    stats = aggregate([1.0, 2.0, 3.0, 10.0])
    assert stats.med == 2.5


def test_aggregate_reference_error():
    stats = aggregate([5.0, 6.0, 7.0], reference=4.0)
    assert stats.mederr == pytest.approx(2.0)


def test_aggregate_matches_bruteforce_oracle():
    rng = rng_stream(99)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        values = rng.uniform(-50, 50, n).tolist()
        stats = aggregate(values)

        ordered = sorted(values)
        if n % 2:
            med = ordered[n // 2]
        else:
            med = 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
        devs = sorted(abs(v - med) for v in values)
        mad = devs[n // 2] if n % 2 else 0.5 * (devs[n // 2 - 1] + devs[n // 2])
        assert stats.med == pytest.approx(med, abs=1e-12)
        assert stats.mad == pytest.approx(mad, abs=1e-12)


def _plan():
    params = default_config({"exec.order": "de", "pop.size": "10"})
    return [
        {"config_id": "de", "params": params, "function": "sphere", "dim": 3,
         "seeds": [1, 2], "fe_budget": 600},
        {"config_id": "de", "params": params, "function": "shifted_ackley",
         "dim": 3, "seeds": [1], "fe_budget": 600},
    ]


def test_run_batch_records_and_order():
    records, errors = run_batch(_plan(), parallelism=1)
    assert not errors
    assert len(records) == 3
    keys = [(r.function, r.dim, r.config, r.seed) for r in records]
    assert keys == sorted(keys)
    assert all(r.evals == 600 for r in records)
    assert all(r.best_fitness <= 1e10 for r in records)


def test_run_batch_parallel_matches_serial():
    serial, _ = run_batch(_plan(), parallelism=1)
    parallel, _ = run_batch(_plan(), parallelism=4)
    strip = lambda rs: [(r.function, r.dim, r.seed, r.config, r.best_fitness,
                         r.evals) for r in rs]
    assert strip(serial) == strip(parallel)


def test_run_batch_records_failures_and_continues():
    plan = _plan() + [{"config_id": "broken", "params": {"cmaes.a": "99"},
                       "function": "sphere", "dim": 3, "seeds": [1]}]
    records, errors = run_batch(plan, parallelism=1)
    assert len(records) == 3
    assert len(errors) == 1 and "broken" in errors[0]


def test_run_batch_reads_parameter_files_per_entry(tmp_path):
    good, dup = tmp_path / "good.params", tmp_path / "dup.params"
    good.write_text(format_parameter_file(_plan()[0]["params"]))
    dup.write_text("exec.order = de\nexec.order = pso\n")
    plan = [{**_plan()[0], "config_id": cid, "params_file": str(path)}
            for cid, path in (("good", good), ("dup", dup),
                              ("missing", tmp_path / "missing.params"))]
    records, errors = run_batch(plan, parallelism=1)
    inline, _ = run_batch(_plan()[:1], parallelism=1)
    assert [r.best_fitness for r in records] == [r.best_fitness for r in inline]
    assert [e.split(":")[0] for e in errors] == ["dup", "missing"]


def test_run_batch_records_a_bad_budget_as_one_error():
    entries = [{**_plan()[0], "config_id": "neg", "fe_budget": -5},
               {**_plan()[0], "config_id": "clock", "wallclock_ms": 0}]
    records, errors = run_batch(_plan() + entries, parallelism=1)
    assert len(records) == 3
    assert [e.split(":")[0] for e in errors] == ["neg", "clock"]


def test_run_batch_errors_in_plan_order():
    # "slow" fails only after its first seed has run, "fast" fails at once,
    # so under two workers "fast" is the first entry to finish
    params = default_config({"exec.order": "de", "pop.size": "10"})
    plan = [{"config_id": "slow", "params": params, "function": "sphere",
             "dim": 3, "seeds": [1, "not-a-seed"], "fe_budget": 3000},
            {"config_id": "fast", "params": {"cmaes.a": "99"},
             "function": "sphere", "dim": 3, "seeds": [1]}]
    _, serial = run_batch(plan, parallelism=1)
    _, parallel = run_batch(plan, parallelism=2)
    assert [e.split(":")[0] for e in serial] == ["slow", "fast"]
    assert parallel == serial


def test_emission_formats():
    records = [RunRecord("sphere", 2, 1, "c", 0.5, 100, 3.25)]
    csv_text = records_to_csv(records)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "function,dim,seed,config,best_fitness,evals,wall_ms"
    assert lines[1].startswith("sphere,2,1,c,0.5,100,")

    payload = json.loads(records_to_json(records))
    assert payload[0]["function"] == "sphere"
    assert payload[0]["best_fitness"] == 0.5
