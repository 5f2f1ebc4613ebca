"""The racing sampler emits only configurations that validate, and emits
the same ones for the same seed; the racing pool is the same for every
workload seed."""

import numpy as np

from hybridopt.config import PARAMETER_SPACE, condition_active, validate
from sampler import crashes_run, draw_assignment, sample_configs
from workloads import RACING_POOL, Plan


def test_emitted_configs_validate():
    for seed in range(5):
        configs, rejected, _ = sample_configs(20, np.random.default_rng(seed))
        assert len(configs) == 20
        assert rejected > 0  # conflicting draws exist and are counted
        for raw in configs:
            assert hasattr(validate(raw), "execution"), validate(raw).describe()
            assert not crashes_run(raw)


def test_draws_respect_conditions():
    rng = np.random.default_rng(11)
    for _ in range(50):
        raw = draw_assignment(rng)
        for spec in PARAMETER_SPACE:
            assert (spec.name in raw) == condition_active(spec, raw), spec.name


def test_sampling_is_deterministic():
    a = sample_configs(10, np.random.default_rng(3))
    b = sample_configs(10, np.random.default_rng(3))
    assert a == b



def test_racing_pool_is_fixed_and_reaches_the_branches():
    a, b = Plan("racing", 1), Plan("racing", 2)
    assert a.pool == b.pool and len(a.pool) == RACING_POOL
    assert [t.params for t in a.unit(0)] == a.pool
    assert [t.seed for t in a.unit(0)] != [t.seed for t in b.unit(0)]
    reached = {
        "eigenvector basis": any("eigenvector" in (c.get("pso.vector_basis"),
                                                   c.get("de.vector_basis"))
                                 for c in a.pool),
        "exponential recombination": any(c.get("de.recombination") == "exponential"
                                         for c in a.pool),
        "time-varying topology": any(c.get("pso.topology") == "time_varying"
                                     for c in a.pool),
        "re-initialisation": any(c["exec.reinit"] != "none" for c in a.pool),
        "growth schedule": any(c.get("pop.mode") in ("incremental", "time_varying")
                               for c in a.pool),
        "multiple phases": any(c["exec.mode"] == "multiple_phases" for c in a.pool),
    }
    assert all(reached.values()), reached
