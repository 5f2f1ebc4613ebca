"""Workload definitions: which configurations run on which instances.

Everything here is a pure function of the workload seed, so the same seed
always gives the same tasks.  A workload is an endless sequence of *units*;
a unit is a block of tasks that covers every cell of the workload's matrix
once (for ``racing``, one target-runner call per entry of the candidate
pool).  The benchmark always runs a fixed number of units, derived from
``--seconds`` alone, and then starts more units while each is expected to
end before the time is up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hybridopt.config import default_config
from sampler import sample_configs

WORKLOADS = ("swarm-d10", "cmaes-d50", "racing")

# Seconds one unit takes on a 2-core x86-64 machine at the commit that
# defined the benchmark; only used to size the fixed part of a run.
UNIT_SECONDS = {"swarm-d10": 4.1, "cmaes-d50": 2.0, "racing": 36.0}
FIXED_SHARE = 0.6

# swarm-d10: the population modules, where per-FE algorithm overhead is
# 3-20x the objective and the CMA-ES linear algebra does almost nothing.
# Two rastrigin runs per weierstrass run: with 14 equally weighted cells the
# per-run median would fall on the edge between two cells' costs.
SWARM_DIM = 10
SWARM_FES = 2000
SWARM_FUNCTIONS = ("shifted_rotated_rastrigin", "shifted_rotated_rastrigin",
                   "shifted_rotated_weierstrass")
SWARM_CONFIGS = {
    "de-rand1bin": {"exec.order": "de", "pop.size": "50",
                    "de.base_vector": "random", "de.recombination": "binomial"},
    "pso-ring": {"exec.order": "pso", "pso.topology": "ring"},
    "pso-fully-informed": {"exec.order": "pso", "pso.moi": "fully_informed"},
    "de-pso": {"exec.order": "de,pso"},
    "prob-levy": {"exec.mode": "probabilistic", "exec.order": "pso,de",
                  "exec.pr": "0.5", "exec.gate_dist": "levy",
                  "exec.par_std": "1.0"},
    "de-mtsls": {"exec.order": "de", "ls.algo": "mtsls"},
    "pso-nested-cmaes": {"exec.order": "pso", "ls.algo": "cmaes"},
}

# cmaes-d50: IPOP-CMA-ES, full covariance.  Two seeds at d=50 for each seed
# at d=100, so the per-run median sits inside the d=50 runs and the tail
# inside the d=100 runs instead of on the edge between them.
CMAES_FES = 5000
CMAES_CONFIG = {"exec.order": "cmaes", "cmaes.matrix_mode": "full",
                "cmaes.pop_mode": "incremental", "cmaes.restart": "true"}
CMAES_FUNCTIONS = ("shifted_rotated_elliptic", "shifted_rotated_rastrigin")
CMAES_DIMS = (50, 50, 100)

# racing: a race over a fixed pool of candidate configurations, the first
# RACING_POOL configurations the sampler accepts from the constant
# RACING_POOL_SEED; the workload seed draws the instances and the run seeds.
# A unit calls target-runner once per pool entry, entry i on
# RACING_INSTANCES[i % 3]: two entries at d=2 for each at d=5.  Per-FE cost
# differs fourfold between configurations; when each seed drew its own
# configurations, the mix alone spread fe_per_s across ten seeds by about
# 0.12 of its median.  Weierstrass keeps the reported cost off the 1e-10
# floor at both sizes, where rastrigin and ackley at d=2 are solved exactly
# by many configurations.
RACING_POOL = 30
RACING_POOL_SEED = 0
RACING_INSTANCES = (("shifted_rotated_weierstrass", 2),
                    ("shifted_rotated_weierstrass", 2),
                    ("shifted_rotated_weierstrass", 5))


@dataclass(frozen=True)
class Task:
    """One run: an in-process ``run()`` or one ``target-runner`` call."""

    unit: int
    config_id: str
    params: dict
    function: str
    dim: int
    instance_seed: int
    seed: int
    max_evals: int

    @property
    def cell(self) -> tuple[str, str, int]:
        return (self.config_id, self.function, self.dim)

    @property
    def instance(self) -> str:
        return f"{self.function}:{self.dim}:{self.instance_seed}"


def fixed_units(workload: str, seconds: float) -> int:
    """Units every run of this length makes, whatever the machine's speed."""
    return max(1, int(FIXED_SHARE * seconds / UNIT_SECONDS[workload]))


def _seed_stream(seed: int, workload: str) -> np.random.Generator:
    key = WORKLOADS.index(workload)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2 ** 31))


class Plan:
    """The task sequence of one workload and seed, generated on demand."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = _seed_stream(seed, workload)
        self.rejected = 0   # raw draws that validate rejected
        self.crashing = 0   # raw draws validate accepted but run() crashes on
        self.drawn = 0
        self.pool: list[dict] = []
        self._units: list[list[Task]] = []
        if workload == "swarm-d10":
            self.instance_seeds = {(f, SWARM_DIM): _draw_seed(self.rng)
                                   for f in sorted(set(SWARM_FUNCTIONS))}
        elif workload == "cmaes-d50":
            self.instance_seeds = {(f, d): _draw_seed(self.rng)
                                   for d in sorted(set(CMAES_DIMS))
                                   for f in CMAES_FUNCTIONS}
        else:
            self.instance_seeds = {inst: _draw_seed(self.rng)
                                   for inst in sorted(set(RACING_INSTANCES))}
            pool_rng = _seed_stream(RACING_POOL_SEED, workload)
            self.pool, self.rejected, self.crashing = sample_configs(
                RACING_POOL, pool_rng)
            self.drawn = self.rejected + self.crashing + RACING_POOL

    def configs(self) -> dict[str, dict]:
        """The fixed configurations of an in-process workload."""
        if self.workload == "swarm-d10":
            return {k: default_config(v) for k, v in SWARM_CONFIGS.items()}
        if self.workload == "cmaes-d50":
            return {"ipop-cmaes-full": default_config(CMAES_CONFIG)}
        raise ValueError("racing draws its configurations per call")

    def unit(self, k: int) -> list[Task]:
        while len(self._units) <= k:
            self._units.append(self._make_unit(len(self._units)))
        return self._units[k]

    def _make_unit(self, k: int) -> list[Task]:
        rng = self.rng
        tasks = []
        if self.workload == "racing":
            for i, raw in enumerate(self.pool):
                function, dim = RACING_INSTANCES[i % len(RACING_INSTANCES)]
                tasks.append(Task(k, f"c{i}", raw, function, dim,
                                  self.instance_seeds[(function, dim)],
                                  _draw_seed(rng), 5000 * dim))
            return tasks
        if self.workload == "swarm-d10":
            configs = self.configs()
            for function in SWARM_FUNCTIONS:
                for cid, raw in configs.items():
                    tasks.append(Task(k, cid, raw, function, SWARM_DIM,
                                      self.instance_seeds[(function, SWARM_DIM)],
                                      _draw_seed(rng), SWARM_FES))
        else:
            (cid, raw), = self.configs().items()
            for dim in CMAES_DIMS:
                for function in CMAES_FUNCTIONS:
                    tasks.append(Task(k, cid, raw, function, dim,
                                      self.instance_seeds[(function, dim)],
                                      _draw_seed(rng), CMAES_FES))
        return tasks

    def setup_items(self):
        """(configs to validate, instances to build) of the workload."""
        configs = list(self.pool or self.configs().values())
        instances = [(f, d, s) for (f, d), s in self.instance_seeds.items()]
        return configs, instances
