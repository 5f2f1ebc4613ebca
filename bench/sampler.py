"""Configuration sampler for the ``racing`` workload.

Draws assignments from ``hybridopt.config.PARAMETER_SPACE`` the way an
irace-style configurator does: parameters are visited in declaration order,
each one is drawn only when its activation condition holds for the values
drawn before it, and a full assignment that ``validate`` rejects is redrawn.
Rejections are counted, because the configurator pays for them too.
"""

from __future__ import annotations

import itertools

import numpy as np

from hybridopt.config import PARAMETER_SPACE, condition_active, validate

MODULES = ("pso", "de", "cmaes")
# Every ordered choice of 1 to 3 distinct modules: the domain of exec.order.
ORDERS = tuple(",".join(p) for k in (1, 2, 3)
               for p in itertools.permutations(MODULES, k))

# The declared domain of the population sizes reaches 10000.  A fully
# connected swarm of that size holds 10^8 adjacency entries and a
# fully-informed update visits every one of them per particle, so a single
# call would take hours.  PSO cost per FE grows with the swarm size, and
# sizes up to 40 let a handful of calls decide a run's median call time;
# the sampler draws sizes within 4..20.
POP_SIZE_KEYS = ("pop.size", "pop.min", "pop.max")
POP_SIZE_RANGE = (4, 20)


def _draw_value(spec, values: dict[str, str], rng: np.random.Generator) -> str:
    if spec.name == "exec.order":
        return ORDERS[int(rng.integers(len(ORDERS)))]
    if spec.name == "exec.phases":
        k = len(values["exec.order"].split(","))
        cuts = np.sort(rng.uniform(size=k - 1))
        widths = np.diff(np.concatenate(([0.0], cuts, [1.0])))
        fractions = [round(float(w), 3) for w in widths[:-1]]
        fractions.append(round(1.0 - sum(fractions), 3))
        return ",".join(repr(f) for f in fractions)
    if spec.kind == "categorical":
        return spec.domain[int(rng.integers(len(spec.domain)))]
    if spec.kind == "boolean":
        return ("true", "false")[int(rng.integers(2))]
    if spec.kind == "integer":
        lo, hi = POP_SIZE_RANGE if spec.name in POP_SIZE_KEYS else spec.domain
        return str(int(rng.integers(lo, hi + 1)))
    if spec.kind == "real":
        lo, hi = spec.domain
        return repr(round(float(rng.uniform(lo, hi)), 4))
    raise ValueError(f"no sampling rule for {spec.name!r} ({spec.kind})")


def draw_assignment(rng: np.random.Generator) -> dict[str, str]:
    """One raw assignment of every parameter active under earlier draws."""
    values: dict[str, str] = {}
    for spec in PARAMETER_SPACE:
        if condition_active(spec, values):
            values[spec.name] = _draw_value(spec, values, rng)
    return values


def crashes_run(raw: dict[str, str]) -> bool:
    """A known defect: ``validate`` accepts ``pso.omega1_min`` above
    ``pso.omega1_max``, and with ``pso.omega1_mode = random`` every ``run()``
    then raises ``ValueError: high - low < 0`` at its first PSO update."""
    return (raw.get("pso.omega1_mode") == "random"
            and float(raw["pso.omega1_min"]) > float(raw["pso.omega1_max"]))


def sample_configs(count: int, rng: np.random.Generator):
    """``count`` assignments that ``validate`` accepts and that run.

    Returns them with the number of raw draws ``validate`` rejected and the
    number it accepted although they crash ``run()`` (see ``crashes_run``).
    Both kinds are redrawn, as a configurator with a forbidden list would.
    """
    accepted: list[dict[str, str]] = []
    rejected = crashing = 0
    while len(accepted) < count:
        raw = draw_assignment(rng)
        if not hasattr(validate(raw), "execution"):
            rejected += 1
        elif crashes_run(raw):
            crashing += 1
        else:
            accepted.append(raw)
    return accepted, rejected, crashing
