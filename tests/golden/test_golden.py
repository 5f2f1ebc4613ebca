"""Pinned results: small runs and the exported parameter space, in both
formats, must match the values stored next to this file exactly.

Each fingerprint is one run at d=5 with 2 000 FEs on a fixed instance and
seed: the best fitness as ``float.hex``, a sha256 over the bytes of the best
position, the FEs used, the FEs per module and a sha256 over the trace taken
every 100 FEs.  A change that alters any of them changes what a configured
run computes.  The fingerprints named after a
config alone run on ``shifted_rotated_rastrigin``; ``<config>@<function>``
runs the config on one of ``OTHER_FUNCTIONS``.

A change that moves some of them on purpose re-records just those, keeping
the others, the file's name order and its format, and prints per name which
fields moved (with the old and new best fitness)::

    PYTHONPATH=src python tests/golden/test_golden.py --record NAME [NAME ...]
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import pytest

from hybridopt import default_config, export_parameter_space, make_instance, run, validate

HERE = Path(__file__).parent
FUNCTION = "shifted_rotated_rastrigin"
DIM = 5
INSTANCE_SEED = 1
SEED = 7
MAX_EVALS = 2000
TRACE_EVERY = 100

CONFIGS = {
    "de-rand1bin": {"exec.order": "de", "pop.size": "20",
                    "de.base_vector": "random", "de.recombination": "binomial"},
    "de-exp-eigen": {"exec.order": "de", "pop.size": "20",
                     "de.recombination": "exponential",
                     "de.vector_basis": "eigenvector"},
    "de-incremental": {"exec.order": "de", "pop.mode": "incremental",
                       "pop.min": "8", "pop.max": "30", "pop.interval": "5"},
    "pso-ring": {"exec.order": "pso", "pop.size": "20", "pso.topology": "ring"},
    "pso-fully-informed": {"exec.order": "pso", "pop.size": "20",
                           "pso.moi": "fully_informed"},
    "pso-vonneumann-spherical": {"exec.order": "pso", "pop.size": "20",
                                 "pso.topology": "von_neumann",
                                 "pso.dnpp": "spherical"},
    "de-pso": {"exec.order": "de,pso", "pop.size": "20"},
    "prob-levy": {"exec.mode": "probabilistic", "exec.order": "pso,de",
                  "pop.size": "20", "exec.pr": "0.5", "exec.gate_dist": "levy",
                  "exec.par_std": "1.0"},
    "phases-pso-de-cmaes": {"exec.mode": "multiple_phases",
                            "exec.order": "pso,de,cmaes", "pop.size": "20",
                            "exec.phases": "0.3,0.3,0.4"},
    "cmaes-full": {"exec.order": "cmaes", "cmaes.matrix_mode": "full"},
    "cmaes-full-then-diagonal": {"exec.order": "cmaes",
                                 "cmaes.matrix_mode": "full_then_diagonal"},
    "de-mtsls": {"exec.order": "de", "pop.size": "20", "ls.algo": "mtsls"},
    # several sweeps per LS run: the converged-sweep restart toward the best
    "de-mtsls-3sweeps": {"exec.order": "de", "pop.size": "20", "ls.algo": "mtsls",
                         "ls.mtsls_iterations": "3", "ls.mtsls_bias": "-0.5"},
    "pso-nested-cmaes": {"exec.order": "pso", "pop.size": "20", "ls.algo": "cmaes"},
    "pso-reinit-change": {"exec.order": "pso", "pop.size": "20",
                          "exec.reinit": "change"},
    "de-reinit-similarity": {"exec.order": "de", "pop.size": "6",
                             "de.base_vector": "best",
                             "exec.reinit": "similarity"},
    # per-member paths: velocity recomputation after a DE success, donor
    # vectors, perturbations, informant models and population resizing
    "de-pso-goback-only-on-fail": {"exec.order": "de,pso", "pop.size": "20",
                                   "de.recompute_velocity": "goBack",
                                   "de.pso_only_on_fail": "true"},
    "de-pso-random-mixture": {"exec.order": "de,pso", "pop.size": "20",
                              "de.recompute_velocity": "random",
                              "de.vectors": "mixture"},
    "de-pso-position-target-to-best": {"exec.order": "de,pso", "pop.size": "20",
                                       "de.recompute_velocity": "position",
                                       "de.base_vector": "target_to_best"},
    # ranked informants of uneven counts on the rows DE did not move
    "de-pso-ranked-random-edge-only-on-fail": {"exec.order": "de,pso",
                                               "pop.size": "20",
                                               "pso.moi": "ranked_fully_informed",
                                               "pso.topology": "random_edge",
                                               "de.pso_only_on_fail": "true"},
    "pso-stagnation-success-rate": {"exec.order": "pso", "pop.size": "20",
                                    "pso.stagnation_detection": "true",
                                    "pso.pert_info": "gaussian",
                                    "pso.pert_rand": "noisy",
                                    "pso.pm_mode": "success_rate",
                                    "pso.pm": "0.05"},
    "pso-eigen-ranked-time-varying": {"exec.order": "pso", "pop.size": "20",
                                      "pso.vector_basis": "eigenvector",
                                      "pso.moi": "ranked_fully_informed",
                                      "pso.topology": "time_varying"},
    "pso-random-edge-levy": {"exec.order": "pso", "pop.size": "20",
                             "pso.topology": "random_edge",
                             "pso.ignore_pbest": "true",
                             "pso.dnpp": "gaussian", "pso.pert_info": "levy",
                             "pso.pm_mode": "objfunc_distance"},
    "phases-de-pso-reinit-similarity": {"exec.mode": "multiple_phases",
                                        "exec.order": "de,pso",
                                        "exec.phases": "0.5,0.5",
                                        "pop.size": "8",
                                        "exec.reinit": "similarity"},
    "de-time-varying-eigen-directed": {"exec.order": "de",
                                       "pop.mode": "time_varying",
                                       "pop.min": "8", "pop.max": "30",
                                       "pop.interval": "3",
                                       "de.vector_basis": "eigenvector",
                                       "de.base_vector": "directed_best"},
    # CMA-ES lifecycle: diagonal mode, the other weight schemes, restarts at
    # constant and growing lambda, CMA-ES as the first phase, nested diagonal LS
    "cmaes-diagonal": {"exec.order": "cmaes", "cmaes.matrix_mode": "diagonal"},
    "cmaes-linear-no-restart": {"exec.order": "cmaes",
                                "cmaes.weights": "linear_decreasing",
                                "cmaes.restart": "false"},
    "cmaes-equal-constant-restart": {"exec.order": "cmaes", "cmaes.weights": "equal",
                                     "cmaes.pop_mode": "constant",
                                     "cmaes.c": "0.05", "cmaes.b": "5.0",
                                     "cmaes.e": "-6", "cmaes.f": "-6",
                                     "cmaes.g": "-6"},
    "cmaes-incremental-restart": {"exec.order": "cmaes", "cmaes.c": "0.05",
                                  "cmaes.d": "3.5", "cmaes.e": "-6",
                                  "cmaes.f": "-6", "cmaes.g": "-6"},
    "phases-cmaes-pso": {"exec.mode": "multiple_phases", "exec.order": "cmaes,pso",
                         "exec.phases": "0.6,0.4", "pop.size": "10"},
    "de-nested-cmaes-diagonal": {"exec.order": "de", "pop.size": "10",
                                 "ls.algo": "cmaes",
                                 "ls.cmaes.matrix_mode": "diagonal",
                                 "ls.cmaes.pop_mode": "incremental",
                                 "ls.budget": "0.5", "ls.divide": "60"},
    # informant paths: perturbed informants drawn one row at a time, ranked
    # weights on a lattice, the objective-distance magnitude on a wheel and
    # ranked weights on a graph redrawn every iteration
    "pso-fully-informed-gaussian": {"exec.order": "pso", "pop.size": "20",
                                    "pso.moi": "fully_informed",
                                    "pso.pert_info": "gaussian",
                                    "pso.pm_mode": "constant",
                                    "pso.pm": "0.05"},
    "pso-ranked-vonneumann-uniform": {"exec.order": "pso", "pop.size": "20",
                                      "pso.moi": "ranked_fully_informed",
                                      "pso.topology": "von_neumann",
                                      "pso.pert_info": "uniform",
                                      "pso.pm_mode": "constant",
                                      "pso.pm": "0.05"},
    "pso-fully-informed-wheel-levy": {"exec.order": "pso", "pop.size": "20",
                                      "pso.moi": "fully_informed",
                                      "pso.topology": "wheel",
                                      "pso.pert_info": "levy",
                                      "pso.pm_mode": "objfunc_distance"},
    "pso-ranked-random-edge": {"exec.order": "pso", "pop.size": "20",
                               "pso.moi": "ranked_fully_informed",
                               "pso.topology": "random_edge",
                               "pso.vector_basis": "natural"},
    # unperturbed informant models in the natural basis with uneven informant
    # counts, ranked weights on a shrinking graph, and time-keyed schedules
    # with the personal best ignored and no velocity clamping
    "pso-fully-informed-wheel": {"exec.order": "pso", "pop.size": "20",
                                 "pso.moi": "fully_informed",
                                 "pso.topology": "wheel"},
    "pso-fully-informed-vonneumann": {"exec.order": "pso", "pop.size": "20",
                                      "pso.moi": "fully_informed",
                                      "pso.topology": "von_neumann"},
    "pso-ranked-time-varying": {"exec.order": "pso", "pop.size": "20",
                                "pso.moi": "ranked_fully_informed",
                                "pso.topology": "time_varying"},
    "pso-ignore-pbest-schedules": {"exec.order": "pso", "pop.size": "20",
                                   "pso.ignore_pbest": "true",
                                   "pso.omega1_mode": "linear_decreasing",
                                   "pso.ac_mode": "time_varying",
                                   "pso.velocity_clamping": "false"},
    # the coefficient draws: random and constant omegas beside random
    # acceleration, the increasing inertia, and the random perturbation of
    # each kind, one per row
    "pso-random-coefficients": {"exec.order": "pso", "pop.size": "20",
                                "pso.omega1_mode": "random",
                                "pso.omega2_mode": "random",
                                "pso.omega3_mode": "constant", "pso.omega3": "0.7",
                                "pso.ac_mode": "random",
                                "pso.pert_rand": "rectangular",
                                "pso.pm_mode": "constant", "pso.pm": "0.05"},
    "pso-linear-increasing-omegas": {"exec.order": "pso", "pop.size": "20",
                                     "pso.omega1_mode": "linear_increasing",
                                     "pso.omega2_mode": "constant", "pso.omega2": "0.3",
                                     "pso.omega3_mode": "random",
                                     "pso.pert_rand": "noisy",
                                     "pso.pm_mode": "constant", "pso.pm": "0.05"},
}

# Objectives of other shapes than rastrigin's elementwise sum: a per-row dot
# product (elliptic), a cosine series (weierstrass) and a rotated partition
# of three base functions.  Each runs CMA-ES, PSO, DE, the probabilistic
# PSO/DE gate and PSO with the nested CMA-ES local search.
OTHER_FUNCTIONS = {
    "elliptic": ("shifted_rotated_elliptic", None),
    "weierstrass": ("shifted_rotated_weierstrass", None),
    "hybrid": ("shifted_rotated_hybrid", "elliptic:0-1,ackley:2-3,weierstrass:4-4"),
}
OTHER_CONFIGS = ("cmaes-full", "pso-ring", "de-rand1bin", "prob-levy",
                 "pso-nested-cmaes")
CASES = {name: (name, FUNCTION, None) for name in CONFIGS}
CASES.update({f"{config}@{short}": (config, function, parts)
              for short, (function, parts) in OTHER_FUNCTIONS.items()
              for config in OTHER_CONFIGS})


def fingerprint(name: str) -> dict:
    config, function, parts = CASES[name]
    cfg = validate(default_config(CONFIGS[config]))
    assert hasattr(cfg, "execution"), cfg.describe()
    obj = make_instance(function, DIM, instance_seed=INSTANCE_SEED, parts=parts)
    result = run(cfg, obj, SEED, max_evals=MAX_EVALS, trace_every=TRACE_EVERY)
    trace = "\n".join(f"{fe} {f.hex()}" for fe, f in result.trace)
    return {
        "best_fitness": result.best_fitness.hex(),
        "best_position_sha256": hashlib.sha256(result.best_position.tobytes()).hexdigest(),
        "evals_used": result.evals_used,
        "module_evals": dict(sorted(result.module_evals.items())),
        "trace_sha256": hashlib.sha256(trace.encode()).hexdigest(),
    }


def record(names, path: Path = HERE / "fingerprints.json") -> dict:
    """Rewrite the stored fingerprints of ``names`` and leave every other
    entry and the format as they are; entries stay in name order.  Returns,
    per name, each field that changed as ``field: (old, new)``."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise KeyError(f"unknown fingerprint names: {', '.join(unknown)}")
    stored = json.loads(path.read_text())
    moved = {}
    for name in names:
        old, stored[name] = stored.get(name, {}), fingerprint(name)
        moved[name] = {field: (old.get(field), value)
                       for field, value in stored[name].items() if old.get(field) != value}
    path.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    return moved


def describe_moves(moved: dict) -> str:
    """One line per name: the fields that moved, the best fitness as old → new."""
    lines = []
    for name, fields in moved.items():
        parts = [f"best_fitness {old} → {new}" if field == "best_fitness" else field
                 for field, (old, new) in fields.items()]
        lines.append(f"{name}: {', '.join(parts) or 'unchanged'}")
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fingerprint(name):
    expected = json.loads((HERE / "fingerprints.json").read_text())[name]
    assert fingerprint(name) == expected


def test_record_restores_a_blanked_entry(tmp_path):
    stored = (HERE / "fingerprints.json").read_text()
    copy = tmp_path / "fingerprints.json"
    blanked = json.loads(stored)
    blanked["pso-ring"] = {}
    copy.write_text(json.dumps(blanked, indent=2) + "\n")
    moved = record(["pso-ring"], copy)
    assert copy.read_text() == stored
    expected = json.loads(stored)["pso-ring"]
    assert moved == {"pso-ring": {field: (None, value) for field, value in expected.items()}}
    assert len(moved["pso-ring"]) == 5
    assert record(["pso-ring"], copy) == {"pso-ring": {}}
    assert describe_moves({"pso-ring": {}}) == "pso-ring: unchanged"
    assert describe_moves({"a": {"best_fitness": ("0x1.0p+0", "0x1.8p+0"),
                                 "trace_sha256": ("x", "y")}}) \
        == "a: best_fitness 0x1.0p+0 → 0x1.8p+0, trace_sha256"
    assert copy.read_text() == stored
    with pytest.raises(KeyError, match="no-such-case"):
        record(["pso-ring", "no-such-case"], copy)
    assert copy.read_text() == stored


def test_exported_space():
    lines = export_parameter_space("racing_tool").splitlines()
    expected = (HERE / "space_racing_tool.txt").read_text().splitlines()
    assert lines == expected


def test_exported_json_space():
    """The JSON export is the one that carries each parameter's default."""
    text = export_parameter_space("json")
    assert text == (HERE / "space_json.txt").read_text()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="re-record golden fingerprints")
    parser.add_argument("--record", nargs="+", required=True, metavar="NAME",
                        help=f"fingerprints to re-record, out of {len(CASES)}")
    try:
        print(describe_moves(record(parser.parse_args().record)))
    except KeyError as e:
        sys.exit(e.args[0])
