"""The benchmark tracer in ``bench/tracing.py`` patches hybridopt functions by
name.  A traced run must equal the untraced run bit for bit and see each FE
as one objective span, so renaming a traced function fails here."""

import importlib.util
from pathlib import Path

import pytest

import hybridopt
from hybridopt import default_config, make_instance, validate

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("overrides", [
    {"exec.order": "de,pso", "pop.size": "10"},
    {"exec.order": "de", "pop.size": "6", "exec.reinit": "similarity",
     "de.base_vector": "best"},
    {"exec.mode": "probabilistic", "exec.order": "pso,de", "pop.size": "10",
     "exec.pr": "0.5", "exec.gate_dist": "levy", "exec.par_std": "1.0",
     "de.recompute_velocity": "random"},
    {"exec.order": "pso", "pop.size": "8", "pso.stagnation_detection": "true",
     "pso.pm_mode": "success_rate", "pso.pm": "0.05", "pso.pert_info": "uniform",
     "pso.pert_rand": "noisy", "pso.moi": "fully_informed",
     "pso.vector_basis": "eigenvector"},
])
def test_traced_run_equals_untraced_run(overrides, monkeypatch):
    reinit_sizes = []
    pick = hybridopt.executor.reinit_indices

    def counted_pick(*args):
        idx = pick(*args)
        reinit_sizes.append(len(idx))
        return idx

    monkeypatch.setattr(hybridopt.executor, "reinit_indices", counted_pick)
    cfg = validate(default_config(overrides))
    obj = make_instance("shifted_rotated_rastrigin", 4, instance_seed=2)
    plain = hybridopt.run(cfg, obj, seed=5, max_evals=1500, trace_every=10)
    plain_reinit = sum(reinit_sizes)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = hybridopt.run(cfg, tracing.TracedObjective(obj, tracer), seed=5,
                               max_evals=1500, trace_every=10)
    finally:
        tracer.uninstall()
    assert hybridopt.executor.evaluate is hybridopt.core.evaluate   # restored
    assert traced.best_fitness.hex() == plain.best_fitness.hex()
    assert traced.best_position.tobytes() == plain.best_position.tobytes()
    assert traced.module_evals == plain.module_evals
    assert traced.trace == plain.trace
    spans = tracer.arrays()["name"]
    calls = {name: int((spans == nid).sum()) for nid, name in enumerate(tracer.names)}
    assert calls[tracing.OBJECTIVE] == traced.evals_used == 1500
    assert calls["executor.run"] == 1
    for module, attr, _ in tracing._FUNCTIONS:   # every wrapped name still resolves
        assert callable(getattr(module, attr)), attr
    if "de" in overrides["exec.order"]:
        assert calls["de.select_base_and_donors"] > 0
    else:   # the PSO step calls the wrapped row-block functions by name
        assert calls["pso.stagnation_check"] == calls["pso.perturbation_magnitude"] > 0
        assert calls["de.population_eigenbasis"] == calls["pso.stagnation_check"]
    if "exec.reinit" in overrides:   # members were re-initialized, as untraced
        assert calls["executor.apply_reinitialization"] > 0
        assert sum(reinit_sizes) == 2 * plain_reinit > 0
