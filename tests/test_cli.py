import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hybridopt
import hybridopt.cli as cli_mod
from hybridopt import default_config
from hybridopt.cli import main, run_batch
from hybridopt.config import format_parameter_file
from hybridopt.core import RunResult


def _switches(values):
    out = []
    for key, val in values.items():
        out += [f"--{key}", str(val)]
    return out


def test_target_runner_prints_single_cost(capsys):
    values = default_config({"exec.order": "de", "pop.size": "10"})
    code = main(["target-runner", "c7", "sphere:3:0", "42", "--",
                 *_switches(values)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    cost = float(lines[0])
    assert cost <= 1e10


def test_target_runner_deterministic(capsys):
    values = default_config({"exec.order": "de", "pop.size": "10"})
    main(["target-runner", "c7", "sphere:3:0", "42", "--", *_switches(values)])
    first = capsys.readouterr().out
    main(["target-runner", "c7", "sphere:3:0", "42", "--", *_switches(values)])
    second = capsys.readouterr().out
    assert first == second


def test_target_runner_rejects_bad_parameter(capsys):
    values = default_config({"exec.order": "cmaes"})
    values["cmaes.a"] = "12"
    code = main(["target-runner", "c1", "sphere:3", "1", "--",
                 *_switches(values)])
    captured = capsys.readouterr()
    assert code != 0
    assert captured.out == ""
    assert "cmaes.a" in captured.err


def test_export_space_command(capsys):
    assert main(["export-space", "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert any(e["name"] == "exec.mode" for e in entries)


def test_run_command_writes_records(tmp_path, capsys):
    params = tmp_path / "algo.params"
    params.write_text(format_parameter_file(
        default_config({"exec.order": "de", "pop.size": "10"})))
    out = tmp_path / "result.csv"
    code = main(["run", "--function", "shifted_sphere", "--dim", "3",
                 "--seed", "5", "--params", str(params),
                 "--fe-budget", "500", "--out", str(out), "--format", "csv"])
    assert code == 0
    text = out.read_text()
    assert text.startswith("function,dim,seed,config,best_fitness,evals,wall_ms")
    assert "shifted_sphere,3,5," in text


def test_run_command_validation_failure(tmp_path, capsys):
    params = tmp_path / "bad.params"
    values = default_config({"exec.order": "de"})
    values["de.beta"] = "7"
    params.write_text(format_parameter_file(values))
    code = main(["run", "--function", "sphere", "--dim", "3", "--seed", "1",
                 "--params", str(params), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "de.beta" in capsys.readouterr().err


def test_run_command_rejects_a_bad_parameter_file(tmp_path, capsys):
    # both used to end in a traceback with exit code 1
    params = tmp_path / "dup.params"
    params.write_text("exec.order = de\nexec.order = pso\n")
    for path in (params, tmp_path / "missing.params"):
        code = main(["run", "--function", "sphere", "--dim", "3", "--seed", "1",
                     "--params", str(path), "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("bad run invocation: ")
    assert not (tmp_path / "x.csv").exists()


def test_run_command_rejects_bad_instance(tmp_path, capsys):
    values = default_config({"exec.order": "pso"})
    params = tmp_path / "algo.params"
    params.write_text(format_parameter_file(values))
    hybrid_params = tmp_path / "hybrid.params"
    hybrid_params.write_text(format_parameter_file({**values, "hybrid.parts": ","}))
    data = {"short_shift.txt": "1.0 2.0\n",
            "skew_rotation.txt": "1 1 1\n1 1 1\n1 1 1\n",
            "nan_rotation.txt": "nan 0 0\n0 1 0\n0 0 1\n"}
    for name, text in data.items():
        (tmp_path / name).write_text(text)
    for extra, param_file in (
            (["--function", "spherez", "--dim", "3"], params),
            (["--function", "sphere", "--dim", "0"], params),
            (["--function", "shifted_sphere", "--dim", "3",
              "--shift-file", str(tmp_path / "missing.txt")], params),
            (["--function", "shifted_sphere", "--dim", "3",
              "--shift-file", str(tmp_path / "short_shift.txt")], params),
            (["--function", "rotated_sphere", "--dim", "3",
              "--rotation-file", str(tmp_path / "skew_rotation.txt")], params),
            (["--function", "rotated_sphere", "--dim", "3",
              "--rotation-file", str(tmp_path / "nan_rotation.txt")], params),
            (["--function", "hybrid", "--dim", "3"], hybrid_params)):
        code = main(["run", *extra, "--seed", "1", "--params", str(param_file),
                     "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("bad run invocation: ")
    assert not (tmp_path / "x.csv").exists()


def test_batch_command(tmp_path, capsys):
    plan = [{"config_id": "d", "params": default_config(
        {"exec.order": "de", "pop.size": "10"}),
        "function": "sphere", "dim": 2, "seeds": [1, 2], "fe_budget": 400}]
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out = tmp_path / "records.json"
    code = main(["batch", "--plan", str(plan_path), "--parallel", "1",
                 "--out", str(out), "--format", "json"])
    assert code == 0
    records = json.loads(out.read_text())
    assert len(records) == 2


def test_batch_rejects_a_plan_that_is_not_an_array(tmp_path, capsys):
    out = tmp_path / "records.csv"
    for i, text in enumerate(('{"config_id": "d"}', "not json [", "[]", '"[]"')):
        plan_path = tmp_path / f"plan{i}.json"
        plan_path.write_text(text)
        code = main(["batch", "--plan", str(plan_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", text
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith(f"bad batch plan {plan_path}: ")
    assert not out.exists()


def test_batch_records_a_non_object_entry_as_one_error(tmp_path, capsys):
    params = default_config({"exec.order": "de", "pop.size": "10"})
    plan = [{"config_id": "a", "params": params, "function": "sphere", "dim": 2,
             "seeds": [1], "fe_budget": 400},
            "oops",
            {"config_id": "b", "params": params, "function": "sphere", "dim": 3,
             "seeds": [1], "fe_budget": 400}]
    plan_path, out = tmp_path / "plan.json", tmp_path / "records.json"
    plan_path.write_text(json.dumps(plan))
    code = main(["batch", "--plan", str(plan_path), "--out", str(out), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert [r["config"] for r in json.loads(out.read_text())] == ["a", "b"]
    assert captured.err == "batch error: ?: plan entry 'oops' is not a JSON object\n"
    assert run_batch(plan, parallelism=2)[1] == ["?: plan entry 'oops' is not a JSON object"]


@pytest.mark.parametrize("field, value", [
    # each used to be coerced: seeds 1 and 2, d = 2 and 100 FEs
    ("seeds", "12"), ("seeds", [1, True]), ("seeds", [1.0]),
    ("dim", 2.7), ("dim", "2"), ("instance_seed", 1.5), ("instance_seed", False),
    ("fe_budget", 100.9), ("fe_budget", "100"),
    # a 1 ms limit that stopped the run after 70 FEs, and a TypeError
    ("wallclock_ms", True), ("wallclock_ms", "50"),
    # fd 0 read as the parameter file, 20 particles, beta = 1.0, and three
    # AttributeErrors that named no field
    ("params_file", 0), ("params", {"pop.size": 20.9}), ("params", {"de.beta": True}),
    ("params", {"pso.velocity_clamping": True}), ("params", {"exec.order": ["de"]}),
    ("params", ["de"]), ("function", 7),
])
def test_batch_records_a_field_of_the_wrong_type_as_one_error(field, value):
    entry = {"config_id": "e", "params": default_config({"exec.order": "de", "pop.size": "10"}),
             "function": "sphere", "dim": 2, "seeds": [1], "fe_budget": 100, field: value}
    records, errors = run_batch([entry])
    assert records == [] and len(errors) == 1
    assert errors[0].startswith(f"e: {field} must be ")


def test_target_runner_prints_the_capped_cost_of_its_record(monkeypatch, capsys):
    monkeypatch.setattr(cli_mod, "run", lambda cfg, instance, seed: RunResult(
        np.zeros(instance.d), 3.5e12, 10, 1.0))
    switches = _switches(default_config({"exec.order": "de", "pop.size": "10"}))
    assert main(["target-runner", "c1", "sphere:3", "1", "--", *switches]) == 0
    assert capsys.readouterr().out == "1.0000000000e+10\n"


def _bad_invocation(capsys, instance, switches):
    code = main(["target-runner", "c1", instance, "1", "--", *switches])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    return captured.err


def test_target_runner_rejects_repeated_switch(capsys):
    switches = _switches(default_config({"exec.order": "pso", "pop.size": "10"}))
    err = _bad_invocation(capsys, "sphere:3", [*switches, "--pop.size", "12"])
    assert "--pop.size" in err


def test_target_runner_rejects_extra_instance_fields(capsys):
    switches = _switches(default_config({"exec.order": "pso"}))
    assert "sphere:3:0:junk" in _bad_invocation(capsys, "sphere:3:0:junk", switches)


def test_target_runner_rejects_bad_instance(capsys):
    switches = _switches(default_config({"exec.order": "pso"}))
    assert "spherez" in _bad_invocation(capsys, "spherez:3", switches)
    for dim in ("0", "-2"):
        assert "dimension" in _bad_invocation(capsys, f"sphere:{dim}", switches)
    # a pair function has no coordinate pair at d = 1
    assert "dimension" in _bad_invocation(capsys, "rosenbrock:1", switches)
    assert "rotated_shifted_sphere" in _bad_invocation(
        capsys, "rotated_shifted_sphere:3", switches)
    assert "cover" in _bad_invocation(
        capsys, "hybrid:3", [*switches, "--hybrid.parts", " , "])


def test_run_command_rejects_non_positive_budgets(tmp_path, capsys):
    params = tmp_path / "algo.params"
    params.write_text(format_parameter_file(default_config({"exec.order": "de"})))
    base = ["run", "--function", "sphere", "--dim", "3", "--seed", "1",
            "--params", str(params), "--out", str(tmp_path / "x.csv")]
    for flag, value in (("--fe-budget", "-5"), ("--fe-budget", "0"),
                        ("--wallclock-ms", "0"), ("--wallclock-ms", "-1.5"),
                        ("--trace-every", "0"), ("--trace-every", "-10")):
        with pytest.raises(SystemExit) as exit_info:
            main([*base, flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_one_experiment_gives_one_cost(tmp_path, capsys):
    # the same (config, sphere:3:1, seed 5, default budget) through every command
    values = default_config({"exec.order": "de", "pop.size": "10"})
    params = tmp_path / "algo.params"
    params.write_text(format_parameter_file(values))
    out = tmp_path / "run.json"
    assert main(["run", "--function", "sphere", "--dim", "3", "--instance-seed", "1",
                 "--seed", "5", "--params", str(params), "--out", str(out),
                 "--format", "json"]) == 0
    [from_run] = json.loads(out.read_text())
    capsys.readouterr()
    assert main(["target-runner", "c1", "sphere:3:1", "5", "--",
                 *_switches(values)]) == 0
    line = capsys.readouterr().out
    [record], errors = run_batch([{"config_id": "c1", "params": values,
                                   "function": "sphere", "dim": 3,
                                   "instance_seed": 1, "seeds": [5]}])
    assert not errors
    assert from_run["best_fitness"] == record.best_fitness
    assert from_run["evals"] == record.evals == 5000 * 3
    assert line == f"{record.best_fitness:.10e}\n"


def test_target_runner_as_a_module_prints_only_its_cost():
    # importing the package must not import the cli module, or runpy warns
    # and executes it twice
    src = os.path.dirname(os.path.dirname(os.path.abspath(hybridopt.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    values = default_config({"exec.order": "de", "pop.size": "10"})
    done = subprocess.run(
        [sys.executable, "-m", "hybridopt.cli", "target-runner", "c1", "sphere:3:0",
         "1", "--", *_switches(values)],
        capture_output=True, text=True, env=env, check=True)
    assert done.stderr == ""
    assert len(done.stdout.splitlines()) == 1
    float(done.stdout)


def test_instance_errors_come_before_configuration_errors(tmp_path, capsys):
    bad = default_config({"exec.order": "de"})
    bad["de.beta"] = "7"
    params = tmp_path / "bad.params"
    params.write_text(format_parameter_file(bad))

    code = main(["run", "--function", "spherez", "--dim", "3", "--seed", "1",
                 "--params", str(params), "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("bad run invocation: ") and "spherez" in err

    err = _bad_invocation(capsys, "spherez:3", _switches(bad))
    assert err.startswith("bad target-runner invocation: ") and "spherez" in err

    entry = {"params": bad, "function": "sphere", "dim": 3, "seeds": [1]}
    _, errors = run_batch([{**entry, "config_id": "both", "function": "spherez"},
                           {**entry, "config_id": "config"}])
    assert "spherez" in errors[0] and "de.beta" not in errors[0]
    assert errors[1].startswith("config: ") and "de.beta" in errors[1]
    assert "invalid configuration" not in errors[1]
