import json

import pytest

from hybridopt import default_config
from hybridopt.cli import main
from hybridopt.config import DuplicateKey, format_parameter_file


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


def test_run_command_lets_parameter_file_errors_through(tmp_path):
    params = tmp_path / "dup.params"
    params.write_text("exec.order = de\nexec.order = pso\n")
    for path, error in ((params, DuplicateKey),
                        (tmp_path / "missing.params", FileNotFoundError)):
        with pytest.raises(error):
            main(["run", "--function", "sphere", "--dim", "3", "--seed", "1",
                  "--params", str(path), "--out", str(tmp_path / "x.csv")])


def test_run_command_rejects_bad_instance(tmp_path, capsys):
    params = tmp_path / "algo.params"
    params.write_text(format_parameter_file(default_config({"exec.order": "pso"})))
    for extra in (["--function", "spherez", "--dim", "3"],
                  ["--function", "sphere", "--dim", "0"],
                  ["--function", "shifted_sphere", "--dim", "3",
                   "--shift-file", str(tmp_path / "missing.txt")]):
        code = main(["run", *extra, "--seed", "1", "--params", str(params),
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
