import dataclasses
import hashlib
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridopt import (AlgorithmConfig, ValidationReport, default_config,
                       export_parameter_space, make_instance,
                       parse_parameter_file, run, validate)
from hybridopt.cmaes import CmaParams
from hybridopt.config import (CROSS_RULES, PARAMETER_SPACE, DuplicateKey,
                              condition_active, format_parameter_file)
from hybridopt.core import ParseError
from hybridopt.de import DeParams
from hybridopt.executor import ExecutionConfig, PopulationSettings
from hybridopt.localsearch import LsParams
from hybridopt.pso import PsoParams


def test_parse_parameter_file():
    parsed = parse_parameter_file("exec.mode = multiple_phases\ncmaes.a = 3")
    assert parsed == {"exec.mode": "multiple_phases", "cmaes.a": "3"}
    assert parse_parameter_file("# comment only\n\n") == {}
    assert parse_parameter_file("a.b = 1 # trailing comment") == {"a.b": "1"}
    with pytest.raises(DuplicateKey):
        parse_parameter_file("cmaes.a = 3\ncmaes.a = 4")
    with pytest.raises(ParseError):
        parse_parameter_file("not a key value line")


def test_validate_out_of_range():
    report = validate(default_config({"exec.order": "cmaes", "cmaes.a": "12"}))
    assert isinstance(report, ValidationReport)
    assert any(name == "cmaes.a" for name, _, _ in report.out_of_range)

    report = validate(default_config({"exec.order": "de", "ls.algo": "mtsls",
                                      "ls.budget": "1.5"}))
    assert any(name == "ls.budget" for name, _, _ in report.out_of_range)


def test_validate_missing_dependency():
    raw = default_config({"exec.order": "pso"})
    raw["pso.pert_info"] = "gaussian"
    report = validate(raw)
    assert isinstance(report, ValidationReport)
    assert "pso.pm_mode" in report.missing

    raw["pso.pm_mode"] = "constant"
    report = validate(raw)
    assert "pso.pm" in report.missing
    raw["pso.pm"] = "0.01"
    assert hasattr(validate(raw), "execution")


def test_validate_mode_availability():
    raw = default_config({"exec.order": "pso,de", "exec.mode": "probabilistic",
                          "exec.pr": "0.5", "exec.gate_dist": "uniform"})
    assert hasattr(validate(raw), "execution")

    bad = dict(raw)
    bad["exec.order"] = "cmaes,de"
    report = validate(bad)
    assert isinstance(report, ValidationReport)
    assert any("probabilistic" in reason for _, _, reason in report.conflicting)

    three = validate(default_config({"exec.order": "pso,de,cmaes"}))
    assert isinstance(three, ValidationReport)   # component-based, 3 modules


def test_validate_unknown_key():
    raw = default_config()
    raw["mystery.knob"] = "1"
    report = validate(raw)
    assert isinstance(report, ValidationReport)
    assert any(name == "mystery.knob" for name, _, _ in report.conflicting)


def test_validate_phase_fractions():
    raw = default_config({"exec.order": "cmaes,de",
                          "exec.mode": "multiple_phases",
                          "exec.phases": "0.6,0.3"})
    report = validate(raw)
    assert isinstance(report, ValidationReport)
    raw["exec.phases"] = "0.6,0.4"
    assert hasattr(validate(raw), "execution")


def test_validate_rejects_non_finite_numbers():
    probabilistic = {"exec.order": "pso,de", "exec.mode": "probabilistic",
                     "exec.pr": "0.5", "exec.gate_dist": "uniform"}
    for key, overrides in (("pso.phi1", {"exec.order": "pso"}),
                           ("exec.pr", probabilistic)):
        for text in ("nan", "inf", "-inf"):
            raw = default_config(overrides)
            raw[key] = text
            report = validate(raw)
            assert isinstance(report, ValidationReport), (key, text)
            assert any(name == key for name, _, _ in report.out_of_range), (key, text)

    for phases in ("nan,nan", "0.5,nan", "inf,-inf"):
        raw = default_config({"exec.order": "cmaes,de",
                              "exec.mode": "multiple_phases",
                              "exec.phases": phases})
        report = validate(raw)
        assert isinstance(report, ValidationReport), phases
        assert any(a == "exec.phases" for a, _, _ in report.conflicting), phases


def test_validate_random_inertia_needs_ordered_range():
    inverted = {"exec.order": "pso", "pop.size": "8",
                "pso.omega1_min": "0.8", "pso.omega1_max": "0.3"}
    report = validate(default_config({**inverted, "pso.omega1_mode": "random"}))
    assert isinstance(report, ValidationReport)
    assert [(a, b) for a, b, _ in report.conflicting] == \
        [("pso.omega1_min", "pso.omega1_max")]

    # the linear schedules never draw from the range and run when it is inverted
    obj = make_instance("sphere", 3)
    for mode in ("linear_decreasing", "linear_increasing"):
        cfg = validate(default_config({**inverted, "pso.omega1_mode": mode}))
        assert hasattr(cfg, "execution"), mode
        assert run(cfg, obj, seed=1, max_evals=200).evals_used == 200


def test_validate_growth_needs_de_only():
    raw = default_config({"exec.order": "pso", "pop.mode": "incremental",
                          "pop.min": "10", "pop.max": "20",
                          "pop.interval": "5"})
    report = validate(raw)
    assert isinstance(report, ValidationReport)


# For each cross-parameter rule, an assignment that breaks that rule alone.
_BREAKS_ONE_RULE = {
    "probabilistic execution is available only for pso and de":
        {"exec.order": "pso,cmaes", "exec.mode": "probabilistic",
         "exec.pr": "0.5", "exec.gate_dist": "uniform"},
    "component-based composition is available only for pso and de":
        {"exec.order": "de,cmaes"},
    "phase fractions must match the module order and sum to 1":
        {"exec.order": "cmaes,de", "exec.mode": "multiple_phases",
         "exec.phases": "0.6,0.3"},
    "population growth schedules apply to de only":
        {"exec.order": "pso", "pop.mode": "incremental", "pop.min": "10",
         "pop.max": "20", "pop.interval": "5"},
    "pop.min must not exceed pop.max":
        {"exec.order": "de", "pop.mode": "time_varying", "pop.min": "30",
         "pop.max": "20", "pop.interval": "5"},
    "informed models of influence require the rectangular DNPP":
        {"exec.order": "pso", "pso.moi": "ranked_fully_informed",
         "pso.dnpp": "gaussian"},
    "random inertia needs pso.omega1_min <= pso.omega1_max":
        {"exec.order": "pso", "pso.omega1_mode": "random",
         "pso.omega1_min": "0.8", "pso.omega1_max": "0.3"},
}


@pytest.mark.parametrize("rule", CROSS_RULES, ids=lambda rule: rule[2].split()[0])
def test_each_cross_rule_alone(rule):
    report = validate(default_config(_BREAKS_ONE_RULE[rule[2]]))
    assert isinstance(report, ValidationReport)
    assert report.conflicting == [rule[:3]]
    assert not (report.missing or report.out_of_range), report.describe()


def test_cross_rules_report_in_table_order():
    # pop.mode sorts after pop.min but comes first in the table
    report = validate(default_config({
        "exec.order": "pso", "pop.mode": "incremental", "pop.min": "30",
        "pop.max": "20", "pop.interval": "5"}))
    assert [(a, b) for a, b, _ in report.conflicting] == \
        [("pop.mode", "exec.order"), ("pop.min", "pop.max")]


def test_every_numeric_parameter_reports_out_of_range():
    for spec in PARAMETER_SPACE:
        if spec.kind not in ("integer", "real"):
            continue
        raw = default_config({"exec.order": "de"})
        raw[spec.name] = str(spec.domain[1] + 1)
        report = validate(raw)
        assert isinstance(report, ValidationReport), spec.name
        assert any(name == spec.name for name, _, _ in report.out_of_range), spec.name


def test_every_categorical_parameter_rejects_garbage():
    for spec in PARAMETER_SPACE:
        if spec.kind != "categorical":
            continue
        raw = default_config({"exec.order": "de"})
        raw[spec.name] = "definitely_not_an_option"
        report = validate(raw)
        assert isinstance(report, ValidationReport), spec.name
        assert any(name == spec.name for name, _, _ in report.out_of_range), spec.name


@pytest.mark.parametrize("overrides", [
    {},
    {"exec.order": "de"},
    {"exec.order": "cmaes"},
    {"exec.order": "de,pso"},
    {"exec.order": "pso,de", "exec.mode": "probabilistic", "exec.pr": "0.4",
     "exec.gate_dist": "levy", "exec.par_std": "1.0"},
    {"exec.order": "cmaes,de", "exec.mode": "multiple_phases",
     "exec.phases": "0.7,0.3"},
    {"exec.order": "de", "ls.algo": "mtsls"},
    {"exec.order": "pso", "ls.algo": "cmaes"},
    {"exec.order": "de", "pop.mode": "incremental", "pop.min": "10",
     "pop.max": "40", "pop.interval": "5"},
])
def test_default_round_trip(overrides):
    values = default_config(overrides)
    text = format_parameter_file(values)
    reparsed = parse_parameter_file(text)
    assert reparsed == values
    cfg = validate(reparsed)
    assert hasattr(cfg, "execution"), getattr(cfg, "describe", lambda: "")()


def test_export_json_space():
    entries = json.loads(export_parameter_space("json"))
    by_name = {e["name"]: e for e in entries}
    assert by_name["cmaes.a"]["kind"] == "real"
    assert by_name["cmaes.a"]["domain"] == "[1.0, 10.0]"
    assert by_name["ls.mtsls_iterations"]["kind"] == "integer"
    assert by_name["ls.mtsls_iterations"]["domain"] == "[1, 3]"
    assert "exec.mode == probabilistic" in by_name["exec.pr"]["condition"]
    assert "hybrid.parts" not in by_name   # instance keys are not exported


def test_export_racing_tool_space():
    text = export_parameter_space("racing_tool")
    lines = [l for l in text.splitlines() if l.strip()]
    assert len(lines) == len(PARAMETER_SPACE)
    assert any(l.startswith("cmaes.a") and '"--cmaes.a "' in l for l in lines)
    assert any("| exec.mode == probabilistic" in l for l in lines)


def test_exported_defaults_are_in_domain():
    for spec in PARAMETER_SPACE:
        if spec.default is None or spec.kind == "string":
            continue
        from hybridopt.config import _parse_value
        _parse_value(spec, spec.default)   # raises if outside its own domain


def test_typed_defaults_equal_the_declared_defaults():
    """A default lives in a typed dataclass and in its spec; a change to one
    fails here until the other follows.  The nested CMA-ES declares its own
    c and pop_mode on purpose."""
    from hybridopt.config import _parse_order, _parse_value
    classes = {"exec": ExecutionConfig, "pop": PopulationSettings, "pso": PsoParams,
               "de": DeParams, "cmaes": CmaParams, "ls": LsParams, "ls.cmaes": CmaParams}
    differ = {"ls.cmaes.c", "ls.cmaes.pop_mode"}
    checked = set()
    for spec in PARAMETER_SPACE:
        if spec.default is None:
            continue
        section, key = spec.name.rsplit(".", 1)
        default = {f.name: f.default for f in dataclasses.fields(classes[section])}[
            spec.field or key]
        declared = _parse_order(spec.default) if spec.name == "exec.order" \
            else _parse_value(spec, spec.default)
        assert (default != declared) == (spec.name in differ), spec.name
        checked.add(section)
    assert checked == set(classes)


# An irace-style draw (López-Ibáñez et al. 2016): parameters in declaration
# order, each only while its condition holds for the values drawn before it.
# A few values are replaced by junk text and a few active ones left out.
_JUNK = st.sampled_from(["", " ", "nan", "-inf", "1e999", "abc", "-1", "0",
                         "1.5", "1,2", "pso,pso", "de,,cmaes", "TRUE", "0x10",
                         "9" * 5000]) | st.text(max_size=6)


def _valid_value(spec, values):
    if spec.name == "exec.order":
        return st.permutations(("pso", "de", "cmaes")).flatmap(
            lambda p: st.integers(1, 3).map(lambda k: ",".join(p[:k])))
    if spec.name == "exec.phases":
        k = len(values["exec.order"].split(","))
        return st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k).map(
            lambda w: ",".join(repr(x / sum(w)) for x in w))
    if spec.kind == "categorical":
        return st.sampled_from(spec.domain)
    if spec.kind == "boolean":
        return st.sampled_from(("true", "false"))
    lo, hi = spec.domain
    if spec.kind == "integer":
        return st.integers(lo, hi).map(str)
    return st.floats(lo, hi, exclude_min=spec.lo_open,
                     exclude_max=spec.hi_open).map(repr)


@st.composite
def _assignments(draw):
    names = [spec.name for spec in PARAMETER_SPACE]
    corrupt = draw(st.sets(st.sampled_from(names), max_size=3))
    omit = draw(st.sets(st.sampled_from(names), max_size=2))
    values: dict[str, str] = {}
    for spec in PARAMETER_SPACE:
        if spec.name in omit or not condition_active(spec, values):
            continue
        values[spec.name] = draw(_JUNK if spec.name in corrupt
                                 else _valid_value(spec, values))
    return values


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_assignments())
def test_validate_is_total(raw):
    cfg = validate(raw)
    assert isinstance(cfg, (AlgorithmConfig, ValidationReport))
    if isinstance(cfg, AlgorithmConfig):
        for d in (2, 5):
            obj = make_instance("shifted_rotated_rastrigin", d, instance_seed=1)
            result = run(cfg, obj, seed=1, max_evals=300)
            assert result.evals_used == 300


# The decisions of validate, pinned: assignments drawn like an irace-style
# configurator, parameters in declaration order and each only while its
# condition holds, then up to two keys replaced by junk, renamed or dropped.
# The hash covers every accept/reject decision, the repr of every typed config
# and the text of every report.
_ORDERS = tuple(",".join(p) for k in (1, 2, 3)
                for p in itertools.permutations(("pso", "de", "cmaes"), k))
_JUNK_TEXT = ("", "nan", "-inf", "1e999", "abc", "-1", "0", "1.5", "1,2",
              "pso,pso", "de,,cmaes", "TRUE", "0x10")
VALIDATE_DECISIONS_SHA256 = (
    "615d9f5779bb546c44f49d4de549b17be34dfedb8c1c801b1c35904c5c8fc613")


def _draw_raw(rng):
    names = [spec.name for spec in PARAMETER_SPACE]
    u = dict(zip(names, rng.random(len(names)).tolist()))
    values: dict[str, str] = {}
    for spec in PARAMETER_SPACE:
        if not condition_active(spec, values):
            continue
        pick = u[spec.name]
        if spec.name == "exec.order":
            text = _ORDERS[int(pick * len(_ORDERS))]
        elif spec.name == "exec.phases":
            w = rng.uniform(0.01, 1.0, size=len(values["exec.order"].split(",")))
            text = ",".join(repr(float(x)) for x in w / w.sum())
        elif spec.kind in ("categorical", "boolean"):
            domain = spec.domain or ("true", "false")
            text = domain[int(pick * len(domain))]
        elif spec.kind == "integer":
            lo, hi = spec.domain
            text = str(lo + int(pick * (hi - lo + 1)))
        else:
            lo, hi = spec.domain
            text = repr(lo + pick * (hi - lo))
        values[spec.name] = text
    for key in rng.choice(sorted(values), size=rng.integers(3), replace=False):
        action, text = rng.integers(3), values.pop(key)
        if action == 0:
            values[key] = _JUNK_TEXT[rng.integers(len(_JUNK_TEXT))]
        elif action == 1:
            values[key + "_x"] = text
    return values


def test_validate_decisions_are_pinned():
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    accepted = 0
    for _ in range(4000):
        cfg = validate(_draw_raw(rng))
        accepted += isinstance(cfg, AlgorithmConfig)
        text = repr(cfg) if isinstance(cfg, AlgorithmConfig) else cfg.describe()
        digest.update(f"{type(cfg).__name__}\n{text}\n".encode())
    assert accepted > 0
    assert digest.hexdigest() == VALIDATE_DECISIONS_SHA256


@pytest.mark.parametrize("key, base", [("cmaes.c", {"exec.order": "cmaes"}),
                                       ("ls.cmaes.c", {"exec.order": "de",
                                                       "ls.algo": "cmaes"})])
@pytest.mark.parametrize("c", ["5e-324", "1e-100", "1e-20"])
def test_tiny_sigma0_fraction_runs(key, base, c):
    # validate accepts any c in (0, 1); sigma0 is floored, so a tiny c runs
    # like c = 1e-12 instead of overflowing in the step-size update
    cfg = validate(default_config({**base, key: c}))
    assert isinstance(cfg, AlgorithmConfig)
    for d in (2, 5):
        obj = make_instance("shifted_rotated_rastrigin", d, instance_seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(cfg, obj, seed=1, max_evals=1000)
        assert result.evals_used == 1000
