"""Flat parameter files, the declared parameter space, validation into typed
configs, and the space export consumed by external configuration tools.

Every parameter is a ``section.name`` key; conditions are in CNF (a
conjunction of disjunctions over simple clauses) so they both evaluate
cheaply and print cleanly in the exported space.  Rules between two
parameters, such as a mode that needs certain modules or a minimum that must
not exceed its maximum, are the rows of ``CROSS_RULES``; ``validate`` checks
them, and the exported space does not carry them yet.

A parameter's default is declared once, on the field of the typed dataclass
its section builds; its spec reads it from there as parameter-file text.
Only a spec with no default, or with one of its own, sets ``default``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .cmaes import CmaParams
from .core import ParseError
from .de import DeParams
from .executor import (AlgorithmConfig, ExecutionConfig, PopulationSettings)
from .localsearch import LsParams
from .pso import PsoParams


class DuplicateKey(ParseError):
    pass


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

# clause ops: ==, !=, in, contains (token membership in a comma list)
Clause = tuple[str, str, tuple[str, ...]]


@dataclass(frozen=True)
class ParameterSpec:
    name: str
    kind: str                      # categorical | integer | real | boolean | string
    domain: tuple = ()             # (lo, hi) for numerics, value tuple for categoricals
    condition: tuple[tuple[Clause, ...], ...] = ()   # CNF: AND of OR-groups
    default: str | None = None
    lo_open: bool = False
    hi_open: bool = False
    field: str | None = None       # typed-config field, when not the last key segment

    def domain_str(self) -> str:
        if self.kind in ("integer", "real"):
            lo = "(" if self.lo_open else "["
            hi = ")" if self.hi_open else "]"
            return f"{lo}{self.domain[0]}, {self.domain[1]}{hi}"
        if self.kind == "categorical":
            return "(" + ", ".join(self.domain) + ")"
        if self.kind == "boolean":
            return "(true, false)"
        return "(text)"

    def condition_str(self) -> str:
        groups = []
        for group in self.condition:
            parts = [f"{p} {op} {','.join(vals)}" for p, op, vals in group]
            groups.append(" || ".join(parts))
        return " && ".join(groups)


def _clause_holds(clause: Clause, values: dict[str, str]) -> bool:
    param, op, wanted = clause
    actual = values.get(param)
    if actual is None:
        return False
    if op == "==":
        return actual == wanted[0]
    if op == "!=":
        return actual != wanted[0]
    if op == "in":
        return actual in wanted
    if op == "contains":
        tokens = [t.strip() for t in actual.split(",")]
        return any(w in tokens for w in wanted)
    raise ValueError(f"unknown condition op {op!r}")


def condition_active(spec: ParameterSpec, values: dict[str, str]) -> bool:
    return all(any(_clause_holds(c, values) for c in group)
               for group in spec.condition)


# the field defaults of the typed dataclass each key section builds
_FIELD_DEFAULTS = {
    section: {f.name: f.default for f in fields(cls)}
    for section, cls in (("exec", ExecutionConfig), ("pop", PopulationSettings),
                         ("pso", PsoParams), ("de", DeParams), ("cmaes", CmaParams),
                         ("ls", LsParams), ("ls.cmaes", CmaParams))}
_FROM_FIELD = object()


def _spec(name, kind, domain, cond, default=_FROM_FIELD, field=None,
          **open_ends):
    """A spec whose default, unless given (None: no default), is its typed
    field's default written as parameter-file text."""
    if default is _FROM_FIELD:
        section, key = name.rsplit(".", 1)
        value = _FIELD_DEFAULTS[section][field or key]
        default = str(value).lower() if isinstance(value, bool) \
            else ",".join(value) if isinstance(value, tuple) else str(value)
    return ParameterSpec(name, kind, domain, cond, default, field=field,
                         **open_ends)


def _cat(name, values, cond=(), **kw):
    return _spec(name, "categorical", tuple(values), cond, **kw)


def _real(name, lo, hi, cond=(), **kw):
    return _spec(name, "real", (lo, hi), cond, **kw)


def _int(name, lo, hi, cond=(), **kw):
    return _spec(name, "integer", (lo, hi), cond, **kw)


def _bool(name, cond=()):
    return _spec(name, "boolean", (), cond)


_HAS_PSO = ((("exec.order", "contains", ("pso",)),),)
_HAS_DE = ((("exec.order", "contains", ("de",)),),)
_HAS_CMAES = ((("exec.order", "contains", ("cmaes",)),),)
_HAS_SWARM = ((("exec.order", "contains", ("pso", "de")),),)
_LS_ON = ((("ls.algo", "!=", ("none",)),),)
_LS_MTSLS = ((("ls.algo", "==", ("mtsls",)),),)
_LS_CMAES = ((("ls.algo", "==", ("cmaes",)),),)


def _with(base, *extra):
    return tuple(base) + tuple(extra)


PARAMETER_SPACE: tuple[ParameterSpec, ...] = (
    _cat("exec.mode", ("component_based", "probabilistic", "multiple_phases")),
    _spec("exec.order", "string", (), (), field="module_order"),
    _real("exec.pr", 0.0, 1.0, ((("exec.mode", "==", ("probabilistic",)),),),
          default=None),
    _cat("exec.gate_dist", ("uniform", "normal", "levy"),
         ((("exec.mode", "==", ("probabilistic",)),),), default=None),
    _real("exec.par_std", 0.0, 10.0,
          ((("exec.gate_dist", "in", ("normal", "levy")),),), default=None,
          lo_open=True),
    _spec("exec.phases", "string", (),
          ((("exec.mode", "==", ("multiple_phases",)),),), default=None,
          field="phase_fractions"),
    _cat("exec.reinit", ("none", "change", "similarity")),

    _int("pop.size", 4, 10000, _HAS_SWARM),
    _cat("pop.mode", ("constant", "incremental", "time_varying"), _HAS_SWARM),
    _int("pop.min", 4, 10000,
         _with(_HAS_SWARM, (("pop.mode", "!=", ("constant",)),)),
         default=None, field="min_size"),
    _int("pop.max", 4, 10000,
         _with(_HAS_SWARM, (("pop.mode", "!=", ("constant",)),)),
         default=None, field="max_size"),
    _int("pop.interval", 1, 10000,
         _with(_HAS_SWARM, (("pop.mode", "!=", ("constant",)),)), default=None),

    _cat("pso.omega1_mode",
         ("constant", "linear_decreasing", "linear_increasing", "random"),
         _HAS_PSO),
    _real("pso.omega1", 0.0, 1.0,
          _with(_HAS_PSO, (("pso.omega1_mode", "==", ("constant",)),))),
    _real("pso.omega1_min", 0.0, 1.0,
          _with(_HAS_PSO, (("pso.omega1_mode", "!=", ("constant",)),))),
    _real("pso.omega1_max", 0.0, 1.0,
          _with(_HAS_PSO, (("pso.omega1_mode", "!=", ("constant",)),))),
    _cat("pso.omega2_mode", ("equal_to_omega1", "constant", "random"), _HAS_PSO),
    _real("pso.omega2", 0.0, 1.0,
          _with(_HAS_PSO, (("pso.omega2_mode", "==", ("constant",)),)),
          default=None),
    _cat("pso.omega3_mode", ("equal_to_omega1", "constant", "random"), _HAS_PSO),
    _real("pso.omega3", 0.0, 1.0,
          _with(_HAS_PSO, (("pso.omega3_mode", "==", ("constant",)),)),
          default=None),
    _cat("pso.ac_mode", ("constant", "random", "time_varying"), _HAS_PSO),
    _real("pso.phi1", 0.0, 4.0, _HAS_PSO, lo_open=True),
    _real("pso.phi2", 0.0, 4.0, _HAS_PSO, lo_open=True),
    _real("pso.phi1_min", 0.0, 4.0,
          _with(_HAS_PSO, (("pso.ac_mode", "==", ("time_varying",)),)),
          lo_open=True),
    _real("pso.phi1_max", 0.0, 4.0,
          _with(_HAS_PSO, (("pso.ac_mode", "==", ("time_varying",)),)),
          lo_open=True),
    _cat("pso.topology", ("fully_connected", "ring", "von_neumann", "wheel",
                          "random_edge", "time_varying"), _HAS_PSO),
    _cat("pso.moi", ("best_of_neighborhood", "fully_informed",
                     "ranked_fully_informed"), _HAS_PSO),
    _cat("pso.dnpp", ("rectangular", "spherical", "standard", "gaussian"),
         _HAS_PSO),
    _cat("pso.pert_info", ("none", "gaussian", "levy", "uniform"), _HAS_PSO),
    _cat("pso.pert_rand", ("none", "rectangular", "noisy"), _HAS_PSO),
    _cat("pso.pm_mode", ("constant", "euclidean_distance", "objfunc_distance",
                         "success_rate"),
         _with(_HAS_PSO, (("pso.pert_info", "!=", ("none",)),
                          ("pso.pert_rand", "!=", ("none",)))), default=None),
    _real("pso.pm", 0.0, 10.0,
          _with(_HAS_PSO, (("pso.pert_info", "!=", ("none",)),
                           ("pso.pert_rand", "!=", ("none",))),
                (("pso.pm_mode", "in", ("constant", "success_rate")),)),
          default=None, lo_open=True),
    _bool("pso.velocity_clamping", _HAS_PSO),
    _bool("pso.stagnation_detection", _HAS_PSO),
    _bool("pso.ignore_pbest", _HAS_PSO),
    _cat("pso.vector_basis", ("natural", "eigenvector"), _HAS_PSO),

    _cat("de.base_vector", ("random", "best", "target_to_best",
                            "directed_random", "directed_best"), _HAS_DE),
    _real("de.diff_fraction", 0.0, 0.25, _HAS_DE, lo_open=True),
    _cat("de.recombination", ("binomial", "exponential"), _HAS_DE),
    _real("de.p_a", 0.0, 1.0, _HAS_DE),
    _real("de.beta", 0.0, 1.0, _HAS_DE, lo_open=True),
    _cat("de.vectors", ("positions", "pbest", "mixture"), _HAS_DE),
    _cat("de.vector_basis", ("natural", "eigenvector"), _HAS_DE),
    _cat("de.recompute_velocity", ("goBack", "random", "position", "none"),
         _HAS_DE),
    _bool("de.pso_only_on_fail", _HAS_DE),

    _real("cmaes.a", 1.0, 10.0, _HAS_CMAES),
    _real("cmaes.b", 1.0, 5.0, _HAS_CMAES),
    _real("cmaes.c", 0.0, 1.0, _HAS_CMAES, lo_open=True, hi_open=True),
    _cat("cmaes.pop_mode", ("constant", "incremental"), _HAS_CMAES),
    _real("cmaes.d", 1.0, 4.0,
          _with(_HAS_CMAES, (("cmaes.pop_mode", "==", ("incremental",)),)),
          field="d_inc"),
    _bool("cmaes.restart", _HAS_CMAES),
    _real("cmaes.e", -20.0, -6.0,
          _with(_HAS_CMAES, (("cmaes.restart", "==", ("true",)),))),
    _real("cmaes.f", -20.0, -6.0,
          _with(_HAS_CMAES, (("cmaes.restart", "==", ("true",)),))),
    _real("cmaes.g", -20.0, -6.0,
          _with(_HAS_CMAES, (("cmaes.restart", "==", ("true",)),))),
    _cat("cmaes.matrix_mode", ("full", "diagonal", "full_then_diagonal"),
         _HAS_CMAES),
    _cat("cmaes.weights", ("logarithmic", "linear_decreasing", "equal"),
         _HAS_CMAES, field="weight_scheme"),

    _cat("ls.algo", ("none", "mtsls", "cmaes")),
    _real("ls.budget", 0.0, 1.0, _LS_ON, lo_open=True),
    _int("ls.divide", 1, 100, _LS_ON),
    _real("ls.mtsls_init_ss", 0.0, 1.0, _LS_MTSLS, lo_open=True),
    _int("ls.mtsls_iterations", 1, 3, _LS_MTSLS),
    _real("ls.mtsls_bias", -1.0, 1.0, _LS_MTSLS),
    # the nested CMA-ES starts smaller and keeps its population size
    _real("ls.cmaes.a", 1.0, 10.0, _LS_CMAES),
    _real("ls.cmaes.b", 1.0, 5.0, _LS_CMAES),
    _real("ls.cmaes.c", 0.0, 1.0, _LS_CMAES, default="0.1", lo_open=True,
          hi_open=True),
    _cat("ls.cmaes.pop_mode", ("constant", "incremental"), _LS_CMAES,
         default="constant"),
    _real("ls.cmaes.d", 1.0, 4.0,
          _with(_LS_CMAES, (("ls.cmaes.pop_mode", "==", ("incremental",)),)),
          field="d_inc"),
    _bool("ls.cmaes.restart", _LS_CMAES),
    _real("ls.cmaes.e", -20.0, -6.0, _LS_CMAES),
    _real("ls.cmaes.f", -20.0, -6.0, _LS_CMAES),
    _real("ls.cmaes.g", -20.0, -6.0, _LS_CMAES),
    _cat("ls.cmaes.matrix_mode", ("full", "diagonal", "full_then_diagonal"),
         _LS_CMAES),
    _cat("ls.cmaes.weights", ("logarithmic", "linear_decreasing", "equal"),
         _LS_CMAES, field="weight_scheme"),
)

_SPEC_BY_NAME = {s.name: s for s in PARAMETER_SPACE}

# problem-definition keys accepted in parameter files but not part of the
# exported algorithm space
INSTANCE_KEYS = {"hybrid.parts"}


# ---------------------------------------------------------------------------
# parameter files
# ---------------------------------------------------------------------------

def parse_parameter_file(text: str) -> dict[str, str]:
    """Parse 'key = value' lines into a flat map; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ParseError(f"line {lineno}: empty key or value")
        if key in out:
            raise DuplicateKey(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_parameter_file(path: str) -> dict[str, str]:
    """Read and parse the parameter file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        return parse_parameter_file(fh.read())


def format_parameter_file(values: dict[str, str]) -> str:
    return "\n".join(f"{k} = {v}" for k, v in values.items()) + "\n"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    missing: list[str] = field(default_factory=list)
    conflicting: list[tuple[str, str, str]] = field(default_factory=list)
    out_of_range: list[tuple[str, str, str]] = field(default_factory=list)

    def ok(self) -> bool:
        return not (self.missing or self.conflicting or self.out_of_range)

    def describe(self) -> str:
        lines = []
        for name in self.missing:
            lines.append(f"missing: {name}")
        for a, b, reason in self.conflicting:
            lines.append(f"conflict: {a} / {b}: {reason}")
        for name, value, rng in self.out_of_range:
            lines.append(f"out of range: {name} = {value} (expected {rng})")
        return "\n".join(lines)


def _parse_value(spec: ParameterSpec, text: str):
    if spec.kind == "categorical":
        if text not in spec.domain:
            raise ValueError
        return text
    if spec.kind == "boolean":
        low = text.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError
    if spec.kind == "integer":
        value = int(text)
    elif spec.kind == "real":
        value = float(text)
    else:
        return text
    lo, hi = spec.domain
    if not (math.isfinite(value) and lo <= value <= hi):
        raise ValueError
    if spec.lo_open and value == lo:
        raise ValueError
    if spec.hi_open and value == hi:
        raise ValueError
    return value


def _parse_order(text: str):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _phase_fractions(text: str, order: tuple[str, ...]):
    """The shares of ``exec.phases``, or None unless there is one finite
    share in (0, 1] per module of the order and they sum to 1."""
    try:
        fractions = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        return None
    if len(fractions) != len(order) \
            or not all(math.isfinite(f) and 0 < f <= 1 for f in fractions) \
            or abs(sum(fractions) - 1.0) > 1e-9:
        return None
    return fractions


# Cross-parameter rules, checked in this order once the module order is
# valid: (key, other key, reason, broken(typed values, module order)).
# A value that failed to parse is absent from the typed values; exec.mode and
# pop.mode then count as their defaults.
CROSS_RULES = (
    ("exec.mode", "exec.order",
     "probabilistic execution is available only for pso and de",
     lambda t, order: t.get("exec.mode") == "probabilistic"
     and set(order) != {"pso", "de"}),
    ("exec.mode", "exec.order",
     "component-based composition is available only for pso and de",
     lambda t, order: t.get("exec.mode", "component_based") == "component_based"
     and len(order) > 1 and set(order) != {"pso", "de"}),
    ("exec.phases", "exec.order",
     "phase fractions must match the module order and sum to 1",
     lambda t, order: t.get("exec.mode") == "multiple_phases" and "exec.phases" in t
     and _phase_fractions(t["exec.phases"], order) is None),
    ("pop.mode", "exec.order", "population growth schedules apply to de only",
     lambda t, order: "pso" in order and t.get("pop.mode", "constant") != "constant"),
    ("pop.min", "pop.max", "pop.min must not exceed pop.max",
     lambda t, order: ("pso" in order or "de" in order)
     and t.get("pop.mode", "constant") != "constant"
     and t.get("pop.min", 0) > t.get("pop.max", 0)),
    ("pso.moi", "pso.dnpp",
     "informed models of influence require the rectangular DNPP",
     lambda t, order: "pso" in order
     and t.get("pso.moi") in ("fully_informed", "ranked_fully_informed")
     and t.get("pso.dnpp") != "rectangular"),
    # the linear modes never draw from [min, max], so they run inverted
    ("pso.omega1_min", "pso.omega1_max",
     "random inertia needs pso.omega1_min <= pso.omega1_max",
     lambda t, order: "pso" in order and t.get("pso.omega1_mode") == "random"
     and t.get("pso.omega1_min", 0.0) > t.get("pso.omega1_max", 1.0)),
)


def validate(raw: dict[str, str]):
    """Check ranges, dependencies and mode availability.

    Returns a typed AlgorithmConfig on success, otherwise a ValidationReport
    listing every missing, conflicting and out-of-range entry.  One pass:
    unknown keys, each spec's value, the module order, then ``CROSS_RULES``.
    Each typed dataclass is built from the values of one key section (the key
    up to its last dot), under the field name the spec gives.
    """
    report = ValidationReport()
    for key in raw:
        if key not in _SPEC_BY_NAME and key not in INSTANCE_KEYS:
            report.conflicting.append((key, "", "unknown parameter"))

    effective = {}   # supplied or default text; booleans lowered so conditions match
    for spec in PARAMETER_SPACE:
        text = raw.get(spec.name, spec.default)
        if text is not None:
            effective[spec.name] = text.lower() if spec.kind == "boolean" else text

    typed: dict[str, object] = {}
    for spec in PARAMETER_SPACE:
        if spec.name in effective:
            try:
                typed[spec.name] = _parse_value(spec, effective[spec.name])
            except ValueError:
                report.out_of_range.append(
                    (spec.name, effective[spec.name], spec.domain_str()))
        elif condition_active(spec, effective):
            report.missing.append(spec.name)

    order = _parse_order(typed["exec.order"])
    if not order or len(set(order)) != len(order) \
            or not set(order) <= {"pso", "de", "cmaes"}:
        report.conflicting.append(
            ("exec.order", "", f"order must be 1-3 distinct modules, got {order!r}"))
    else:
        for key, other, reason, broken in CROSS_RULES:
            if broken(typed, order):
                report.conflicting.append((key, other, reason))
    if not report.ok():
        return report

    sections: dict[str, dict[str, object]] = {}
    for spec in PARAMETER_SPACE:
        if spec.name in typed:
            section, key = spec.name.rsplit(".", 1)
            sections.setdefault(section, {})[spec.field or key] = typed[spec.name]
    fractions = _phase_fractions(typed["exec.phases"], order) \
        if typed["exec.mode"] == "multiple_phases" else ()
    sections["exec"].update(module_order=order, phase_fractions=fractions)
    pop = sections["pop"]
    pop.setdefault("min_size", pop["size"])
    pop.setdefault("max_size", pop["size"])

    ls = LsParams(**sections["ls"])
    if ls.algo == "cmaes":
        ls.nested_cma = CmaParams(**sections["ls.cmaes"])
    return AlgorithmConfig(
        execution=ExecutionConfig(**sections["exec"]),
        population=PopulationSettings(**pop),
        pso=PsoParams(**sections["pso"]) if "pso" in order else None,
        de=DeParams(**sections["de"]) if "de" in order else None,
        cmaes=CmaParams(**sections["cmaes"]) if "cmaes" in order else None,
        ls=ls)


def default_config(overrides: dict[str, str] | None = None) -> dict[str, str]:
    """Default assignment for every parameter active under the defaults."""
    values = {s.name: s.default for s in PARAMETER_SPACE if s.default is not None}
    if overrides:
        values.update(overrides)
    active = {}
    for spec in PARAMETER_SPACE:
        if spec.name in values and condition_active(spec, values):
            active[spec.name] = values[spec.name]
    return active


# ---------------------------------------------------------------------------
# parameter-space export
# ---------------------------------------------------------------------------

def export_parameter_space(fmt: str = "racing_tool") -> str:
    """Emit the declared parameter space for an external configurator."""
    if fmt == "json":
        import json
        entries = [{
            "name": s.name,
            "switch": f"--{s.name} ",
            "kind": s.kind,
            "domain": s.domain_str(),
            "condition": s.condition_str(),
            "default": s.default,
        } for s in PARAMETER_SPACE]
        return json.dumps(entries, indent=2) + "\n"
    if fmt == "racing_tool":
        kind_codes = {"categorical": "c", "integer": "i", "real": "r",
                      "boolean": "c", "string": "c"}
        lines = []
        for s in PARAMETER_SPACE:
            cond = s.condition_str()
            line = (f"{s.name:28s} \"--{s.name} \" {kind_codes[s.kind]} "
                    f"{s.domain_str()}")
            if cond:
                line += f" | {cond}"
            lines.append(line)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")
