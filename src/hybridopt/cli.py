"""Command-line entry points: single runs, batch plans, parameter-space export,
and the single-cost target-runner protocol used by external configurators."""

from __future__ import annotations

import argparse
import json
import sys

from .benchmarks import make_instance
from .config import export_parameter_space, load_parameter_file, validate
from .executor import run
from .reporting import RunRecord, write_records


class InvalidConfiguration(Exception):
    """A parameter assignment that validate rejects; the message is its report."""


def _experiment(raw: dict[str, str], function: str, dim: int, instance_seed: int = 0,
                shift_file: str | None = None, rotation_file: str | None = None):
    """The (cfg, instance) pair every command hands to run().  The instance is
    built first, and each of its input errors is a ValueError; a rejected
    assignment then raises InvalidConfiguration."""
    instance = make_instance(function, dim, instance_seed=instance_seed,
                             shift_file=shift_file, rotation_file=rotation_file,
                             parts=raw.get("hybrid.parts"))
    cfg = validate(raw)
    if not hasattr(cfg, "execution"):
        raise InvalidConfiguration(cfg.describe())
    return cfg, instance


def _positive(kind):
    """An argparse type: a number of the given kind above 0."""
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"expected a value above 0, got {text}")
        return value
    parse.__name__ = kind.__name__   # argparse names the kind in its error messages
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridopt",
        description="Hybrid PSO/DE/CMA-ES solvers for bound-constrained minimization")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one seeded run of a configured algorithm")
    p_run.set_defaults(handler=_cmd_run)
    p_run.add_argument("--function", required=True,
                       help="e.g. sphere, shifted_rotated_rastrigin, hybrid")
    p_run.add_argument("--dim", type=int, required=True)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--params", required=True, help="parameter file (key = value)")
    p_run.add_argument("--fe-budget", type=_positive(int), default=None,
                       help="objective evaluations (default 5000*dim)")
    p_run.add_argument("--wallclock-ms", type=_positive(float), default=None)
    p_run.add_argument("--trace-every", type=_positive(int), default=None)
    p_run.add_argument("--instance-seed", type=int, default=0)
    p_run.add_argument("--shift-file", default=None)
    p_run.add_argument("--rotation-file", default=None)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")

    p_batch = sub.add_parser("batch", help="run a JSON plan of many runs")
    p_batch.set_defaults(handler=_cmd_batch)
    p_batch.add_argument("--plan", required=True)
    p_batch.add_argument("--parallel", type=int, default=1)
    p_batch.add_argument("--out", required=True)
    p_batch.add_argument("--format", choices=("csv", "json"), default="csv")

    p_exp = sub.add_parser("export-space", help="emit the parameter space")
    p_exp.set_defaults(handler=_cmd_export_space)
    p_exp.add_argument("--format", choices=("racing_tool", "json"),
                       default="racing_tool")

    p_tr = sub.add_parser("target-runner",
                          help="racing protocol: print one cost for one run")
    p_tr.set_defaults(handler=_cmd_target_runner)
    p_tr.add_argument("config_id")
    p_tr.add_argument("instance", help="function:dim[:instance-seed]")
    p_tr.add_argument("seed", type=int)
    p_tr.add_argument("switches", nargs=argparse.REMAINDER,
                      help="-- followed by --param value pairs")
    return parser


def _cmd_run(args) -> int:
    try:
        raw = load_parameter_file(args.params)
        cfg, instance = _experiment(raw, args.function, args.dim, args.instance_seed,
                                    args.shift_file, args.rotation_file)
    except (OSError, ValueError) as exc:
        print(f"bad run invocation: {exc}", file=sys.stderr)
        return 2
    result = run(cfg, instance, args.seed, max_evals=args.fe_budget,
                 wallclock_ms=args.wallclock_ms, trace_every=args.trace_every)
    record = RunRecord.of(result, args.function, args.dim, args.seed, args.params)
    write_records([record], args.out, args.format)
    if result.trace:
        with open(args.out + ".trace.json", "w", encoding="utf-8") as fh:
            json.dump(result.trace, fh)
    print(f"best {record.best_fitness:.10e} after {record.evals} evaluations")
    return 0


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _execute_entry(entry: dict) -> list[RunRecord]:
    """Run every seed of one plan entry (worker-safe).  Its numeric fields
    are checked, not coerced, before anything runs."""
    if not isinstance(entry, dict):
        raise ValueError(f"plan entry {entry!r} is not a JSON object")
    for name in ("dim", "instance_seed", "fe_budget"):
        if name in entry and not _is_int(entry[name]):
            raise ValueError(f"{name} must be an integer, got {entry[name]!r}")
    wallclock = entry.get("wallclock_ms")
    if wallclock is not None and not (_is_int(wallclock) or isinstance(wallclock, float)):
        raise ValueError(f"wallclock_ms must be a number, got {wallclock!r}")
    seeds = entry["seeds"]
    if not (isinstance(seeds, list) and all(map(_is_int, seeds))):
        raise ValueError(f"seeds must be a list of integers, got {seeds!r}")
    params = (load_parameter_file(entry["params_file"]) if "params_file" in entry
              else entry.get("params", {}))
    dim = entry["dim"]
    cfg, instance = _experiment(params, entry["function"], dim,
                                instance_seed=entry.get("instance_seed", 0))
    config_id = str(entry.get("config_id", "default"))
    # without a budget, run() applies its own default
    return [RunRecord.of(run(cfg, instance, seed, max_evals=entry.get("fe_budget"),
                             wallclock_ms=wallclock),
                         entry["function"], dim, seed, config_id)
            for seed in seeds]


def run_batch(plan: list[dict], parallelism: int = 1):
    """Execute a plan of (config, instance, seeds) entries.

    Returns (records, errors); records are sorted by (function, dim, config,
    seed) and errors follow plan order, so output is independent of the
    parallelism degree.
    """
    if not plan:
        raise ValueError("empty batch plan")
    records: list[RunRecord] = []
    errors: list[str] = []

    def collect(entry, outcome):
        try:
            records.extend(outcome())
        except Exception as exc:  # per-run failures recorded, batch continues
            config_id = entry.get("config_id", "?") if isinstance(entry, dict) else "?"
            errors.append(f"{config_id}: {exc}")

    if parallelism <= 1:
        for entry in plan:
            collect(entry, lambda: _execute_entry(entry))
    else:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=parallelism) as pool:
            futures = [pool.submit(_execute_entry, entry) for entry in plan]
            for entry, fut in zip(plan, futures):
                collect(entry, fut.result)
    records.sort(key=lambda r: (r.function, r.dim, r.config, r.seed))
    for msg in errors:
        print(f"batch error: {msg}", file=sys.stderr)
    return records, errors


def _cmd_batch(args) -> int:
    try:
        with open(args.plan, encoding="utf-8") as fh:
            plan = json.load(fh)   # text that is not JSON raises a ValueError
        if not isinstance(plan, list) or not plan:
            raise ValueError("expected a non-empty JSON array of entries")
    except (OSError, ValueError) as exc:
        print(f"bad batch plan {args.plan}: {exc}", file=sys.stderr)
        return 2
    records, errors = run_batch(plan, parallelism=args.parallel)
    write_records(records, args.out, args.format)
    print(f"{len(records)} runs recorded to {args.out}"
          + (f" ({len(errors)} failures)" if errors else ""))
    return 1 if errors else 0


def _cmd_export_space(args) -> int:
    sys.stdout.write(export_parameter_space(args.format))
    return 0


def _parse_switches(tokens: list[str]) -> dict[str, str]:
    tokens = [t for t in tokens if t != "--"]
    if len(tokens) % 2 != 0:
        raise ValueError("parameter switches must come in '--name value' pairs")
    raw = {}
    for flag, value in zip(tokens[::2], tokens[1::2]):
        if not flag.startswith("--"):
            raise ValueError(f"expected a --name switch, got {flag!r}")
        if flag[2:] in raw:
            raise ValueError(f"switch {flag} given twice")
        raw[flag[2:]] = value
    return raw


def _cmd_target_runner(args) -> int:
    try:
        raw = _parse_switches(args.switches)
        pieces = args.instance.split(":")
        if not 2 <= len(pieces) <= 3:
            raise ValueError(f"instance {args.instance!r} is not function:dim[:instance-seed]")
        cfg, instance = _experiment(raw, pieces[0], int(pieces[1]),
                                    int(pieces[2]) if len(pieces) > 2 else 0)
    except ValueError as exc:
        print(f"bad target-runner invocation: {exc}", file=sys.stderr)
        return 2
    record = RunRecord.of(run(cfg, instance, args.seed), pieces[0], instance.d,
                          args.seed, args.config_id)
    print(f"{record.best_fitness:.10e}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InvalidConfiguration as exc:   # raised by _experiment only
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
