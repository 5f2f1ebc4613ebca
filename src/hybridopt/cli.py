"""Command-line entry points: single runs, batch plans, parameter-space export,
and the single-cost target-runner protocol used by external configurators."""

from __future__ import annotations

import argparse
import json
import sys

from .benchmarks import make_instance
from .config import export_parameter_space, load_parameter_file, validate
from .core import cap_reported_value
from .executor import run
from .reporting import RunRecord, run_batch, write_records


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridopt",
        description="Hybrid PSO/DE/CMA-ES solvers for bound-constrained minimization")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one seeded run of a configured algorithm")
    p_run.add_argument("--function", required=True,
                       help="e.g. sphere, shifted_rotated_rastrigin, hybrid")
    p_run.add_argument("--dim", type=int, required=True)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--params", required=True, help="parameter file (key = value)")
    p_run.add_argument("--fe-budget", type=int, default=None,
                       help="objective evaluations (default 5000*dim)")
    p_run.add_argument("--wallclock-ms", type=float, default=None)
    p_run.add_argument("--trace-every", type=int, default=None)
    p_run.add_argument("--instance-seed", type=int, default=0)
    p_run.add_argument("--shift-file", default=None)
    p_run.add_argument("--rotation-file", default=None)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")

    p_batch = sub.add_parser("batch", help="run a JSON plan of many runs")
    p_batch.add_argument("--plan", required=True)
    p_batch.add_argument("--parallel", type=int, default=1)
    p_batch.add_argument("--out", required=True)
    p_batch.add_argument("--format", choices=("csv", "json"), default="csv")

    p_exp = sub.add_parser("export-space", help="emit the parameter space")
    p_exp.add_argument("--format", choices=("racing_tool", "json"),
                       default="racing_tool")

    p_tr = sub.add_parser("target-runner",
                          help="racing protocol: print one cost for one run")
    p_tr.add_argument("config_id")
    p_tr.add_argument("instance", help="function:dim[:instance-seed]")
    p_tr.add_argument("seed", type=int)
    p_tr.add_argument("switches", nargs=argparse.REMAINDER,
                      help="-- followed by --param value pairs")
    return parser


def _cmd_run(args) -> int:
    raw = load_parameter_file(args.params)
    cfg = validate(raw)
    if not hasattr(cfg, "execution"):
        print(cfg.describe(), file=sys.stderr)
        return 1
    try:  # every input error of make_instance is a ValueError; data files may be missing
        instance = make_instance(args.function, args.dim,
                                 instance_seed=args.instance_seed,
                                 shift_file=args.shift_file,
                                 rotation_file=args.rotation_file,
                                 parts=raw.get("hybrid.parts"))
    except (ValueError, OSError) as exc:
        print(f"bad run invocation: {exc}", file=sys.stderr)
        return 2
    result = run(cfg, instance, args.seed, max_evals=args.fe_budget,
                 wallclock_ms=args.wallclock_ms, trace_every=args.trace_every)
    record = RunRecord(function=args.function, dim=args.dim, seed=args.seed,
                       config=args.params,
                       best_fitness=cap_reported_value(result.best_fitness),
                       evals=result.evals_used, wall_ms=result.wall_ms)
    write_records([record], args.out, args.format)
    if result.trace:
        with open(args.out + ".trace.json", "w", encoding="utf-8") as fh:
            json.dump(result.trace, fh)
    print(f"best {record.best_fitness:.10e} after {record.evals} evaluations")
    return 0


def _cmd_batch(args) -> int:
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    records, errors = run_batch(plan, parallelism=args.parallel)
    write_records(records, args.out, args.format)
    print(f"{len(records)} runs recorded to {args.out}"
          + (f" ({len(errors)} failures)" if errors else ""))
    return 1 if errors else 0


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
        function = pieces[0]
        dim = int(pieces[1])
        instance_seed = int(pieces[2]) if len(pieces) > 2 else 0
        # every input error of make_instance is a ValueError
        instance = make_instance(function, dim, instance_seed=instance_seed,
                                 parts=raw.get("hybrid.parts"))
    except ValueError as exc:
        print(f"bad target-runner invocation: {exc}", file=sys.stderr)
        return 2
    cfg = validate(raw)
    if not hasattr(cfg, "execution"):
        print(cfg.describe(), file=sys.stderr)
        return 1
    result = run(cfg, instance, args.seed)
    print(f"{cap_reported_value(result.best_fitness):.10e}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "export-space":
        sys.stdout.write(export_parameter_space(args.format))
        return 0
    if args.command == "target-runner":
        return _cmd_target_runner(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
