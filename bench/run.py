"""hybridopt benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload swarm-d10 --seed 1 --seconds 35 --trace 0

Workloads are ``swarm-d10`` and ``cmaes-d50`` (in-process ``run()`` over a
fixed matrix) and ``racing`` (a closed loop of ``hybridopt target-runner``
subprocess calls).  With ``--trace 0`` the last line of stdout is a JSON
object holding every end-to-end metric; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  Lines before it give the environment,
each metric with its unit, and every failed check.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, for this process and every process it starts: with the
# default, d=50 timings swung by a factor of two between runs.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up probes before the measurement, and on --trace 0 as many after it:
# the machine's speed drifts within seconds, and a median over probes at
# both ends of a run moves less than one over probes in a single burst.
SETUP_PROBES = 4
# Allowed gap between the layer self times and the run() wall time that
# hybridopt itself reports, as a share of the latter.
SELF_SUM_TOLERANCE = 0.03
# No unit starts after HARD_LIMIT_S, and a call still running at DEADLINE_S
# is killed: the whole run must end within 180 s.
HARD_LIMIT_S = 130.0
DEADLINE_S = 170.0
FLOOR = 1e-10
CAP = 1e10
STARTED = time.monotonic()


def _import_program() -> None:
    """Put the checkout's sources first on the path, or stop."""
    if not (SRC / "hybridopt" / "__init__.py").is_file():
        sys.exit(f"bench: no hybridopt sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import hybridopt
    if Path(hybridopt.__file__).resolve().parent != (SRC / "hybridopt").resolve():
        sys.exit(f"bench: imported hybridopt from {hybridopt.__file__}, not {SRC}")


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "loadavg_at_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_share(n: int) -> float:
    """The highest quantile of n samples with ten samples above it."""
    return (n - 10) / n if n > 10 else 1.0


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.

    A racing run has only 30 calls whose costs differ fourfold; there a
    single order statistic jumps across the gaps between calls, while this
    weighted mean moves smoothly with them.
    """
    import numpy as np

    s = np.sort(np.asarray(values, dtype=float))
    n = len(s)
    if p >= 1.0 or n == 1:
        return float(s[-1])
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    x = np.linspace(0.0, 1.0, 200 * n + 1)
    log_pdf = (a - 1) * np.log(x[1:-1]) + (b - 1) * np.log1p(-x[1:-1])
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(np.interp(np.arange(n + 1) / n, x, cdf / cdf[-1]))
    return float(weights @ s)


def decades(best: float) -> float:
    """log10 of a reported cost relative to the 1e-10 floor, in [0, 20]."""
    return math.log10(min(max(best, FLOOR), CAP) / FLOOR)


def quality(cells: dict[tuple, list[float]]) -> float:
    """Per cell the median (reporting.aggregate) of decades, averaged."""
    from hybridopt.reporting import aggregate

    meds = [aggregate([decades(b) for b in bests]).med for bests in cells.values()]
    return sum(meds) / len(meds)


def bitwise_equal(a: float, b: float) -> bool:
    import numpy as np
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class Records:
    """Wall time, FEs and failed checks of every run or call."""

    def __init__(self):
        self.walls: list[float] = []
        self.fes: list[int] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.cells: dict[tuple, list[float]] = {}

    def add(self, wall_s: float, fes: int, problems: list[str]) -> None:
        """A measured run or call and the checks it failed."""
        self.walls.append(wall_s)
        self.fes.append(fes)
        self.check(problems)

    def check(self, problems: list[str]) -> None:
        """An operation outside the measurement, such as a re-run."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def extend(self, other: "Records") -> None:
        self.walls += other.walls
        self.fes += other.fes
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        for cell, values in other.cells.items():
            self.cells.setdefault(cell, []).extend(values)

    def timing(self) -> dict[str, float]:
        per_fe = [w * 1e6 / f for w, f in zip(self.walls, self.fes)]
        calls = [w * 1e3 for w in self.walls]
        top = tail_share(len(calls))
        return {
            "fe_per_s": sum(self.fes) / sum(self.walls),
            "run_us_per_fe_p50": quantile(per_fe, 0.5),
            "run_us_per_fe_tail": quantile(per_fe, top),
            "call_ms_p50": quantile(calls, 0.5),
            "call_ms_tail": quantile(calls, top),
        }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def measure_setup(configs, instances) -> tuple[list[float], list[dict]]:
    """Wall time of fresh interpreters that import hybridopt.cli, validate
    the workload's configs and build its instances; plus their own timings."""
    job = json.dumps({"configs": configs, "instances": instances})
    walls, reports = [], []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")],
                              input=job, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=60)
        walls.append(time.monotonic() - spawned)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        report = json.loads(proc.stdout)
        report["interpreter_ms"] = (report["started"] - spawned) * 1e3
        reports.append(report)
    return walls, reports


def more_units(k: int, stop: int, until: float | None, first: int,
               began: float) -> bool:
    """Whether to start unit ``k``: always before ``stop``, and after it
    while the unit is expected to end before ``until``."""
    if k < stop:
        return True
    if until is None:
        return False
    now = time.monotonic()
    return now + (now - began) / (k - first) <= until


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def check_run(result, obj, task) -> list[str]:
    where = f"{task.config_id} {task.instance} seed {task.seed}"
    problems = []
    if result.evals_used != task.max_evals:
        problems.append(f"{where}: evals_used {result.evals_used} != {task.max_evals}")
    if sum(result.module_evals.values()) != result.evals_used:
        problems.append(f"{where}: module_evals {result.module_evals} do not sum "
                        f"to {result.evals_used}")
    if not obj.bounds.contains(result.best_position):
        problems.append(f"{where}: best_position outside the bounds")
    elif not bitwise_equal(obj(result.best_position), result.best_fitness):
        problems.append(f"{where}: re-evaluating best_position does not give "
                        f"best_fitness {result.best_fitness!r}")
    return problems


def same_result(a, b) -> bool:
    return (bitwise_equal(a.best_fitness, b.best_fitness)
            and a.best_position.tobytes() == b.best_position.tobytes()
            and a.evals_used == b.evals_used and a.module_evals == b.module_evals)


class InProcess:
    def __init__(self, plan):
        from hybridopt import make_instance, validate

        self.plan = plan
        self.configs = {cid: validate(raw) for cid, raw in plan.configs().items()}
        self.objectives = {(f, d): make_instance(f, d, instance_seed=s)
                           for (f, d), s in plan.instance_seeds.items()}

    def run_task(self, task, tracer=None):
        from hybridopt import run  # the traced one while a tracer is installed
        from tracing import TracedObjective

        obj = self.objectives[(task.function, task.dim)]
        if tracer is not None:
            obj = TracedObjective(obj, tracer)
            tracer.run_id += 1
        t0 = time.perf_counter()
        result = run(self.configs[task.config_id], obj, task.seed,
                     max_evals=task.max_evals)
        return result, time.perf_counter() - t0

    def measure(self, first: int, stop: int, until: float | None = None,
                tracer=None, reference=None):
        """Run units ``first`` to ``stop - 1``, then more while each is
        expected to end before the clock reaches ``until``.

        Returns the records and each run's result.  ``reference`` holds
        results the runs must reproduce bitwise.
        """
        recs, results = Records(), []
        k, began = first, time.monotonic()
        while more_units(k, stop, until, first, began):
            if time.monotonic() > STARTED + HARD_LIMIT_S:
                recs.problems.append(f"stopped before unit {k} at the time limit")
                break
            for task in self.plan.unit(k):
                result, wall = self.run_task(task, tracer)
                obj = self.objectives[(task.function, task.dim)]
                problems = check_run(result, obj, task)
                if reference is not None and not same_result(result, reference[len(results)]):
                    problems.append(f"{task.config_id} {task.instance} seed "
                                    f"{task.seed}: traced run differs from untraced")
                recs.add(wall, result.evals_used, problems)
                results.append(result)
                if k < stop:
                    recs.cells.setdefault(task.cell, []).append(result.best_fitness)
            k += 1
        return recs, results, []

    def rerun_first(self, recs: Records, first) -> None:
        """Re-run the first matrix entry; it must give a bitwise-equal result."""
        task = self.plan.unit(0)[0]
        again, _ = self.run_task(task)
        recs.check([] if same_result(again, first) else [
            f"{task.config_id} {task.instance} seed {task.seed}: re-run differs"])


# ---------------------------------------------------------------------------
# racing
# ---------------------------------------------------------------------------

def target_runner_argv(task) -> list[str]:
    switches = [tok for key, value in task.params.items()
                for tok in (f"--{key}", value)]
    return ["target-runner", task.config_id, task.instance, str(task.seed),
            "--", *switches]


def call(argv: list[str]):
    spawned = time.monotonic()
    timeout = max(1.0, STARTED + DEADLINE_S - spawned)
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - spawned, spawned
    return proc, time.monotonic() - spawned, spawned


def check_call(task, proc) -> tuple[list[str], float | None]:
    where = f"call {task.config_id} on {task.instance} seed {task.seed}"
    if proc is None:
        return [f"{where}: timed out"], None
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"], None
    lines = proc.stdout.splitlines()
    try:
        value = float(lines[0]) if len(lines) == 1 else None
    except ValueError:
        value = None
    if value is None or not value <= CAP:
        return [f"{where}: expected one float <= 1e10, got {proc.stdout!r}"], None
    return [], value


class Racing:
    def __init__(self, plan):
        self.plan = plan

    def measure(self, first: int, stop: int, until: float | None = None,
                traced: bool = False, reference=None):
        """Like ``InProcess.measure``, one call per task.  Returns the
        records, each call's stdout and, when traced, (spans file, spawn
        time) of each call that passed its checks."""
        recs, outputs, spans = Records(), [], []
        k, began = first, time.monotonic()
        while more_units(k, stop, until, first, began):
            for task in self.plan.unit(k):
                if time.monotonic() > STARTED + HARD_LIMIT_S:
                    recs.problems.append(f"stopped before call {task.config_id} "
                                         f"of unit {k} at the time limit")
                    return recs, outputs, spans
                call_id = len(outputs)
                argv = target_runner_argv(task)
                if traced:
                    spans_file = OUT / f"racing-call-{k}-{call_id}.npz"
                    argv = [str(BENCH / "launcher.py"), str(spans_file),
                            str(call_id), "--", *argv]
                else:
                    argv = ["-m", "hybridopt.cli", *argv]
                proc, wall, spawned = call([sys.executable, *argv])
                problems, value = check_call(task, proc)
                if reference is not None and value is not None \
                        and proc.stdout != reference[call_id]:
                    problems.append(f"call {task.config_id}: traced output "
                                    f"{proc.stdout!r} differs from untraced "
                                    f"{reference[call_id]!r}")
                recs.add(wall, task.max_evals, problems)
                outputs.append(proc.stdout if proc is not None else None)
                if traced and not problems:
                    spans.append((spans_file, spawned))
                if k < stop and value is not None:
                    recs.cells.setdefault(task.cell[1:], []).append(value)
            k += 1
        return recs, outputs, spans

    def check_parity(self, recs: Records, outputs) -> None:
        """The first call at each size must print what an in-process run()
        returns."""
        from hybridopt import cap_reported_value, make_instance, run, validate

        first_at = {}
        for k, task in enumerate(self.plan.unit(0)):
            first_at.setdefault(task.dim, k)
        for k in first_at.values():
            task = self.plan.unit(0)[k]
            obj = make_instance(task.function, task.dim,
                                instance_seed=task.instance_seed)
            result = run(validate(task.params), obj, task.seed)
            expected = f"{cap_reported_value(result.best_fitness):.10e}\n"
            recs.check([] if outputs[k] == expected else [
                f"call {task.config_id}: printed {outputs[k]!r}, "
                f"in-process run() gives {expected!r}"])


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(table, fes: int, run_wall_ms: float, setup: dict,
                  draws: dict[str, float]) -> dict[str, float]:
    from tracing import OBJECTIVE, RUN

    def ratio(num: str, den: str) -> float:
        d = table.counts.get(den, 0)
        return table.counts.get(num, 0) / d if d else 0.0

    def per_fe(layer: str) -> float:
        return table.layer_self(layer) * 1e6 / fes

    calls = table.calls.get
    return {
        "executor.self_us_per_fe": per_fe("executor"),
        "executor.obj_share": table.total.get(OBJECTIVE, 0.0) / table.total[RUN],
        "executor.dispatch_calls": calls("executor.dispatch_update", 0),
        "executor.generations": calls("executor.update_execution_parameters", 0),
        "core.evaluate_self_us": table.mean_self_us("core.evaluate"),
        "pso.self_us_per_fe": per_fe("pso"),
        "pso.compute_velocity_us": table.mean_us("pso.compute_velocity"),
        "pso.neighbors_calls": calls("pso.neighbors", 0),
        "de.self_us_per_fe": per_fe("de"),
        "de.select_base_and_donors_us": table.mean_us("de.select_base_and_donors"),
        "de.improve_ratio": ratio("de.improved", "de.trials"),
        "cmaes.self_us_per_fe": per_fe("cmaes"),
        "cmaes.sample_population_us": table.mean_us("cmaes.sample_population"),
        "cmaes.update_covariance_us": table.mean_us("cmaes.update_covariance"),
        "cmaes.generations": calls("cmaes.CmaRunner.generation", 0),
        "cmaes.restarts": table.counts.get("cmaes.restarts", 0),
        "cmaes.clamped_ratio": ratio("cmaes.clamped", "cmaes.coords"),
        "benchmarks.obj_us": table.mean_us(OBJECTIVE),
        "benchmarks.obj_calls": calls(OBJECTIVE, 0),
        "benchmarks.make_instance_ms": setup["make_instance_ms"],
        "localsearch.self_us_per_fe": per_fe("localsearch"),
        "localsearch.runs": table.counts.get("localsearch.runs", 0),
        "localsearch.fes": table.counts.get("localsearch.fes", 0),
        "localsearch.improve_ratio": ratio("localsearch.improved", "localsearch.runs"),
        "config.validate_us": setup["validate_us"],
        **draws,
        "cli.interpreter_ms": setup["interpreter_ms"],
        "cli.import_ms": setup["import_ms"],
        "cli.target_runner_self_ms": table.mean_self_us("cli.main") / 1e3,
        "trace.self_sum_ratio": table.run_self / (run_wall_ms / 1e3),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def end_to_end(args, runner, units: int, setup_walls,
               setup_job) -> tuple[dict, Records]:
    racing = args.workload == "racing"
    recs, results, _ = runner.measure(0, units, time.monotonic() + args.seconds)
    setup_walls = setup_walls + measure_setup(*setup_job)[0]
    metrics = {"setup_s": statistics.median(setup_walls), **recs.timing(),
               "quality_log10_med": quality(recs.cells)}
    usage = resource.RUSAGE_CHILDREN if racing else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    print(f"runs {len(recs.walls)}; tail = p{100 * tail_share(len(recs.walls)):.1f}, "
          f"the highest percentile with 10 runs above it; p50 and tail are "
          f"Harrell-Davis estimates")
    if racing:
        print(f"target_runner_ms_p50 = call_ms_p50; "
              f"target_runner_ms_tail = call_ms_tail")
        runner.check_parity(recs, results)
    else:
        runner.rerun_first(recs, results[0])
    return metrics, recs


def per_layer(args, plan, runner, units: int, setup_reports) -> tuple[dict, Records]:
    from tracing import OBJECTIVE, SpanTable, Tracer, load

    racing = args.workload == "racing"
    OUT.mkdir(exist_ok=True)
    tracer = None if racing else Tracer()
    base, traced = Records(), Records()
    spans, run_wall_ms = [], 0.0
    # Each unit runs untraced and then traced, so that both see the machine
    # in the same state; the traced run must reproduce the untraced one.
    for k in range(units):
        recs, reference, _ = runner.measure(k, k + 1)
        base.extend(recs)
        if racing:
            recs, _, files = runner.measure(k, k + 1, traced=True, reference=reference)
            spans += files
        else:
            tracer.install()
            try:
                recs, _, _ = runner.measure(k, k + 1, tracer=tracer,
                                            reference=reference)
            finally:
                tracer.uninstall()
        traced.extend(recs)

    table = SpanTable()
    if racing:
        interp, imports = [], []
        for path, spawned in spans:
            names, arrays, counts, extra = load(path)
            table.add(names, arrays, counts)
            interp.append((extra["started"] - spawned) * 1e3)
            imports.append(extra["import_s"] * 1e3)
            run_wall_ms += extra["run_wall_ms"]
            path.unlink()
        setup = {"interpreter_ms": statistics.median(interp),
                 "import_ms": statistics.median(imports),
                 "validate_us": table.mean_us("config.validate"),
                 "make_instance_ms": table.mean_us("benchmarks.make_instance") / 1e3}
        draws = {"config.reject_ratio": plan.rejected / plan.drawn,
                 "config.accepted_crash_ratio": plan.crashing / plan.drawn}
    else:
        tracer.save(OUT / f"{args.workload}-spans.npz")
        table.add(tracer.names, tracer.arrays(), tracer.counts)
        run_wall_ms = tracer.run_wall_ms
        setup = {k: statistics.median(r[k] for r in setup_reports)
                 for k in ("interpreter_ms", "import_ms", "validate_us",
                           "make_instance_ms")}
        draws = {"config.reject_ratio": 0.0, "config.accepted_crash_ratio": 0.0}
    fes = sum(traced.fes)
    metrics = layer_metrics(table, fes, run_wall_ms, setup, draws)
    traced_t, base_t = traced.timing(), base.timing()
    metrics["trace.overhead_fe_per_s"] = traced_t["fe_per_s"] - base_t["fe_per_s"]
    metrics["trace.overhead_call_ms_p50"] = traced_t["call_ms_p50"] - base_t["call_ms_p50"]
    base.extend(traced)
    if table.calls.get(OBJECTIVE, 0) != fes:
        base.problems.append(f"{table.calls.get(OBJECTIVE, 0)} objective spans "
                             f"for {fes} FEs")
    if not racing and abs(metrics["trace.self_sum_ratio"] - 1.0) > SELF_SUM_TOLERANCE:
        base.problems.append(
            f"layer self times sum to {metrics['trace.self_sum_ratio']:.4f} of the "
            f"run() wall time (tolerance {SELF_SUM_TOLERANCE})")
    return metrics, base


def main(argv=None) -> int:
    _import_program()
    import workloads

    args = parse_args(argv)
    print("env", json.dumps(environment()))
    plan = workloads.Plan(args.workload, args.seed)
    units = workloads.fixed_units(args.workload, args.seconds)
    if args.trace:
        units = max(1, units // 2)  # each unit runs untraced and traced
    runner = Racing(plan) if args.workload == "racing" else InProcess(plan)
    setup_job = plan.setup_items()
    setup_walls, setup_reports = measure_setup(*setup_job)
    if args.trace:
        metrics, recs = per_layer(args, plan, runner, units, setup_reports)
    else:
        metrics, recs = end_to_end(args, runner, units, setup_walls, setup_job)

    units_of = declared_units(args.trace)
    if set(metrics) != set(units_of):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units_of))} are "
                           f"not both measured and declared in BENCHMARK.json")
    for name, value in metrics.items():
        print(f"{name} = {value} {units_of[name]}")
    print(f"failed_frac = {recs.failed / recs.attempted} "
          f"({recs.failed} of {recs.attempted} operations)")
    for problem in recs.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not recs.problems,
        "attempted": recs.attempted,
        "failed": recs.failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
