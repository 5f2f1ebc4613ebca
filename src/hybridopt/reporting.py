"""Run records, MED / MEDerr / MAD aggregation, and the batch harness."""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .benchmarks import make_instance
from .config import load_parameter_file, validate
from .core import cap_reported_value
from .executor import run

CSV_COLUMNS = ("function", "dim", "seed", "config", "best_fitness", "evals", "wall_ms")


class EmptyGroup(Exception):
    pass


@dataclass(frozen=True)
class RunRecord:
    function: str
    dim: int
    seed: int
    config: str
    best_fitness: float      # capped for reporting
    evals: int
    wall_ms: float

    def row(self):
        return (self.function, self.dim, self.seed, self.config,
                self.best_fitness, self.evals, self.wall_ms)


@dataclass
class AggregateStats:
    med: float
    mederr: float
    mad: float


def aggregate(values, reference: float | None = None) -> AggregateStats:
    """Median, median error against a reference, and median absolute deviation.

    Values are capped before aggregation; even-sized groups average the two
    central elements (plain median semantics).
    """
    vals = [cap_reported_value(v) for v in values]
    if not vals:
        raise EmptyGroup("aggregate of an empty record group")
    arr = np.asarray(vals, dtype=float)
    med = float(np.median(arr))
    mad = float(np.median(np.abs(arr - med)))
    mederr = med - reference if reference is not None else 0.0
    return AggregateStats(med=med, mederr=mederr, mad=mad)


# ---------------------------------------------------------------------------
# batch execution
# ---------------------------------------------------------------------------

def _execute_entry(entry: dict) -> list[tuple]:
    """Run every seed of one plan entry; returns record rows (worker-safe)."""
    params = dict(entry.get("params", {}))
    if "params_file" in entry:
        params = load_parameter_file(entry["params_file"])
    cfg = validate(params)
    if not hasattr(cfg, "execution"):
        raise ValueError(f"invalid configuration {entry.get('config_id')}: "
                         f"{cfg.describe()}")
    dim = int(entry["dim"])
    instance = make_instance(entry["function"], dim,
                             instance_seed=int(entry.get("instance_seed", 0)),
                             parts=params.get("hybrid.parts"))
    fe_budget = int(entry.get("fe_budget", 5000 * dim))
    rows = []
    for seed in entry["seeds"]:
        result = run(cfg, instance, int(seed), max_evals=fe_budget,
                     wallclock_ms=entry.get("wallclock_ms"))
        rows.append((entry["function"], dim, int(seed),
                     str(entry.get("config_id", "default")),
                     cap_reported_value(result.best_fitness),
                     result.evals_used, result.wall_ms))
    return rows


def run_batch(plan: list[dict], parallelism: int = 1):
    """Execute a plan of (config, instance, seeds) entries.

    Returns (records, errors); records are sorted by (function, dim, config,
    seed) and errors follow plan order, so output is independent of the
    parallelism degree.
    """
    if not plan:
        raise ValueError("empty batch plan")
    rows: list[tuple] = []
    errors: list[str] = []
    if parallelism <= 1:
        for entry in plan:
            try:
                rows.extend(_execute_entry(entry))
            except Exception as exc:  # per-run failures recorded, batch continues
                errors.append(f"{entry.get('config_id', '?')}: {exc}")
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallelism) as pool:
            futures = [pool.submit(_execute_entry, entry) for entry in plan]
            for entry, fut in zip(plan, futures):
                try:
                    rows.extend(fut.result())
                except Exception as exc:
                    errors.append(f"{entry.get('config_id', '?')}: {exc}")
    records = [RunRecord(*row) for row in rows]
    records.sort(key=lambda r: (r.function, r.dim, r.config, r.seed))
    for msg in errors:
        print(f"batch error: {msg}", file=sys.stderr)
    return records, errors


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def records_to_csv(records: list[RunRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.row())
    return buf.getvalue()


def records_to_json(records: list[RunRecord]) -> str:
    return json.dumps([asdict(rec) for rec in records], indent=2) + "\n"


def write_records(records: list[RunRecord], path: str, fmt: str = "csv") -> None:
    if fmt == "csv":
        text = records_to_csv(records)
    elif fmt == "json":
        text = records_to_json(records)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
