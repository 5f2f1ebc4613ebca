"""Run records, MED / MEDerr / MAD aggregation, and the record writers."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .core import cap_reported_value


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

    @classmethod
    def of(cls, result, function: str, dim: int, seed: int, config: str) -> RunRecord:
        """The record of one RunResult: the one place a recorded cost is capped."""
        return cls(function, dim, seed, config, cap_reported_value(result.best_fitness),
                   result.evals_used, result.wall_ms)


CSV_COLUMNS = tuple(f.name for f in fields(RunRecord))


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


def records_to_csv(records: list[RunRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(astuple(rec))
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
