"""Shared primitives: box bounds, evaluation budget, RNG streams and population state."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

# Worst value ever reported to the outside world; internal comparisons are uncapped.
FITNESS_CAP = 1.0e10


class BudgetExhausted(Exception):
    """Raised by evaluate() and ev_block once the FE or wall-clock budget is spent."""


class ParseError(ValueError):
    """Malformed text input (parameter file, shift/rotation data file)."""


def rng_stream(seed: int, run_id: int = 0) -> np.random.Generator:
    """Independent, reproducible generator for one run.

    Streams are split by (seed, run_id) so concurrent runs never share state;
    the same pair always yields the same draw sequence.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
                                spawn_key=(int(run_id),))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class Bounds:
    """Per-dimension box constraints lower[j] <= x[j] <= upper[j]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        if lo.shape != up.shape or lo.ndim != 1:
            raise ValueError("bound vectors must be 1-D and of equal length")
        if not np.all(lo < up):
            raise ValueError("every lower bound must be strictly below its upper bound")

    @classmethod
    def symmetric(cls, half_width: float, d: int) -> "Bounds":
        return cls(np.full(d, -half_width), np.full(d, half_width))

    @property
    def d(self) -> int:
        return self.lower.size

    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def sample_uniform(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


def repair_to_bounds(x: np.ndarray, b: Bounds) -> np.ndarray:
    """Clamp every component into [lb_j, ub_j]; in-bounds components pass
    through bit for bit (np.maximum and np.minimum return their second
    argument on a tie, so -0.0 at a zero bound stays -0.0)."""
    return np.minimum(b.upper, np.maximum(b.lower, x))


def spread(hi: float, lo: float) -> float:
    """hi - lo, where equal ends (two +inf too) are a spread of 0."""
    return 0.0 if hi == lo else hi - lo


@dataclass
class EvalBudget:
    """FE and wall-clock accounting for one run.

    used_evals is monotone and never exceeds max_evals: charge(n) charges
    only the FEs that still fit.
    """

    max_evals: int
    used_evals: int = 0
    wallclock_ms: float | None = None
    started_at: float = field(default_factory=time.monotonic)

    def elapsed_ms(self) -> float:
        return (time.monotonic() - self.started_at) * 1000.0

    def wallclock_exceeded(self) -> bool:
        return self.wallclock_ms is not None and self.elapsed_ms() > self.wallclock_ms

    def charge(self, n: int = 1) -> int:
        """Charge as many of n FEs as still fit the FE budget and return that
        count; 0 once the wall clock is past its limit (read once per call)."""
        if self.wallclock_exceeded():
            return 0
        fit = min(n, self.max_evals - self.used_evals)
        self.used_evals += fit
        return fit


def evaluate(obj, x: np.ndarray, budget: EvalBudget) -> float:
    """Evaluate obj at x, consuming exactly one FE.

    A NaN objective value is returned as +inf, so no comparison ever adopts
    it.  Raises BudgetExhausted (before calling obj) when the budget is spent.
    """
    if len(x) != obj.d:
        raise ValueError(f"point has length {len(x)}, objective expects {obj.d}")
    if not budget.charge():
        raise BudgetExhausted("FE or wall-clock budget spent")
    fx = float(obj(x))
    return math.inf if math.isnan(fx) else fx


@dataclass
class Population:
    """DE/PSO population state; row i of every array belongs to member i.

    x, v and p are the n x d positions, velocities and personal bests; f and
    pf are the fitnesses of x and p.  Every row keeps pf <= f.
    """

    x: np.ndarray
    v: np.ndarray
    p: np.ndarray
    f: np.ndarray
    pf: np.ndarray

    @classmethod
    def fresh(cls, X, V, F) -> "Population":
        """Population of the members with rows X, V and values F, each its own
        personal best."""
        x, f = np.array(X, dtype=float), np.array(F, dtype=float)
        return cls(x, np.array(V, dtype=float), x.copy(), f, f.copy())

    def __len__(self) -> int:
        return len(self.f)

    def extend(self, X, V, F) -> None:
        """Append fresh members with rows X, V and values F."""
        new = Population.fresh(X, V, F)
        for name in ("x", "v", "p", "f", "pf"):
            setattr(self, name, np.concatenate((getattr(self, name), getattr(new, name))))

    def reset(self, idx, X, V, F) -> None:
        """Replace the members idx by fresh members at the rows X, V and values
        F, forgetting their personal bests."""
        self.x[idx] = self.p[idx] = X
        self.v[idx] = V
        self.f[idx] = self.pf[idx] = F

    def record_all(self, X: np.ndarray, F, rows=slice(None)) -> np.ndarray:
        """Move the members rows (every member by default), row j of X and F
        for the j-th of them, to their evaluated rows; returns where personal
        bests improved, one entry per row of X."""
        F = np.asarray(F, dtype=float)
        self.x[rows] = X
        self.f[rows] = F
        better = F < self.pf[rows]
        improved = np.arange(len(self))[rows][better]
        self.p[improved] = X[better]
        self.pf[improved] = F[better]
        return better

    def record_better(self, X: np.ndarray, F, rows=slice(None)) -> np.ndarray:
        """Move each of the members rows (every member by default) whose row
        of X has a strictly lower value than its own to that row (greedy
        selection); returns which of them moved, one entry per row of X."""
        F = np.asarray(F, dtype=float)
        x, f = self.x[rows], self.f[rows]
        moved = F < f
        self.record_all(np.where(moved[:, None], X, x), np.where(moved, F, f), rows)
        return moved

    def record(self, i: int, x: np.ndarray, fx: float) -> bool:
        """Move member i to the evaluated point x; True iff its personal best improved."""
        self.x[i] = x
        self.f[i] = fx
        if fx < self.pf[i]:
            self.p[i] = x
            self.pf[i] = fx
            return True
        return False


def cap_reported_value(f: float) -> float:
    """Cap a reported fitness at 1e10. Only for output; never for internal comparisons."""
    return min(float(f), FITNESS_CAP)


@dataclass
class RunResult:
    """Outcome of one seeded run."""

    best_position: np.ndarray
    best_fitness: float
    evals_used: int
    wall_ms: float
    trace: list[tuple[int, float]] | None = None
    module_evals: dict[str, int] | None = None
