"""Differential-evolution updates: base-vector selection, differential mutation,
binomial/exponential recombination, greedy selection, and the glue used when
composing DE with a velocity-based update."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Bounds


class InsufficientPopulation(Exception):
    pass


@dataclass
class DeParams:
    base_vector: str = "random"       # random | best | target_to_best | directed_random | directed_best
    diff_fraction: float = 0.02       # fraction of the population used as difference pairs
    recombination: str = "binomial"   # binomial | exponential
    p_a: float = 0.5
    beta: float = 0.5
    vectors: str = "positions"        # positions | pbest | mixture
    vector_basis: str = "natural"     # natural | eigenvector
    recompute_velocity: str = "none"  # goBack | random | position | none
    pso_only_on_fail: bool = False


def num_vector_differences(diff_fraction: float, n: int) -> int:
    """Number of difference pairs: floor(fraction*n), at least 1, at most n/4."""
    return int(np.clip(int(diff_fraction * n), 1, max(1, n // 4)))


def _distinct_indices(count: int, n: int, exclude: set[int],
                      rng: np.random.Generator) -> list[int]:
    pool = [j for j in range(n) if j not in exclude]
    if len(pool) < count:
        raise InsufficientPopulation(
            f"need {count} distinct donors but only {len(pool)} candidates exist")
    picks = rng.choice(len(pool), size=count, replace=False)
    return [pool[int(j)] for j in picks]


def _member_vector(idx: int, positions: np.ndarray, pbests: np.ndarray,
                   mode: str, rng: np.random.Generator) -> np.ndarray:
    if mode == "positions":
        return positions[idx]
    if mode == "pbest":
        return pbests[idx]
    if mode == "mixture":  # fair coin per selected solution
        return pbests[idx] if rng.uniform() < 0.5 else positions[idx]
    raise ValueError(f"unknown vectors mode {mode!r}")


def select_base_and_donors(kind: str, positions: np.ndarray, pbests: np.ndarray,
                           fitnesses: np.ndarray, i: int, k: int, beta: float,
                           vectors: str, rng: np.random.Generator):
    """Pick the base vector and k donor pairs for target i.

    All selected indices are mutually distinct and different from i.  The
    directed kinds use a single (b, c) pair ordered so the base has the best
    fitness of the three.
    """
    n = len(positions)
    best = int(np.argmin(fitnesses))

    def vec(idx):
        return _member_vector(idx, positions, pbests, vectors, rng)

    if kind in ("directed_random", "directed_best"):
        if kind == "directed_best":
            a = best
            if a == i and n > 1:
                a = int(np.argsort(fitnesses, kind="stable")[1])
            b, c = _distinct_indices(2, n, {i, a}, rng)
        else:
            a, b, c = _distinct_indices(3, n, {i}, rng)
            trio = sorted((a, b, c), key=lambda j: (fitnesses[j], j))
            a, b, c = trio[0], trio[1], trio[2]
        return vec(a), [(vec(b), vec(c))]

    if kind == "random":
        picks = _distinct_indices(2 * k + 1, n, {i}, rng)
        base = vec(picks[0])
        rest = picks[1:]
    elif kind == "best":
        base_idx = best
        if base_idx == i and n > 1:
            base_idx = int(np.argsort(fitnesses, kind="stable")[1])
        base = vec(base_idx)
        rest = _distinct_indices(2 * k, n, {i, base_idx}, rng)
    elif kind == "target_to_best":
        base = positions[i] + beta * (positions[best] - positions[i])
        rest = _distinct_indices(2 * k, n, {i}, rng)
    else:
        raise ValueError(f"unknown base-vector kind {kind!r}")

    pairs = [(vec(rest[2 * j]), vec(rest[2 * j + 1])) for j in range(k)]
    return base, pairs


def mutate(base: np.ndarray, pairs, beta: float, kind: str) -> np.ndarray:
    """Differential mutation.

    Standard kinds add (beta/k) * sum of the k pair differences to the base;
    the directed kinds compute base + (beta/2) * (base - b - c).
    """
    if kind in ("directed_random", "directed_best"):
        b, c = pairs[0]
        return base + (beta / 2.0) * (base - b - c)
    k = len(pairs)
    acc = np.zeros_like(base)
    for b, c in pairs:
        acc += b - c
    return base + (beta / k) * acc


def recombine(kind: str, target: np.ndarray, mutant: np.ndarray, p_a: float,
              rng: np.random.Generator) -> np.ndarray:
    """Build the trial vector; at least one mutant component is always taken."""
    d = target.size
    k_rand = int(rng.integers(d))
    if kind == "binomial":
        take = rng.uniform(size=d) >= p_a
        take[k_rand] = True
        return np.where(take, mutant, target)
    if kind == "exponential":
        trial = target.copy()
        length = 0
        while True:
            trial[(k_rand + length) % d] = mutant[(k_rand + length) % d]
            length += 1
            if length >= d or rng.uniform() < p_a:
                break
        return trial
    raise ValueError(f"unknown recombination kind {kind!r}")


def select_greedy(target_fitness: float, trial_fitness: float) -> tuple[float, bool]:
    """Greedy selection on an evaluated trial: returns (trial_fitness, improved),
    where improved means strictly better than the target."""
    return trial_fitness, trial_fitness < target_fitness


def recompute_velocity(kind: str, old_position: np.ndarray, new_position: np.ndarray,
                       velocity: np.ndarray, rng: np.random.Generator,
                       bounds: Bounds) -> np.ndarray:
    """Re-derive a particle's velocity after DE improved its position."""
    if kind == "goBack":
        return new_position - old_position
    if kind == "random":
        half = bounds.width() / 2.0
        return rng.uniform(-half, half)
    if kind == "position":
        return new_position.copy()
    if kind == "none":
        return velocity
    raise ValueError(f"unknown recompute-velocity kind {kind!r}")


# ---------------------------------------------------------------------------
# eigenvector basis
# ---------------------------------------------------------------------------

def population_eigenbasis(positions: np.ndarray) -> np.ndarray | None:
    """Orthonormal eigenbasis of the population covariance, or None if degenerate."""
    if len(positions) < 2:
        return None
    cov = np.cov(positions, rowvar=False)
    cov = np.atleast_2d(cov)
    if not np.all(np.isfinite(cov)):
        return None
    try:
        vals, vecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError:
        return None
    if vals[-1] <= 1e-30:  # identical points -> zero covariance
        return None
    return vecs


def eigen_recombination_wrap(target: np.ndarray, mutant: np.ndarray,
                             basis: np.ndarray | None):
    """Rotate target and mutant into the eigenbasis; returns them plus the inverse map.

    A degenerate covariance (basis None) falls back to the natural basis.
    """
    if basis is None:
        return target, mutant, lambda v: v
    return basis.T @ target, basis.T @ mutant, lambda v: basis @ v
