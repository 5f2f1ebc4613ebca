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
                      rng: np.random.Generator) -> np.ndarray:
    """count distinct picks from the ascending pool of 0..n-1 without exclude."""
    size = n - len(exclude)
    if size < count:
        raise InsufficientPopulation(
            f"need {count} distinct donors but only {size} candidates exist")
    picks = rng.choice(size, size=count, replace=False)
    for e in sorted(exclude):  # pool position -> index: step past each excluded one
        picks += picks >= e
    return picks


def _rows(idx, positions: np.ndarray, pbests: np.ndarray, mode: str,
          rng: np.random.Generator) -> np.ndarray:
    """The vectors of the member idx, or of the members idx in order; under
    ``mixture`` a fair coin per member picks its personal best or its position."""
    if mode == "positions":
        return positions[idx]
    if mode == "pbest":
        return pbests[idx]
    if mode == "mixture":
        heads = rng.uniform(size=np.shape(idx)) < 0.5
        return np.where(heads[..., None], pbests[idx], positions[idx])
    raise ValueError(f"unknown vectors mode {mode!r}")


def select_base_and_donors(kind: str, positions: np.ndarray, pbests: np.ndarray,
                           fitnesses: np.ndarray, i: int, k: int, beta: float,
                           vectors: str, rng: np.random.Generator):
    """Pick the base vector and the (2k, d) donor block for target i.

    The donor rows are ordered b1, c1, b2, c2, ...  All selected indices are
    mutually distinct and different from i.  The directed kinds use a single
    (b, c) pair ordered so the base has the best fitness of the three.
    """
    n = len(positions)
    best = int(np.argmin(fitnesses))
    # the best member other than the target (the runner-up on ties, by index)
    top = best if best != i or n == 1 else int(np.argsort(fitnesses, kind="stable")[1])

    if kind in ("random", "directed_random", "directed_best"):
        if kind == "directed_best":
            picks = [top, *_distinct_indices(2, n, {i, top}, rng)]
        elif kind == "directed_random":  # ordered by (fitness, index)
            picks = _distinct_indices(3, n, {i}, rng)
            picks = picks[np.lexsort((picks, fitnesses[picks]))]
        else:
            picks = _distinct_indices(2 * k + 1, n, {i}, rng)
        rows = _rows(picks, positions, pbests, vectors, rng)
        return rows[0], rows[1:]
    if kind == "best":
        # the base's coin is drawn before the donor indices
        base = _rows(top, positions, pbests, vectors, rng)
        exclude = {i, top}
    elif kind == "target_to_best":
        base = positions[i] + beta * (positions[best] - positions[i])
        exclude = {i}
    else:
        raise ValueError(f"unknown base-vector kind {kind!r}")
    return base, _rows(_distinct_indices(2 * k, n, exclude, rng), positions, pbests,
                       vectors, rng)


def mutate(base: np.ndarray, donors: np.ndarray, beta: float, kind: str) -> np.ndarray:
    """Differential mutation with the donor rows b1, c1, b2, c2, ...

    Standard kinds add (beta/k) * sum of the k differences b_j - c_j to the
    base, summed in pair order; the directed kinds compute
    base + (beta/2) * (base - b - c).
    """
    if kind in ("directed_random", "directed_best"):
        b, c = donors
        return base + (beta / 2.0) * (base - b - c)
    diffs = donors[0::2] - donors[1::2]
    return base + (beta / len(diffs)) * np.add.reduce(diffs, axis=0, initial=0.0)


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
