"""Differential-evolution updates on blocks of target rows: base-vector
selection, differential mutation, binomial/exponential recombination, greedy
selection, and the glue used when composing DE with a velocity-based update."""

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
    return min(max(int(diff_fraction * n), 1), max(1, n // 4))


def _uniform_indices(size: int, shape, rng: np.random.Generator,
                     dtype=np.intp) -> np.ndarray:
    """Uniform integers in range(size) as floor(u * size) of one block of
    doubles u in [0, 1): u * size rounds below size for every such u, and every
    value's probability is within 2**-53 of 1/size.  One ``Generator.random``
    call costs a fraction of an ``integers`` call on the one-row path."""
    return (rng.random(shape) * size).astype(dtype)


# Up to this many candidates, _distinct_picks sorts one block of uniforms
# instead of redrawing repeats.  The sort costs rows x size x log(size) and
# the redraw rounds cost about the same at any size, so the two meet near
# size 38 for rows of 3 picks of a population of size + 1 (about 60 us each on
# a 2-core x86-64 machine); at sizes 4..20 the sort is 5 to 10 times faster.
SORT_PICKS_MAX_SIZE = 36


def _distinct_picks(count: int, size: int, rows: int,
                    rng: np.random.Generator) -> np.ndarray:
    """A (rows, count) block of picks from range(size), no value twice in a row.

    Every row is uniform over the ordered count-tuples of distinct values.
    Up to SORT_PICKS_MAX_SIZE candidates, a row is the first count entries
    of a stable argsort of size uniforms: a uniform random permutation, with
    equal draws kept in index order whatever numpy's sort backend.  Above,
    one block of picks is drawn; then every entry that repeats an earlier
    entry of its row is redrawn, until no row has a repeat.  Which entries
    are redrawn depends on the picks only through which of them are equal.
    Redrawing entries rather than whole rows keeps large counts cheap: at
    n = 10 000 and the default diff fraction a row of 401 picks has about 8
    repeats.
    """
    if size < count:
        raise InsufficientPopulation(
            f"need {count} distinct donors but only {size} candidates exist")
    if size <= SORT_PICKS_MAX_SIZE:
        return np.argsort(rng.random((rows, size)), axis=1, kind="stable")[:, :count]
    # numpy sorts 8- and 16-bit integers stably by radix: faster than intp on
    # rows of hundreds of picks, much slower on many short rows
    dtype = np.min_scalar_type(size) if count >= 128 else np.intp
    picks = _uniform_indices(size, (rows, count), rng, dtype)
    flat = picks.reshape(-1)
    ranked = np.sort(picks, axis=1)
    while (ranked[:, 1:] == ranked[:, :-1]).any():
        # flat positions of each row's picks in value order, equal picks in
        # entry order; every one equal to its predecessor is redrawn, in
        # entry order
        order = (np.argsort(picks, axis=1, kind="stable")
                 + np.arange(0, flat.size, count)[:, None])
        ranked = flat.take(order)
        repeat = np.sort(order[:, 1:][ranked[:, 1:] == ranked[:, :-1]])
        flat[repeat] = _uniform_indices(size, repeat.size, rng)
        ranked = np.sort(picks, axis=1)
    return picks.astype(np.intp)


def best_two(fitnesses: np.ndarray) -> tuple[int, int]:
    """Indices of the best member and the runner-up, ties broken by index."""
    first = int(fitnesses.argmin())
    rest = fitnesses.copy()
    rest[first] = np.inf
    second = int(rest.argmin())
    # every other value is +inf: the runner-up is the lowest other index
    return first, (1 if second == first else second)


def select_base_and_donors(kind: str, positions: np.ndarray, pbests: np.ndarray,
                           fitnesses: np.ndarray, targets, k: int, beta: float,
                           vectors: str, rng: np.random.Generator,
                           leaders: tuple[int, int]):
    """Pick the base vectors and the donor blocks of the target rows ``targets``.

    Returns the (r, d) base rows and the (r, 2k, d) donor blocks (r, 2, d for
    the directed kinds), row j for target targets[j], every block ordered b1,
    c1, b2, c2, ...  A target's selected members are mutually distinct and
    differ from the target.
    ``best`` and ``directed_best`` take as base the best member other than the
    target (the runner-up on ties, by index); the directed kinds use a single
    (b, c) pair, ordered so the base has the best (fitness, index) of the three.
    Under ``mixture`` a fair coin per selected member picks its personal best
    or its position.  ``leaders`` is ``best_two(fitnesses)``, found once
    for all the calls that read one state.
    """
    targets = np.asarray(targets)
    n, r = len(positions), len(targets)
    if kind in ("best", "directed_best"):
        picks = _distinct_picks(2 if kind == "directed_best" else 2 * k, n - 2, r, rng)
        first, second = leaders
        top = np.where(targets == first, second, first)
        for skip in (np.minimum(targets, top), np.maximum(targets, top)):
            picks += picks >= skip[:, None]  # pool position -> index
        picks = np.concatenate((top[:, None], picks), axis=1)
    elif kind in ("random", "directed_random", "target_to_best"):
        count = {"random": 2 * k + 1, "directed_random": 3, "target_to_best": 2 * k}[kind]
        picks = _distinct_picks(count, n - 1, r, rng)
        picks += picks >= targets[:, None]
        if kind == "directed_random":
            picks = np.take_along_axis(picks, np.lexsort((picks, fitnesses[picks])), axis=1)
    else:
        raise ValueError(f"unknown base-vector kind {kind!r}")
    # take() gathers small blocks at a fraction of the cost of fancy indexing
    if vectors == "positions":
        rows = positions.take(picks, axis=0)
    elif vectors == "pbest":
        rows = pbests.take(picks, axis=0)
    elif vectors == "mixture":
        heads = rng.random(picks.shape) < 0.5
        rows = np.where(heads[..., None], pbests.take(picks, axis=0),
                        positions.take(picks, axis=0))
    else:
        raise ValueError(f"unknown vectors mode {vectors!r}")
    if kind == "target_to_best":
        x = positions.take(targets, axis=0)
        return x + beta * (positions[leaders[0]] - x), rows
    return rows[:, 0], rows[:, 1:]


def mutate(base: np.ndarray, donors: np.ndarray, beta: float, kind: str) -> np.ndarray:
    """Differential mutation of base rows with donor rows b1, c1, b2, c2, ...
    along the second-to-last axis.

    Standard kinds add (beta/k) * sum of the k differences b_j - c_j to the
    base, summed in pair order; the directed kinds compute
    base + (beta/2) * (base - b - c).
    """
    if kind in ("directed_random", "directed_best"):
        b, c = donors[..., 0, :], donors[..., 1, :]
        return base + (beta / 2.0) * (base - b - c)
    diffs = donors[..., 0::2, :] - donors[..., 1::2, :]
    return base + (beta / diffs.shape[-2]) * np.add.reduce(diffs, axis=-2, initial=0.0)


def recombine(kind: str, target: np.ndarray, mutant: np.ndarray, p_a: float,
              rng: np.random.Generator) -> np.ndarray:
    """Trial rows from (r, d) target and mutant rows.  Each trial takes the
    mutant component at a uniform position k_rand; binomial recombination
    takes each other one with probability 1 - p_a, exponential recombination
    the run after k_rand (cyclically) that goes on while draws are >= p_a."""
    r, d = target.shape
    u = rng.random((r, d + 1))  # per row: k_rand, then d draws
    k_rand = (u[:, 0] * d).astype(np.intp)
    if kind == "binomial":
        take = (u[:, 1:] >= p_a) | (np.arange(d) == k_rand[:, None])
    elif kind == "exponential":
        # 1 + the number of leading draws >= p_a
        length = 1 + np.logical_and.accumulate(u[:, 1:d] >= p_a, axis=1).sum(axis=1)
        take = (np.arange(d) - k_rand[:, None]) % d < length[:, None]
    else:
        raise ValueError(f"unknown recombination kind {kind!r}")
    return np.where(take, mutant, target)


def select_greedy(target_fitness: float, trial_fitness: float) -> tuple[float, bool]:
    """Greedy selection on an evaluated trial: returns (trial_fitness, improved),
    where improved means strictly better than the target."""
    return trial_fitness, trial_fitness < target_fitness


def recompute_velocity(kind: str, old_position: np.ndarray, new_position: np.ndarray,
                       velocity: np.ndarray, rng: np.random.Generator,
                       bounds: Bounds) -> np.ndarray:
    """Re-derive velocities (one row or a block) after DE improved positions."""
    if kind == "goBack":
        return new_position - old_position
    if kind == "random":
        half = bounds.width() / 2.0
        return rng.uniform(-half, half, size=np.shape(new_position))
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
    n = len(positions)
    if n < 2:
        return None
    # np.cov(positions, rowvar=False) bit for bit, without its Python wrapper
    centred = (positions - positions.sum(axis=0) / n).T
    cov = np.dot(centred, centred.T)
    cov *= 1.0 / (n - 1)
    if not np.isfinite(cov).all():
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
    """Rotate (r, d) target and mutant rows into the eigenbasis; returns them
    plus the inverse map.

    A degenerate covariance (basis None) falls back to the natural basis.
    """
    if basis is None:
        return target, mutant, lambda v: v
    return target @ basis, mutant @ basis, lambda v: v @ basis.T
