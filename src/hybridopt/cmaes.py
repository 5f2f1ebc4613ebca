"""Covariance-matrix-adaptation ES with restarts and increasing population.

State evolves through multivariate sampling, weighted recombination of the
best mu samples, two evolution paths driving step-size control and the
rank-one / rank-mu covariance update.  Three matrix modes are supported:
full, diagonal, and full-then-diagonal (switching after 2 + 100*d/sqrt(lambda)
FEs).  Cumulation and learning-rate constants follow the standard tutorial
formulas.

In full mode C is decomposed lazily, as in pycma's purecma: only once more
FEs than its gap of 0.5 lambda / (d (c1 + cmu)) have passed since the last
decomposition, that is every floor(0.5 / (d (c1 + cmu))) + 1 generations,
counted from the start and from each restart.  Their C = I needs no
decomposition, so the first sample uses B = I and D = 1 as they are.
Sampling and the whitening of the mean's step use the last B and D in
between, and C is made exactly symmetric only right before it is
decomposed.  At default settings the gap is

    d      2-20   30   50   100
    gap     2      3    4    7     generations

and an IPOP restart that doubles lambda at d = 50 brings it to 2.  Diagonal
mode refreshes only D = sqrt(C), in O(d) every generation; it never reads B.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import Bounds, repair_to_bounds, spread


# sigma0 = max(c, MIN_SIGMA0_FRACTION) * mean box width.  Below ~1e-14 of the
# width, steps of the mean round to multiples of one ulp, so (new - old) / sigma
# blows up the evolution paths and sigma's update overflows.
MIN_SIGMA0_FRACTION = 1e-12


class InvalidCounts(Exception):
    pass


class DegenerateState(Exception):
    """Covariance lost positive definiteness; caller should restart."""


@dataclass
class CmaParams:
    a: float = 3.0                 # population sizing: lambda0 = 4 + floor(a ln d)
    b: float = 2.0                 # parent divisor: mu = floor(lambda / b)
    c: float = 0.5                 # sigma0 = c * mean box width; see MIN_SIGMA0_FRACTION
    d_inc: float = 2.0             # lambda growth factor on restart
    e: float = -12.0               # log10 threshold on current-generation fitness range
    f: float = -12.0               # log10 threshold on best-fitness history range
    g: float = -12.0               # log10 threshold on sampling std
    matrix_mode: str = "full"      # full | diagonal | full_then_diagonal
    weight_scheme: str = "logarithmic"  # logarithmic | linear_decreasing | equal
    pop_mode: str = "incremental"  # constant | incremental
    restart: bool = True


def recombination_weights(scheme: str, lam: int, mu: int) -> np.ndarray:
    """Recombination weights: positive, non-increasing, summing to 1."""
    if not 1 <= mu <= lam:
        raise InvalidCounts(f"need 1 <= mu <= lambda, got mu={mu} lambda={lam}")
    i = np.arange(1, mu + 1, dtype=float)
    if scheme == "logarithmic":
        raw = math.log((lam - 1) / 2.0 + 1.0) - np.log(i)
    elif scheme == "linear_decreasing":
        raw = lam - i - 1.0
    elif scheme == "equal":
        raw = np.ones(mu)
    else:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    if np.any(raw <= 0):
        raise InvalidCounts(f"{scheme} weights not positive for lambda={lam}, mu={mu}")
    return raw / raw.sum()


def _max_mu(scheme: str, lam: int) -> int:
    """Largest mu for which the scheme yields strictly positive weights."""
    if scheme == "logarithmic":
        return max(1, math.ceil((lam - 1) / 2.0))
    if scheme == "linear_decreasing":
        return max(1, lam - 2)
    return lam


@dataclass
class CmaState:
    """One CMA-ES distribution.  ``_reset`` sets every field after ``lam``,
    ``sigma0``, ``gen`` and ``restarts``, at the start and on each restart."""

    lam: int
    sigma0: float
    gen: int = 0
    restarts: int = 0
    mean: np.ndarray = field(init=False)
    sigma: float = field(init=False)
    C: np.ndarray = field(init=False)  # full matrix, or 1-D variance vector in diagonal mode
    diagonal: bool = field(init=False)
    p_c: np.ndarray = field(init=False)
    p_sigma: np.ndarray = field(init=False)
    eigen_B: np.ndarray = field(init=False)
    eigen_D: np.ndarray = field(init=False)  # eigenvalue square roots
    eigen_gap: int = field(init=False)  # generations between decompositions of C
    eigen_age: int = field(init=False)  # generations since the last decomposition
    mu: int = field(init=False)
    weights: np.ndarray = field(init=False)
    mu_eff: float = field(init=False)
    c_sigma: float = field(init=False)
    d_sigma: float = field(init=False)
    c_c: float = field(init=False)
    c_cov: float = field(init=False)
    mu_cov: float = field(init=False)
    chi_d: float = field(init=False)
    hist_best: deque = field(init=False)
    last_gen_spread: float = field(init=False)
    fes_at_start: int = field(init=False)

    @property
    def d(self) -> int:
        return self.mean.size


def _reset(state: CmaState, params: CmaParams, mean: np.ndarray, fes_used: int) -> None:
    """Fresh distribution at the current lambda, for the start and every restart.

    mu = floor(lambda/b) with its weights, the cumulation and learning-rate
    constants of the standard tutorial formulas, the given mean, sigma =
    sigma0, C = I, zero evolution paths and an empty best-fitness history of
    10 + 30 d/lambda generations.
    """
    d = mean.size
    mu = max(1, min(int(state.lam / params.b), _max_mu(params.weight_scheme, state.lam)))
    w = recombination_weights(params.weight_scheme, state.lam, mu)
    mu_eff = 1.0 / float(np.sum(w * w))
    c_sigma = (mu_eff + 2.0) / (d + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (d + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / d) / (d + 4.0 + 2.0 * mu_eff / d)
    c_1 = 2.0 / ((d + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((d + 2.0) ** 2 + mu_eff))
    state.mu, state.weights, state.mu_eff = mu, w, mu_eff
    state.c_sigma, state.d_sigma, state.c_c = c_sigma, d_sigma, c_c
    # Single-coefficient form: c_cov/mu_cov recovers the rank-one rate and
    # c_cov*(1 - 1/mu_cov) the rank-mu rate.
    state.c_cov = c_1 + c_mu
    state.mu_cov = state.c_cov / c_1
    state.chi_d = math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d))
    state.mean = mean
    state.sigma = state.sigma0
    state.diagonal = params.matrix_mode == "diagonal"
    state.C = np.ones(d) if state.diagonal else np.eye(d)
    state.p_c = np.zeros(d)
    state.p_sigma = np.zeros(d)
    state.eigen_B = np.eye(d)
    state.eigen_D = np.ones(d)
    # the fewest whole generations whose FEs exceed purecma's lazy gap of
    # 0.5 lambda / (d (c1 + cmu)); the identity needs no decomposition, so
    # the first sample uses B = I and D = 1 as they are
    state.eigen_gap = int(0.5 / (d * state.c_cov)) + 1
    state.eigen_age = 0
    state.hist_best = deque(maxlen=10 + round(30.0 * d / state.lam))
    state.last_gen_spread = math.inf
    state.fes_at_start = fes_used


def init_state(params: CmaParams, bounds: Bounds, rng: np.random.Generator,
               mean: np.ndarray | None = None, fes_used: int = 0) -> CmaState:
    """Fresh state: lambda = 4 + floor(a ln d) with d = bounds.d,
    mu = floor(lambda/b), sigma = max(c, MIN_SIGMA0_FRACTION) * mean box width."""
    state = CmaState(lam=4 + int(math.floor(params.a * math.log(bounds.d))),
                     sigma0=max(params.c, MIN_SIGMA0_FRACTION)
                     * float(np.mean(bounds.width())))
    mean = bounds.sample_uniform(rng) if mean is None else np.asarray(mean, dtype=float).copy()
    _reset(state, params, mean, fes_used)
    return state


def _refresh_eigensystem(state: CmaState) -> None:
    if state.diagonal:   # B is not read in diagonal mode
        if (state.C <= 0).any():
            raise DegenerateState("diagonal variance lost positivity")
        state.eigen_D = np.sqrt(state.C)
        return
    if state.eigen_age < state.eigen_gap:
        state.eigen_age += 1
        return
    state.C = (state.C + state.C.T) / 2.0   # purecma's _enforce_symmetry
    if not np.isfinite(state.C).all():  # e.g. after sigma underflowed
        raise DegenerateState("covariance is not finite")
    vals, vecs = np.linalg.eigh(state.C)
    if vals[0] <= 0 or not np.isfinite(vals).all():
        raise DegenerateState("covariance lost positive definiteness")
    state.eigen_B = vecs
    state.eigen_D = np.sqrt(vals)
    state.eigen_age = 1


def sample_population(state: CmaState, rng: np.random.Generator) -> np.ndarray:
    """lambda samples m + sigma * B D z.

    The eigensystem is refreshed first: D alone every generation in diagonal
    mode, where B is not read, and in full mode only once ``eigen_gap``
    generations have passed since the last decomposition; in between, B and
    D are those of that decomposition.
    """
    _refresh_eigensystem(state)
    z = rng.standard_normal((state.lam, state.d))
    if state.diagonal:
        return state.mean + state.sigma * z * state.eigen_D
    return state.mean + state.sigma * (z * state.eigen_D) @ state.eigen_B.T


def update_mean(state: CmaState, ranked: np.ndarray) -> np.ndarray:
    """Weighted recombination of the mu best samples (already ranked ascending)."""
    return state.weights @ ranked[:state.mu]


def _sigma_scale(p_sigma_norm: float, c_sigma: float, d_sigma: float, chi_d: float) -> float:
    return math.exp((c_sigma / d_sigma) * (p_sigma_norm / chi_d - 1.0))


def update_paths_and_sigma(state: CmaState, new_mean: np.ndarray,
                           old_mean: np.ndarray) -> None:
    """Cumulate both evolution paths and rescale sigma from ||p_sigma||."""
    if state.sigma == 0.0:  # degenerate distribution: nothing moved
        step = np.zeros(state.d)
    else:
        step = (new_mean - old_mean) / state.sigma
    if state.diagonal:
        whitened = step / np.sqrt(state.C)
    else:
        whitened = state.eigen_B @ ((state.eigen_B.T @ step) / state.eigen_D)
    cs = state.c_sigma
    state.p_sigma = (1.0 - cs) * state.p_sigma \
        + math.sqrt(cs * (2.0 - cs) * state.mu_eff) * whitened

    norm_ps = math.sqrt(state.p_sigma.dot(state.p_sigma))   # np.linalg.norm bit for bit
    # h_sigma stalls the p_c cumulation while sigma is still adapting fast
    denom = math.sqrt(1.0 - (1.0 - cs) ** (2 * (state.gen + 1)))
    h_sigma = norm_ps / denom < (1.4 + 2.0 / (state.d + 1.0)) * state.chi_d
    cc = state.c_c
    state.p_c = (1.0 - cc) * state.p_c
    if h_sigma:
        state.p_c = state.p_c + math.sqrt(cc * (2.0 - cc) * state.mu_eff) * step

    state.sigma *= _sigma_scale(norm_ps, cs, state.d_sigma, state.chi_d)


def covariance_step(C: np.ndarray, p_c: np.ndarray, ys: np.ndarray,
                    weights: np.ndarray, c_cov: float, mu_cov: float) -> np.ndarray:
    """One covariance update combining decay, rank-one and rank-mu terms.

    A 1-D C is the diagonal of the matrix; its terms are then elementwise.
    """
    if C.ndim == 1:
        rank_one = p_c * p_c
        rank_mu = weights @ (ys * ys)
    else:
        rank_one = p_c[:, None] * p_c   # np.outer without its wrapper
        rank_mu = (weights[:, None] * ys).T @ ys
    out = (1.0 - c_cov) * C   # the terms are added in place, in this order
    rank_one *= c_cov / mu_cov
    out += rank_one
    rank_mu *= c_cov * (1.0 - 1.0 / mu_cov)
    out += rank_mu
    return out


def update_covariance(state: CmaState, ranked: np.ndarray,
                      old_mean: np.ndarray) -> None:
    """Adapt C from the mu best steps y_i = (x_i - m_t) / sigma_t."""
    if state.sigma == 0.0:
        ys = np.zeros((state.mu, state.d))
    else:
        ys = (ranked[:state.mu] - old_mean) / state.sigma
    state.C = covariance_step(state.C, state.p_c, ys, state.weights,
                              state.c_cov, state.mu_cov)


def record_generation(state: CmaState, fitnesses: np.ndarray) -> None:
    best = float(fitnesses.min())
    state.last_gen_spread = spread(float(fitnesses.max()), best)
    state.hist_best.append(best)
    state.gen += 1


def check_restart(state: CmaState, params: CmaParams) -> bool:
    """True when any of the three stall measures falls below its threshold."""
    if state.last_gen_spread <= 10.0 ** params.e:
        return True
    if len(state.hist_best) == state.hist_best.maxlen:
        if spread(max(state.hist_best), min(state.hist_best)) <= 10.0 ** params.f:
            return True
    max_std = state.sigma * math.sqrt((state.C if state.diagonal
                                       else state.C.diagonal()).max())
    return max_std <= 10.0 ** params.g


def on_restart(state: CmaState, params: CmaParams, bounds: Bounds,
               rng: np.random.Generator, fes_used: int = 0) -> None:
    """Start afresh from a uniform mean; lambda grows first when pop_mode is incremental."""
    if params.pop_mode == "incremental":
        state.lam = int(round(params.d_inc * state.lam))
    _reset(state, params, bounds.sample_uniform(rng), fes_used)
    state.restarts += 1


def matrix_mode_tick(state: CmaState, params: CmaParams, fes_used: int) -> None:
    """Switch full -> diagonal once 2 + 100*d/sqrt(lambda) FEs have elapsed."""
    if params.matrix_mode != "full_then_diagonal" or state.diagonal:
        return
    threshold = 2.0 + 100.0 * state.d / math.sqrt(state.lam)
    if fes_used - state.fes_at_start >= threshold:
        state.C = np.diag(state.C).copy()
        state.diagonal = True


class CmaRunner:
    """Drives one CMA-ES instance generation by generation.

    Samples are clamped into the box for evaluation, but the unclamped
    points feed every state update so the distribution math is untouched.
    """

    def __init__(self, params: CmaParams, bounds: Bounds, rng: np.random.Generator,
                 mean: np.ndarray | None = None, fes_used: int = 0):
        self.params = params
        self.bounds = bounds
        self.state = init_state(params, bounds, rng, mean=mean, fes_used=fes_used)

    def generation(self, eval_fn, rng: np.random.Generator, fes_used: int = 0) -> None:
        """One sample/evaluate/update cycle.

        eval_fn takes the (lambda, d) block of clamped samples and returns
        their lambda values.  It may raise BudgetExhausted part-way through
        the block; the evaluations made stand but the state update is
        skipped.
        """
        st = self.state
        matrix_mode_tick(st, self.params, fes_used)
        try:
            xs = sample_population(st, rng)
        except DegenerateState:
            # numerical breakdown: restart rather than propagate garbage
            on_restart(st, self.params, self.bounds, rng, fes_used=fes_used)
            xs = sample_population(st, rng)
        fs = np.asarray(eval_fn(repair_to_bounds(xs, self.bounds)), dtype=float)
        order = np.argsort(fs, kind="stable")
        ranked = xs[order]
        old_mean = st.mean
        st.mean = update_mean(st, ranked)
        update_paths_and_sigma(st, st.mean, old_mean)
        update_covariance(st, ranked, old_mean)
        record_generation(st, fs)
        if self.params.restart and check_restart(st, self.params):
            on_restart(st, self.params, self.bounds, rng,
                       fes_used=fes_used + st.lam)
