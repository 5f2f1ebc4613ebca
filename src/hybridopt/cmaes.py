"""Covariance-matrix-adaptation ES with restarts and increasing population.

State evolves through multivariate sampling, weighted recombination of the
best mu samples, two evolution paths driving step-size control and the
rank-one / rank-mu covariance update.  Three matrix modes are supported:
full, diagonal, and full-then-diagonal (switching after 2 + 100*d/sqrt(lambda)
FEs).  Cumulation and learning-rate constants follow the standard tutorial
formulas.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import Bounds, repair_to_bounds


class InvalidCounts(Exception):
    pass


class DegenerateState(Exception):
    """Covariance lost positive definiteness; caller should restart."""


@dataclass
class CmaParams:
    a: float = 3.0                 # population sizing: lambda0 = 4 + floor(a ln d)
    b: float = 2.0                 # parent divisor: mu = floor(lambda / b)
    c: float = 0.5                 # sigma0 = c * mean box width
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
    mean: np.ndarray
    sigma: float
    sigma0: float
    C: np.ndarray                  # full matrix, or 1-D variance vector in diagonal mode
    diagonal: bool
    p_c: np.ndarray
    p_sigma: np.ndarray
    eigen_B: np.ndarray
    eigen_D: np.ndarray            # eigenvalue square roots
    lam: int
    mu: int
    weights: np.ndarray
    mu_eff: float = 0.0
    c_sigma: float = 0.0
    d_sigma: float = 0.0
    c_c: float = 0.0
    c_cov: float = 0.0
    mu_cov: float = 1.0
    chi_d: float = 0.0
    gen: int = 0
    hist_best: deque = field(default_factory=deque)
    last_gen_spread: float = math.inf
    fes_at_start: int = 0
    restarts: int = 0

    @property
    def d(self) -> int:
        return self.mean.size


def _strategy_constants(state: CmaState) -> None:
    """Cumulation and learning-rate constants from (d, weights)."""
    d = state.d
    w = state.weights
    mu_eff = 1.0 / float(np.sum(w * w))
    c_sigma = (mu_eff + 2.0) / (d + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (d + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / d) / (d + 4.0 + 2.0 * mu_eff / d)
    c_1 = 2.0 / ((d + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((d + 2.0) ** 2 + mu_eff))
    state.mu_eff = mu_eff
    state.c_sigma = c_sigma
    state.d_sigma = d_sigma
    state.c_c = c_c
    # Single-coefficient form: c_cov/mu_cov recovers the rank-one rate and
    # c_cov*(1 - 1/mu_cov) the rank-mu rate.
    state.c_cov = c_1 + c_mu
    state.mu_cov = state.c_cov / c_1
    state.chi_d = math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d))


def _history_capacity(d: int, lam: int) -> int:
    return 10 + round(30.0 * d / lam)


def init_state(params: CmaParams, d: int, bounds: Bounds, rng: np.random.Generator,
               mean: np.ndarray | None = None, fes_used: int = 0) -> CmaState:
    """Fresh state: lambda = 4 + floor(a ln d), mu = floor(lambda/b), sigma = c * width."""
    lam = 4 + int(math.floor(params.a * math.log(d)))
    mu = max(1, min(int(lam / params.b), _max_mu(params.weight_scheme, lam)))
    weights = recombination_weights(params.weight_scheme, lam, mu)
    sigma0 = params.c * float(np.mean(bounds.width()))
    diagonal = params.matrix_mode == "diagonal"
    state = CmaState(
        mean=bounds.sample_uniform(rng) if mean is None else np.asarray(mean, dtype=float).copy(),
        sigma=sigma0,
        sigma0=sigma0,
        C=np.ones(d) if diagonal else np.eye(d),
        diagonal=diagonal,
        p_c=np.zeros(d),
        p_sigma=np.zeros(d),
        eigen_B=np.eye(d),
        eigen_D=np.ones(d),
        lam=lam,
        mu=mu,
        weights=weights,
        fes_at_start=fes_used,
    )
    _strategy_constants(state)
    state.hist_best = deque(maxlen=_history_capacity(d, lam))
    return state


def _refresh_eigensystem(state: CmaState) -> None:
    if state.diagonal:
        if np.any(state.C <= 0):
            raise DegenerateState("diagonal variance lost positivity")
        state.eigen_B = np.eye(state.d)
        state.eigen_D = np.sqrt(state.C)
        return
    state.C = (state.C + state.C.T) / 2.0  # keep exact symmetry
    if not np.all(np.isfinite(state.C)):  # e.g. after sigma underflowed
        raise DegenerateState("covariance is not finite")
    vals, vecs = np.linalg.eigh(state.C)
    if vals[0] <= 0 or not np.all(np.isfinite(vals)):
        raise DegenerateState("covariance lost positive definiteness")
    state.eigen_B = vecs
    state.eigen_D = np.sqrt(vals)


def sample_population(state: CmaState, rng: np.random.Generator) -> np.ndarray:
    """lambda samples m + sigma * B D z; the eigensystem is refreshed first."""
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
                           old_mean: np.ndarray) -> CmaState:
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

    norm_ps = float(np.linalg.norm(state.p_sigma))
    # h_sigma stalls the p_c cumulation while sigma is still adapting fast
    denom = math.sqrt(1.0 - (1.0 - cs) ** (2 * (state.gen + 1)))
    h_sigma = norm_ps / denom < (1.4 + 2.0 / (state.d + 1.0)) * state.chi_d
    cc = state.c_c
    state.p_c = (1.0 - cc) * state.p_c
    if h_sigma:
        state.p_c = state.p_c + math.sqrt(cc * (2.0 - cc) * state.mu_eff) * step

    state.sigma *= _sigma_scale(norm_ps, cs, state.d_sigma, state.chi_d)
    return state


def covariance_step(C: np.ndarray, p_c: np.ndarray, ys: np.ndarray,
                    weights: np.ndarray, c_cov: float, mu_cov: float) -> np.ndarray:
    """One covariance update combining decay, rank-one and rank-mu terms."""
    rank_one = np.outer(p_c, p_c)
    rank_mu = (weights[:, None] * ys).T @ ys
    return (1.0 - c_cov) * C + (c_cov / mu_cov) * rank_one \
        + c_cov * (1.0 - 1.0 / mu_cov) * rank_mu


def update_covariance(state: CmaState, ranked: np.ndarray,
                      old_mean: np.ndarray) -> CmaState:
    """Adapt C from the mu best steps y_i = (x_i - m_t) / sigma_t."""
    if state.sigma == 0.0:
        ys = np.zeros((state.mu, state.d))
    else:
        ys = (ranked[:state.mu] - old_mean) / state.sigma
    if state.diagonal:
        rank_one = state.p_c * state.p_c
        rank_mu = state.weights @ (ys * ys)
        state.C = (1.0 - state.c_cov) * state.C \
            + (state.c_cov / state.mu_cov) * rank_one \
            + state.c_cov * (1.0 - 1.0 / state.mu_cov) * rank_mu
    else:
        state.C = covariance_step(state.C, state.p_c, ys, state.weights,
                                  state.c_cov, state.mu_cov)
        state.C = (state.C + state.C.T) / 2.0
    return state


def record_generation(state: CmaState, fitnesses: np.ndarray) -> None:
    state.last_gen_spread = float(np.max(fitnesses) - np.min(fitnesses))
    state.hist_best.append(float(np.min(fitnesses)))
    state.gen += 1


def check_restart(state: CmaState, params: CmaParams) -> bool:
    """True when any of the three stall measures falls below its threshold."""
    if state.last_gen_spread <= 10.0 ** params.e:
        return True
    if len(state.hist_best) == state.hist_best.maxlen:
        hist_range = max(state.hist_best) - min(state.hist_best)
        if hist_range <= 10.0 ** params.f:
            return True
    max_std = state.sigma * float(np.sqrt(np.max(state.C if state.diagonal
                                                 else np.diag(state.C))))
    return max_std <= 10.0 ** params.g


def on_restart(state: CmaState, params: CmaParams, bounds: Bounds,
               rng: np.random.Generator, fes_used: int = 0) -> CmaState:
    """Re-initialize the distribution; grow lambda when pop_mode is incremental."""
    if params.pop_mode == "incremental":
        state.lam = int(round(params.d_inc * state.lam))
    state.mu = max(1, min(int(state.lam / params.b),
                          _max_mu(params.weight_scheme, state.lam)))
    state.weights = recombination_weights(params.weight_scheme, state.lam, state.mu)
    _strategy_constants(state)
    d = state.d
    state.mean = bounds.sample_uniform(rng)
    state.sigma = state.sigma0
    state.diagonal = params.matrix_mode == "diagonal"
    state.C = np.ones(d) if state.diagonal else np.eye(d)
    state.p_c = np.zeros(d)
    state.p_sigma = np.zeros(d)
    state.eigen_B = np.eye(d)
    state.eigen_D = np.ones(d)
    state.hist_best = deque(maxlen=_history_capacity(d, state.lam))
    state.last_gen_spread = math.inf
    state.fes_at_start = fes_used
    state.restarts += 1
    return state


def matrix_mode_tick(state: CmaState, params: CmaParams, fes_used: int) -> CmaState:
    """Switch full -> diagonal once 2 + 100*d/sqrt(lambda) FEs have elapsed."""
    if params.matrix_mode != "full_then_diagonal" or state.diagonal:
        return state
    threshold = 2.0 + 100.0 * state.d / math.sqrt(state.lam)
    if fes_used - state.fes_at_start >= threshold:
        state.C = np.diag(state.C).copy()
        state.diagonal = True
    return state


class CmaRunner:
    """Drives one CMA-ES instance generation by generation.

    Samples are clamped into the box for evaluation, but the unclamped
    points feed every state update so the distribution math is untouched.
    """

    def __init__(self, params: CmaParams, d: int, bounds: Bounds,
                 rng: np.random.Generator, mean: np.ndarray | None = None,
                 fes_used: int = 0):
        self.params = params
        self.bounds = bounds
        self.state = init_state(params, d, bounds, rng, mean=mean, fes_used=fes_used)

    def generation(self, eval_fn, rng: np.random.Generator, fes_used: int = 0) -> None:
        """One sample/evaluate/update cycle.

        eval_fn may raise BudgetExhausted mid-generation; the partial
        generation's evaluations stand but the state update is skipped.
        """
        st = self.state
        matrix_mode_tick(st, self.params, fes_used)
        try:
            xs = sample_population(st, rng)
        except DegenerateState:
            # numerical breakdown: restart rather than propagate garbage
            on_restart(st, self.params, self.bounds, rng, fes_used=fes_used)
            xs = sample_population(st, rng)
        fs = np.empty(st.lam)
        for j in range(st.lam):
            fs[j] = eval_fn(repair_to_bounds(xs[j], self.bounds))
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
