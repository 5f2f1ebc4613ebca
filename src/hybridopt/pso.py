"""Velocity-based solution updates.

New velocities follow the generalized rule

    v' = w1 * v + w2 * DNPP(i, t) + w3 * PertRand(i, t)

with pluggable topology, inertia schedules, next-position distributions,
acceleration coefficients, perturbations and safeguards.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import Bounds, repair_to_bounds, spread

STAGNATION_THRESHOLD = 1e-3
# objfunc_distance magnitude where the fitness ratio is not finite; pso.pm is
# inactive under that mode, so the argument would only ever be its default
_OBJFUNC_FALLBACK_PM = 0.01


@dataclass
class PsoParams:
    omega1_mode: str = "constant"            # constant | linear_decreasing | linear_increasing | random
    omega1: float = 0.729
    omega1_min: float = 0.4
    omega1_max: float = 0.9
    omega2_mode: str = "equal_to_omega1"     # equal_to_omega1 | constant | random
    omega2: float = 1.0
    omega3_mode: str = "equal_to_omega1"
    omega3: float = 1.0
    ac_mode: str = "constant"                # constant | random | time_varying
    phi1: float = 1.49445
    phi2: float = 1.49445
    phi1_min: float = 0.5
    phi1_max: float = 2.5
    topology: str = "fully_connected"
    moi: str = "best_of_neighborhood"        # best_of_neighborhood | fully_informed | ranked_fully_informed
    dnpp: str = "rectangular"                # rectangular | spherical | standard | gaussian
    pert_info: str = "none"                  # none | gaussian | levy | uniform
    pert_rand: str = "none"                  # none | rectangular | noisy
    pm_mode: str = "constant"                # constant | euclidean_distance | objfunc_distance | success_rate
    pm: float = 0.01
    velocity_clamping: bool = True
    stagnation_detection: bool = False
    ignore_pbest: bool = False
    vector_basis: str = "natural"            # natural | eigenvector


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

@dataclass
class TopologyState:
    kind: str
    adjacency: np.ndarray        # n x n bool, symmetric, False on the diagonal
    t_schedule: int = 0
    next_event: int = 0


def build_topology(kind: str, n: int, rng: np.random.Generator,
                   total_iters: int = 1) -> TopologyState:
    """Construct the informant graph for a swarm of n particles."""
    if kind in ("fully_connected", "time_varying"):
        adj = np.ones((n, n), dtype=bool)
    elif kind == "ring":
        adj = _lattice(n, 1)
    elif kind == "wheel":
        adj = np.zeros((n, n), dtype=bool)
        adj[0, :] = adj[:, 0] = True
    elif kind == "von_neumann":
        # lattice on a virtual torus of width ~sqrt(n)
        adj = _lattice(n, 1) | _lattice(n, max(1, round(math.sqrt(n))))
    elif kind == "random_edge":
        adj = _random_edges(n, rng)
    else:
        raise ValueError(f"unknown topology {kind!r}")
    np.fill_diagonal(adj, False)

    top = TopologyState(kind=kind, adjacency=adj)
    if kind == "time_varying":
        if n > 3:
            top.t_schedule = max(1, (total_iters * n) // (2 * (n - 3)))
            top.next_event = top.t_schedule
        else:
            top.t_schedule = 0  # n <= 3 is already a ring
    return top


def _lattice(n: int, step: int) -> np.ndarray:
    """Edges i <-> i +- step (mod n)."""
    idx = np.arange(n)
    adj = np.zeros((n, n), dtype=bool)
    adj[idx, (idx - step) % n] = adj[idx, (idx + step) % n] = True
    return adj


def _random_edges(n: int, rng: np.random.Generator) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        adj[i, j] = adj[j, i] = True
    return adj


def neighbors(top: TopologyState, i: int) -> np.ndarray:
    """Informants of particle i under the current topology state, in ascending index."""
    return top.adjacency[i].nonzero()[0]


def neighborhood_best(top: TopologyState, pf: np.ndarray) -> np.ndarray:
    """Per particle, its informant of lowest personal-best fitness pf (lowest index on ties).

    A stable sort ranks the swarm by (pf, index); each row's first informant
    in that order is its best, so an all-+inf neighbourhood picks its
    lowest-index informant.
    """
    order = pf.argsort(kind="stable")
    return order[top.adjacency.take(order, axis=1).argmax(axis=1)]


def ranked_informants(adjacency: np.ndarray, pf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(idx, m): for each row of adjacency, its m informants in (pf, index) order.

    idx is (rows, max m); row i lists its informants' indices best first in
    its first m[i] slots, and non-informants after.  A row's first informant
    is its neighbourhood best, as `neighborhood_best` picks it.
    """
    order = pf.argsort(kind="stable")
    ranked = adjacency.take(order, axis=1)
    m = ranked.sum(axis=1)
    # a stable sort of each negated row lists its informants first, in rank order
    slots = (~ranked).argsort(axis=1, kind="stable")[:, :m.max()]
    return order[slots], m


def informant_weights(moi: str, m, phi2: float) -> np.ndarray:
    """phi2 times each ranked informant's weight: 1/m, or (m - k) / (m (m + 1) / 2)
    for the k-th best (from 0) under the ranked model.  m is one count, or an
    array of counts giving one row of weights each, as wide as the largest."""
    m = np.asarray(m)[..., None]
    if moi == "ranked_fully_informed":
        return (m - np.arange(m.max())) / (m * (m + 1) / 2.0) * phi2
    return 1.0 / m * phi2


def advance_topology(top: TopologyState, t: int, rng: np.random.Generator) -> None:
    """Per-iteration topology maintenance (edge removal / random rewiring)."""
    if top.kind == "random_edge":
        top.adjacency = _random_edges(len(top.adjacency), rng)
        return
    if top.kind != "time_varying" or top.t_schedule <= 0 or t < top.next_event:
        return
    top.next_event = t + top.t_schedule
    adj = top.adjacency
    n = len(adj)
    for i in range(n):
        # keep the canonical ring i <-> i+-1 intact: the graph then stays
        # connected, every degree stays >= 2, and removal ends at the ring
        row = adj[i].copy()
        row[[(i - 1) % n, (i + 1) % n]] = False
        candidates = np.flatnonzero(row)
        if candidates.size == 0:
            continue
        j = candidates[int(rng.integers(candidates.size))]
        adj[i, j] = adj[j, i] = False


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def inertia_weight(mode: str, t: int, total: int, rng: np.random.Generator,
                   value: float = 0.729, lo: float = 0.4, hi: float = 0.9) -> float:
    """Inertia weight w1 at iteration t of a run with `total` iterations."""
    total = max(1, total)
    if mode == "constant":
        return value
    if mode == "linear_decreasing":
        return hi - (hi - lo) * t / total
    if mode == "linear_increasing":
        return lo + (hi - lo) * t / total
    if mode == "random":
        return float(rng.uniform(lo, hi))
    raise ValueError(f"unknown inertia mode {mode!r}")


def acceleration_coeffs(mode: str, t: int, total: int, phi1: float, phi2: float,
                        rng: np.random.Generator, phi1_min: float = 0.5,
                        phi1_max: float = 2.5) -> tuple[float, float]:
    """phi1/phi2 pair: fixed, random in (0, phi], or linearly crossing over time."""
    total = max(1, total)
    if mode == "constant":
        return phi1, phi2
    if mode == "random":
        return float(rng.uniform(0.0, phi1)), float(rng.uniform(0.0, phi2))
    if mode == "time_varying":
        frac = t / total
        p1 = phi1_max - (phi1_max - phi1_min) * frac
        p2 = phi1_min + (phi1_max - phi1_min) * frac
        return p1, p2
    raise ValueError(f"unknown acceleration mode {mode!r}")


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

def mantegna_levy(alpha: float, rng: np.random.Generator, size=None):
    """Symmetric Levy-stable sample(s) with stability index alpha (Mantegna)."""
    if alpha >= 2.0:
        return rng.standard_normal(size) * math.sqrt(2.0)
    num = math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0)
    den = math.gamma((1.0 + alpha) / 2.0) * alpha * 2.0 ** ((alpha - 1.0) / 2.0)
    sigma_u = (num / den) ** (1.0 / alpha)
    u = rng.normal(0.0, sigma_u, size)
    v = np.abs(rng.standard_normal(size))
    return u / np.maximum(v, 1e-300) ** (1.0 / alpha)


@dataclass
class SuccessWindow:
    """Last-10-updates success counter driving the success-rate pm mode."""
    window: deque = field(default_factory=lambda: deque(maxlen=10))

    def record(self, improved: bool) -> None:
        self.window.append(bool(improved))

    def rate(self) -> float:
        if not self.window:
            return 0.5
        return sum(self.window) / len(self.window)


def perturbation_magnitude(mode: str, pm: float, p: np.ndarray, l: np.ndarray,
                           fp: float = 0.0, fl: float = 0.0,
                           success: SuccessWindow | None = None) -> float:
    """Magnitude of the informed/random perturbation for one particle."""
    if mode == "constant":
        return pm
    if mode == "euclidean_distance":
        return float(np.linalg.norm(p - l) / math.sqrt(p.size))
    if mode == "objfunc_distance":
        # equal ends (two +inf too) are a distance of 0; any other
        # non-finite ratio falls back to a fixed magnitude
        ratio = abs(spread(fp, fl)) / (1.0 + abs(fl))
        return ratio if math.isfinite(ratio) else _OBJFUNC_FALLBACK_PM
    if mode == "success_rate":
        rate = success.rate() if success is not None else 0.5
        if rate > 0.5:
            return pm * 2.0
        if rate < 0.25:
            return pm * 0.5
        return pm
    raise ValueError(f"unknown perturbation-magnitude mode {mode!r}")


def _perturb(vec: np.ndarray, kind: str, pm: float, rng: np.random.Generator) -> np.ndarray:
    if kind == "none" or pm == 0.0:
        return vec
    d = vec.size
    if kind == "gaussian":
        return vec + rng.normal(0.0, pm, d)
    if kind == "uniform":
        return vec + rng.uniform(-pm, pm, d)
    if kind == "levy":
        return vec + pm * mantegna_levy(1.5, rng, d)
    raise ValueError(f"unknown informed perturbation {kind!r}")


# ---------------------------------------------------------------------------
# DNPP
# ---------------------------------------------------------------------------

def _to_basis(v: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
    return v if basis is None else basis.T @ v


def _from_basis(v: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
    return v if basis is None else basis @ v


def _fully_informed_social(x: np.ndarray, informants: np.ndarray,
                           params: PsoParams, phi2: float, pm: float,
                           rng: np.random.Generator,
                           basis: np.ndarray | None) -> np.ndarray:
    """Sum over the ranked informants, best first, of w_k * phi2 * U_k * (p_k - x).

    Each informant draws its informed perturbation and then its uniforms, so
    without a perturbation the uniforms are one (m, d) block.  The terms are
    added one row at a time in rank order.
    """
    m, d = informants.shape
    if params.pert_info == "none" or pm == 0.0:
        diff = informants - x
        u = rng.random((m, d))
    else:
        diff = np.empty((m, d))
        u = np.empty((m, d))
        for r in range(m):
            diff[r] = _perturb(informants[r], params.pert_info, pm, rng) - x
            u[r] = rng.uniform(size=d)
    if basis is not None:
        for r in range(m):
            diff[r] = basis.T @ diff[r]
    coef = informant_weights(params.moi, m, phi2)[:, None]
    return np.add.reduce(coef * u * diff, axis=0, initial=0.0)


def dnpp(kind: str, x: np.ndarray, p: np.ndarray, l_best: np.ndarray,
         informants: np.ndarray | None, params: PsoParams,
         phi1: float, phi2: float, pm: float, rng: np.random.Generator,
         basis: np.ndarray | None = None) -> np.ndarray:
    """Movement term mapping the particle and its informants to the next position.

    Parameters
    ----------
    x, p : the particle's position and personal best.
    l_best : the informant (neighborhood-best personal best).
    informants : the (m, d) personal bests of every informant, best first
        (the rows `ranked_informants` lists); read only by the fully-informed
        models, None otherwise.
    basis : optional orthonormal eigenbasis; difference vectors are rotated
        into it before combining and the result rotated back.
    """
    p = x if params.ignore_pbest else p
    p = _perturb(p, params.pert_info, pm, rng)
    l = _perturb(l_best, params.pert_info, pm, rng)
    dp = _to_basis(p - x, basis)
    dl = _to_basis(l - x, basis)
    d = x.size

    if kind == "rectangular":
        cognitive = phi1 * rng.uniform(size=d) * dp
        if params.moi in ("fully_informed", "ranked_fully_informed"):
            social = _fully_informed_social(x, informants, params, phi2, pm, rng, basis)
        else:
            social = phi2 * rng.uniform(size=d) * dl
        return _from_basis(cognitive + social, basis)

    if kind == "standard":
        return _from_basis(dp / 2.0 + dl / 2.0, basis)

    if kind == "gaussian":
        mean = (dp + dl) / 2.0
        sd = np.abs(dp - dl)
        return _from_basis(mean + sd * rng.standard_normal(d), basis)

    if kind == "spherical":
        g = (phi1 * dp + phi2 * dl) / 3.0  # centre offset of the hypersphere
        radius = float(np.linalg.norm(g))
        if radius == 0.0:
            return _from_basis(g, basis)
        direction = rng.standard_normal(d)
        norm = np.linalg.norm(direction)
        direction = direction / norm if norm > 0 else direction
        magnitude = radius * rng.uniform() ** (1.0 / d)
        return _from_basis(g + magnitude * direction, basis)

    raise ValueError(f"unknown DNPP kind {kind!r}")


# ---------------------------------------------------------------------------
# velocity / position updates
# ---------------------------------------------------------------------------

def _omega_aux(mode: str, value: float, omega1: float, rng: np.random.Generator) -> float:
    if mode == "equal_to_omega1":
        return omega1
    if mode == "constant":
        return value
    if mode == "random":
        return float(rng.uniform())
    raise ValueError(f"unknown omega mode {mode!r}")


def _coefficients(params: PsoParams, t: int, total: int,
                  rng: np.random.Generator) -> tuple[float, float, float, float, float]:
    """(omega1, omega2, omega3, phi1, phi2) at iteration t, drawn in that order."""
    omega1 = inertia_weight(params.omega1_mode, t, total, rng, value=params.omega1,
                            lo=params.omega1_min, hi=params.omega1_max)
    omega2 = _omega_aux(params.omega2_mode, params.omega2, omega1, rng)
    omega3 = _omega_aux(params.omega3_mode, params.omega3, omega1, rng)
    phi1, phi2 = acceleration_coeffs(params.ac_mode, t, total, params.phi1, params.phi2,
                                     rng, params.phi1_min, params.phi1_max)
    return omega1, omega2, omega3, phi1, phi2


def swarm_step_applies(params: PsoParams, d: int) -> bool:
    """True when `swarm_step` reproduces `compute_velocity` and `update_position`.

    That holds for the rectangular DNPP in the natural basis with no
    perturbation and no random omega or acceleration mode: every draw a
    particle makes is then a plain U(0, 1), so the draws of consecutive
    particles form one stream.  Stagnation detection is left to the
    per-particle path, since its reset velocity comes between them.  At
    d = 1 numpy sums a particle's (m, 1) informant terms pairwise, so the
    padded sums of `swarm_step` could differ; d must be at least 2.
    """
    return (d > 1 and params.dnpp == "rectangular" and params.vector_basis == "natural"
            and params.pert_info == "none" and params.pert_rand == "none"
            and not params.stagnation_detection
            and "random" not in (params.omega1_mode, params.omega2_mode,
                                 params.omega3_mode, params.ac_mode))


def swarm_step(X: np.ndarray, V: np.ndarray, P: np.ndarray, L: np.ndarray | None,
               ranked: tuple[np.ndarray, np.ndarray] | None, params: PsoParams,
               t: int, total: int, rng: np.random.Generator, bounds: Bounds,
               source: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """New positions and velocities (X', V') of the rows of a swarm.

    Each row gets v' = w1 v + w2 (phi1 U1 (p - x) + social) and then moves as
    in `update_position`.  Valid only where `swarm_step_applies(params, d)`;
    the result equals `compute_velocity` and `update_position` applied to
    the rows in order, bit for bit.

    Parameters
    ----------
    X, V, P : the positions, velocities and personal bests of the rows moved.
    L : the rows' neighbourhood bests; read by best-of-neighbourhood only.
    ranked : (idx, m) from `ranked_informants` for the fully-informed
        models, None otherwise, one row per row of X.
    source : the personal bests idx indexes, from which the informants'
        rows are gathered; P when None.
    """
    n, d = X.shape
    omega1, omega2, _, phi1, phi2 = _coefficients(params, t, total, rng)
    # row i draws its cognitive row, then one social row per informant
    # (best-of-neighbourhood: one), all in one call
    if ranked is None:
        U = rng.random((n, 2, d))
    else:
        idx, m = ranked
        width = idx.shape[1] + 1
        if m.min() + 1 == width:
            U = rng.random((n, width, d))
        else:  # slots past a row's own repeat its last row; they are masked below
            first = np.cumsum(m + 1) - (m + 1)
            U = rng.random((first[-1] + m[-1] + 1, d))
            U = U[first[:, None] + np.minimum(np.arange(width), m[:, None])]

    cognitive = phi1 * U[:, 0] * ((X if params.ignore_pbest else P) - X)
    if ranked is None:
        social = phi2 * U[:, 1] * (L - X)
    else:
        terms = informant_weights(params.moi, m, phi2)[:, :, None] * U[:, 1:] \
            * ((P if source is None else source)[idx] - X[:, None])
        # s + -0.0 == s bit for bit, so padding leaves every row's sum as it was
        terms[np.arange(width - 1) >= m[:, None]] = -0.0
        social = np.add.reduce(terms, axis=1, initial=0.0)
    return update_position(X, omega1 * V + omega2 * (cognitive + social), bounds,
                           params.velocity_clamping)


def compute_velocity(x: np.ndarray, v: np.ndarray, p: np.ndarray,
                     l_best: np.ndarray, informants: np.ndarray | None,
                     params: PsoParams, t: int, total: int, rng: np.random.Generator,
                     pm: float = 0.0, basis: np.ndarray | None = None) -> np.ndarray:
    """New velocity w1*v + w2*DNPP + w3*PertRand for the particle (x, v, p).

    Every particle moved one at a time goes through it, and it is the
    reference `swarm_step` must equal.  informants is what `dnpp` takes: the
    (m, d) personal bests of the particle's informants, best first, or None
    when the model of influence is best-of-neighborhood.
    """
    omega1, omega2, omega3, phi1, phi2 = _coefficients(params, t, total, rng)
    move = dnpp(params.dnpp, x, p, l_best, informants, params, phi1, phi2,
                pm, rng, basis)
    v = omega1 * v + omega2 * move
    if params.pert_rand != "none":
        d = x.size
        if params.pert_rand == "rectangular":
            noise = rng.uniform(-pm, pm, d)
        elif params.pert_rand == "noisy":
            noise = rng.normal(0.0, pm, d) if pm > 0 else np.zeros(d)
        else:
            raise ValueError(f"unknown random perturbation {params.pert_rand!r}")
        v = v + omega3 * noise
    return v


def update_position(x: np.ndarray, velocity: np.ndarray, bounds: Bounds,
                    velocity_clamping: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Move x (one point or the rows of a block) by the new velocity into the
    box; returns (new_x, new_v).

    With velocity clamping on, a row's velocity is halved once before the
    move whenever any of its components exceeds the width of the search space.
    """
    v = np.asarray(velocity, dtype=float)
    if velocity_clamping:
        wide = np.abs(v) > bounds.width()
        if wide.any():
            v = np.where(wide.any(axis=-1, keepdims=True), v / 2.0, v)
    return repair_to_bounds(x + v, bounds), v


def stagnation_check(velocity: np.ndarray, position: np.ndarray,
                     informant_best: np.ndarray) -> bool:
    """True when ||v|| + ||l - x|| has collapsed below 1e-3."""
    return float(np.linalg.norm(velocity) + np.linalg.norm(informant_best - position)) \
        <= STAGNATION_THRESHOLD


def random_velocity(bounds: Bounds, rng: np.random.Generator,
                    count: int | None = None) -> np.ndarray:
    """Velocity drawn uniformly in [-(ub-lb)/2, (ub-lb)/2] per dimension; with
    a count, that many such velocities as rows, from one draw."""
    half = bounds.width() / 2.0
    return rng.uniform(-half, half, None if count is None else (count, bounds.d))
