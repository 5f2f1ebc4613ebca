"""Velocity-based solution updates.

New velocities follow the generalized rule

    v' = w1 * v + w2 * DNPP(i, t) + w3 * PertRand(i, t)

with pluggable topology, inertia schedules, next-position distributions,
acceleration coefficients, perturbations and safeguards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Bounds, repair_to_bounds

STAGNATION_THRESHOLD = 1e-3
SUCCESS_WINDOW = 10   # updates the success_rate magnitude looks back on
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
    if kind == "time_varying" and n > 3:  # n <= 3 is already a ring
        top.t_schedule = max(1, (total_iters * n) // (2 * (n - 3)))
        top.next_event = top.t_schedule
    return top


def _lattice(n: int, step: int) -> np.ndarray:
    """Edges i <-> i +- step (mod n)."""
    idx = np.arange(n)
    adj = np.zeros((n, n), dtype=bool)
    adj[idx, (idx - step) % n] = adj[idx, (idx + step) % n] = True
    return adj


def _random_edges(n: int, rng: np.random.Generator) -> np.ndarray:
    """Edges i <-> j_i, each j_i drawn uniformly from the n - 1 others."""
    i = np.arange(n)
    j = rng.integers(n - 1, size=n)
    j += j >= i
    adj = np.zeros((n, n), dtype=bool)
    adj[i, j] = adj[j, i] = True
    return adj


def neighbors(top: TopologyState, i: int) -> np.ndarray:
    """Informants of particle i under the current topology state, in ascending index."""
    return top.adjacency[i].nonzero()[0]


def neighborhood_best(adjacency: np.ndarray, pf: np.ndarray) -> np.ndarray:
    """For each row of adjacency, its informant of lowest personal-best
    fitness pf (lowest index on ties).

    A stable sort ranks the swarm by (pf, index); each row's first informant
    in that order is its best, so an all-+inf neighbourhood picks its
    lowest-index informant.
    """
    order = pf.argsort(kind="stable")
    return order[adjacency.take(order, axis=1).argmax(axis=1)]


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


def perturbation_magnitude(mode: str, pm: float, p: np.ndarray, l: np.ndarray,
                           fp=0.0, fl=0.0, success: np.ndarray | None = None) -> np.ndarray:
    """Magnitude of the informed/random perturbation of each row of the block
    (p, l) of personal and neighbourhood bests, with fitnesses fp and fl; one
    row gives a 0-d array.

    success holds each row's last SUCCESS_WINDOW updates, oldest first: 1 where
    the personal best improved, 0 where not, -1 before the first update.  The
    success rate of a row is its share of 1s, one half before the first update.
    """
    if mode == "constant":
        return np.full(p.shape[:-1], pm)
    if mode == "euclidean_distance":
        return _norms(p - l) / math.sqrt(p.shape[-1])
    if mode == "objfunc_distance":
        # equal ends (two +inf too) are a distance of 0; any other
        # non-finite ratio falls back to a fixed magnitude
        fp, fl = np.asarray(fp, dtype=float), np.asarray(fl, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            ratio = np.abs(np.where(fp == fl, 0.0, fp - fl)) / (1.0 + np.abs(fl))
        return np.where(np.isfinite(ratio), ratio, _OBJFUNC_FALLBACK_PM)
    if mode == "success_rate":
        # rate = wins / tried, compared with 1/2 and 1/4 in integers
        wins, tried = (success == 1).sum(axis=-1), (success >= 0).sum(axis=-1)
        return np.where(2 * wins > tried, pm * 2.0, np.where(4 * wins < tried, pm / 2.0, pm))
    raise ValueError(f"unknown perturbation-magnitude mode {mode!r}")


def _noise(kind: str, shape, rng: np.random.Generator) -> np.ndarray:
    """One block of N(0, 1), U(-1, 1) or Levy(1.5) draws."""
    if kind == "gaussian":
        return rng.standard_normal(shape)
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, shape)
    if kind == "levy":
        return mantegna_levy(1.5, rng, shape)
    raise ValueError(f"unknown informed perturbation {kind!r}")


def _perturb(vec: np.ndarray, kind: str, pm, rng: np.random.Generator) -> np.ndarray:
    """vec plus pm times one block of noise of the kind (none: vec itself);
    pm broadcasts against vec, as a number or an (n, 1) column of magnitudes."""
    return vec if kind == "none" else vec + pm * _noise(kind, vec.shape, rng)


# pso.pert_rand's noise, as the informed perturbation of the same distribution
_RANDOM_PERTURBATION = {"rectangular": "uniform", "noisy": "gaussian"}


# ---------------------------------------------------------------------------
# DNPP
# ---------------------------------------------------------------------------

def _to_basis(v: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
    """The rows of v (any leading shape) in the basis, as one product."""
    if basis is None:
        return v
    return (v.reshape(-1, v.shape[-1]) @ basis).reshape(v.shape)


def _from_basis(v: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
    return v if basis is None else _to_basis(v, basis.T)


def _fully_informed_social(X: np.ndarray, informants, params: PsoParams, phi2, pm,
                           rng: np.random.Generator, basis: np.ndarray | None):
    """(U, social): the rows' uniforms, and per row the sum over its ranked
    informants, best first, of w_k * phi2 * U_k * (p_k - x).

    Row i draws its cognitive row of U and then one row per informant, all
    rows in one call.  Shorter rows are padded with -0.0 terms, so one
    reduction adds every row's terms in rank order.
    """
    S, m = informants
    n, width, d = len(X), S.shape[1] + 1, X.shape[1]
    if params.pert_info != "none":
        S = _perturb(S, params.pert_info, pm[:, None], rng)
    diff = _to_basis(S - X[:, None], basis)
    if m.min() + 1 == width:
        U = rng.random((n, width, d))
    else:  # slots past a row's own repeat its last row; they are masked below
        first = np.cumsum(m + 1) - (m + 1)
        U = rng.random((first[-1] + m[-1] + 1, d))
        U = U[first[:, None] + np.minimum(np.arange(width), m[:, None])]
    terms = informant_weights(params.moi, m, phi2)[:, :, None] * U[:, 1:] * diff
    # s + -0.0 == s bit for bit, so padding leaves every row's sum as it was
    terms[np.arange(width - 1) >= m[:, None]] = -0.0
    return U, np.add.reduce(terms, axis=1, initial=0.0)


def dnpp(X: np.ndarray, P: np.ndarray, L: np.ndarray, informants, params: PsoParams,
         phi1, phi2, pm, rng: np.random.Generator,
         basis: np.ndarray | None = None) -> np.ndarray:
    """Movement terms mapping the rows of a swarm to their next positions,
    under the DNPP `params.dnpp`.

    Parameters
    ----------
    X, P, L : (n, d) positions, personal bests and neighbourhood bests.
    informants : (S, m) for a fully-informed rectangular DNPP: row i of the
        (n, w, d) block S holds the personal bests of its m[i] informants,
        best first, in its first m[i] slots.  None otherwise.
    phi1, phi2 : numbers, or (n, 1) columns of one value per row.
    pm : the rows' perturbation magnitudes as an (n, 1) column; read only
        under a perturbation.
    basis : optional orthonormal eigenbasis; difference vectors are rotated
        into it before combining and the result rotated back.

    Draws come as one block per kind: the perturbations of P, then of L or
    of the informants, then the DNPP's own draws.  A spherical row of zero
    radius moves by its centre offset g.
    """
    n, d = X.shape
    P = _perturb(X if params.ignore_pbest else P, params.pert_info, pm, rng)
    dP = _to_basis(P - X, basis)
    if informants is None:
        dL = _to_basis(_perturb(L, params.pert_info, pm, rng) - X, basis)

    kind = params.dnpp
    if kind == "rectangular":
        if informants is None:
            U = rng.random((n, 2, d))
            social = phi2 * U[:, 1] * dL
        else:
            U, social = _fully_informed_social(X, informants, params, phi2, pm, rng, basis)
        move = phi1 * U[:, 0] * dP + social
    elif kind == "standard":
        move = dP / 2.0 + dL / 2.0
    elif kind == "gaussian":
        move = (dP + dL) / 2.0 + np.abs(dP - dL) * rng.standard_normal((n, d))
    elif kind == "spherical":
        g = (phi1 * dP + phi2 * dL) / 3.0  # centre offsets of the hyperspheres
        radius = _norms(g)[:, None]
        direction = rng.standard_normal((n, d))
        direction = direction / np.maximum(_norms(direction), 1e-300)[:, None]
        magnitude = radius * rng.random((n, 1)) ** (1.0 / d)
        move = np.where(radius == 0.0, g, g + magnitude * direction)
    else:
        raise ValueError(f"unknown DNPP kind {kind!r}")
    return _from_basis(move, basis)


# ---------------------------------------------------------------------------
# velocity / position updates
# ---------------------------------------------------------------------------

def _coefficients(params: PsoParams, t: int, total: int, rng: np.random.Generator,
                  n: int) -> tuple:
    """(omega1, omega2, omega3, phi1, phi2) at iteration t of a run of
    total >= 1 iterations, for n rows, drawn in that order: numbers, or (n, 1)
    columns of one draw per row under the random modes.

    The inertia omega1 is fixed, runs linearly between omega1_max and
    omega1_min (down or up), or is uniform between them.  omega2 and omega3
    each equal omega1, are fixed, or are uniform in [0, 1).  phi1 and phi2 are
    fixed, uniform in [0, phi), or cross linearly over time: phi1 from
    phi1_max down to phi1_min as phi2 goes from phi1_min up to phi1_max,
    reading neither phi1 nor phi2.
    """
    p, size = params, (n, 1)
    lo, hi = p.omega1_min, p.omega1_max
    if p.omega1_mode == "constant":
        omega1 = p.omega1
    elif p.omega1_mode == "linear_decreasing":
        omega1 = hi - (hi - lo) * t / total
    elif p.omega1_mode == "linear_increasing":
        omega1 = lo + (hi - lo) * t / total
    elif p.omega1_mode == "random":
        omega1 = rng.uniform(lo, hi, size)
    else:
        raise ValueError(f"unknown inertia mode {p.omega1_mode!r}")
    omegas = [omega1]
    for mode, value in ((p.omega2_mode, p.omega2), (p.omega3_mode, p.omega3)):
        if mode == "equal_to_omega1":
            omegas.append(omega1)
        elif mode == "constant":
            omegas.append(value)
        elif mode == "random":
            omegas.append(rng.uniform(0.0, 1.0, size))
        else:
            raise ValueError(f"unknown omega mode {mode!r}")
    lo, hi = p.phi1_min, p.phi1_max
    if p.ac_mode == "constant":
        phis = p.phi1, p.phi2
    elif p.ac_mode == "random":
        phis = rng.uniform(0.0, p.phi1, size), rng.uniform(0.0, p.phi2, size)
    elif p.ac_mode == "time_varying":
        frac = t / total
        phis = hi - (hi - lo) * frac, lo + (hi - lo) * frac
    else:
        raise ValueError(f"unknown acceleration mode {p.ac_mode!r}")
    return (*omegas, *phis)


def _velocities(X, V, P, L, informants, params: PsoParams, t: int, total: int,
                rng: np.random.Generator, pm, basis) -> np.ndarray:
    """w1 V + w2 DNPP + w3 PertRand for the rows (X, V, P); the arguments are
    those of `dnpp`."""
    omega1, omega2, omega3, phi1, phi2 = _coefficients(params, t, total, rng, len(X))
    V = omega1 * V + omega2 * dnpp(X, P, L, informants, params, phi1, phi2, pm, rng, basis)
    if params.pert_rand != "none":
        V = V + omega3 * (pm * _noise(_RANDOM_PERTURBATION[params.pert_rand], X.shape, rng))
    return V


def swarm_step(X: np.ndarray, V: np.ndarray, P: np.ndarray, L: np.ndarray,
               informants: tuple[np.ndarray, np.ndarray] | None, params: PsoParams,
               t: int, total: int, rng: np.random.Generator, bounds: Bounds,
               fp=None, fl=None, success: np.ndarray | None = None,
               basis: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """New positions and velocities (X', V') of the rows of a swarm: the PSO step.

    Under stagnation detection the rows `stagnation_check` flags restart from
    one block of random velocities.  Then each row gets
    v' = w1 v + w2 DNPP + w3 PertRand, with the perturbation magnitudes of
    `perturbation_magnitude`, and moves as in `update_position`.  Every kind
    of draw is one block over the rows, in the order of `_coefficients` and
    `dnpp`; under the rectangular DNPP in the natural basis with no
    perturbation and no random mode, each row draws only its cognitive row of
    uniforms and then one row per informant, so the rows' draws form one
    stream as if each particle were moved in turn.

    Parameters
    ----------
    X, V, P : the positions, velocities and personal bests of the rows moved.
    L : the rows' neighbourhood bests.
    informants : (S, m) for the fully-informed models, which `config.validate`
        pairs with the rectangular DNPP; None otherwise.  Row i of the
        (n, w, d) block S holds the personal bests of its m[i] informants,
        best first, in its first m[i] slots.
    fp, fl : the fitnesses of P and L, read by the objfunc_distance magnitude.
    success : the rows' success windows, read by the success_rate magnitude.
    basis : the orthonormal basis difference vectors are rotated into, or None.
    """
    if params.stagnation_detection:
        stuck = stagnation_check(V, X, L)
        if stuck.any():
            V = V.copy()
            V[stuck] = random_velocity(bounds, rng, int(stuck.sum()))
    pm = None
    if params.pert_info != "none" or params.pert_rand != "none":
        pm = perturbation_magnitude(params.pm_mode, params.pm, P, L, fp, fl, success)[:, None]
    return update_position(X, _velocities(X, V, P, L, informants, params, t, total, rng,
                                           pm, basis),
                            bounds, params.velocity_clamping)


def compute_velocity(x: np.ndarray, v: np.ndarray, p: np.ndarray,
                     l_best: np.ndarray, informants: np.ndarray | None,
                     params: PsoParams, t: int, total: int, rng: np.random.Generator,
                     pm: float = 0.0, basis: np.ndarray | None = None) -> np.ndarray:
    """New velocity w1*v + w2*DNPP + w3*PertRand of the one particle (x, v, p)
    with perturbation magnitude pm: the one-row case of `swarm_step` before
    its move.  informants are the (m, d) personal bests of its informants,
    best first, or None under best-of-neighbourhood."""
    if informants is not None:
        informants = informants[None], np.array([len(informants)])
    return _velocities(x[None], v[None], p[None], l_best[None], informants, params, t,
                       total, rng, np.full((1, 1), pm), basis)[0]


def update_position(x: np.ndarray, velocity: np.ndarray, bounds: Bounds,
                    velocity_clamping: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Move x (one point or the rows of a block) by the new velocity into the
    box; returns (new_x, new_v).

    With velocity clamping on, a row's velocity is halved once before the
    move whenever any of its components exceeds the width of the search space.
    """
    if velocity_clamping:
        wide = np.abs(velocity) > bounds.width()
        if wide.any():
            velocity = np.where(wide.any(axis=-1, keepdims=True), velocity / 2.0, velocity)
    return repair_to_bounds(x + velocity, bounds), velocity


def stagnation_check(velocity: np.ndarray, position: np.ndarray,
                     informant_best: np.ndarray) -> np.ndarray:
    """Per row (one particle: a 0-d array), whether ||v|| + ||l - x|| has
    collapsed below 1e-3."""
    return _norms(velocity) + _norms(informant_best - position) <= STAGNATION_THRESHOLD


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of v (of v itself when it is one row)."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def random_velocity(bounds: Bounds, rng: np.random.Generator,
                    count: int | None = None) -> np.ndarray:
    """Velocity drawn uniformly in [-(ub-lb)/2, (ub-lb)/2] per dimension; with
    a count, that many such velocities as rows, from one draw."""
    half = bounds.width() / 2.0
    return rng.uniform(-half, half, None if count is None else (count, bounds.d))
