import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridopt import Bounds, default_config, make_instance, run, validate
from hybridopt.core import rng_stream
from hybridopt.pso import (SUCCESS_WINDOW, PsoParams, TopologyState, _coefficients,
                           _from_basis, _perturb, _random_edges, _to_basis,
                           advance_topology, build_topology, compute_velocity, dnpp,
                           informant_weights, mantegna_levy,
                           neighborhood_best, neighbors, perturbation_magnitude,
                           random_velocity, ranked_informants, stagnation_check,
                           swarm_step, update_position)


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

TOPOLOGIES = ("fully_connected", "ring", "wheel", "von_neumann", "random_edge",
              "time_varying")


def test_topology_shapes():
    rng = rng_stream(0)
    full = build_topology("fully_connected", 5, rng)
    assert neighbors(full, 2).tolist() == [0, 1, 3, 4]
    ring = build_topology("ring", 5, rng)
    assert neighbors(ring, 0).tolist() == [1, 4]
    wheel = build_topology("wheel", 5, rng)
    assert neighbors(wheel, 3).tolist() == [0]
    assert neighbors(wheel, 0).tolist() == [1, 2, 3, 4]
    von = build_topology("von_neumann", 9, rng)
    assert neighbors(von, 4).tolist() == [1, 3, 5, 7]   # torus of width 3
    assert np.all(von.adjacency.sum(axis=1) >= 1)
    rnd = build_topology("random_edge", 6, rng)
    assert np.all(rnd.adjacency.sum(axis=1) >= 1)


def test_time_varying_topology_shrinks_to_ring():
    rng = rng_stream(1)
    n = 8
    top = build_topology("time_varying", n, rng, total_iters=1)
    assert top.t_schedule >= 1
    degrees = top.adjacency.sum(axis=1)
    for t in range(1, 300):
        advance_topology(top, t, rng)
        new_degrees = top.adjacency.sum(axis=1)
        assert np.all(new_degrees <= degrees)
        assert np.all(new_degrees >= 2)
        degrees = new_degrees
    assert np.all(degrees == 2)  # ended as a ring
    # the ring is one connected cycle
    seen = {0}
    cur, prev = int(neighbors(top, 0)[0]), 0
    while cur != 0:
        seen.add(cur)
        nxt = [j for j in neighbors(top, cur) if j != prev]
        prev, cur = cur, int(nxt[0])
    assert len(seen) == n


def test_ranked_informants_first_is_the_neighborhood_best():
    rng = rng_stream(16)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        adj = rng.random((n, n)) < rng.uniform(0.05, 0.9)
        adj = adj | adj.T
        adj[0] = adj[:, 0] = True   # every row has an informant
        np.fill_diagonal(adj, False)
        top = TopologyState(kind="random_edge", adjacency=adj)
        pf = rng.choice([0.5, 1.0, 2.0, math.inf], n)   # ties and +inf
        idx, m = ranked_informants(adj, pf)
        assert idx[:, 0].tolist() == neighborhood_best(adj, pf).tolist()
        assert m.tolist() == adj.sum(axis=1).tolist()
        for i in range(n):
            nb = neighbors(top, i)
            # (pf, index) order over exactly the informants
            assert idx[i, :m[i]].tolist() == sorted(nb.tolist(), key=lambda k: (pf[k], k))


def test_ranked_informants_follow_fitness_not_row_order():
    adj = np.array([[False, True, True], [True, False, False], [True, False, False]])
    idx, m = ranked_informants(adj, np.array([0.0, 2.0, 1.0]))
    assert m.tolist() == [2, 1, 1]
    assert idx[0].tolist() == [2, 1]   # the better informant is the higher index
    assert idx[1, 0] == idx[2, 0] == 0


def test_random_edge_redrawn_each_iteration():
    rng = rng_stream(2)
    top = build_topology("random_edge", 10, rng)
    before = top.adjacency.copy()
    advance_topology(top, 1, rng)
    assert not np.array_equal(before, top.adjacency)


def _random_edges_loop(n, rng):
    """Random-edge graph one particle at a time: per particle i, one draw
    of j among the n - 1 others."""
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        adj[i, j] = adj[j, i] = True
    return adj


@pytest.mark.parametrize("n", [2, 3, 7, 31, 59])
def test_random_edges_equal_the_per_particle_draws(n):
    for seed in range(20):
        block_rng, loop_rng = rng_stream(seed), rng_stream(seed)
        assert np.array_equal(_random_edges(n, block_rng), _random_edges_loop(n, loop_rng))
        assert block_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("kind", TOPOLOGIES)
def test_topology_invariants(kind):
    rng = rng_stream(13)
    n = 11
    top = build_topology(kind, n, rng, total_iters=4)
    ring = [(i, (i + 1) % n) for i in range(n)]
    for t in range(1, 40):
        adj = top.adjacency
        assert adj.shape == (n, n) and adj.dtype == bool
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()
        assert np.all(adj.sum(axis=1) >= 1)
        if kind == "time_varying":   # removal never cuts the ring i <-> i+1
            assert all(adj[i, j] for i, j in ring)
        advance_topology(top, t, rng)
    if kind == "time_varying":
        assert np.array_equal(top.adjacency.sum(axis=1), np.full(n, 2))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(TOPOLOGIES), n=st.integers(4, 30),
       steps=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
       levels=st.lists(st.sampled_from([0.0, 1.0, -2.5, math.inf]), min_size=30,
                       max_size=30))
def test_neighborhood_best_matches_brute_force(kind, n, steps, seed, levels):
    rng = rng_stream(seed)
    top = build_topology(kind, n, rng, total_iters=3)
    for t in range(1, steps + 1):
        advance_topology(top, t, rng)
    pf = np.array(levels[:n])   # few distinct values: ties, +inf ties too
    best = neighborhood_best(top.adjacency, pf)
    for i in range(n):
        expected = min(np.flatnonzero(top.adjacency[i]), key=lambda j: (pf[j], j))
        assert best[i] == expected


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def _inertia(mode, t, total, rng, n=1, **params):
    """omega1 of `_coefficients` under the inertia mode and the other params."""
    return _coefficients(PsoParams(omega1_mode=mode, **params), t, total, rng, n)[0]


def _phis(mode, t, total, rng, n=1, **params):
    """(phi1, phi2) of `_coefficients` under the acceleration mode."""
    return _coefficients(PsoParams(ac_mode=mode, **params), t, total, rng, n)[3:]


def test_inertia_weight():
    rng = rng_stream(3)
    assert _inertia("linear_decreasing", 50, 100, rng, omega1_min=0.4, omega1_max=0.9) \
        == pytest.approx(0.65)
    assert _inertia("linear_decreasing", 0, 100, rng, omega1_min=0.4, omega1_max=0.9) \
        == pytest.approx(0.9)
    assert _inertia("linear_increasing", 100, 100, rng, omega1_min=0.4, omega1_max=0.9) \
        == pytest.approx(0.9)
    assert _inertia("constant", 7, 100, rng, omega1=0.729) == 0.729
    for _ in range(20):
        w = _inertia("random", 0, 100, rng, omega1_min=0.4, omega1_max=0.9)
        assert 0.4 <= w <= 0.9
    column = _inertia("random", 0, 100, rng, n=5, omega1_min=0.4, omega1_max=0.9)
    assert column.shape == (5, 1) and np.all((0.4 <= column) & (column <= 0.9))


def test_acceleration_coeffs():
    rng = rng_stream(4)
    assert _phis("constant", 3, 10, rng, phi1=1.5, phi2=1.5) == (1.5, 1.5)
    p1, p2 = _phis("time_varying", 100, 100, rng, phi1=2.0, phi2=2.0,
                   phi1_min=0.5, phi1_max=2.5)
    assert p1 == pytest.approx(0.5) and p2 == pytest.approx(2.5)
    p1, p2 = _phis("time_varying", 50, 100, rng, phi1=2.0, phi2=2.0,
                   phi1_min=0.5, phi1_max=2.5)
    assert p1 == pytest.approx(1.5) and p2 == pytest.approx(1.5)
    for _ in range(20):
        r1, r2 = _phis("random", 0, 1, rng, phi1=1.7, phi2=0.9)
        assert 0 <= r1 <= 1.7 and 0 <= r2 <= 0.9
    r1, r2 = _phis("random", 0, 1, rng, n=5, phi1=1.7, phi2=0.9)
    assert r1.shape == r2.shape == (5, 1)
    assert np.all((0 <= r1) & (r1 <= 1.7)) and np.all((0 <= r2) & (r2 <= 0.9))


@pytest.mark.parametrize("field", ["omega1_mode", "omega2_mode", "omega3_mode", "ac_mode"])
def test_coefficients_reject_an_unknown_mode(field):
    params = dataclasses.replace(PsoParams(), **{field: f"no_such_{field}"})
    with pytest.raises(ValueError, match=f"'no_such_{field}'"):
        _coefficients(params, 0, 10, rng_stream(0), 3)


# ---------------------------------------------------------------------------
# DNPP
# ---------------------------------------------------------------------------

def _one_row(*rows):
    return [np.asarray(r, dtype=float)[None] for r in rows]


def test_dnpp_degenerate_inputs_give_zero():
    rng = rng_stream(5)
    params = PsoParams()
    x, = _one_row([1.0, -2.0])
    for kind in ("rectangular", "spherical", "standard", "gaussian"):
        informants = (x[:, None].copy(), np.array([1])) if kind == "rectangular" else None
        move = dnpp(x, x.copy(), x.copy(), informants, dataclasses.replace(params, dnpp=kind),
                    1.5, 1.5, 0.0, rng)
        assert move[0] == pytest.approx([0.0, 0.0], abs=1e-15), kind


def test_dnpp_standard_average():
    rng = rng_stream(6)
    move = dnpp(*_one_row([0.0, 0.0], [2.0, 0.0], [0.0, 2.0]), None,
                PsoParams(dnpp="standard"), 1.0, 1.0, 0.0, rng)
    assert move[0] == pytest.approx([1.0, 1.0])


def test_dnpp_gaussian_zero_spread():
    rng = rng_stream(7)
    x, p = _one_row([1.0, 1.0], [3.0, -1.0])
    move = dnpp(x, p, p.copy(), None, PsoParams(dnpp="gaussian"), 1.0, 1.0, 0.0, rng)
    assert move == pytest.approx(p - x)  # sd collapses to 0


def test_dnpp_eigenbasis_roundtrip():
    rng_a = rng_stream(8)
    rng_b = rng_stream(8)
    x, p, l = _one_row([0.5, -0.5], [1.0, 2.0], [-1.0, 0.3])
    params = PsoParams(vector_basis="eigenvector")
    for kind in ("rectangular", "spherical", "standard", "gaussian"):
        of_kind = dataclasses.replace(params, dnpp=kind)
        natural = dnpp(x, p, l, None, of_kind, 1.5, 1.5, 0.0, rng_a, basis=None)
        with_identity = dnpp(x, p, l, None, of_kind, 1.5, 1.5, 0.0, rng_b, basis=np.eye(2))
        assert natural == pytest.approx(with_identity, abs=1e-12), kind


def test_dnpp_spherical_rows_of_zero_radius_keep_their_centre():
    rng = rng_stream(17)
    n, d = 6, 3
    X, P, L = rng.normal(size=(3, n, d))
    still = np.array([True, False, True, False, False, True])
    P[still] = L[still] = X[still]   # g = (phi1 (p - x) + phi2 (l - x)) / 3 = 0
    phi1, phi2 = 1.5, rng.uniform(0.5, 2.0, (n, 1))
    move = dnpp(X, P, L, None, PsoParams(dnpp="spherical"), phi1, phi2, 0.0, rng)
    g = (phi1 * (P - X) + phi2 * (L - X)) / 3.0
    assert move[still].tobytes() == g[still].tobytes()
    # every other row lands inside its hypersphere, off its centre
    radius = np.linalg.norm(g[~still], axis=1)
    offset = np.linalg.norm(move[~still] - g[~still], axis=1)
    assert np.all((offset > 0) & (offset <= radius * (1 + 1e-12)))


def test_dnpp_fully_informed_weights():
    params = PsoParams(moi="fully_informed")
    n = 4000
    X = P = np.zeros((n, 2))
    # ranked, best first; one row of the block per draw
    informants = np.broadcast_to([[2.0, 0.0], [0.0, 2.0]], (n, 2, 2)), np.full(n, 2)
    # average over informants of phi2*U*(p_k - x); expectation is phi2/2 * mean
    rng = rng_stream(9)
    draws = dnpp(X, P, informants[0][:, 0], informants, params, 0.0, 1.0, 0.0,
                 rng).mean(axis=0)
    assert draws == pytest.approx([0.5, 0.5], abs=0.05)

    ranked = PsoParams(moi="ranked_fully_informed")
    draws = dnpp(X, P, informants[0][:, 0], informants, ranked, 0.0, 1.0, 0.0,
                 rng).mean(axis=0)
    # rank weights 2/3 and 1/3, each times phi2*E[U]*(p_k - x)
    assert draws == pytest.approx([2 / 3, 1 / 3], abs=0.05)


def test_informant_weights():
    assert informant_weights("fully_informed", 4, 2.0).tolist() == [0.5]
    assert informant_weights("ranked_fully_informed", 3, 1.0).tolist() \
        == [3 / 6, 2 / 6, 1 / 6]
    # one row per count; row i is the weights of a row with m[i] informants
    rows = informant_weights("ranked_fully_informed", np.array([3, 1]), 1.5)
    assert rows[0].tolist() == informant_weights("ranked_fully_informed", 3, 1.5).tolist()
    assert rows[1, 0] == 1.5
    assert informant_weights("fully_informed", np.array([3, 1]), 1.5)[:, 0].tolist() \
        == [0.5, 1.5]


def _reference_rectangular(x, p, informants, params, phi1, phi2, pm, rng, basis):
    """The fully-informed rectangular DNPP of one particle with one loop step per
    informant, best first.  The particle draws its personal best's
    perturbation, then its informants' perturbations as one block, then its
    cognitive uniforms and one row of uniforms per informant."""
    p = x if params.ignore_pbest else p
    p = _perturb(p, params.pert_info, pm, rng)
    rows = _perturb(informants, params.pert_info, pm, rng)
    dp = _to_basis(p - x, basis)
    d = x.size
    cognitive = phi1 * rng.uniform(size=d) * dp
    ranked = params.moi == "ranked_fully_informed"
    m = len(rows)
    rank_total = m * (m + 1) / 2.0
    diffs = _to_basis(rows - x, basis)
    social = np.zeros(d)
    for k in range(m):
        w = (m - k) / rank_total if ranked else 1.0 / m
        social += w * phi2 * rng.uniform(size=d) * diffs[k]
    return _from_basis(cognitive + social, basis)


@pytest.mark.parametrize("moi", ["fully_informed", "ranked_fully_informed"])
@pytest.mark.parametrize("pert_info", ["none", "gaussian", "uniform", "levy"])
@pytest.mark.parametrize("m", [1, 2, 39])
def test_dnpp_fully_informed_matches_per_informant_loop(moi, pert_info, m):
    d = 6
    data = rng_stream(100 + m)
    x, p = data.normal(size=d), data.normal(size=d)
    P = data.normal(size=(m, d)) * 3.0
    F = data.choice([0.5, 1.0, 2.0, math.inf], size=m)   # ties, +inf ties too
    ranked = P[F.argsort(kind="stable")]
    basis = np.linalg.qr(data.normal(size=(d, d)))[0]
    for pm in (0.0, 0.3):
        for b in (None, basis):
            params = PsoParams(moi=moi, pert_info=pert_info,
                               vector_basis="natural" if b is None else "eigenvector")
            rng_a, rng_b = rng_stream(7), rng_stream(7)
            got = dnpp(x[None], p[None], ranked[:1], (ranked[None], np.array([m])),
                       params, 1.3, 1.7, np.full((1, 1), pm), rng_a, basis=b)
            want = _reference_rectangular(x, p, ranked, params, 1.3, 1.7, pm, rng_b, b)
            assert np.array_equal(got[0], want), (pm, b is None)
            # the stream advanced by exactly the same draws
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

def test_perturbation_magnitude():
    p = np.array([3.0, 4.0])
    zero = np.zeros(2)
    assert perturbation_magnitude("constant", 0.01, p, zero) == 0.01
    assert perturbation_magnitude("euclidean_distance", 1.0, p, p) == 0.0
    assert perturbation_magnitude("euclidean_distance", 1.0, p + 0.0, zero) \
        == pytest.approx(5.0 / math.sqrt(2))
    assert perturbation_magnitude("objfunc_distance", 1.0, p, zero, fp=3.0, fl=1.0) \
        == pytest.approx(2.0 / 2.0)

    # success windows: 1 improved, 0 not, -1 not yet recorded
    wins = np.ones(SUCCESS_WINDOW, dtype=np.int8)
    assert perturbation_magnitude("success_rate", 0.1, p, zero, success=wins) \
        == pytest.approx(0.2)
    fails = np.zeros(SUCCESS_WINDOW, dtype=np.int8)
    assert perturbation_magnitude("success_rate", 0.1, p, zero, success=fails) \
        == pytest.approx(0.05)
    mixed = (np.arange(SUCCESS_WINDOW) % 3 == 0).astype(np.int8)  # rate 0.4
    assert perturbation_magnitude("success_rate", 0.1, p, zero, success=mixed) \
        == pytest.approx(0.1)

    # one magnitude per row of a block
    windows = np.full((5, SUCCESS_WINDOW), -1, dtype=np.int8)   # rate 0.5 before any
    windows[1, -1] = 1                  # 1 of 1
    windows[2, -4:] = [1, 0, 0, 0]      # 1 of 4: not below 0.25
    windows[3, -5:] = [0, 1, 0, 0, 0]   # 1 of 5
    windows[4, -2:] = [1, 0]            # 1 of 2: not above 0.5
    P = np.array([p, p, zero, p, zero])
    L = np.zeros((5, 2))
    assert perturbation_magnitude("success_rate", 0.1, P, L, success=windows).tolist() \
        == [0.1, 0.2, 0.1, 0.05, 0.1]
    assert perturbation_magnitude("constant", 0.1, P, L).tolist() == [0.1] * 5
    assert perturbation_magnitude("euclidean_distance", 1.0, P, L).tolist() \
        == pytest.approx([5.0 / math.sqrt(2), 5.0 / math.sqrt(2), 0.0, 5.0 / math.sqrt(2), 0.0])
    assert perturbation_magnitude("objfunc_distance", 1.0, P[:2], L[:2], fp=np.array([3.0, 1.0]),
                                  fl=np.array([1.0, 1.0])).tolist() == [1.0, 0.0]


def test_objfunc_distance_with_non_finite_fitness():
    p = np.array([3.0, 4.0])
    inf = math.inf
    # equal ends, two +inf too, are a distance of 0
    assert perturbation_magnitude("objfunc_distance", 0.2, p, p, fp=inf, fl=inf) == 0.0
    assert perturbation_magnitude("objfunc_distance", 0.2, p, p, fp=2.0, fl=2.0) == 0.0
    # any other non-finite ratio falls back to 0.01, whatever pm is passed:
    # pso.pm is inactive under this mode, so it could never be tuned
    assert perturbation_magnitude("objfunc_distance", 0.3, p, p, fp=inf, fl=1.0) == 0.01
    assert perturbation_magnitude("objfunc_distance", 0.2, p, p, fp=1.0, fl=inf) == 0.01
    assert perturbation_magnitude("objfunc_distance", 0.2, p, p,
                                  fp=1e308, fl=-1e308) == 0.01


class _HalfInfinite:
    """Sphere that is +inf wherever x[0] > 0; counts the NaN points it is given."""

    def __init__(self, d):
        self.inner = make_instance("sphere", d)
        self.d, self.bounds = d, self.inner.bounds
        self.nan_points = 0

    def __call__(self, x):
        return self.batch(np.asarray(x)[None])[0]

    def batch(self, X):
        self.nan_points += int(np.isnan(X).any(axis=1).sum())
        return np.where(X[:, 0] > 0, math.inf, self.inner.batch(X))


@pytest.mark.parametrize("pert_info", ["gaussian", "uniform", "levy"])
def test_objfunc_distance_run_on_partly_infinite_objective(pert_info):
    cfg = validate(default_config({"exec.order": "pso", "pop.size": "20",
                                   "pso.pert_info": pert_info,
                                   "pso.pm_mode": "objfunc_distance"}))
    obj = _HalfInfinite(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run(cfg, obj, seed=3, max_evals=3000)
    assert result.evals_used == 3000
    assert obj.nan_points == 0
    assert math.isfinite(result.best_fitness)


def test_mantegna_levy_finite():
    rng = rng_stream(10)
    draws = mantegna_levy(1.5, rng, 2000)
    assert np.all(np.isfinite(draws))
    gaussian = mantegna_levy(2.0, rng, 2000)
    assert np.std(gaussian) == pytest.approx(math.sqrt(2.0), rel=0.1)


# ---------------------------------------------------------------------------
# velocity / position
# ---------------------------------------------------------------------------

def test_compute_velocity_terms():
    rng = rng_stream(11)
    x = np.zeros(2)
    v = np.array([0.5, -0.5])
    pure_inertia = PsoParams(omega1=1.0, omega2_mode="constant", omega2=0.0,
                             omega3_mode="constant", omega3=0.0)
    out = compute_velocity(x, v, x, x, None, pure_inertia, 0, 10, rng)
    assert out == pytest.approx(v)

    nothing = PsoParams(omega1=0.0, omega2_mode="constant", omega2=1.0)
    out = compute_velocity(x, v, x, x, None, nothing, 0, 10, rng)
    assert out == pytest.approx([0.0, 0.0])

    combo = PsoParams(omega1=0.5, omega2_mode="constant", omega2=1.0,
                      dnpp="standard")
    out = compute_velocity(x, np.array([2.0, 0.0]), np.array([2.0, 0.0]),
                           np.array([0.0, 2.0]), None, combo, 0, 10, rng)
    assert out == pytest.approx([2.0, 1.0])  # 0.5*v + 1.0*(1,1)


def test_update_position():
    wide = Bounds.symmetric(100.0, 2)
    x = np.array([1.0, 2.0])
    new_x, _ = update_position(x, np.array([0.5, -0.5]), wide)
    assert new_x == pytest.approx([1.5, 1.5])
    assert x == pytest.approx([1.0, 2.0])   # the input row is not mutated

    new_x, _ = update_position(x, np.zeros(2), wide)
    assert new_x == pytest.approx([1.0, 2.0])

    unit = Bounds(np.array([0.0]), np.array([1.0]))
    new_x, _ = update_position(np.array([0.9]), np.array([0.5]), unit)
    assert new_x == pytest.approx([1.0])


def test_velocity_clamping_halves_once():
    b = Bounds.symmetric(1.0, 2)   # width 2
    x, v = update_position(np.zeros(2), np.array([5.0, 0.1]), b,
                           velocity_clamping=True)
    assert v == pytest.approx([2.5, 0.05])
    assert x == pytest.approx([1.0, 0.05])  # clamped after the move

    _, v = update_position(np.zeros(2), np.array([0.5, 0.1]), b,
                           velocity_clamping=True)
    assert v == pytest.approx([0.5, 0.1])  # inside: untouched

    _, v = update_position(np.zeros((2, 2)), np.array([[5.0, 0.1], [0.5, 0.1]]), b,
                           velocity_clamping=True)
    assert v == pytest.approx(np.array([[2.5, 0.05], [0.5, 0.1]]))  # row by row


def _per_particle_reference(X, V, P, L, informants, params, t, total, rng, bounds):
    """The rectangular DNPP in the natural basis, without perturbations or
    random modes, one particle at a time: its cognitive uniforms, then one
    row of uniforms per informant (best first; one under
    best-of-neighbourhood), then its move."""
    omega1, omega2, _, phi1, phi2 = _coefficients(params, t, total, rng, 1)
    out_x, out_v = [], []
    for i, (x, v, p, l_best) in enumerate(zip(X, V, P, L)):
        d = x.size
        p = x if params.ignore_pbest else p
        cognitive = phi1 * rng.uniform(size=d) * (p - x)
        if informants is None:
            social = phi2 * rng.uniform(size=d) * (l_best - x)
        else:
            rows = informants[i]
            coef = informant_weights(params.moi, len(rows), phi2)[:, None]
            social = np.add.reduce(coef * rng.random((len(rows), d)) * (rows - x), axis=0,
                                   initial=0.0)
        x, v = update_position(x, omega1 * v + omega2 * (cognitive + social), bounds,
                               params.velocity_clamping)
        out_x.append(x)
        out_v.append(v)
    return np.array(out_x), np.array(out_v)


@pytest.mark.parametrize("params", [
    PsoParams(),
    PsoParams(ignore_pbest=True, omega1_mode="linear_decreasing",
              ac_mode="time_varying", velocity_clamping=False),
    PsoParams(moi="fully_informed"),
    PsoParams(moi="ranked_fully_informed", omega2_mode="constant", omega2=0.8),
])
def test_swarm_step_matches_the_per_particle_reference(params):
    # uneven informant counts, some above 8, and velocities that need halving
    n, d = 30, 4
    rng = rng_stream(14)
    b = Bounds.symmetric(5.0, d)
    adj = rng.random((n, n)) < 0.3
    adj = adj | adj.T
    adj[0] = adj[:, 0] = True
    np.fill_diagonal(adj, False)
    top = TopologyState(kind="random_edge", adjacency=adj)
    X, P = rng.uniform(-5.0, 5.0, (2, n, d))
    V = rng.normal(0.0, 4.0, (n, d))
    pf = rng.choice([1.0, 2.0, 3.0, math.inf], n)   # ties and +inf
    L = P[neighborhood_best(adj, pf)]
    fully_informed = params.moi != "best_of_neighborhood"
    idx, m = ranked_informants(adj, pf)
    block_x, block_v = swarm_step(X, V, P, L, (P[idx], m) if fully_informed else None,
                                  params, 3, 10, rng_stream(15), b)
    informants = None
    if fully_informed:
        informants = [P[nb[pf[nb].argsort(kind="stable")]]
                      for nb in (neighbors(top, i) for i in range(n))]
    ref_x, ref_v = _per_particle_reference(X, V, P, L, informants, params, 3, 10,
                                           rng_stream(15), b)
    assert block_x.tobytes() == ref_x.tobytes()
    assert block_v.tobytes() == ref_v.tobytes()


# one of each setting the step handles besides the plain uniforms
_BLOCK_SETTINGS = [
    PsoParams(dnpp="spherical"),
    PsoParams(dnpp="standard", pert_info="uniform", pm_mode="euclidean_distance"),
    PsoParams(dnpp="gaussian", pert_info="levy", pm_mode="objfunc_distance"),
    PsoParams(moi="ranked_fully_informed", pert_info="gaussian", pert_rand="noisy",
              pm_mode="success_rate", vector_basis="eigenvector"),
    PsoParams(omega1_mode="random", omega2_mode="random", omega3_mode="random",
              ac_mode="random", pert_rand="rectangular", stagnation_detection=True),
]


@pytest.mark.parametrize("params", _BLOCK_SETTINGS)
@pytest.mark.parametrize("d", [1, 3])
def test_swarm_step_shapes(params, d):
    n = 9
    data = rng_stream(18)
    b = Bounds.symmetric(5.0, d)
    X, V, P = data.uniform(-5.0, 5.0, (3, n, d))
    pf = data.random(n)
    idx, m = ranked_informants(build_topology("ring", n, data).adjacency, pf)
    L = P[idx[:, 0]]
    fully_informed = params.moi != "best_of_neighborhood"
    windows = data.integers(-1, 2, (n, SUCCESS_WINDOW)).astype(np.int8)
    basis = np.linalg.qr(data.normal(size=(d, d)))[0]
    if params.vector_basis != "eigenvector":
        basis = None
    before = [a.copy() for a in (X, V, P, L)]
    rng = rng_stream(19)
    new_x, new_v = swarm_step(X, V, P, L, (P[idx], m) if fully_informed else None, params,
                              2, 10, rng, b, fp=pf, fl=pf[idx[:, 0]], success=windows,
                              basis=basis)
    assert new_x.shape == new_v.shape == (n, d)
    assert np.all(np.isfinite(new_x)) and np.all(np.isfinite(new_v))
    assert np.all(np.abs(new_x) <= 5.0)
    for a, old in zip((X, V, P, L), before):   # the inputs are left as they were
        assert a.tobytes() == old.tobytes()
    # one row moved alone is a block of one
    x, v = swarm_step(X[:1], V[:1], P[:1], L[:1],
                      (P[idx[:1]], m[:1]) if fully_informed else None, params, 2, 10, rng,
                      b, fp=pf[:1], fl=pf[idx[:1, 0]], success=windows[:1],
                      basis=basis)
    assert x.shape == v.shape == (1, d)


def test_swarm_step_resets_only_the_stagnant_rows():
    n, d = 8, 3
    data = rng_stream(20)
    b = Bounds.symmetric(10.0, d)
    X, P = data.uniform(-10.0, 10.0, (2, n, d))
    V = data.normal(0.0, 1.0, (n, d))
    L = P.copy()
    stuck = np.array([False, True, False, False, True, True, False, False])
    V[stuck] = 1e-4
    L[stuck] = X[stuck] + 1e-4   # ||v|| + ||l - x|| ~ 3.5e-4
    V[2] = 4e-4                  # a small velocity alone does not stagnate
    assert stagnation_check(V, X, L).tolist() == stuck.tolist()
    # w1 = 1 and w2 = 0: the new velocity is the reset one, or the old one
    params = PsoParams(omega1=1.0, omega2_mode="constant", omega2=0.0,
                       stagnation_detection=True, velocity_clamping=False)
    rng, ref = rng_stream(21), rng_stream(21)
    _, new_v = swarm_step(X, V, P, L, None, params, 0, 10, rng, b)
    assert new_v[~stuck].tobytes() == V[~stuck].tobytes()
    # one draw of random velocities for the three stagnant rows, in row order
    assert new_v[stuck].tobytes() == random_velocity(b, ref, 3).tobytes()
    ref.random((n, 2, d))   # then the step's uniforms
    assert rng.bit_generator.state == ref.bit_generator.state
    # without stagnation detection nothing is reset
    _, kept = swarm_step(X, V, P, L, None, PsoParams(omega1=1.0, omega2_mode="constant",
                                                     omega2=0.0, velocity_clamping=False),
                         0, 10, rng, b)
    assert kept.tobytes() == V.tobytes()


def test_stagnation_check():
    assert stagnation_check(np.zeros(2), np.ones(2), np.ones(2))
    assert not stagnation_check(np.array([1.0, 0.0]), np.zeros(2), np.zeros(2))
    v = np.array([5e-4, 0.0])
    gap = np.array([4e-4, 0.0])
    assert stagnation_check(v, np.zeros(2), gap)  # 9e-4 <= 1e-3
    # one flag per row of a block
    assert stagnation_check(np.array([v, [1.0, 0.0]]), np.zeros((2, 2)),
                            np.array([gap, gap])).tolist() == [True, False]


def test_random_velocity_half_range():
    rng = rng_stream(12)
    b = Bounds.symmetric(10.0, 3)
    for _ in range(50):
        v = random_velocity(b, rng)
        assert np.all(np.abs(v) <= 10.0)
    rows = random_velocity(b, rng_stream(13), 4)
    one_by_one = rng_stream(13)
    assert rows.tobytes() == np.array([random_velocity(b, one_by_one)
                                       for _ in range(4)]).tobytes()
