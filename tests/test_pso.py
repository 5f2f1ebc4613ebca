import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridopt import Bounds, default_config, make_instance, rng_stream, run, validate
from hybridopt.pso import (PsoParams, SuccessWindow, TopologyState, _from_basis,
                           _perturb, _to_basis, acceleration_coeffs, advance_topology,
                           build_topology, compute_velocity, dnpp, inertia_weight,
                           informant_weights, mantegna_levy, neighborhood_best, neighbors,
                           perturbation_magnitude, random_velocity, ranked_informants,
                           stagnation_check, swarm_step, swarm_step_applies,
                           update_position)


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
        assert idx[:, 0].tolist() == neighborhood_best(top, pf).tolist()
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
    best = neighborhood_best(top, pf)
    for i in range(n):
        expected = min(np.flatnonzero(top.adjacency[i]), key=lambda j: (pf[j], j))
        assert best[i] == expected


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_inertia_weight():
    rng = rng_stream(3)
    assert inertia_weight("linear_decreasing", 50, 100, rng, lo=0.4, hi=0.9) \
        == pytest.approx(0.65)
    assert inertia_weight("linear_decreasing", 0, 100, rng, lo=0.4, hi=0.9) \
        == pytest.approx(0.9)
    assert inertia_weight("linear_increasing", 100, 100, rng, lo=0.4, hi=0.9) \
        == pytest.approx(0.9)
    assert inertia_weight("constant", 7, 100, rng, value=0.729) == 0.729
    for _ in range(20):
        w = inertia_weight("random", 0, 100, rng, lo=0.4, hi=0.9)
        assert 0.4 <= w <= 0.9


def test_acceleration_coeffs():
    rng = rng_stream(4)
    assert acceleration_coeffs("constant", 3, 10, 1.5, 1.5, rng) == (1.5, 1.5)
    p1, p2 = acceleration_coeffs("time_varying", 100, 100, 2.0, 2.0, rng,
                                 phi1_min=0.5, phi1_max=2.5)
    assert p1 == pytest.approx(0.5) and p2 == pytest.approx(2.5)
    p1, p2 = acceleration_coeffs("time_varying", 50, 100, 2.0, 2.0, rng,
                                 phi1_min=0.5, phi1_max=2.5)
    assert p1 == pytest.approx(1.5) and p2 == pytest.approx(1.5)
    for _ in range(20):
        r1, r2 = acceleration_coeffs("random", 0, 1, 1.7, 0.9, rng)
        assert 0 <= r1 <= 1.7 and 0 <= r2 <= 0.9


# ---------------------------------------------------------------------------
# DNPP
# ---------------------------------------------------------------------------

def test_dnpp_degenerate_inputs_give_zero():
    rng = rng_stream(5)
    params = PsoParams()
    x = np.array([1.0, -2.0])
    for kind in ("rectangular", "spherical", "standard", "gaussian"):
        move = dnpp(kind, x, x.copy(), x.copy(), x[None, :].copy(),
                    params, 1.5, 1.5, 0.0, rng)
        assert move == pytest.approx([0.0, 0.0], abs=1e-15), kind


def test_dnpp_standard_average():
    rng = rng_stream(6)
    move = dnpp("standard", np.zeros(2), np.array([2.0, 0.0]),
                np.array([0.0, 2.0]), None, PsoParams(),
                1.0, 1.0, 0.0, rng)
    assert move == pytest.approx([1.0, 1.0])


def test_dnpp_gaussian_zero_spread():
    rng = rng_stream(7)
    p = np.array([3.0, -1.0])
    move = dnpp("gaussian", np.ones(2), p, p.copy(), None, PsoParams(),
                1.0, 1.0, 0.0, rng)
    assert move == pytest.approx(p - np.array([1.0, 1.0]))  # sd collapses to 0


def test_dnpp_eigenbasis_roundtrip():
    rng_a = rng_stream(8)
    rng_b = rng_stream(8)
    x, p = np.array([0.5, -0.5]), np.array([1.0, 2.0])
    l = np.array([-1.0, 0.3])
    params = PsoParams(vector_basis="eigenvector")
    natural = dnpp("rectangular", x, p, l, None, params, 1.5, 1.5, 0.0, rng_a,
                   basis=None)
    with_identity = dnpp("rectangular", x, p, l, None, params, 1.5, 1.5, 0.0,
                         rng_b, basis=np.eye(2))
    assert natural == pytest.approx(with_identity, abs=1e-12)


def test_dnpp_fully_informed_weights():
    params = PsoParams(moi="fully_informed")
    x = p = np.zeros(2)
    informants = np.array([[2.0, 0.0], [0.0, 2.0]])   # ranked, best first
    # average over informants of phi2*U*(p_k - x); expectation is phi2/2 * mean
    rng = rng_stream(9)
    draws = np.mean([dnpp("rectangular", x, p, informants[0], informants,
                          params, 0.0, 1.0, 0.0, rng) for _ in range(4000)], axis=0)
    assert draws == pytest.approx([0.5, 0.5], abs=0.05)

    ranked = PsoParams(moi="ranked_fully_informed")
    draws = np.mean([dnpp("rectangular", x, p, informants[0], informants,
                          ranked, 0.0, 1.0, 0.0, rng) for _ in range(4000)], axis=0)
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


def _reference_rectangular(x, p, l_best, informants, params, phi1, phi2, pm, rng,
                           basis):
    """The rectangular DNPP with one loop step per informant, best first."""
    p = x if params.ignore_pbest else p
    p = _perturb(p, params.pert_info, pm, rng)
    _perturb(l_best, params.pert_info, pm, rng)   # drawn, but only p and the rows act
    dp = _to_basis(p - x, basis)
    d = x.size
    cognitive = phi1 * rng.uniform(size=d) * dp
    ranked = params.moi == "ranked_fully_informed"
    rows = list(zip(informants[0], informants[1].tolist()))
    m = len(rows)
    rank_total = m * (m + 1) / 2.0
    social = np.zeros(d)
    order = sorted(range(m), key=lambda k: (rows[k][1], k))
    for rank0, k in enumerate(order):
        pk = _perturb(rows[k][0], params.pert_info, pm, rng)
        w = (m - rank0) / rank_total if ranked else 1.0 / m
        social += w * phi2 * rng.uniform(size=d) * _to_basis(pk - x, basis)
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
    basis = np.linalg.qr(data.normal(size=(d, d)))[0]
    for pm in (0.0, 0.3):
        for b in (None, basis):
            params = PsoParams(moi=moi, pert_info=pert_info,
                               vector_basis="natural" if b is None else "eigenvector")
            rng_a, rng_b = rng_stream(7), rng_stream(7)
            got = dnpp("rectangular", x, p, P[0], P[F.argsort(kind="stable")], params,
                       1.3, 1.7, pm, rng_a, basis=b)
            want = _reference_rectangular(x, p, P[0], (P, F), params, 1.3, 1.7, pm,
                                          rng_b, b)
            assert np.array_equal(got, want), (pm, b is None)
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

    wins = SuccessWindow()
    for _ in range(10):
        wins.record(True)
    assert perturbation_magnitude("success_rate", 0.1, p, zero, success=wins) \
        == pytest.approx(0.2)
    fails = SuccessWindow()
    for _ in range(10):
        fails.record(False)
    assert perturbation_magnitude("success_rate", 0.1, p, zero, success=fails) \
        == pytest.approx(0.05)
    mixed = SuccessWindow()
    for k in range(10):
        mixed.record(k % 3 == 0)  # rate 0.4
    assert perturbation_magnitude("success_rate", 0.1, p, zero, success=mixed) \
        == pytest.approx(0.1)


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
    L = P[neighborhood_best(top, pf)]
    fully_informed = params.moi != "best_of_neighborhood"
    ranked = ranked_informants(adj, pf) if fully_informed else None
    assert swarm_step_applies(params, d) and not swarm_step_applies(params, 1)
    block_x, block_v = swarm_step(X, V, P, L, ranked, params, 3, 10,
                                  rng_stream(15), b)
    ref = rng_stream(15)
    for i in range(n):
        nb = neighbors(top, i)
        velocity = compute_velocity(
            X[i], V[i], P[i], L[i],
            P[nb[pf[nb].argsort(kind="stable")]] if fully_informed else None,
            params, 3, 10, ref)
        x, v = update_position(X[i], velocity, b, params.velocity_clamping)
        assert block_x[i].tobytes() == x.tobytes()
        assert block_v[i].tobytes() == v.tobytes()


def test_stagnation_check():
    assert stagnation_check(np.zeros(2), np.ones(2), np.ones(2))
    assert not stagnation_check(np.array([1.0, 0.0]), np.zeros(2), np.zeros(2))
    v = np.array([5e-4, 0.0])
    gap = np.array([4e-4, 0.0])
    assert stagnation_check(v, np.zeros(2), gap)  # 9e-4 <= 1e-3


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
