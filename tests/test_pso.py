import math

import numpy as np
import pytest

from hybridopt import Bounds, rng_stream
from hybridopt.pso import (PsoParams, SuccessWindow, acceleration_coeffs,
                           advance_topology, build_topology, compute_velocity,
                           dnpp, inertia_weight, mantegna_levy, neighbors,
                           perturbation_magnitude, random_velocity,
                           stagnation_check, update_position)


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

def test_topology_shapes():
    rng = rng_stream(0)
    full = build_topology("fully_connected", 5, rng)
    assert neighbors(full, 2) == {0, 1, 3, 4}
    ring = build_topology("ring", 5, rng)
    assert neighbors(ring, 0) == {4, 1}
    wheel = build_topology("wheel", 5, rng)
    assert neighbors(wheel, 3) == {0}
    assert neighbors(wheel, 0) == {1, 2, 3, 4}
    von = build_topology("von_neumann", 9, rng)
    assert all(len(neighbors(von, i)) >= 1 for i in range(9))
    rnd = build_topology("random_edge", 6, rng)
    assert all(len(neighbors(rnd, i)) >= 1 for i in range(6))


def test_time_varying_topology_shrinks_to_ring():
    rng = rng_stream(1)
    n = 8
    top = build_topology("time_varying", n, rng, total_iters=1)
    assert top.t_schedule >= 1
    degrees = [len(a) for a in top.adjacency]
    for t in range(1, 300):
        advance_topology(top, t, rng)
        new_degrees = [len(a) for a in top.adjacency]
        assert all(nd <= od for nd, od in zip(new_degrees, degrees))
        assert all(nd >= 2 for nd in new_degrees)
        degrees = new_degrees
    assert all(d == 2 for d in degrees)  # ended as a ring
    # the ring is one connected cycle
    seen = {0}
    cur, prev = next(iter(top.adjacency[0])), 0
    while cur != 0:
        seen.add(cur)
        nxt = [j for j in top.adjacency[cur] if j != prev]
        prev, cur = cur, nxt[0]
    assert len(seen) == n


def test_random_edge_redrawn_each_iteration():
    rng = rng_stream(2)
    top = build_topology("random_edge", 10, rng)
    before = [set(a) for a in top.adjacency]
    advance_topology(top, 1, rng)
    after = [set(a) for a in top.adjacency]
    assert before != after


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
        move = dnpp(kind, x, x.copy(), x.copy(), [(x.copy(), 0.0)], params,
                    1.5, 1.5, 0.0, rng)
        assert move == pytest.approx([0.0, 0.0], abs=1e-15), kind


def test_dnpp_standard_average():
    rng = rng_stream(6)
    move = dnpp("standard", np.zeros(2), np.array([2.0, 0.0]),
                np.array([0.0, 2.0]), [], PsoParams(),
                1.0, 1.0, 0.0, rng)
    assert move == pytest.approx([1.0, 1.0])


def test_dnpp_gaussian_zero_spread():
    rng = rng_stream(7)
    p = np.array([3.0, -1.0])
    move = dnpp("gaussian", np.ones(2), p, p.copy(), [], PsoParams(),
                1.0, 1.0, 0.0, rng)
    assert move == pytest.approx(p - np.array([1.0, 1.0]))  # sd collapses to 0


def test_dnpp_eigenbasis_roundtrip():
    rng_a = rng_stream(8)
    rng_b = rng_stream(8)
    x, p = np.array([0.5, -0.5]), np.array([1.0, 2.0])
    l = np.array([-1.0, 0.3])
    params = PsoParams(vector_basis="eigenvector")
    natural = dnpp("rectangular", x, p, l, [], params, 1.5, 1.5, 0.0, rng_a,
                   basis=None)
    with_identity = dnpp("rectangular", x, p, l, [], params, 1.5, 1.5, 0.0,
                         rng_b, basis=np.eye(2))
    assert natural == pytest.approx(with_identity, abs=1e-12)


def test_dnpp_fully_informed_weights():
    params = PsoParams(moi="fully_informed")
    x = p = np.zeros(2)
    informants = [(np.array([2.0, 0.0]), 1.0), (np.array([0.0, 2.0]), 2.0)]
    # average over informants of phi2*U*(p_k - x); expectation is phi2/2 * mean
    rng = rng_stream(9)
    draws = np.mean([dnpp("rectangular", x, p, informants[0][0], informants,
                          params, 0.0, 1.0, 0.0, rng) for _ in range(4000)], axis=0)
    assert draws == pytest.approx([0.5, 0.5], abs=0.05)

    ranked = PsoParams(moi="ranked_fully_informed")
    draws = np.mean([dnpp("rectangular", x, p, informants[0][0], informants,
                          ranked, 0.0, 1.0, 0.0, rng) for _ in range(4000)], axis=0)
    # rank weights 2/3 and 1/3, each times phi2*E[U]*(p_k - x)
    assert draws == pytest.approx([2 / 3, 1 / 3], abs=0.05)


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
    out = compute_velocity(x, v, x, x, [], pure_inertia, 0, 10, rng)
    assert out == pytest.approx(v)

    nothing = PsoParams(omega1=0.0, omega2_mode="constant", omega2=1.0)
    out = compute_velocity(x, v, x, x, [], nothing, 0, 10, rng)
    assert out == pytest.approx([0.0, 0.0])

    combo = PsoParams(omega1=0.5, omega2_mode="constant", omega2=1.0,
                      dnpp="standard")
    out = compute_velocity(x, np.array([2.0, 0.0]), np.array([2.0, 0.0]),
                           np.array([0.0, 2.0]), [], combo, 0, 10, rng)
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
