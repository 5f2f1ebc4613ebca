import math

import numpy as np
import pytest

from hybridopt import Bounds, rng_stream
from hybridopt.de import (InsufficientPopulation, eigen_recombination_wrap,
                          mutate, num_vector_differences, population_eigenbasis,
                          recombine, recompute_velocity, select_base_and_donors,
                          select_greedy)


def test_num_vector_differences():
    assert num_vector_differences(0.0151, 50) == 1
    assert num_vector_differences(0.1711, 70) == 11
    assert num_vector_differences(0.25, 8) == 2
    assert num_vector_differences(0.25, 400) == 100


def _marker_population(n, d=3):
    # position[j] = (j+1) * e_0 so vectors identify their indices
    positions = np.zeros((n, d))
    positions[:, 0] = np.arange(1, n + 1)
    pbests = positions + 100.0
    return positions, pbests


def test_select_best_base():
    rng = rng_stream(0)
    positions, pbests = _marker_population(6)
    fitnesses = np.array([5.0, 4.0, 3.0, 2.0, 0.5, 6.0])
    base, donors = select_base_and_donors("best", positions, pbests, fitnesses,
                                          i=0, k=1, beta=0.5,
                                          vectors="positions", rng=rng)
    assert base == pytest.approx(positions[4])
    assert donors.shape == (2, 3)


def test_select_random_distinctness():
    positions, pbests = _marker_population(4)
    fitnesses = np.arange(4.0)
    rng = rng_stream(1)
    for _ in range(200):
        base, donors = select_base_and_donors("random", positions, pbests,
                                              fitnesses, i=0, k=1, beta=0.5,
                                              vectors="positions", rng=rng)
        ids = {base[0], *donors[:, 0]}
        assert 1.0 not in ids          # never the target
        assert len(ids) == 3           # mutually distinct


def test_select_directed_ordering():
    positions, pbests = _marker_population(5)
    fitnesses = np.array([9.0, 1.0, 2.0, 3.0, 8.0])
    rng = rng_stream(2)
    for _ in range(50):
        base, (vb, vc) = select_base_and_donors(
            "directed_random", positions, pbests, fitnesses, i=0, k=1,
            beta=1.0, vectors="positions", rng=rng)
        fa = fitnesses[int(base[0]) - 1]
        assert fa <= fitnesses[int(vb[0]) - 1]
        assert fa <= fitnesses[int(vc[0]) - 1]


def test_select_target_to_best():
    positions, pbests = _marker_population(5)
    fitnesses = np.array([5.0, 1.0, 4.0, 3.0, 2.0])
    rng = rng_stream(3)
    base, _ = select_base_and_donors("target_to_best", positions, pbests,
                                     fitnesses, i=0, k=1, beta=0.5,
                                     vectors="positions", rng=rng)
    expected = positions[0] + 0.5 * (positions[1] - positions[0])
    assert base == pytest.approx(expected)


def test_select_insufficient_population():
    positions, pbests = _marker_population(4)
    with pytest.raises(InsufficientPopulation):
        select_base_and_donors("random", positions, pbests, np.arange(4.0),
                               i=0, k=2, beta=0.5, vectors="positions",
                               rng=rng_stream(4))


def test_select_pbest_vectors():
    positions, pbests = _marker_population(5)
    fitnesses = np.array([5.0, 1.0, 4.0, 3.0, 2.0])
    base, donors = select_base_and_donors("best", positions, pbests, fitnesses,
                                          i=0, k=1, beta=0.5, vectors="pbest",
                                          rng=rng_stream(5))
    assert base == pytest.approx(pbests[1])
    assert np.all(donors[:, 0] >= 100.0)


def test_mutate_standard():
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 4.0])
    c = np.array([0.0, 1.0])
    assert mutate(a, np.array([b, c]), 0.5, "random") == pytest.approx([2.5, 3.5])
    assert mutate(a, np.array([b, b]), 0.9, "random") == pytest.approx(a)
    # two pairs divide beta by the pair count
    two = mutate(np.zeros(2), np.array([b, c, b, c]), 0.5, "random")
    assert two == pytest.approx(0.5 * (2 * (b - c)) / 2)


def test_mutate_directed():
    a = np.array([2.0, 2.0])
    b = np.array([1.0, 0.0])
    c = np.array([0.0, 1.0])
    assert mutate(a, np.array([b, c]), 1.0, "directed_random") \
        == pytest.approx([2.5, 2.5])


# The per-vector selection and pair-loop mutation that the donor block
# replaced, kept as the reference the block form must equal bit for bit.

def _ref_distinct_indices(count, n, exclude, rng):
    pool = [j for j in range(n) if j not in exclude]
    if len(pool) < count:
        raise InsufficientPopulation("too few candidates")
    picks = rng.choice(len(pool), size=count, replace=False)
    return [pool[int(j)] for j in picks]


def _ref_member_vector(idx, positions, pbests, mode, rng):
    if mode == "positions":
        return positions[idx]
    if mode == "pbest":
        return pbests[idx]
    return pbests[idx] if rng.uniform() < 0.5 else positions[idx]


def _ref_select_base_and_donors(kind, positions, pbests, fitnesses, i, k, beta,
                                vectors, rng):
    n = len(positions)
    best = int(np.argmin(fitnesses))

    def vec(idx):
        return _ref_member_vector(idx, positions, pbests, vectors, rng)

    if kind in ("directed_random", "directed_best"):
        if kind == "directed_best":
            a = best
            if a == i and n > 1:
                a = int(np.argsort(fitnesses, kind="stable")[1])
            b, c = _ref_distinct_indices(2, n, {i, a}, rng)
        else:
            a, b, c = _ref_distinct_indices(3, n, {i}, rng)
            a, b, c = sorted((a, b, c), key=lambda j: (fitnesses[j], j))
        return vec(a), [(vec(b), vec(c))]
    if kind == "random":
        picks = _ref_distinct_indices(2 * k + 1, n, {i}, rng)
        base = vec(picks[0])
        rest = picks[1:]
    elif kind == "best":
        base_idx = best
        if base_idx == i and n > 1:
            base_idx = int(np.argsort(fitnesses, kind="stable")[1])
        base = vec(base_idx)
        rest = _ref_distinct_indices(2 * k, n, {i, base_idx}, rng)
    else:
        base = positions[i] + beta * (positions[best] - positions[i])
        rest = _ref_distinct_indices(2 * k, n, {i}, rng)
    return base, [(vec(rest[2 * j]), vec(rest[2 * j + 1])) for j in range(k)]


def _ref_mutate(base, pairs, beta, kind):
    if kind in ("directed_random", "directed_best"):
        b, c = pairs[0]
        return base + (beta / 2.0) * (base - b - c)
    acc = np.zeros_like(base)
    for b, c in pairs:
        acc += b - c
    return base + (beta / len(pairs)) * acc


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("vectors", ["positions", "pbest", "mixture"])
@pytest.mark.parametrize("kind", ["random", "best", "target_to_best",
                                  "directed_random", "directed_best"])
def test_donor_block_matches_per_vector_reference(kind, vectors, k):
    data = rng_stream(11)
    new_rng, ref_rng = rng_stream(12), rng_stream(12)
    for trial in range(40):
        n, d = int(data.integers(2 * k + 2, 20)), int(data.integers(1, 8))
        positions = data.normal(scale=10.0 ** data.integers(-3, 4), size=(n, d))
        pbests = positions + data.normal(size=(n, d))
        fitnesses = data.choice(np.arange(4.0), size=n)   # with ties
        i = int(data.integers(n)) if trial % 4 else int(np.argmin(fitnesses))
        beta = float(data.uniform(0.1, 2.0))
        base, donors = select_base_and_donors(kind, positions, pbests, fitnesses,
                                              i, k, beta, vectors, new_rng)
        ref_base, pairs = _ref_select_base_and_donors(
            kind, positions, pbests, fitnesses, i, k, beta, vectors, ref_rng)
        assert base.tobytes() == ref_base.tobytes()
        assert donors.tobytes() == np.array(pairs).reshape(-1, d).tobytes()
        assert mutate(base, donors, beta, kind).tobytes() \
            == _ref_mutate(ref_base, pairs, beta, kind).tobytes()
        # both made the same draws
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state


def test_recombine_limits():
    rng = rng_stream(6)
    target = np.zeros(6)
    mutant = np.ones(6)
    for kind in ("binomial", "exponential"):
        assert recombine(kind, target, mutant, 0.0, rng) == pytest.approx(mutant)
        assert recombine(kind, np.zeros(1), np.ones(1), 1.0, rng) \
            == pytest.approx([1.0])
    for _ in range(50):
        trial = recombine("binomial", target, mutant, 1.0, rng)
        assert trial.sum() == pytest.approx(1.0)  # only k_rand survives
        trial = recombine("exponential", target, mutant, 1.0, rng)
        assert trial.sum() == pytest.approx(1.0)


def test_recombine_guarantees_one_mutant_component():
    rng = rng_stream(7)
    target = np.zeros(8)
    mutant = np.ones(8)
    for kind in ("binomial", "exponential"):
        for _ in range(200):
            trial = recombine(kind, target, mutant, 0.95, rng)
            assert trial.sum() >= 1.0


def test_recombine_exponential_contiguous():
    rng = rng_stream(8)
    target = np.zeros(10)
    mutant = np.ones(10)
    for _ in range(200):
        trial = recombine("exponential", target, mutant, 0.5, rng)
        idx = np.flatnonzero(trial)
        length = idx.size
        start = None
        for cand in idx:  # block is contiguous modulo d
            if all((cand + off) % 10 in set(idx) for off in range(length)):
                start = cand
                break
        assert start is not None


def test_select_greedy():
    assert select_greedy(2.0, 1.0) == (1.0, True)
    assert select_greedy(2.0, 2.0) == (2.0, False)   # ties keep the target
    assert select_greedy(2.0, 3.0) == (3.0, False)
    assert select_greedy(2.0, math.inf) == (math.inf, False)


def test_recompute_velocity():
    rng = rng_stream(9)
    bounds = Bounds.symmetric(10.0, 2)
    old = np.array([1.0, 1.0])
    new = np.array([2.0, 3.0])
    vel = np.array([9.0, 9.0])
    assert recompute_velocity("goBack", old, new, vel, rng, bounds) \
        == pytest.approx([1.0, 2.0])
    assert recompute_velocity("position", old, new, vel, rng, bounds) \
        == pytest.approx([2.0, 3.0])
    assert recompute_velocity("none", old, new, vel, rng, bounds) \
        == pytest.approx(vel)
    rnd = recompute_velocity("random", old, new, vel, rng, bounds)
    assert np.all(np.abs(rnd) <= 10.0)


def test_eigen_wrap():
    target = np.array([1.0, 2.0])
    mutant = np.array([3.0, -1.0])
    t, m, unrot = eigen_recombination_wrap(target, mutant, np.eye(2))
    assert t == pytest.approx(target) and m == pytest.approx(mutant)

    theta = 0.7
    basis = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
    t, m, unrot = eigen_recombination_wrap(target, mutant, basis)
    assert unrot(t) == pytest.approx(target, abs=1e-12)
    assert unrot(m) == pytest.approx(mutant, abs=1e-12)

    clones = np.tile(np.array([1.0, 2.0]), (6, 1))
    assert population_eigenbasis(clones) is None
    t, m, unrot = eigen_recombination_wrap(target, mutant, None)
    assert t == pytest.approx(target) and unrot(m) == pytest.approx(mutant)


def test_population_eigenbasis_orthonormal():
    rng = rng_stream(10)
    positions = rng.normal(size=(30, 4))
    basis = population_eigenbasis(positions)
    assert basis.shape == (4, 4)
    assert basis @ basis.T == pytest.approx(np.eye(4), abs=1e-10)

