import math
from collections import Counter

import numpy as np
import pytest

from hybridopt import Bounds
from hybridopt import de
from hybridopt.core import rng_stream
from hybridopt.de import (InsufficientPopulation, best_two, eigen_recombination_wrap,
                          mutate, num_vector_differences, population_eigenbasis,
                          recombine, recompute_velocity, select_base_and_donors,
                          select_greedy)


def test_num_vector_differences():
    assert num_vector_differences(0.0151, 50) == 1
    assert num_vector_differences(0.1711, 70) == 11
    assert num_vector_differences(0.25, 8) == 2
    assert num_vector_differences(0.25, 400) == 100


def test_num_vector_differences_equals_the_clip_reference():
    fractions = [0.0, 1e-9, 0.0007, 0.0151, 0.02, 0.0834, 0.1, 0.1711, 0.2137,
                 0.2499, 0.25, 0.3, 0.5, 1.0]
    for n in range(1, 201):
        for fraction in fractions:
            expected = int(np.clip(int(fraction * n), 1, max(1, n // 4)))
            got = num_vector_differences(fraction, n)
            assert type(got) is int and got == expected, (fraction, n)


def _marker_population(n, d=3):
    # position[j] = (j+1) * e_0 so vectors identify their indices
    positions = np.zeros((n, d))
    positions[:, 0] = np.arange(1, n + 1)
    pbests = positions + 100.0
    return positions, pbests


def _ids(rows):
    """Member indices of marker rows (positions or personal bests)."""
    return (rows[..., 0] % 100.0).astype(int) - 1


def test_select_best_base():
    positions, pbests = _marker_population(6)
    fitnesses = np.array([5.0, 4.0, 3.0, 2.0, 0.5, 6.0])
    base, donors = select_base_and_donors("best", positions, pbests, fitnesses,
                                          np.arange(6), k=1, beta=0.5,
                                          vectors="positions", rng=rng_stream(0),
                                          leaders=best_two(fitnesses))
    assert donors.shape == (6, 2, 3)
    # every target takes the best member, the best one takes the runner-up
    assert list(_ids(base)) == [4, 4, 4, 4, 3, 4]
    for t, (b, row) in enumerate(zip(_ids(base), _ids(donors))):
        assert len({t, b, *row}) == 4   # distinct from the target and the base


def test_best_two_breaks_ties_by_index():
    assert best_two(np.array([5.0, 4.0, 3.0, 2.0, 0.5, 6.0])) == (4, 3)
    assert best_two(np.array([9.0, 1.0, 1.0, 3.0])) == (1, 2)
    assert best_two(np.array([2.0, 7.0, 2.0, 2.0])) == (0, 2)
    assert best_two(np.array([np.inf, np.inf, np.inf])) == (0, 1)
    # every value but the best is +inf: the runner-up is the lowest other index
    assert best_two(np.array([np.inf, 3.0, np.inf])) == (1, 0)
    assert best_two(np.array([1.0, np.inf, np.inf])) == (0, 1)
    assert best_two(np.array([np.inf, np.inf, 1.0])) == (2, 0)
    for pair, expected in (([5.0, 5.0], (0, 1)), ([3.0, 1.0], (1, 0)),
                           ([np.inf, np.inf], (0, 1)), ([1.0, np.inf], (0, 1)),
                           ([np.inf, 1.0], (1, 0))):
        assert best_two(np.array(pair)) == expected, pair
    fitnesses = rng_stream(14).integers(0, 4, size=50).astype(float)
    assert best_two(fitnesses) == tuple(np.argsort(fitnesses, kind="stable")[:2])
    data = rng_stream(15)
    for n in range(2, 12):
        for _ in range(30):
            fitnesses = data.choice([1.0, 2.0, np.inf], size=n)
            before = fitnesses.copy()
            assert best_two(fitnesses) == tuple(np.argsort(fitnesses, kind="stable")[:2])
            assert np.array_equal(fitnesses, before)   # read, not written


def test_select_random_distinctness():
    # the minimum population n = 2k + 2: every target's three picks are the
    # three other members, in each of the 6 orders equally often
    positions, pbests = _marker_population(4)
    targets = np.tile(np.arange(4), 3000)
    fitnesses = np.arange(4.0)
    base, donors = select_base_and_donors("random", positions, pbests,
                                          fitnesses, targets, k=1, beta=0.5,
                                          vectors="positions", rng=rng_stream(1),
                                          leaders=best_two(fitnesses))
    picks = np.column_stack((_ids(base), _ids(donors)))
    assert np.array_equal(np.sort(picks, axis=1),
                          [[j for j in range(4) if j != t] for t in targets])
    orders = Counter(map(tuple, picks[targets == 0]))
    assert len(orders) == 6
    expected = 3000 / 6   # 3-sigma band of a binomial(3000, 1/6) count
    assert all(abs(c - expected) < 3 * math.sqrt(3000 * 5 / 36) for c in orders.values())


def test_select_directed_ordering():
    positions, pbests = _marker_population(5)
    fitnesses = np.array([9.0, 1.0, 1.0, 3.0, 8.0])   # a tie breaks by index
    targets = np.tile(np.arange(5), 50)
    base, donors = select_base_and_donors(
        "directed_random", positions, pbests, fitnesses, targets, k=1,
        beta=1.0, vectors="positions", rng=rng_stream(2), leaders=best_two(fitnesses))
    picks = np.column_stack((_ids(base), _ids(donors)))
    for t, row in zip(targets, picks):
        assert t not in row and len(set(row)) == 3
        keys = [(fitnesses[j], j) for j in row]
        assert keys == sorted(keys)


def test_select_target_to_best():
    positions, pbests = _marker_population(5)
    fitnesses = np.array([5.0, 1.0, 4.0, 3.0, 2.0])
    base, donors = select_base_and_donors("target_to_best", positions, pbests,
                                          fitnesses, np.arange(5), k=1, beta=0.5,
                                          vectors="positions", rng=rng_stream(3),
                                          leaders=best_two(fitnesses))
    expected = positions + 0.5 * (positions[1] - positions)
    assert base.tobytes() == expected.tobytes()
    for t, row in enumerate(_ids(donors)):
        assert t not in row and len(set(row)) == 2


def test_select_insufficient_population():
    positions, pbests = _marker_population(4)
    for kind, k in (("random", 2), ("best", 2), ("directed_best", 1),
                    ("target_to_best", 2)):
        with pytest.raises(InsufficientPopulation):
            select_base_and_donors(kind, positions[:3], pbests[:3], np.arange(3.0),
                                   [0], k=k, beta=0.5, vectors="positions",
                                   rng=rng_stream(4), leaders=(0, 1))


def test_select_pbest_vectors():
    positions, pbests = _marker_population(5)
    fitnesses = np.array([5.0, 1.0, 4.0, 3.0, 2.0])
    base, donors = select_base_and_donors("best", positions, pbests, fitnesses,
                                          [0, 2], k=1, beta=0.5, vectors="pbest",
                                          rng=rng_stream(5), leaders=best_two(fitnesses))
    assert base.tobytes() == pbests[[1, 1]].tobytes()
    assert np.all(donors[..., 0] >= 100.0)


def test_select_mixture_coin():
    # a fair coin per selected member, base included, picks the personal best
    positions, pbests = _marker_population(6)
    base, donors = select_base_and_donors("best", positions, pbests, np.arange(6.0),
                                          np.tile(np.arange(6), 2000), k=1,
                                          beta=0.5, vectors="mixture",
                                          rng=rng_stream(13), leaders=(0, 1))
    heads = np.column_stack((base[:, 0], donors[..., 0])) >= 100.0
    n = heads.size
    assert abs(heads.mean() - 0.5) < 3 * math.sqrt(0.25 / n)
    # the three coins of a row are independent: all agree with probability 1/4
    agree = (heads.all(axis=1) | ~heads.any(axis=1)).mean()
    assert abs(agree - 0.25) < 3 * math.sqrt(0.25 * 0.75 / len(heads))


# Each target's selection and mutation, built vector by vector from the
# members the block selected, is the reference the block form must equal bit
# for bit.

def _ref_mutate(base, pairs, beta, kind):
    if kind in ("directed_random", "directed_best"):
        b, c = pairs[0]
        return base + (beta / 2.0) * (base - b - c)
    acc = np.zeros_like(base)
    for b, c in pairs:
        acc += b - c
    return base + (beta / len(pairs)) * acc


def _members(rows, positions, pbests):
    """(index, is personal best) of each row, matched bit for bit."""
    out = []
    for row in rows:
        hit = np.flatnonzero((positions == row).all(axis=1))
        if hit.size:
            out.append((int(hit[0]), False))
        else:
            hit = np.flatnonzero((pbests == row).all(axis=1))
            assert hit.size == 1
            out.append((int(hit[0]), True))
    return out


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("vectors", ["positions", "pbest", "mixture"])
@pytest.mark.parametrize("kind", ["random", "best", "target_to_best",
                                  "directed_random", "directed_best"])
def test_donor_block_matches_per_vector_reference(kind, vectors, k):
    data, rng = rng_stream(11), rng_stream(12)
    directed = kind.startswith("directed")
    for trial in range(10):
        # down to the minimum population of the kind
        low = 2 * k + 1 if kind == "target_to_best" else 4 if directed else 2 * k + 2
        n, d = int(data.integers(low, 20)), int(data.integers(1, 8))
        positions = data.normal(scale=10.0 ** data.integers(-3, 4), size=(n, d))
        pbests = positions + data.normal(size=(n, d))
        fitnesses = data.choice(np.arange(4.0), size=n)   # with ties
        targets = data.integers(n, size=12)
        targets[0] = np.argmin(fitnesses)
        beta = float(data.uniform(0.1, 2.0))
        base, donors = select_base_and_donors(kind, positions, pbests, fitnesses,
                                              targets, k, beta, vectors, rng,
                                              best_two(fitnesses))
        pairs = 1 if directed else k
        assert base.shape == (12, d) and donors.shape == (12, 2 * pairs, d)
        mutant = mutate(base, donors, beta, kind)
        order = sorted(range(n), key=lambda j: (fitnesses[j], j))
        for t, b, rows, m in zip(targets, base, donors, mutant):
            top = order[1] if order[0] == t else order[0]
            members = _members(rows, positions, pbests)
            if kind == "target_to_best":
                ref_base = positions[t] + beta * (positions[order[0]] - positions[t])
                assert b.tobytes() == ref_base.tobytes()
            else:
                members = _members([b], positions, pbests) + members
            idx = [j for j, _ in members]
            assert t not in idx and len(set(idx)) == len(idx)
            if kind in ("best", "directed_best"):
                assert idx[0] == top
            if kind == "directed_random":
                keys = [(fitnesses[j], j) for j in idx]
                assert keys == sorted(keys)
            if vectors != "mixture":
                assert all(p == (vectors == "pbest") for _, p in members)
            ref_pairs = [(rows[2 * j], rows[2 * j + 1]) for j in range(pairs)]
            assert m.tobytes() == _ref_mutate(b, ref_pairs, beta, kind).tobytes()


def test_mutate_standard():
    a = np.array([[1.0, 2.0]])
    b = np.array([3.0, 4.0])
    c = np.array([0.0, 1.0])
    assert mutate(a, np.array([[b, c]]), 0.5, "random") == pytest.approx(np.array([[2.5, 3.5]]))
    assert mutate(a, np.array([[b, b]]), 0.9, "random") == pytest.approx(a)
    # two pairs divide beta by the pair count; rows are independent
    two = mutate(np.zeros((2, 2)), np.array([[b, c, b, c], [b, b, c, c]]), 0.5, "random")
    assert two == pytest.approx(np.array([0.5 * (2 * (b - c)) / 2, [0.0, 0.0]]))


def test_mutate_directed():
    a = np.array([[2.0, 2.0], [0.0, 0.0]])
    b = np.array([1.0, 0.0])
    c = np.array([0.0, 1.0])
    assert mutate(a, np.array([[b, c], [b, c]]), 1.0, "directed_random") \
        == pytest.approx(np.array([[2.5, 2.5], [-0.5, -0.5]]))


def test_recombine_limits():
    rng = rng_stream(6)
    target = np.zeros((50, 6))
    mutant = np.ones((50, 6))
    for kind in ("binomial", "exponential"):
        assert recombine(kind, target, mutant, 0.0, rng) == pytest.approx(mutant)
        assert recombine(kind, np.zeros((3, 1)), np.ones((3, 1)), 1.0, rng) \
            == pytest.approx(np.ones((3, 1)))
        # only k_rand survives, at a uniform position
        trial = recombine(kind, target, mutant, 1.0, rng)
        assert np.all(trial.sum(axis=1) == 1.0)
        assert len(set(np.argmax(trial, axis=1))) > 1


def test_recombine_guarantees_one_mutant_component():
    rng = rng_stream(7)
    target = np.zeros((2000, 8))
    mutant = np.ones((2000, 8))
    for kind in ("binomial", "exponential"):
        assert np.all(recombine(kind, target, mutant, 0.95, rng).sum(axis=1) >= 1.0)


def test_recombine_exponential_contiguous():
    rng = rng_stream(8)
    d, rows, p_a = 10, 20000, 0.5
    trial = recombine("exponential", np.zeros((rows, d)), np.ones((rows, d)), p_a, rng)
    lengths = trial.sum(axis=1).astype(int)
    for row, length in zip(trial[:500], lengths):
        idx = np.flatnonzero(row)
        # the run is contiguous modulo d: it starts where the component before it is 0
        starts = [j for j in idx if row[(j - 1) % d] == 0.0] if length < d else [0]
        assert len(starts) == 1
        assert all(row[(starts[0] + off) % d] == 1.0 for off in range(length))
    # the run goes on past each component with probability 1 - p_a, up to d
    expected = [p_a * (1 - p_a) ** (m - 1) for m in range(1, d)] + [(1 - p_a) ** (d - 1)]
    counts = np.bincount(lengths, minlength=d + 1)[1:]
    for c, p in zip(counts, expected):
        assert abs(c - rows * p) <= 4 * math.sqrt(rows * p * (1 - p)) + 1


def test_select_greedy():
    assert select_greedy(2.0, 1.0) == (1.0, True)
    assert select_greedy(2.0, 2.0) == (2.0, False)   # ties keep the target
    assert select_greedy(2.0, 3.0) == (3.0, False)
    assert select_greedy(2.0, math.inf) == (math.inf, False)


def test_recompute_velocity():
    rng = rng_stream(9)
    bounds = Bounds.symmetric(10.0, 2)
    old = np.array([[1.0, 1.0], [0.0, 0.0]])
    new = np.array([[2.0, 3.0], [1.0, 0.0]])
    vel = np.array([[9.0, 9.0], [8.0, 8.0]])
    assert recompute_velocity("goBack", old, new, vel, rng, bounds) \
        == pytest.approx(np.array([[1.0, 2.0], [1.0, 0.0]]))
    assert recompute_velocity("position", old, new, vel, rng, bounds) \
        == pytest.approx(new)
    assert recompute_velocity("none", old, new, vel, rng, bounds) \
        == pytest.approx(vel)
    rnd = recompute_velocity("random", old, new, vel, rng, bounds)
    assert rnd.shape == (2, 2) and np.all(np.abs(rnd) <= 10.0)
    assert recompute_velocity("random", old[0], new[0], vel[0], rng, bounds).shape == (2,)


def test_eigen_wrap():
    target = np.array([[1.0, 2.0], [0.5, -3.0]])
    mutant = np.array([[3.0, -1.0], [2.0, 2.0]])
    t, m, unrot = eigen_recombination_wrap(target, mutant, np.eye(2))
    assert t == pytest.approx(target) and m == pytest.approx(mutant)

    theta = 0.7
    basis = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
    t, m, unrot = eigen_recombination_wrap(target, mutant, basis)
    assert t[0] == pytest.approx(basis.T @ target[0])   # coordinates in the basis
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


@pytest.mark.parametrize("n, d", [(2, 1), (2, 4), (6, 5), (7, 2), (15, 5), (40, 10),
                                  (5, 1), (3, 30)])
def test_population_eigenbasis_covariance_is_np_cov(n, d, monkeypatch):
    """The covariance handed to eigh is np.cov(positions, rowvar=False) bit
    for bit."""
    seen = []
    eigh = np.linalg.eigh

    def spy(cov):
        seen.append(cov)
        return eigh(cov)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    rng = rng_stream(40 + n * d)
    for _ in range(20):
        positions = rng.normal(size=(n, d)) * rng.uniform(1e-3, 100.0) + rng.normal() * 50
        population_eigenbasis(positions)
        expected = np.atleast_2d(np.cov(positions, rowvar=False))
        assert seen.pop().tobytes() == expected.tobytes()


def test_distinct_picks_at_large_counts():
    # 401 picks from 9 999 candidates repeat about 8 times per row; only the
    # repeated entries are redrawn, so the block settles in a few rounds
    positions = np.arange(10000.0)[:, None]
    targets = np.arange(0, 10000, 500)
    base, donors = select_base_and_donors("random", positions, positions,
                                          positions[:, 0], targets, k=200, beta=0.5,
                                          vectors="positions", rng=rng_stream(14),
                                          leaders=(0, 1))
    picks = np.column_stack((base[:, 0], donors[..., 0])).astype(int)
    assert picks.shape == (20, 401)
    for t, row in zip(targets, picks):
        assert len(set(row)) == 401 and t not in row


def test_distinct_picks_in_eight_bits():
    # 128 picks from the 255 candidates of n = 257 are drawn as 8-bit
    # integers; stepping past the target and the best must reach index 256
    positions = np.arange(257.0)[:, None]
    fitnesses = positions[:, 0].copy()
    targets = np.array([0, 1, 128, 255, 256] * 20)
    base, donors = select_base_and_donors("best", positions, positions, fitnesses,
                                          targets, k=64, beta=0.5,
                                          vectors="positions", rng=rng_stream(16),
                                          leaders=best_two(fitnesses))
    picks = np.column_stack((base[:, 0], donors[..., 0])).astype(int)
    assert picks.shape == (100, 129) and picks.max() == 256
    for t, row in zip(targets, picks):
        assert row[0] == (1 if t == 0 else 0)
        assert len(set(row)) == 129 and t not in row


# _distinct_picks sorts one block of uniforms up to SORT_PICKS_MAX_SIZE
# candidates and redraws repeated picks above it.

def test_sort_switch_size_is_pinned():
    # count 1 cannot repeat, so the redraw branch draws exactly one double per
    # row, while the sort branch draws one per candidate
    assert de.SORT_PICKS_MAX_SIZE == 36
    for size, drawn in ((36, 3 * 36), (37, 3)):
        rng, ref = rng_stream(20), rng_stream(20)
        picks = de._distinct_picks(1, size, 3, rng)
        ref.random(drawn)
        assert rng.bit_generator.state == ref.bit_generator.state, size
        assert picks.shape == (3, 1)
    rng, ref = rng_stream(21), rng_stream(21)
    picks = de._distinct_picks(3, 36, 4, rng)
    expected = np.argsort(ref.random((4, 36)), axis=1, kind="stable")[:, :3]
    assert picks.tolist() == expected.tolist()


@pytest.mark.parametrize("size", [2, 5, 20, 35, 36, 37, 38, 60])
def test_distinct_picks_on_both_sides_of_the_switch(size):
    rng = rng_stream(22 + size)
    for count in sorted({1, 2, min(3, size), min(size, 17), size}):
        picks = de._distinct_picks(count, size, 200, rng)
        assert picks.shape == (200, count) and picks.dtype == np.intp
        assert picks.min() >= 0 and picks.max() < size
        assert all(len(set(row)) == count for row in picks.tolist())
    with pytest.raises(InsufficientPopulation):
        de._distinct_picks(size + 1, size, 1, rng)


@pytest.mark.parametrize("kind", ["random", "best", "directed_random", "target_to_best"])
@pytest.mark.parametrize("n", [6, 36, 37, 38, 39, 50])
def test_selection_excludes_the_target_on_both_sides_of_the_switch(kind, n):
    positions = np.arange(float(n))[:, None]
    fitnesses = rng_stream(30 + n).permutation(n).astype(float)
    targets = np.tile(np.arange(n), 20)
    base, donors = select_base_and_donors(kind, positions, positions, fitnesses,
                                          targets, k=1, beta=0.5, vectors="positions",
                                          rng=rng_stream(31 + n),
                                          leaders=best_two(fitnesses))
    picks = donors[..., 0].astype(int)
    if kind != "target_to_best":
        picks = np.column_stack((base[:, 0].astype(int), picks))
    for t, row in zip(targets, picks.tolist()):
        assert t not in row and len(set(row)) == len(row)
        assert all(0 <= j < n for j in row)


@pytest.mark.parametrize("switch", [36, 4])
def test_three_of_five_is_uniform_over_ordered_tuples(switch, monkeypatch):
    # sort branch at the pinned switch, redraw branch with the switch below 5;
    # 60 000 rows put 1 000 expected on each of the 5 * 4 * 3 = 60 tuples
    monkeypatch.setattr(de, "SORT_PICKS_MAX_SIZE", switch)
    picks = de._distinct_picks(3, 5, 60000, rng_stream(23))
    counts = Counter(map(tuple, picks.tolist()))
    assert len(counts) == 60
    assert all(len(set(t)) == 3 and max(t) < 5 for t in counts)
    chi2 = sum((c - 1000.0) ** 2 / 1000.0 for c in counts.values())
    # 98.4 is the chi-square quantile of 59 degrees of freedom at 0.999
    # (Wilson-Hilferty); its mean is 59
    assert chi2 < 98.4
