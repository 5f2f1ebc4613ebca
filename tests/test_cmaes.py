import copy
import math
import warnings

import numpy as np
import pytest

from hybridopt import Bounds, CmaParams
from hybridopt.cmaes import (CmaRunner, InvalidCounts, _sigma_scale, check_restart,
                             covariance_step, init_state, matrix_mode_tick,
                             on_restart, recombination_weights,
                             record_generation, sample_population, update_mean)
from hybridopt.core import rng_stream


def _bounds(d, half=100.0):
    return Bounds.symmetric(half, d)


def test_init_state_sizing():
    rng = rng_stream(0)
    st = init_state(CmaParams(a=3.0, b=2.0, c=0.5), _bounds(50), rng)
    assert st.lam == 15        # 4 + floor(3 ln 50)
    assert st.mu == 7          # floor(15 / 2)
    assert st.sigma == pytest.approx(100.0)   # 0.5 * 200
    st10 = init_state(CmaParams(a=3.0), _bounds(10), rng)
    assert st10.lam == 10      # 4 + floor(3 ln 10)


def test_population_size_follows_the_bounds():
    """The dimension has one source: lambda and the mean both take it from
    the bounds, so a 5-d box gets 4 + floor(3 ln 5) = 8 samples, not 7."""
    for d, lam in ((3, 7), (5, 8)):
        runner = CmaRunner(CmaParams(), _bounds(d, half=1.0), rng_stream(0))
        assert runner.state.lam == lam and runner.state.mean.shape == (d,)


def test_recombination_weights():
    eq = recombination_weights("equal", 8, 4)
    assert eq == pytest.approx([0.25] * 4)

    log = recombination_weights("logarithmic", 7, 3)
    raw = np.array([math.log(4) - math.log(i) for i in (1, 2, 3)])
    assert raw == pytest.approx([1.3862943611, 0.6931471805, 0.2876820724])
    assert log == pytest.approx(raw / raw.sum())
    # 4-digit reference rendering of the same normalization
    assert log == pytest.approx([0.5857, 0.2928, 0.1215], abs=2e-4)

    lin = recombination_weights("linear_decreasing", 7, 3)
    assert lin == pytest.approx(np.array([5.0, 4.0, 3.0]) / 12.0)

    with pytest.raises(InvalidCounts):
        recombination_weights("logarithmic", 7, 8)
    with pytest.raises(InvalidCounts):
        recombination_weights("linear_decreasing", 5, 5)  # weight would hit <= 0


def test_weight_contract_all_schemes():
    for scheme in ("logarithmic", "linear_decreasing", "equal"):
        for lam in (4, 7, 15, 40, 101):
            for mu in range(1, lam + 1):
                try:
                    w = recombination_weights(scheme, lam, mu)
                except InvalidCounts:
                    continue
                assert np.all(w > 0)
                assert np.all(np.diff(w) <= 1e-15)
                assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_update_mean():
    rng = rng_stream(1)
    st = init_state(CmaParams(a=1.0, b=5.0, weight_scheme="equal"), _bounds(2), rng)
    st.mu = 1
    st.weights = recombination_weights("equal", st.lam, 1)
    ranked = np.array([[3.0, 4.0], [9.0, 9.0], [9.0, 9.0], [9.0, 9.0]])
    assert update_mean(st, ranked) == pytest.approx([3.0, 4.0])

    st.mu = 2
    st.weights = recombination_weights("equal", st.lam, 2)
    ranked = np.array([[0.0, 0.0], [2.0, 2.0], [9.0, 9.0], [9.0, 9.0]])
    assert update_mean(st, ranked) == pytest.approx([1.0, 1.0])

    same = np.tile(np.array([5.0, -1.0]), (4, 1))
    assert update_mean(st, same) == pytest.approx([5.0, -1.0])


def test_sigma_scale():
    assert _sigma_scale(2.5, 0.3, 1.2, 2.5) == pytest.approx(1.0, abs=1e-12)
    assert _sigma_scale(0.0, 0.3, 1.2, 2.5) == pytest.approx(math.exp(-0.25))
    assert _sigma_scale(5.0, 0.3, 1.2, 2.5) > 1.0


def test_covariance_step_hand_cases():
    C = np.eye(2)
    ys = np.zeros((1, 2))
    w = np.ones(1)
    # c_cov = 0 collapses to the decay-free identity
    assert covariance_step(C, np.array([1.0, 0.0]), ys, w, 0.0, 1.0) \
        == pytest.approx(C)
    # mu_cov = 1 removes the rank-mu term entirely
    got = covariance_step(C, np.array([1.0, 0.0]), ys, w, 0.5, 1.0)
    assert got == pytest.approx(np.diag([1.0, 0.5]))
    # rank-mu fed with a huge y changes nothing when its coefficient is zero
    ys = np.full((1, 2), 7.0)
    got = covariance_step(C, np.array([1.0, 0.0]), ys, w, 0.5, 1.0)
    assert got == pytest.approx(np.diag([1.0, 0.5]))


def test_covariance_updates_stay_symmetric():
    rng = rng_stream(2)
    C = np.eye(3)
    for _ in range(200):
        p_c = rng.normal(size=3)
        ys = rng.normal(size=(4, 3))
        w = recombination_weights("logarithmic", 9, 4)
        C = covariance_step(C, p_c, ys, w, 0.1, 2.0)
        assert np.max(np.abs(C - C.T)) < 1e-12


def test_sampling_statistics():
    rng = rng_stream(3)
    st = init_state(CmaParams(a=1.0, c=0.5), _bounds(3), rng)
    st.mean = np.zeros(3)
    st.sigma = 1.0
    st.lam = 20000
    draws = np.vstack([sample_population(st, rng) for _ in range(5)])
    assert np.var(draws, axis=0) == pytest.approx([1.0, 1.0, 1.0], rel=0.05)

    st_diag = init_state(CmaParams(a=1.0, matrix_mode="diagonal"), _bounds(2), rng)
    st_diag.mean = np.zeros(2)
    st_diag.sigma = 1.0
    st_diag.C = np.array([4.0, 1.0])
    st_diag.lam = 100000
    draws = sample_population(st_diag, rng)
    assert np.std(draws[:, 0]) == pytest.approx(2.0, rel=0.05)
    assert np.std(draws[:, 1]) == pytest.approx(1.0, rel=0.05)


def test_sigma_zero_samples_collapse():
    rng = rng_stream(4)
    st = init_state(CmaParams(a=1.0), _bounds(3), rng)
    st.sigma = 0.0
    xs = sample_population(st, rng)
    assert np.allclose(xs, st.mean)


def test_check_restart():
    rng = rng_stream(5)
    params = CmaParams(e=-12.0, f=-12.0, g=-12.0)
    st = init_state(params, _bounds(4), rng)

    record_generation(st, np.full(st.lam, 3.14))   # zero spread
    assert check_restart(st, params)

    st2 = init_state(params, _bounds(4), rng)
    record_generation(st2, np.linspace(0.0, 1.0, st2.lam))
    assert not check_restart(st2, params)

    st3 = init_state(params, _bounds(4), rng)
    for k in range(st3.hist_best.maxlen):
        fits = np.linspace(0.0, 1.0, st3.lam) + 5e-13 * (k % 2)
        record_generation(st3, fits)
    hist_range = max(st3.hist_best) - min(st3.hist_best)
    assert hist_range == pytest.approx(5e-13)
    assert check_restart(st3, params)

    st4 = init_state(params, _bounds(4), rng)
    record_generation(st4, np.linspace(0.0, 1.0, st4.lam))
    st4.sigma = 1e-13   # max sampling std below 10^g
    assert check_restart(st4, params)

    # a generation of +inf samples only (NaN values count as +inf) is flat
    st5 = init_state(params, _bounds(4), rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(st5.hist_best.maxlen):
            record_generation(st5, np.full(st5.lam, math.inf))
        assert st5.last_gen_spread == 0.0
        assert check_restart(st5, params)
        st5.last_gen_spread = 1.0   # leaves only the history-range test
        assert check_restart(st5, params)


def test_on_restart_population_growth():
    d = 10
    bounds = _bounds(d)
    for mode in ("full", "diagonal", "full_then_diagonal"):
        rng = rng_stream(6)
        params = CmaParams(a=3.0, d_inc=2.0, pop_mode="incremental",
                           matrix_mode=mode, restart=False)
        runner = CmaRunner(params, bounds, rng)
        _drive(runner, rng, 300)
        st = runner.state
        if mode == "full_then_diagonal":
            matrix_mode_tick(st, params, fes_used=10 ** 9)
            assert st.diagonal
        gen, restarts, lam = st.gen, st.restarts, st.lam
        assert gen > 0 and restarts == 0 and st.sigma != st.sigma0
        ref = copy.deepcopy(rng)
        expected_mean = bounds.sample_uniform(ref)

        on_restart(st, params, bounds, rng, fes_used=1234)
        assert st.lam == 2 * lam
        assert st.mu == lam        # floor(lambda / 2)
        assert np.array_equal(st.weights,
                              recombination_weights("logarithmic", st.lam, st.mu))
        mu_eff = 1.0 / float(np.sum(st.weights ** 2))
        c_1 = 2.0 / ((d + 1.3) ** 2 + mu_eff)
        c_mu = 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((d + 2.0) ** 2 + mu_eff)
        c_sigma = (mu_eff + 2.0) / (d + mu_eff + 5.0)
        assert st.mu_eff == pytest.approx(mu_eff)
        assert st.c_sigma == pytest.approx(c_sigma)
        assert st.d_sigma == pytest.approx(
            1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (d + 1.0)) - 1.0) + c_sigma)
        assert st.c_c == pytest.approx((4.0 + mu_eff / d) / (d + 4.0 + 2.0 * mu_eff / d))
        assert st.c_cov == pytest.approx(c_1 + c_mu)
        assert st.c_cov / st.mu_cov == pytest.approx(c_1)
        assert st.chi_d == pytest.approx(
            math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d)))
        assert np.array_equal(st.mean, expected_mean)   # the restart's only draw
        assert rng.bit_generator.state == ref.bit_generator.state
        assert st.sigma == st.sigma0
        # a full_then_diagonal state that had switched starts over with a full C
        assert st.diagonal == (mode == "diagonal")
        assert np.array_equal(st.C, np.ones(d) if mode == "diagonal" else np.eye(d))
        assert np.array_equal(st.p_c, np.zeros(d))
        assert np.array_equal(st.p_sigma, np.zeros(d))
        assert np.array_equal(st.eigen_B, np.eye(d))
        assert np.array_equal(st.eigen_D, np.ones(d))
        assert st.eigen_age == 0   # C = I: the next sample decomposes nothing
        assert len(st.hist_best) == 0
        assert st.hist_best.maxlen == 10 + round(30.0 * d / st.lam)
        assert st.last_gen_spread == math.inf
        assert st.fes_at_start == 1234
        assert st.gen == gen       # h_sigma's correction counts from the first start
        assert st.restarts == 1

    st.lam = 15
    on_restart(st, CmaParams(d_inc=4.0, pop_mode="incremental"), bounds, rng)
    assert st.lam == 60

    st.lam = 15
    on_restart(st, CmaParams(pop_mode="constant"), bounds, rng)
    assert st.lam == 15


def test_matrix_mode_tick():
    rng = rng_stream(7)
    params = CmaParams(matrix_mode="full_then_diagonal")
    st = init_state(params, _bounds(50), rng)
    st.lam = 25
    # threshold 2 + 100*50/5 = 1002
    matrix_mode_tick(st, params, fes_used=1001)
    assert not st.diagonal
    matrix_mode_tick(st, params, fes_used=1002)
    assert st.diagonal
    assert st.C.ndim == 1

    full = CmaParams(matrix_mode="full")
    st2 = init_state(full, _bounds(50), rng)
    matrix_mode_tick(st2, full, fes_used=10 ** 9)
    assert not st2.diagonal


def _sphere(X):
    return np.einsum("ij,ij->i", X, X)


def _count_eigh(monkeypatch):
    calls = [0]
    eigh = np.linalg.eigh

    def counting(C):
        calls[0] += 1
        return eigh(C)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_eigen_gap_at_default_settings():
    # floor(0.5 / (d (c1 + cmu))) + 1 generations: 0.5 / (d (c1 + cmu)) is
    # 1.18 at d=2, 1.13 at d=3, 1.99 at d=20, 2.40 at d=30, 3.57 at d=50
    # and 6.04 at d=100
    for d, gap in ((2, 2), (3, 2), (5, 2), (10, 2), (20, 2), (30, 3), (50, 4), (100, 7)):
        st = init_state(CmaParams(), _bounds(d), rng_stream(0))
        assert st.eigen_gap == gap
        assert st.eigen_age == 0
    # the first IPOP restart at d=50 doubles lambda to 30: 1.74 generations
    st = init_state(CmaParams(), _bounds(50), rng_stream(0))
    on_restart(st, CmaParams(), _bounds(50), rng_stream(0))
    assert st.lam == 30 and st.eigen_gap == 2


@pytest.mark.parametrize("d, mode, decompositions", [
    (50, "full", 7), (10, "full", 14), (100, "full", 4), (50, "diagonal", 0)])
def test_eigendecomposition_schedule(monkeypatch, d, mode, decompositions):
    calls = _count_eigh(monkeypatch)
    rng = rng_stream(8)
    runner = CmaRunner(CmaParams(matrix_mode=mode, restart=False), _bounds(d), rng)
    for _ in range(30):
        runner.generation(_sphere, rng)
    assert runner.state.gen == 30 and runner.state.restarts == 0
    assert calls[0] == decompositions


def test_restart_starts_the_decomposition_schedule_over(monkeypatch):
    calls = _count_eigh(monkeypatch)
    rng = rng_stream(9)
    params = CmaParams(pop_mode="constant", restart=False)
    runner = CmaRunner(params, _bounds(50), rng)
    runner.generation(_sphere, rng)
    runner.generation(_sphere, rng)
    assert calls[0] == 0 and runner.state.eigen_age == 2
    on_restart(runner.state, params, _bounds(50), rng)
    assert runner.state.eigen_gap == 4 and runner.state.eigen_age == 0
    for _ in range(4):   # the identity, then three reuses of it
        runner.generation(_sphere, rng)
    assert calls[0] == 0 and runner.state.eigen_age == 4
    runner.generation(_sphere, rng)
    assert calls[0] == 1 and runner.state.eigen_age == 1


def test_first_sample_after_start_and_restart_uses_the_identity(monkeypatch):
    """C = I needs no decomposition: the first generation after init_state
    and after on_restart calls no eigh and samples mean + sigma * z bit for
    bit (B = I, D = 1)."""
    calls = _count_eigh(monkeypatch)
    params = CmaParams(restart=False)
    bounds = _bounds(10)
    rng = rng_stream(10)
    runner = CmaRunner(params, bounds, rng)
    for restart in (False, True):
        if restart:
            for _ in range(5):
                runner.generation(_sphere, rng)
            on_restart(runner.state, params, bounds, rng)
        st, before = runner.state, calls[0]
        ref = copy.deepcopy(rng)
        xs = sample_population(st, rng)
        assert calls[0] == before
        assert np.array_equal(xs, st.mean + st.sigma * ref.standard_normal((st.lam, st.d)))
    assert calls[0] > 0   # the generations in between did decompose


def _drive(runner, rng, budget, target=None):
    from hybridopt.core import BudgetExhausted
    used = [0]
    best = [math.inf]

    def ev(X):   # one FE per row, in order, until the budget is spent
        values = []
        for x in X:
            if used[0] >= budget:
                raise BudgetExhausted
            used[0] += 1
            val = float(np.dot(x, x))
            best[0] = min(best[0], val)
            values.append(val)
        return values

    while used[0] < budget and (target is None or best[0] >= target):
        try:
            runner.generation(ev, rng, fes_used=used[0])
        except BudgetExhausted:
            break
    return best[0], used[0]


def test_positive_definiteness_on_sphere():
    for seed in range(10):
        rng = rng_stream(seed)
        runner = CmaRunner(CmaParams(a=3.0, b=2.0, c=0.5), _bounds(10), rng)
        from hybridopt.core import BudgetExhausted
        used = [0]

        def ev(X):   # one FE per row, in order, until the budget is spent
            values = []
            for x in X:
                if used[0] >= 3000:
                    raise BudgetExhausted
                used[0] += 1
                values.append(float(np.dot(x, x)))
            return values

        while used[0] < 3000:
            try:
                runner.generation(ev, rng, fes_used=used[0])
            except BudgetExhausted:
                break
            st = runner.state
            assert np.min(st.eigen_D) > 0
            if not st.diagonal:
                assert np.max(np.abs(st.C - st.C.T)) < 1e-12


def test_full_matrix_solves_sphere():
    rng = rng_stream(42)
    runner = CmaRunner(CmaParams(), _bounds(10), rng)
    best, used = _drive(runner, rng, 30000, target=1e-9)
    assert best < 1e-8
    assert used < 30000


def test_diagonal_mode_solves_separable():
    rng = rng_stream(43)
    runner = CmaRunner(CmaParams(matrix_mode="diagonal"), _bounds(8), rng)
    best, _ = _drive(runner, rng, 30000, target=1e-9)
    assert best < 1e-8
