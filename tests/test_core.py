import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hybridopt import (Bounds, BudgetExhausted, EvalBudget, Population,
                       cap_reported_value, evaluate, make_instance,
                       repair_to_bounds, rng_stream)


def test_evaluate_sphere_values():
    obj = make_instance("sphere", 10)
    budget = EvalBudget(max_evals=10)
    assert evaluate(obj, np.zeros(10), budget) == 0.0
    obj2 = make_instance("sphere", 2)
    assert evaluate(obj2, np.array([1.0, 1.0]), budget) == 2.0
    assert budget.used_evals == 2


def test_evaluate_budget_boundary():
    obj = make_instance("sphere", 2)
    budget = EvalBudget(max_evals=1)
    evaluate(obj, np.zeros(2), budget)
    with pytest.raises(BudgetExhausted):
        evaluate(obj, np.zeros(2), budget)
    assert budget.used_evals == 1  # the failed call does not consume


def test_charge_counts_the_fes_that_fit():
    budget = EvalBudget(max_evals=5)
    assert budget.charge(3) == 3 and budget.charge(3) == 2
    assert budget.charge() == 0 and budget.used_evals == 5
    late = EvalBudget(max_evals=5, wallclock_ms=1.0, started_at=time.monotonic() - 1.0)
    assert late.charge(2) == 0 and late.used_evals == 0


def test_budget_limits_must_be_above_zero():
    for limits in ({"max_evals": 0}, {"max_evals": -5},
                   {"max_evals": 5, "wallclock_ms": 0.0},
                   {"max_evals": 5, "wallclock_ms": -1.0},
                   {"max_evals": 5, "wallclock_ms": math.nan}):
        with pytest.raises(ValueError):
            EvalBudget(**limits)


def test_evaluate_dimension_check():
    obj = make_instance("sphere", 3)
    with pytest.raises(ValueError):
        evaluate(obj, np.zeros(2), EvalBudget(max_evals=5))


def test_repair_to_bounds_examples():
    b1 = Bounds(np.array([0.0]), np.array([1.0]))
    assert repair_to_bounds(np.array([0.5]), b1) == pytest.approx([0.5])
    assert repair_to_bounds(np.array([1.7]), b1) == pytest.approx([1.0])
    b2 = Bounds(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert repair_to_bounds(np.array([-3.0, 0.2]), b2) == pytest.approx([-1.0, 0.2])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
def test_repair_always_lands_inside(xs):
    x = np.array(xs)
    b = Bounds.symmetric(5.0, x.size)
    repaired = repair_to_bounds(x, b)
    assert b.contains(repaired)
    inside = (x >= b.lower) & (x <= b.upper)
    assert np.all(repaired[inside] == x[inside])


def test_repair_passes_in_bound_components_bitwise():
    # a signed zero at a zero bound is inside the box and keeps its sign
    b = Bounds(np.array([0.0, -1.0, -2.0, -1e-300]), np.array([1.0, -0.0, 2.0, 5e-324]))
    x = np.array([-0.0, 0.0, np.nextafter(2.0, 0.0), 5e-324])
    assert repair_to_bounds(x, b).tobytes() == x.tobytes()
    X = np.array([x, [0.0, -0.0, -2.0, -1e-300], [-1.0, 3.0, 0.5, 1.0]])
    repaired = repair_to_bounds(X, b)
    assert repaired[:2].tobytes() == X[:2].tobytes()
    assert repaired[2].tolist() == [0.0, -0.0, 0.5, 5e-324]


def test_cap_reported_value():
    assert cap_reported_value(3.2e4) == 3.2e4
    assert cap_reported_value(1.0e12) == 1.0e10
    assert cap_reported_value(float("inf")) == 1.0e10


def test_rng_stream_reproducible():
    a = rng_stream(1234).standard_normal(8)
    b = rng_stream(1234).standard_normal(8)
    assert np.array_equal(a, b)
    c = rng_stream(1234, run_id=1).standard_normal(8)
    assert not np.array_equal(a, c)


def record(pop: Population, i: int, x: np.ndarray, fx: float) -> bool:
    """Move member i to the evaluated point x, one member at a time: the
    reference ``record_all`` must equal.  True iff its personal best improved."""
    pop.x[i] = x
    pop.f[i] = fx
    if fx < pop.pf[i]:
        pop.p[i] = x
        pop.pf[i] = fx
        return True
    return False


def test_population_record_personal_best_dominance():
    pop = Population.fresh([[1.0]], np.zeros((1, 1)), [5.0])
    assert not record(pop, 0, np.array([2.0]), 7.0)   # worse: pbest sticks
    assert pop.pf[0] == 5.0 and pop.f[0] == 7.0
    assert pop.pf[0] <= pop.f[0]
    assert pop.x[0] == pytest.approx([2.0]) and pop.p[0] == pytest.approx([1.0])
    assert record(pop, 0, np.array([0.5]), 3.0)       # better: pbest follows
    assert pop.pf[0] == 3.0
    assert pop.p[0] == pytest.approx([0.5])


def test_population_record_all_equals_recording_each_row():
    X = np.arange(8.0).reshape(4, 2)
    a = Population.fresh(X, np.zeros((4, 2)), [3.0, 2.0, math.inf, 1.0])
    b = Population.fresh(X, np.zeros((4, 2)), [3.0, 2.0, math.inf, 1.0])
    moves, F = -X, [4.0, 2.0, 5.0, 0.5]   # worse, equal, finite after +inf, better
    improved = a.record_all(moves, F)
    assert improved.tolist() == [record(b, i, moves[i], F[i]) for i in range(4)] \
        == [False, False, True, True]
    for name in ("x", "v", "p", "f", "pf"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_population_record_all_on_some_rows_equals_recording_each_row():
    X = np.arange(10.0).reshape(5, 2)
    a = Population.fresh(X, np.zeros((5, 2)), [3.0, 2.0, math.inf, 1.0, 6.0])
    b = Population.fresh(X, np.zeros((5, 2)), [3.0, 2.0, math.inf, 1.0, 6.0])
    rows = np.array([0, 2, 3])
    moves, F = -X[rows], [4.0, 5.0, 0.5]   # worse, finite after +inf, better
    improved = a.record_all(moves, F, rows)
    assert improved.tolist() == [record(b, i, x, f) for i, x, f in zip(rows, moves, F)] \
        == [False, True, True]
    for name in ("x", "v", "p", "f", "pf"):   # rows 1 and 4 stay as they were
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_population_record_better_is_greedy_selection():
    X = np.arange(8.0).reshape(4, 2)
    pop = Population.fresh(X, np.zeros((4, 2)), [3.0, 2.0, math.inf, 1.0])
    record(pop, 3, np.array([9.0, 9.0]), 4.0)   # x[3] worse than its pbest
    trials, F = -X, [4.0, 2.0, 5.0, 2.0]   # worse, equal, finite after +inf, between
    moved = pop.record_better(trials, F)
    assert moved.tolist() == [False, False, True, True]
    assert pop.f.tolist() == [3.0, 2.0, 5.0, 2.0] and pop.pf.tolist() == [3.0, 2.0, 5.0, 1.0]
    assert pop.x.tolist() == [X[0].tolist(), X[1].tolist(), (-X[2]).tolist(), (-X[3]).tolist()]
    assert pop.p[3].tolist() == [6.0, 7.0]   # its pbest stays


def test_population_record_better_on_some_rows_leaves_the_others():
    X = np.arange(8.0).reshape(4, 2)
    a = Population.fresh(X, np.zeros((4, 2)), [3.0, 2.0, math.inf, 1.0])
    b = Population.fresh(X, np.zeros((4, 2)), [3.0, 2.0, math.inf, 1.0])
    rows = np.array([1, 2])
    assert a.record_better(-X[rows], [1.0, 5.0], rows).tolist() == [True, True]
    # the same selection over every member, rows 0 and 3 with ties
    assert b.record_better(-X, [3.0, 1.0, 5.0, 1.0]).tolist() == [False, True, True, False]
    for name in ("x", "v", "p", "f", "pf"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_population_extend_and_reset_take_blocks():
    pop = Population.fresh(np.arange(6.0).reshape(3, 2), np.zeros((3, 2)),
                           [3.0, 2.0, 1.0])
    record(pop, 0, np.array([9.0, 9.0]), 5.0)   # moves x[0] but keeps its pbest
    pop.extend(np.ones((2, 2)), np.full((2, 2), 0.5), [7.0, 8.0])
    assert len(pop) == 5 and pop.v[3:] == pytest.approx(np.full((2, 2), 0.5))
    pop.reset([0, 4], np.full((2, 2), -1.0), np.full((2, 2), 2.0), [4.0, 6.0])
    for i, fx in ((0, 4.0), (4, 6.0)):   # fresh: its own personal best
        assert pop.x[i] == pytest.approx([-1.0, -1.0]) and pop.f[i] == pop.pf[i] == fx
        assert np.array_equal(pop.p[i], pop.x[i])
        assert pop.v[i] == pytest.approx([2.0, 2.0])
    assert pop.f.tolist() == [4.0, 2.0, 1.0, 7.0, 6.0]


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Bounds(np.array([0.0, 0.0]), np.array([1.0]))
