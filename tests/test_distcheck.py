"""The distributional check in ``tools/distcheck.py``: its rank-sum statistic
and Holm correction on hand-computed examples, and its verdicts on a
configuration compared with itself and with a planted defect."""

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "distcheck", Path(__file__).resolve().parents[1] / "tools" / "distcheck.py")
distcheck = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(distcheck)


def test_rank_sum_by_hand():
    # pooled order 1 2 3 3' 4 5 6 7 8 (3' from b): a's ranks 1, 2, 3.5, 5
    # sum to 11.5, so U = 11.5 - 4*5/2 = 1.5 against a mean of 4*5/2 = 10.
    # One tie of two: var = 4*5/12 * (10 - (8 - 2)/(9*8)) = 595/36.
    u, p = distcheck.rank_sum_test([1, 2, 3, 4], [3, 5, 6, 7, 8])
    assert u == 1.5
    z = (abs(1.5 - 10) - 0.5) / math.sqrt(595 / 36)
    assert p == pytest.approx(math.erfc(z / math.sqrt(2)), rel=1e-12)
    assert p == pytest.approx(0.0490901163, rel=1e-8)
    assert distcheck.rank_sum_test([2.0] * 5, [2.0] * 7) == (17.5, 1.0)   # all tied
    assert list(distcheck.midranks([3.0, 1.0, 3.0, 2.0])) == [3.5, 1.0, 3.5, 2.0]


def test_holm_by_hand():
    # sorted: 0.005 <= 0.05/4 and 0.01 <= 0.05/3 are rejected; 0.03 > 0.05/2 stops
    assert distcheck.holm([0.01, 0.04, 0.03, 0.005]).tolist() == [True, False, False, True]
    assert not distcheck.holm([0.04, 0.03]).any()        # 0.03 > 0.05/2
    assert distcheck.holm([0.04, 0.03], alpha=0.1).all()  # 0.03 <= 0.05, 0.04 <= 0.1


def test_self_comparison_passes_and_halved_beta_is_flagged():
    config = distcheck.CONFIGS["de-rand1bin"]
    base = distcheck.collect({"de": config})
    rows = distcheck.compare(base, base)
    assert len(rows) == 3 and not any(r["flagged"] for r in rows)
    assert all(r["p"] == 1.0 for r in rows)
    planted = distcheck.collect({"de": {**config, "de.beta": "0.25"}})
    rows = distcheck.compare(base, planted)
    assert any(r["flagged"] for r in rows)


def test_sized_cells_run_at_their_own_d_and_budget(monkeypatch):
    import hybridopt

    seen = []

    def fake_run(cfg, obj, seed, max_evals):
        seen.append((obj.d, max_evals))
        return SimpleNamespace(best_fitness=1.0)

    monkeypatch.setattr(hybridopt, "run", fake_run)
    configs = {name: distcheck.CONFIGS[name] for name in ("cmaes-d50", "cmaes-default")}
    out = distcheck.collect(configs, functions=distcheck.FUNCTIONS[:1], seeds=(1, 2))
    assert seen == [(50, 5000)] * 2 + [(10, 2000)] * 2
    assert list(out) == ["cmaes-d50@shifted_rotated_rastrigin",
                         "cmaes-default@shifted_rotated_rastrigin"]
