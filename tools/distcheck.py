"""Distributional check: do two commits give statistically the same results?

Golden fingerprints say "bit for bit unchanged"; a change that draws its
random numbers differently on purpose needs "statistically the same"
instead.  This script runs both commits, each from its own ``git worktree``
in a subprocess, on a fixed matrix of configurations x instances x seeds:
the DE-bearing configurations, PSO alone under each velocity setting and
the CMA-ES configurations, each at its own dimension and budget.
For every cell it reports the median log10 best fitness of each side and a
two-sided Mann-Whitney rank-sum p-value, and flags the cells a Holm
correction rejects at a family-wise alpha of 0.05.  It exits 1 if any cell
is flagged.

    python tools/distcheck.py --base <git rev> [--seeds 10]

The changed side is HEAD.  Run it from inside the repository; the
worktrees go to a temporary directory and are removed afterwards.  The
statistics are plain numpy, so the check needs no scipy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# The DE-bearing configurations of the benchmark's swarm-d10 workload and of
# the golden fingerprints, one per DE path: DE alone, DE∘PSO, the
# probabilistic gate, LS after DE, exponential recombination in the
# eigenbasis, both directed kinds, the mixture of vectors with random
# velocities, goBack with PSO only on failure, the best base with
# re-initialisation, and target-to-best; DE∘PSO's PSO step with
# fully-informed particles, whose informants are read from the personal
# bests at the start of the generation, and with a per-particle setting; and
# the probabilistic gate's DE step with random velocities after it, and its
# PSO step with a per-particle setting under a normal gate.  Then PSO alone
# under each velocity setting that draws more than plain uniforms: the
# eigenbasis, each informed and random perturbation (with each magnitude
# mode), the random omega and acceleration modes, stagnation detection,
# each non-rectangular DNPP, and a swarm of 7 that combines most of them.
# Then DE alone (rand/1/bin) and DE∘PSO at pop 6, where every row's donors
# come from one sort of uniforms (de.SORT_PICKS_MAX_SIZE); the
# best-base cell above picks through the same branch with 4 candidates.
# Last, CMA-ES on both sides of its lazy eigendecomposition: the benchmark's
# cmaes-d50 IPOP configuration at d=50 (a decomposition every 3 generations),
# the default alone and nested in PSO at d=10 (every generation), and equal
# weights with b = 5 (mu = 2) at d=10 (every 2 generations).
CONFIGS = {
    "de-rand1bin": {"exec.order": "de", "pop.size": "50",
                    "de.base_vector": "random", "de.recombination": "binomial"},
    "de-pso": {"exec.order": "de,pso"},
    "prob-levy": {"exec.mode": "probabilistic", "exec.order": "pso,de",
                  "exec.pr": "0.5", "exec.gate_dist": "levy", "exec.par_std": "1.0"},
    "de-mtsls": {"exec.order": "de", "ls.algo": "mtsls"},
    "de-exp-eigen": {"exec.order": "de", "pop.size": "20",
                     "de.recombination": "exponential",
                     "de.vector_basis": "eigenvector"},
    "de-directed-best": {"exec.order": "de", "pop.mode": "time_varying",
                         "pop.min": "8", "pop.max": "30", "pop.interval": "3",
                         "de.vector_basis": "eigenvector",
                         "de.base_vector": "directed_best"},
    "de-directed-random": {"exec.order": "de", "pop.size": "20",
                           "de.base_vector": "directed_random"},
    "de-pso-random-mixture": {"exec.order": "de,pso", "pop.size": "20",
                              "de.recompute_velocity": "random",
                              "de.vectors": "mixture"},
    "de-pso-goback-only-on-fail": {"exec.order": "de,pso", "pop.size": "20",
                                   "de.recompute_velocity": "goBack",
                                   "de.pso_only_on_fail": "true"},
    "de-best-reinit-similarity": {"exec.order": "de", "pop.size": "6",
                                  "de.base_vector": "best",
                                  "exec.reinit": "similarity"},
    "de-pso-target-to-best": {"exec.order": "de,pso", "pop.size": "20",
                              "de.recompute_velocity": "position",
                              "de.base_vector": "target_to_best"},
    "de-pso-fully-informed": {"exec.order": "de,pso", "pso.moi": "fully_informed"},
    "de-pso-gaussian": {"exec.order": "de,pso", "pso.pert_info": "gaussian",
                        "pso.pm_mode": "constant", "pso.pm": "0.05"},
    "prob-uniform-random": {"exec.mode": "probabilistic", "exec.order": "pso,de",
                            "exec.pr": "0.5", "exec.gate_dist": "uniform",
                            "de.recompute_velocity": "random"},
    "prob-normal-gaussian": {"exec.mode": "probabilistic", "exec.order": "pso,de",
                             "exec.pr": "0.5", "exec.gate_dist": "normal",
                             "exec.par_std": "1.0", "pso.pert_info": "gaussian",
                             "pso.pm_mode": "constant", "pso.pm": "0.05"},
    "pso-eigen": {"exec.order": "pso", "pso.vector_basis": "eigenvector"},
    "pso-info-gaussian": {"exec.order": "pso", "pso.pert_info": "gaussian",
                          "pso.pm_mode": "constant", "pso.pm": "0.5"},
    "pso-info-uniform": {"exec.order": "pso", "pso.pert_info": "uniform",
                         "pso.pm_mode": "euclidean_distance"},
    "pso-info-levy": {"exec.order": "pso", "pso.pert_info": "levy",
                      "pso.pm_mode": "objfunc_distance"},
    "pso-rand-rectangular": {"exec.order": "pso", "pso.pert_rand": "rectangular",
                             "pso.pm_mode": "constant", "pso.pm": "1.0"},
    "pso-rand-noisy": {"exec.order": "pso", "pso.pert_rand": "noisy",
                       "pso.pm_mode": "success_rate", "pso.pm": "0.5"},
    "pso-random-omega": {"exec.order": "pso", "pso.omega1_mode": "random",
                         "pso.omega2_mode": "random"},
    "pso-random-ac": {"exec.order": "pso", "pso.ac_mode": "random"},
    "pso-stagnation": {"exec.order": "pso", "pso.stagnation_detection": "true"},
    "pso-standard": {"exec.order": "pso", "pso.dnpp": "standard"},
    "pso-gaussian": {"exec.order": "pso", "pso.dnpp": "gaussian"},
    "pso-spherical": {"exec.order": "pso", "pso.dnpp": "spherical"},
    "pso-small": {"exec.order": "pso", "pop.size": "7", "pso.topology": "ring",
                  "pso.moi": "fully_informed", "pso.vector_basis": "eigenvector",
                  "pso.pert_info": "uniform", "pso.pert_rand": "noisy",
                  "pso.pm_mode": "success_rate", "pso.pm": "0.5",
                  "pso.omega3_mode": "random", "pso.stagnation_detection": "true"},
    "de-rand1bin-pop6": {"exec.order": "de", "pop.size": "6",
                         "de.base_vector": "random", "de.recombination": "binomial"},
    "de-pso-pop6": {"exec.order": "de,pso", "pop.size": "6"},
    "cmaes-d50": {"exec.order": "cmaes", "cmaes.matrix_mode": "full",
                  "cmaes.pop_mode": "incremental", "cmaes.restart": "true"},
    "cmaes-default": {"exec.order": "cmaes"},
    "pso-nested-cmaes": {"exec.order": "pso", "ls.algo": "cmaes"},
    "cmaes-equal-b5": {"exec.order": "cmaes", "cmaes.weights": "equal",
                       "cmaes.b": "5.0"},
}
FUNCTIONS = ("shifted_rotated_rastrigin", "shifted_rotated_elliptic",
             "shifted_rotated_weierstrass")
DIM = 10
FES = 2000          # the swarm-d10 budget
# (d, FEs) of the configurations that do not run at (DIM, FES): cmaes-d50
# runs at its benchmark workload's size
SIZES = {"cmaes-d50": (50, 5000)}
INSTANCE_SEED = 1
ALPHA = 0.05
FLOOR = 1e-10       # best values below this count as solved


# -- statistics ---------------------------------------------------------------

def midranks(x) -> np.ndarray:
    """1-based ranks of x, tied values sharing the mean of their ranks."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    _, first, counts = np.unique(x[order], return_index=True, return_counts=True)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)
    return ranks


def rank_sum_test(a, b) -> tuple[float, float]:
    """Two-sided Mann-Whitney rank-sum test of samples a and b.

    Returns (U, p): U = R_a - n_a(n_a + 1)/2 from a's rank sum R_a, and p
    from the normal approximation with the tie-corrected variance
    n_a n_b / 12 * (N + 1 - sum(t^3 - t) / (N(N - 1))) and a continuity
    correction of 1/2.  When every value is tied the samples do not
    differ: p = 1.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    na, nb = a.size, b.size
    pooled = np.concatenate((a, b))
    n = pooled.size
    u = float(midranks(pooled)[:na].sum() - na * (na + 1) / 2.0)
    _, t = np.unique(pooled, return_counts=True)
    var = na * nb / 12.0 * ((n + 1) - float((t ** 3 - t).sum()) / (n * (n - 1)))
    if var <= 0.0:
        return u, 1.0
    z = (abs(u - na * nb / 2.0) - 0.5) / math.sqrt(var)
    return u, min(1.0, math.erfc(z / math.sqrt(2.0)))


def holm(pvalues, alpha: float = ALPHA) -> np.ndarray:
    """Cells rejected by Holm's step-down procedure at family-wise alpha: the
    j-th smallest p-value (from 0) is compared with alpha / (m - j) until one
    exceeds its threshold."""
    p = np.asarray(pvalues, dtype=float)
    flagged = np.zeros(p.size, dtype=bool)
    for j, i in enumerate(np.argsort(p, kind="stable")):
        if p[i] > alpha / (p.size - j):
            break
        flagged[i] = True
    return flagged


# -- running ------------------------------------------------------------------

def collect(configs: dict, functions=FUNCTIONS,
            seeds=range(1, 11)) -> dict[str, list[float]]:
    """log10 of the best fitness (floored at FLOOR) of every seed, per cell
    "<config>@<function>", from the hybridopt that is on the import path.
    Each configuration runs at its SIZES entry, (DIM, FES) by default."""
    import hybridopt

    out = {}
    for function in functions:
        for name, overrides in configs.items():
            d, fes = SIZES.get(name, (DIM, FES))
            obj = hybridopt.make_instance(function, d, instance_seed=INSTANCE_SEED)
            cfg = hybridopt.validate(hybridopt.default_config(overrides))
            if not hasattr(cfg, "execution"):
                raise ValueError(f"{name}: {cfg.describe()}")
            out[f"{name}@{function}"] = [
                math.log10(max(hybridopt.run(cfg, obj, seed, max_evals=fes).best_fitness,
                               FLOOR))
                for seed in seeds]
    return out


def compare(base: dict, head: dict, alpha: float = ALPHA) -> list[dict]:
    """One row per cell: both medians, U, p and whether Holm flags it."""
    cells = sorted(base)
    if cells != sorted(head):
        raise ValueError("the two sides ran different cells")
    rows = []
    for cell in cells:
        u, p = rank_sum_test(base[cell], head[cell])
        rows.append({"cell": cell, "base_median": float(np.median(base[cell])),
                     "head_median": float(np.median(head[cell])), "u": u, "p": p})
    for row, flag in zip(rows, holm([r["p"] for r in rows], alpha)):
        row["flagged"] = bool(flag)
    return rows


def _worktree(repo: Path, rev: str, where: Path) -> Path:
    subprocess.run(["git", "-C", str(repo), "worktree", "add", "--detach", "--quiet",
                    str(where), rev], check=True)
    return where


def _run_side(tree: Path, seeds: int) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree),
         "--seeds", str(seeds)],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)


def _results(proc: subprocess.Popen) -> dict:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", help="git revision of the reference side")
    p.add_argument("--seeds", type=int, default=10, help="run seeds 1..N per cell")
    p.add_argument("--worker", metavar="TREE", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seeds < 2:
        p.error("--seeds must be at least 2")
    if args.worker:
        import hybridopt
        tree = Path(args.worker).resolve()
        if tree not in Path(hybridopt.__file__).resolve().parents:
            raise RuntimeError(f"imported {hybridopt.__file__}, not the one in {tree}")
        json.dump(collect(CONFIGS, seeds=range(1, args.seeds + 1)), sys.stdout)
        return 0
    if not args.base:
        p.error("--base is required")

    repo = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                               capture_output=True, text=True).stdout.strip())
    with tempfile.TemporaryDirectory(prefix="distcheck-") as tmp:
        trees = []
        try:
            for side, rev in (("base", args.base), ("head", "HEAD")):
                trees.append(_worktree(repo, rev, Path(tmp) / side))
            procs = [_run_side(tree, args.seeds) for tree in trees]
            base, head = (_results(proc) for proc in procs)
        finally:
            for tree in trees:
                subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force",
                                str(tree)], check=False)

    rows = compare(base, head)
    sized = ", ".join(f"{name} d={d}, {fes}" for name, (d, fes) in SIZES.items())
    print(f"base {args.base} vs HEAD: {len(rows)} cells x {args.seeds} "
          f"seeds, d={DIM}, {FES} FEs ({sized}); median log10 best; two-sided "
          f"rank-sum p; Holm at family-wise alpha {ALPHA}")
    width = max(len(r["cell"]) for r in rows)
    for r in rows:
        print(f"{r['cell']:<{width}}  {r['base_median']:8.3f}  {r['head_median']:8.3f}"
              f"  U={r['u']:6.1f}  p={r['p']:.4f}{'  FLAGGED' if r['flagged'] else ''}")
    flagged = sum(r["flagged"] for r in rows)
    print(f"{flagged} of {len(rows)} cells flagged; smallest p = "
          f"{min(r['p'] for r in rows):.4f}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
