"""Instance generators and the end-to-end estimation sweep harness.

Sweeps are deterministic: trial seeds derive from the config seed and the
trial coordinates, trials run sequentially, and results.csv is written
with repr-stable formatting so identical configs give identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .basis import combine, gram_schmidt, project
from .core import IsingSpec, frobenius_norm, infinity_norm, matrix_to_json
from .errors import IsingfitError, NormBudgetExceeded, TooManyGroups
from .mple import MpleConfig, fit, psi
from .sampler import (
    GlauberConfig,
    enumerate_distribution,
    exact_sample,
    glauber_sample,
    make_rng,
)

EXACT_SAMPLE_LIMIT = 18


# ---------------------------------------------------------------------------
# Generators

def gen_matchings(n, k, rng=None):
    """k incidence matrices on disjoint edge sets (matching-style).

    Coordinates are paired up (after an optional shuffle) and the pairs
    dealt out in contiguous blocks of floor(n / 2k) per matrix.
    """
    per = n // (2 * k)
    if per < 1:
        raise TooManyGroups(f"cannot fit {k} matchings of >=1 edge into n={n}")
    order = np.arange(n)
    if rng is not None:
        order = rng.permutation(n)
    mats = []
    for s in range(k):
        J = np.zeros((n, n))
        for e in range(per):
            a, b = order[2 * (s * per + e)], order[2 * (s * per + e) + 1]
            J[a, b] = J[b, a] = 1.0
        mats.append(J)
    return mats


def gen_blocks(n, k, rng=None):
    """k complete graphs on disjoint contiguous coordinate blocks."""
    size = n // k
    if size < 2:
        raise TooManyGroups(f"blocks of size {size} have no edges")
    mats = []
    for s in range(k):
        J = np.zeros((n, n))
        lo, hi = s * size, (s + 1) * size
        J[lo:hi, lo:hi] = 1.0
        np.fill_diagonal(J, 0.0)
        mats.append(J)
    return mats


def gen_erdos_renyi_incidence(n, k, p, rng):
    """k independent G(n, p) incidence matrices (supports may overlap)."""
    mats = []
    for _ in range(k):
        U = np.triu(rng.random((n, n)) < p, k=1).astype(np.float64)
        mats.append(U + U.T)
    return mats


def gen_assouad(basis, c, theta):
    """Hard-instance matrix sum_i c * theta_i A_i with theta in {-1,+1}^k."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (basis.k,) or np.any(np.abs(theta) != 1):
        raise ValueError("theta must be a +-1 vector of the basis rank")
    J = combine(basis, c * theta)
    if infinity_norm(J) > 0.5 + 1e-12:
        raise NormBudgetExceeded(
            f"||A_theta||_inf = {infinity_norm(J):g} exceeds the 1/2 budget"
        )
    return J


# ---------------------------------------------------------------------------
# Sweep harness

@dataclass
class ExperimentConfig:
    generator: str = "matchings"
    n: int = 64
    k_grid: tuple = (1, 2, 4)
    M: float = 0.5
    beta_true: object = "random"  # explicit list or "random" in [-0.8, 0.8]
    beta_range: float = 0.8
    trials: int = 20
    seed: int = 0
    er_p: float = 0.05            # edge probability for the ER generator
    glauber_sweeps: int = 300
    epsilon: float = 1.0          # psi_gap tolerance for callers' checks; fit does not read it
    max_iters: int = 200_000      # fit's MpleConfig.max_programs
    eta: float = None             # unused since fit solves exactly; callers still pass it
    grad_tol: float = 1e-4
    shuffle_support: bool = False

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "k_grid" in d:
            d["k_grid"] = tuple(d["k_grid"])
        return cls(**d)

    def to_dict(self):
        out = dict(self.__dict__)
        out["k_grid"] = list(self.k_grid)
        return out


@dataclass
class TrialRecord:
    generator: str
    n: int
    k: int
    trial: int
    seed: int
    frob_error: float
    beta_error: float
    psi_gap: float
    psi_hat: float
    psi_star: float
    inf_norm_hat: float
    iterations: int
    sampler: str
    error: str = ""


def trial_seed(seed, k, trial):
    return (seed * 1_000_003 + k * 7919 + trial) & 0x7FFFFFFFFFFFFFFF


def _make_raw(cfg, k, rng):
    if cfg.generator == "matchings":
        return gen_matchings(cfg.n, k, rng if cfg.shuffle_support else None)
    if cfg.generator == "blocks":
        return gen_blocks(cfg.n, k, rng if cfg.shuffle_support else None)
    if cfg.generator == "erdos_renyi_incidence":
        return gen_erdos_renyi_incidence(cfg.n, k, cfg.er_p, rng)
    raise ValueError(f"unknown generator {cfg.generator!r}")


def _true_beta(cfg, k, rng):
    if isinstance(cfg.beta_true, (list, tuple)):
        return np.asarray(cfg.beta_true, dtype=np.float64)[:k]
    return rng.uniform(-cfg.beta_range, cfg.beta_range, size=k)


def run_trial(cfg, k, trial):
    seed = trial_seed(cfg.seed, k, trial)
    rng = make_rng(seed)
    raw = _make_raw(cfg, k, rng)
    basis = gram_schmidt(raw)
    beta_raw = _true_beta(cfg, k, rng)
    J_star = sum(b * Jm for b, Jm in zip(beta_raw, raw))
    inf = infinity_norm(J_star)
    if inf > cfg.M and inf > 0:
        J_star = J_star * (cfg.M / inf)
    spec = IsingSpec.zero_field(J_star)
    if cfg.n <= EXACT_SAMPLE_LIMIT:
        x = exact_sample(enumerate_distribution(spec), rng)
        sampler = "exact"
    else:
        x = glauber_sample(spec, GlauberConfig(cfg.glauber_sweeps, seed), rng)
        sampler = "glauber"
    beta_star, _ = project(basis, J_star)
    res = fit(basis, x, MpleConfig(M=cfg.M, max_programs=cfg.max_iters,
                                   grad_tol=cfg.grad_tol))
    psi_star = psi(basis, beta_star, x)
    rec = TrialRecord(
        generator=cfg.generator,
        n=cfg.n,
        k=k,
        trial=trial,
        seed=seed,
        frob_error=frobenius_norm(combine(basis, res.beta_hat) - J_star),
        beta_error=float(np.linalg.norm(res.beta_hat - beta_star)),
        psi_gap=res.psi_hat - psi_star,
        psi_hat=res.psi_hat,
        psi_star=psi_star,
        inf_norm_hat=res.inf_norm_hat,
        iterations=res.iterations,
        sampler=sampler,
    )
    return rec, basis, J_star, res


_CSV_FIELDS = [
    "generator", "n", "k", "trial", "seed", "frob_error", "beta_error",
    "psi_gap", "psi_hat", "psi_star", "inf_norm_hat", "iterations",
    "sampler", "error",
]


def run_sweep(cfg, out_dir=None, save_instances=False):
    """Run every (k, trial) cell.

    A package error (``IsingfitError``) in a cell is recorded in its row
    and the sweep continues; any other exception is a bug and propagates.
    """
    records = []
    instances = {}
    for k in cfg.k_grid:
        for trial in range(cfg.trials):
            try:
                rec, basis_obj, J_star, _ = run_trial(cfg, k, trial)
                if save_instances:
                    instances[(k, trial)] = J_star
            except IsingfitError as exc:  # recorded per-trial, sweep continues
                rec = TrialRecord(cfg.generator, cfg.n, k, trial,
                                  trial_seed(cfg.seed, k, trial),
                                  math.nan, math.nan, math.nan, math.nan,
                                  math.nan, math.nan, 0, "none",
                                  error=f"{type(exc).__name__}: {exc}")
            records.append(rec)
    summary = summarize(cfg, records)
    if out_dir is not None:
        write_outputs(cfg, records, summary, out_dir, instances)
    return records, summary


def summarize(cfg, records):
    per_k = {}
    for k in cfg.k_grid:
        errs = [r.frob_error for r in records
                if r.k == k and not r.error and math.isfinite(r.frob_error)]
        gaps = [r.psi_gap for r in records if r.k == k and not r.error]
        per_k[str(k)] = {
            "trials": len(errs),
            "median_frob_error": float(np.median(errs)) if errs else None,
            "median_psi_gap": float(np.median(gaps)) if gaps else None,
        }
    k0 = str(cfg.k_grid[0])
    c_hat = None
    base = per_k[k0]["median_frob_error"]
    if base is not None and cfg.n > 1:
        c_hat = base / math.sqrt(cfg.k_grid[0] * math.log(cfg.n))
    return {"config": cfg.to_dict(), "per_k": per_k, "c_hat": c_hat}


def write_outputs(cfg, records, summary, out_dir, instances=None):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.csv"), "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=_CSV_FIELDS)
        w.writeheader()
        for r in records:
            row = {k: getattr(r, k) for k in _CSV_FIELDS}
            for key, v in row.items():
                if isinstance(v, float):
                    row[key] = repr(v)
            w.writerow(row)
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    if instances:
        inst_dir = os.path.join(out_dir, "instances")
        os.makedirs(inst_dir, exist_ok=True)
        for (k, trial), J in sorted(instances.items()):
            path = os.path.join(inst_dir, f"k{k}_trial{trial}.json")
            with open(path, "w") as f:
                json.dump(matrix_to_json(J), f)
