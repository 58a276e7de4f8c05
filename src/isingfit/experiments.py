"""Instance generators and the end-to-end estimation sweep harness.

Sweeps are deterministic: trial seeds derive from the config seed and the
trial coordinates, trials run sequentially, and results.csv is written
with repr-stable formatting so identical configs give identical bytes.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .basis import combine, edge_union, gram_schmidt_edges
# perfbench/tracing.py wraps experiments.gram_schmidt and experiments.project
from .basis import gram_schmidt, project  # noqa: F401
from .core import IsingSpec, infinity_norm, is_integer, save_matrix
from .errors import IsingfitError, NormBudgetExceeded, TooManyGroups
from .mple import MpleConfig, check_budget, fit, psi
from .sampler import (
    GlauberConfig,
    component_sample,
    enumerate_distribution,
    exact_sample,
    glauber_sample,
    make_rng,
)

EXACT_SAMPLE_LIMIT = 18


# ---------------------------------------------------------------------------
# Generators
#
# Each family is drawn as edge lists, one (rows, cols, values) per member in
# the form ``interaction_edges`` returns (strictly-upper pairs in row-major
# order, nonzero values); the public gen_* are dense scatters of them.

def _scatter(n, edges):
    rows, cols, values = edges
    J = np.zeros((n, n))
    J[rows, cols] = values
    J[cols, rows] = values
    return J


def _unit_edges(n, a, b):
    """The pairs {a_e, b_e} (a_e != b_e) as edges of weight 1."""
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    rows, cols = np.divmod(keys, n)
    return rows, cols, np.ones(keys.size)


def _matchings_edges(n, k, rng=None):
    per = n // (2 * k)
    if per < 1:
        raise TooManyGroups(f"cannot fit {k} matchings of >=1 edge into n={n}")
    order = np.arange(n) if rng is None else rng.permutation(n)
    pairs = order[:2 * k * per].reshape(k, per, 2)
    return [_unit_edges(n, p[:, 0], p[:, 1]) for p in pairs]


def _blocks_edges(n, k, rng=None):
    size = n // k
    if size < 2:
        raise TooManyGroups(f"blocks of size {size} have no edges")
    order = np.arange(n) if rng is None else rng.permutation(n)
    a, b = np.triu_indices(size, k=1)
    return [_unit_edges(n, nodes[a], nodes[b])
            for nodes in order[:k * size].reshape(k, size)]


def _erdos_renyi_edges(n, k, p, rng):
    family = []
    for _ in range(k):
        rows, cols = np.divmod(np.flatnonzero(np.triu(rng.random((n, n)) < p, k=1)), n)
        family.append((rows, cols, np.ones(rows.size)))
    return family


def gen_matchings(n, k, rng=None):
    """k incidence matrices on disjoint edge sets (matching-style).

    Coordinates are paired up (after an optional shuffle) and the pairs
    dealt out in contiguous blocks of floor(n / 2k) per matrix.
    """
    return [_scatter(n, e) for e in _matchings_edges(n, k, rng)]


def gen_blocks(n, k, rng=None):
    """k complete graphs on disjoint blocks of floor(n / k) coordinates,
    contiguous after an optional shuffle."""
    return [_scatter(n, e) for e in _blocks_edges(n, k, rng)]


def gen_erdos_renyi_incidence(n, k, p, rng):
    """k independent G(n, p) incidence matrices (supports may overlap)."""
    return [_scatter(n, e) for e in _erdos_renyi_edges(n, k, p, rng)]


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

_GENERATORS = ("matchings", "blocks", "erdos_renyi_incidence")


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

    def __post_init__(self):
        """Refuse a config that no trial could run, naming the field, before
        any trial starts: ``n``, ``trials`` and ``max_iters`` Python or
        numpy integers (not bools), ``glauber_sweeps`` one that
        ``GlauberConfig`` takes, ``k_grid`` positive integers, a known
        ``generator`` (ValueError for these) and a finite M >= 0
        (``InvalidBudget``)."""
        for name in ("n", "trials", "max_iters"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        GlauberConfig(self.glauber_sweeps)
        if not all(is_integer(k) and k >= 1 for k in self.k_grid):
            raise ValueError(f"k_grid must hold positive integers, got {self.k_grid!r}")
        if self.generator not in _GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        check_budget(self.M)

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


def _raw_edges(cfg, k, rng):
    """The raw family of a trial that draws its family, as edge lists.

    ``run_trial`` alone decides which families are drawn: it comes here
    for Erdos-Renyi, and for matchings and blocks only with
    ``shuffle_support`` (the unshuffled ones are ``_fixed_family``), so
    rng always shuffles them.
    """
    if cfg.generator == "matchings":
        return _matchings_edges(cfg.n, k, rng)
    if cfg.generator == "blocks":
        return _blocks_edges(cfg.n, k, rng)
    if cfg.generator == "erdos_renyi_incidence":
        return _erdos_renyi_edges(cfg.n, k, cfg.er_p, rng)
    raise ValueError(f"unknown generator {cfg.generator!r}")


@functools.lru_cache(maxsize=1)
def _fixed_family(generator, n, k):
    """The union edge values and basis of an unshuffled matchings or blocks
    family, a function of (generator, n, k) alone.  Both are read-only,
    because every trial on the family shares them."""
    build = _matchings_edges if generator == "matchings" else _blocks_edges
    rows, cols, values = edge_union(n, build(n, k))
    values.flags.writeable = False
    return values, gram_schmidt_edges(n, rows, cols, values)


def _true_beta(cfg, k, rng):
    if isinstance(cfg.beta_true, (list, tuple)):
        return np.asarray(cfg.beta_true, dtype=np.float64)[:k]
    return rng.uniform(-cfg.beta_range, cfg.beta_range, size=k)


def run_trial(cfg, k, trial):
    """One estimation cell: draw the raw family, orthonormalize it, scale
    J* to the budget, sample x, fit, and score the estimate.

    The trial works on the union edges of the raw family, which are the
    basis edges: on each union edge the first member that has it is 1
    there and every earlier A_i is 0, so that member is kept and its A_i
    is nonzero there.  J* is u* = sum_s beta_s v_s on these edges, summed
    left to right as a dense sum of the raw matrices would be.  The basis
    scatters it densely once, for its infinity norm alone (which scales
    u* to the budget); the model is built from u* on the edges
    (``IsingSpec.from_edges``), which checks them in O(m) instead of
    validating the dense J* again, and its read-only J is the returned
    ``J_star``, the one n x n array the trial keeps.  beta* is <J*, A_i>,
    gathered on the edges, and J* less its projection onto the span is
    the residual r there, so
    ``frob_error`` = ||J_hat - J*||_F = sqrt(||beta_hat - beta*||^2 +
    2 ||r||^2) with no n x n work.  Returns (record, basis, J_star, fit
    result).

    The sample x is one exact draw wherever the family allows it, and
    ``sampler`` then reads "exact": from the enumerated table at
    n <= ``EXACT_SAMPLE_LIMIT``, and above it, for matchings and blocks
    (shuffled or not), from ``component_sample`` on the basis edges and
    u*, as both unions are disjoint cliques with one coupling each (pairs
    for matchings), so no dense J is read.  Erdos-Renyi trials above
    that n run a Glauber chain of ``glauber_sweeps`` sweeps ("glauber").

    An unshuffled matchings or blocks family is the same for every trial
    of a given (generator, n, k), since no draw shapes it: its union edge
    values and basis are computed once and shared, read-only, by the
    trials that follow (the last such family is kept).  A shuffled or
    Erdos-Renyi family is drawn and orthonormalized in each trial.
    """
    seed = trial_seed(cfg.seed, k, trial)
    rng = make_rng(seed)
    n = cfg.n
    if cfg.generator in ("matchings", "blocks") and not cfg.shuffle_support:
        values, basis = _fixed_family(cfg.generator, n, k)
    else:
        rows, cols, values = edge_union(n, _raw_edges(cfg, k, rng))
        basis = gram_schmidt_edges(n, rows, cols, values)
    beta_raw = _true_beta(cfg, k, rng)
    u_star = sum(b * v for b, v in zip(beta_raw, values))
    inf = infinity_norm(basis.stacked(u_star[:, None])[0])
    if inf > cfg.M and inf > 0:
        u_star = u_star * (cfg.M / inf)
    spec = IsingSpec.from_edges(n, basis.rows, basis.cols, u_star)
    if n <= EXACT_SAMPLE_LIMIT:
        x = exact_sample(enumerate_distribution(spec), rng)
        sampler = "exact"
    elif cfg.generator in ("matchings", "blocks"):
        x = component_sample(n, basis.rows, basis.cols, u_star, rng)
        sampler = "exact"
    else:
        x = glauber_sample(spec, GlauberConfig(cfg.glauber_sweeps, seed), rng)
        sampler = "glauber"
    beta_star = basis.coef.T @ (u_star + u_star)
    residual = u_star - basis.coef @ beta_star
    res = fit(basis, x, MpleConfig(M=cfg.M, max_programs=cfg.max_iters,
                                   grad_tol=cfg.grad_tol))
    psi_star = psi(basis, beta_star, x)
    diff = res.beta_hat - beta_star
    rec = TrialRecord(
        generator=cfg.generator,
        n=n,
        k=k,
        trial=trial,
        seed=seed,
        frob_error=math.sqrt(diff @ diff + 2.0 * (residual @ residual)),
        beta_error=float(np.linalg.norm(diff)),
        psi_gap=res.psi_hat - psi_star,
        psi_hat=res.psi_hat,
        psi_star=psi_star,
        inf_norm_hat=res.inf_norm_hat,
        iterations=res.iterations,
        sampler=sampler,
    )
    return rec, basis, spec.J, res


_CSV_FIELDS = [f.name for f in fields(TrialRecord)]


def run_sweep(cfg, out_dir=None, save_instances=False):
    """Run every (k, trial) cell.

    A package error (``IsingfitError``) in a cell is recorded in its row
    and the sweep continues; any other exception is a bug and propagates.
    With ``save_instances`` and an ``out_dir``, each finished cell's J* is
    written to ``instances/k{k}_trial{trial}.json`` at once, so the sweep
    holds one J* at a time; a sweep with no finished cell writes none.
    """
    inst_dir = None
    if save_instances and out_dir is not None:
        inst_dir = os.path.join(out_dir, "instances")
    records = []
    for k in cfg.k_grid:
        for trial in range(cfg.trials):
            try:
                rec, _, J_star, _ = run_trial(cfg, k, trial)
            except IsingfitError as exc:  # recorded per-trial, sweep continues
                rec = TrialRecord(cfg.generator, cfg.n, k, trial,
                                  trial_seed(cfg.seed, k, trial),
                                  math.nan, math.nan, math.nan, math.nan,
                                  math.nan, math.nan, 0, "none",
                                  error=f"{type(exc).__name__}: {exc}")
            else:
                if inst_dir is not None:
                    os.makedirs(inst_dir, exist_ok=True)
                    save_matrix(os.path.join(inst_dir, f"k{k}_trial{trial}.json"), J_star)
                del J_star
            records.append(rec)
    summary = summarize(cfg, records)
    if out_dir is not None:
        write_outputs(cfg, records, summary, out_dir)
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


def write_outputs(cfg, records, summary, out_dir):
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
