"""The benchmark's workloads.

A workload makes each cell's inputs from the workload seed and the cell
index (untimed), runs the cell's library calls (timed) and checks the
outputs (untimed).  ``inputs`` rebuilds everything a cell consumes,
random generators included, so running a cell twice on
``inputs(seed, i)`` repeats it exactly.

Layer functions are looked up on their module at call time
(``sampler.enumerate_distribution``, not a name imported here), so that
the tracer's wrappers see the benchmark's own calls too; ``core`` is not
traced, so ``IsingSpec`` is imported directly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from isingfit import basis, conditioning, experiments, metrics, mple, oneparam, sampler
from isingfit.core import IsingSpec


class CheckFailed(Exception):
    """A cell ran but its output is wrong."""


class Workload:
    """Defaults for workloads whose cells leave nothing to summarise."""

    def record(self, out):
        return None

    def summary(self, records):
        return {}


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _rng(seed, i, stream):
    return np.random.default_rng([seed, i, stream])


def _scaled_interaction(rng, n, M):
    """Dense symmetric zero-diagonal matrix with infinity norm exactly M."""
    J = rng.normal(size=(n, n))
    J = 0.5 * (J + J.T)
    np.fill_diagonal(J, 0.0)
    return J * (M / np.abs(J).sum(axis=1).max())


# ---------------------------------------------------------------------------
# run_trial cells at the test_05 configuration


@dataclass(frozen=True)
class Estimate(Workload):
    """One cell is ``experiments.run_trial``: generate, orthonormalize,
    sample by Glauber, fit, evaluate."""

    k: int
    n: int = 128
    M: float = 0.5
    max_iters: int = 30_000
    eta: float = 0.002
    grad_tol: float = 1e-4
    sweeps: int = 300
    min_cells: int = 3

    def tiny(self):
        return replace(self, n=24, max_iters=5_000, sweeps=3, min_cells=2)

    def config(self, seed):
        return experiments.ExperimentConfig(
            generator="matchings", n=self.n, k_grid=(self.k,), M=self.M,
            seed=seed, max_iters=self.max_iters, eta=self.eta,
            grad_tol=self.grad_tol, glauber_sweeps=self.sweeps)

    def inputs(self, seed, i):
        return self.config(seed), i

    def run(self, inp):
        cfg, trial = inp
        return experiments.run_trial(cfg, self.k, trial)

    def check(self, inp, out):
        cfg, _ = inp
        rec = out[0]
        _require(not rec.error, f"trial recorded an error: {rec.error}")
        for name in ("frob_error", "beta_error", "psi_gap", "psi_hat",
                     "psi_star", "inf_norm_hat"):
            _require(math.isfinite(getattr(rec, name)), f"{name} is not finite")
        _require(rec.inf_norm_hat <= 3.0 * cfg.M + 1e-9,
                 f"||J_hat||_inf = {rec.inf_norm_hat!r} > 3M")
        _require(rec.psi_gap <= cfg.epsilon,
                 f"psi_gap {rec.psi_gap!r} > epsilon {cfg.epsilon!r}")

    def record(self, out):
        return out[0]

    def summary(self, records):
        """Estimate quality over the first ``min_cells`` cells, which every
        run completes, so the values are fixed by the seed."""
        return {
            "frob_err_p50": (float(np.median([r.frob_error for r in records])), "1"),
            "psi_gap_mean": (float(np.mean([r.psi_gap for r in records])), "nats"),
            "results_digest": (results_digest(records), "sha256"),
        }


def results_digest(records):
    """sha256 of the records written as ``results.csv`` writes them (the
    field list is the package's own, so the two stay in step)."""
    fields = experiments._CSV_FIELDS
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fields)
    w.writeheader()
    for r in records:
        w.writerow({f: repr(v) if isinstance(v, float) else v
                    for f, v in ((f, getattr(r, f)) for f in fields)})
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


# ---------------------------------------------------------------------------
# exact small-instance oracles


@dataclass(frozen=True)
class Oracles(Workload):
    """One cell is one seeded validation case over the exact oracles."""

    n_enum: int = 18
    n_tv: int = 16
    n_chain: int = 8
    chains: int = 6_000
    chain_sweeps: int = 200
    n_cover: int = 200
    n_scalar: int = 14
    scalar_draws: int = 200
    n_var: int = 12
    var_calls: int = 100
    scalar_tol: float = 1e-10
    min_cells: int = 5

    def tiny(self):
        return replace(self, n_enum=6, n_tv=5, n_chain=4, chains=400,
                       chain_sweeps=20, n_cover=30, n_scalar=5, scalar_draws=5,
                       n_var=4, var_calls=3, min_cells=2)

    def inputs(self, seed, i):
        g = _rng(seed, i, 0)
        P = _scaled_interaction(g, self.n_tv, 0.5)
        return {
            "enum": _scaled_interaction(g, self.n_enum, 0.5),
            "tv": (P, P + 0.1 * _scaled_interaction(g, self.n_tv, 1.0)),
            "chain": _scaled_interaction(g, self.n_chain, 0.5),
            "chain_rng": sampler.make_rng([seed, i, 1]),
            "cover": _scaled_interaction(g, self.n_cover, 2.0),
            "cover_rng": sampler.make_rng([seed, i, 2]),
            "scalar": _scaled_interaction(g, self.n_scalar, 1.0),
            "scalar_rng": sampler.make_rng([seed, i, 3]),
            "var": (_scaled_interaction(g, self.n_var, 1.0),
                    0.2 * g.normal(size=(self.var_calls, self.n_var)),
                    g.normal(size=(self.var_calls, self.n_var))),
        }

    def run(self, inp):
        out = {"enum": sampler.enumerate_distribution(IsingSpec.zero_field(inp["enum"]))}
        P, Q = inp["tv"]
        out["tv"] = metrics.tv_chi_exact(IsingSpec.zero_field(P), IsingSpec.zero_field(Q))

        chain_spec = IsingSpec.zero_field(inp["chain"])
        cfg = sampler.GlauberConfig(self.chain_sweeps, 0)
        out["chain_X"] = sampler.glauber_sample_many(chain_spec, self.chains, cfg,
                                                     inp["chain_rng"])
        out["chain_exact"] = sampler.enumerate_distribution(chain_spec)

        cover = conditioning.build_cover(inp["cover"], 0.5, rng=inp["cover_rng"])
        out["cover"] = conditioning.verify_cover(inp["cover"], cover)

        J = inp["scalar"]
        dist = sampler.enumerate_distribution(IsingSpec.zero_field(0.4 * J))
        X = sampler.exact_sample(dist, inp["scalar_rng"], count=self.scalar_draws)
        out["scalar"] = [oneparam.fit_scalar(J, x, 1.0, tol=self.scalar_tol) for x in X]

        Jv, H, A = inp["var"]
        out["var"] = [metrics.linear_variance_exact(IsingSpec(Jv, h), a)
                      for h, a in zip(H, A)]
        return out

    def check(self, inp, out):
        p = out["enum"].probs
        _require(np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= 1e-9,
                 "enumerated probabilities do not sum to 1")
        _require(out["tv"].bound_ok, "TV exceeds sqrt(chi^2 / 2)")

        # The empirical mass of state s has standard deviation
        # sqrt(p_s (1 - p_s) / chains), so E[TV] is about 0.4 times the sum
        # of those deviations; the tolerance is 2.5 times that, plus 0.01
        # for the finite number of sweeps.
        p = out["chain_exact"].probs
        emp = sampler.empirical_distribution(out["chain_X"], self.n_chain)
        tv = 0.5 * float(np.abs(emp - p).sum())
        tol = 0.01 + float(np.sum(np.sqrt(p * (1.0 - p) / self.chains)))
        _require(tv <= tol, f"multi-chain TV {tv:.4f} > {tol:.4f}")

        _require(out["cover"].ok, "verify_cover rejected the cover")
        for r in out["scalar"]:
            _require(abs(r.phi_prime_at_hat) <= self.scalar_tol or r.boundary,
                     f"fit_scalar stopped at |phi'| = {abs(r.phi_prime_at_hat):g}")
        Jv, H, A = inp["var"]
        for v, a in zip(out["var"], A):
            _require(0.0 <= v <= float(np.abs(a).sum()) ** 2,
                     f"linear variance {v!r} outside [0, ||a||_1^2]")


# ---------------------------------------------------------------------------
# large-n basis operations


@dataclass(frozen=True)
class BasisLarge(Workload):
    """One cell orthonormalizes k Erdos-Renyi incidence matrices at large n,
    projects a matrix onto the span and evaluates the objective and its
    gradient."""

    n: int = 1024
    k: int = 8
    p: float = 0.01
    min_cells: int = 5

    def tiny(self):
        return replace(self, n=48, k=3, p=0.2, min_cells=2)

    def inputs(self, seed, i):
        g = _rng(seed, i, 0)
        raw = experiments.gen_erdos_renyi_incidence(self.n, self.k, self.p, g)
        J_star = sum(c * R for c, R in zip(g.uniform(-1.0, 1.0, self.k), raw))
        beta = g.uniform(-0.05, 0.05, self.k)
        x = np.where(g.random(self.n) < 0.5, 1.0, -1.0)
        return raw, J_star, beta, x

    def run(self, inp):
        raw, J_star, beta, x = inp
        B = basis.gram_schmidt(raw)
        coords, residual = basis.project(B, J_star)
        return B, coords, residual, mple.psi(B, beta, x), mple.grad_beta(B, beta, x)

    def check(self, inp, out):
        _, J_star, beta, _ = inp
        B, coords, residual, value, grad = out
        _require(B.k == self.k, f"basis rank {B.k} < {self.k}")
        G = np.array([[np.vdot(a, b) for b in B.ortho] for a in B.ortho])
        gram_err = float(np.abs(G - np.eye(B.k)).max())
        _require(gram_err <= 1e-9, f"Gram matrix of ortho is off I by {gram_err:g}")
        back, _ = basis.project(B, basis.combine(B, beta))
        _require(np.allclose(back, beta, rtol=0.0, atol=1e-9),
                 "project(combine(beta)) does not return beta")
        _require(residual <= 1e-9 * float(np.linalg.norm(J_star)),
                 f"in-span matrix has projection residual {residual:g}")
        _require(math.isfinite(value) and np.all(np.isfinite(grad)),
                 "psi or grad_beta is not finite")


WORKLOADS = {
    "estimate-n128-k8": Estimate(k=8),
    "estimate-n128-k1": Estimate(k=1, min_cells=5),
    "oracles-exact": Oracles(),
    "basis-n1024": BasisLarge(),
}
