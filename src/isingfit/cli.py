"""Command-line interface.

Subcommands: sample, basis, fit, cover, fit1, metrics, experiment.
Matrix files use the sparse upper-triangle JSON format; spin files are
JSON arrays of +-1 integers.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from . import basis as basis_mod
from . import conditioning, experiments, metrics, mple, oneparam, sampler
from .core import IsingSpec, load_matrix, load_spins


def _load_spec(path):
    return IsingSpec.zero_field(load_matrix(path))


def _write(out, obj):
    text = json.dumps(obj, indent=2)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def cmd_sample(args):
    spec = _load_spec(args.model)
    rng = sampler.make_rng(args.seed)
    if args.method == "exact":
        dist = sampler.enumerate_distribution(spec)
        X = sampler.exact_sample(dist, rng, count=args.count)
    else:
        sweeps = args.sweeps or sampler.default_burn_in(spec)
        cfg = sampler.GlauberConfig(sweeps, args.seed)
        X = sampler.glauber_sample_many(spec, args.count, cfg, rng)
    lines = [json.dumps([int(v) for v in row]) for row in np.atleast_2d(X)]
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))


def _load_family(path):
    """The matrices named by a JSON list of matrix files."""
    with open(path) as f:
        files = json.load(f)
    return [load_matrix(p) for p in files]


def cmd_basis(args):
    raw = _load_family(args.basis)
    b = basis_mod.gram_schmidt(raw)
    coef = b.edges.coef
    G = 2.0 * coef.T @ coef  # <A_i, A_j> = 2 a_i . a_j on the edges
    report = {
        "k_input": len(raw),
        "k_prime": b.k,
        "min_singular_value": basis_mod.min_singular_value(raw),
        "gram": [[round(v, 12) + 0.0 for v in row] for row in G.tolist()],  # no -0.0
    }
    _write(args.out, report)


def cmd_fit(args):
    b = basis_mod.gram_schmidt(_load_family(args.basis))
    x = load_spins(args.sample)
    res = mple.fit(b, x, mple.MpleConfig(M=args.M, grad_tol=args.grad_tol))
    _write(args.out, {
        "beta_hat": res.beta_hat.tolist(),
        "psi_hat": res.psi_hat,
        "inf_norm_hat": res.inf_norm_hat,
        "iterations": res.iterations,
        "stop_reason": res.stop_reason,
        "kkt_residual": res.kkt_residual,
        "budget_active": res.budget_active,
    })


def cmd_cover(args):
    J = load_matrix(args.model)
    cover = conditioning.build_cover(J, args.eta, seed=args.seed,
                                     max_retries=args.max_retries)
    report = conditioning.verify_cover(J, cover)
    _write(args.out, {
        "ell": cover.ell,
        "target_count": cover.target_count,
        "attempts": cover.attempts,
        "ok": report.ok,
        "worst_row_sum": report.worst_row_sum,
        "sets": [s.tolist() for s in cover.sets],
    })


def cmd_fit1(args):
    J = load_matrix(args.model)
    x = load_spins(args.sample)
    res = oneparam.fit_scalar(J, x, args.M, tol=args.tol)
    _write(args.out, {
        "beta_hat": res.beta_hat,
        "phi_prime_at_hat": res.phi_prime_at_hat,
        "certificate": res.certificate,
        "boundary": res.boundary,
        "degenerate": res.degenerate,
    })


def cmd_metrics(args):
    P = _load_spec(args.p)
    Q = _load_spec(args.q)
    rep = metrics.tv_chi_exact(P, Q)
    out = {"tv": rep.tv, "chi_square": rep.chi_square, "bound_ok": rep.bound_ok}
    if args.a:
        with open(args.a) as f:
            a = np.asarray(json.load(f), dtype=float)
        out["linear_variance"] = metrics.linear_variance_exact(P, a)
        out["gamma_floor"] = metrics.conditional_variance_floor(P)
    _write(args.out, out)


def cmd_experiment(args):
    with open(args.config) as f:
        cfg = experiments.ExperimentConfig.from_dict(json.load(f))
    records, summary = experiments.run_sweep(cfg, out_dir=args.out_dir,
                                             save_instances=args.save_instances)
    print(json.dumps(summary["per_k"], indent=2, sort_keys=True))


def build_parser():
    p = argparse.ArgumentParser(prog="isingfit")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sample", help="draw configurations from a model")
    s.add_argument("--model", required=True)
    s.add_argument("--method", choices=("exact", "glauber"), default="exact")
    s.add_argument("--sweeps", type=int, default=0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--count", type=int, default=1)
    s.add_argument("--out")
    s.set_defaults(func=cmd_sample)

    s = sub.add_parser("basis", help="orthonormalize and report a matrix family")
    s.add_argument("action", choices=("check",))
    s.add_argument("--basis", required=True, help="JSON list of matrix files")
    s.add_argument("--out")
    s.set_defaults(func=cmd_basis)

    s = sub.add_parser("fit", help="multi-parameter pseudo-likelihood fit")
    s.add_argument("--basis", required=True)
    s.add_argument("--sample", required=True)
    s.add_argument("--M", type=float, required=True)
    s.add_argument("--grad-tol", type=float, default=1e-4)
    s.add_argument("--out")
    s.set_defaults(func=cmd_fit)

    s = sub.add_parser("cover", help="build a conditioning subset cover")
    s.add_argument("--model", required=True)
    s.add_argument("--eta", type=float, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-retries", type=int, default=64)
    s.add_argument("--out")
    s.set_defaults(func=cmd_cover)

    s = sub.add_parser("fit1", help="one-parameter fit")
    s.add_argument("--model", required=True)
    s.add_argument("--sample", required=True)
    s.add_argument("--M", type=float, default=1.0)
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--out")
    s.set_defaults(func=cmd_fit1)

    s = sub.add_parser("metrics", help="exact divergences between two models")
    s.add_argument("--p", required=True)
    s.add_argument("--q", required=True)
    s.add_argument("--a", help="optional weight-vector file")
    s.add_argument("--out")
    s.set_defaults(func=cmd_metrics)

    s = sub.add_parser("experiment", help="run an estimation sweep")
    s.add_argument("action", choices=("run",))
    s.add_argument("--config", required=True)
    s.add_argument("--out-dir", required=True)
    s.add_argument("--save-instances", action="store_true")
    s.set_defaults(func=cmd_experiment)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
