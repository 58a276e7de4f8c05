"""Per-layer tracing from the benchmark's own files.

The package modules import each other's functions by name
(``from .mple import fit``), so a function is wrapped at every place it
is looked up: ``isingfit.experiments.fit`` and ``isingfit.mple.fit`` are
two wrap points of one span, named after the function's defining module
(``mple.fit``).  A wrapper records only while a cell is open, so calls
made by input generation and output checks are not counted.

Within a cell every span name accumulates calls, inclusive time and self
time (its duration minus the part covered by wrapped calls it made), and
a few wrap points add counts of the work done.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("experiments", "basis", "sampler", "mple", "metrics", "conditioning",
          "oneparam")

# (module, attribute) pairs: where the benchmark or the package looks a
# layer function up.  ``core`` runs only inside these, and ``cli`` is not
# on the path of any workload.
WRAP_POINTS = (
    ("isingfit.experiments", "run_trial"),
    ("isingfit.experiments", "gram_schmidt"),
    ("isingfit.experiments", "project"),
    ("isingfit.experiments", "fit"),
    ("isingfit.experiments", "psi"),
    ("isingfit.experiments", "glauber_sample"),
    ("isingfit.experiments", "exact_sample"),
    ("isingfit.experiments", "enumerate_distribution"),
    ("isingfit.basis", "gram_schmidt"),
    ("isingfit.basis", "project"),
    ("isingfit.basis", "combine"),
    ("isingfit.basis.MatrixBasis", "stacked"),
    ("isingfit.mple", "combine"),
    ("isingfit.mple", "fit"),
    ("isingfit.mple", "psi"),
    ("isingfit.mple", "grad_beta"),
    ("isingfit.mple", "infnorm_subgradient"),
    ("isingfit.sampler", "enumerate_distribution"),
    ("isingfit.sampler", "exact_sample"),
    ("isingfit.sampler", "glauber_sample"),
    ("isingfit.sampler", "glauber_sample_many"),
    ("isingfit.metrics", "enumerate_distribution"),
    ("isingfit.metrics", "tv_chi_exact"),
    ("isingfit.metrics", "linear_variance_exact"),
    ("isingfit.conditioning", "build_cover"),
    ("isingfit.conditioning", "verify_cover"),
    ("isingfit.oneparam", "fit_scalar"),
    ("isingfit.oneparam", "phi_prime"),
)


def _resolve(path):
    """Module or class object for a dotted path such as
    ``isingfit.basis.MatrixBasis``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


def span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


# Counters: called after a wrapped call returns, with its arguments and
# result, to add the work it did to the cell's counts.

def _count_fit(counts, args, kwargs, res):
    basis, _, cfg = args[:3]
    _, T, _ = cfg.resolve(basis.n, basis.k)
    counts["fits"] += 1
    counts["fit_iters"] += res.iterations
    counts["fit_capped"] += res.iterations >= T
    counts["fit_bytes"] += res.iterations * basis.k * basis.n ** 2 * 8


def _count_stacked(counts, args, kwargs, res):
    counts["stacked_bytes"] += res.nbytes


def _count_glauber(counts, args, kwargs, res):
    spec, count, cfg = args[:3]
    counts["glauber_site_updates"] += cfg.burn_in_sweeps * spec.n * count


def _count_enumerate(counts, args, kwargs, res):
    counts["enumerate_configs"] += res.probs.size


def _count_cover(counts, args, kwargs, res):
    counts["covers"] += 1
    counts["cover_attempts"] += res.attempts


COUNTERS = {
    "mple.fit": _count_fit,
    "basis.stacked": _count_stacked,
    "sampler.glauber_sample_many": _count_glauber,
    "sampler.enumerate_distribution": _count_enumerate,
    "conditioning.build_cover": _count_cover,
}


@dataclass
class CellTrace:
    """Per span name: [calls, inclusive seconds, self seconds]."""

    spans: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)

    def self_s(self, *names):
        return sum(self.spans[n][2] for n in names if n in self.spans)

    def incl_s(self, name):
        return self.spans[name][1] if name in self.spans else 0.0

    def calls(self, name):
        return self.spans[name][0] if name in self.spans else 0

    def total_self_s(self):
        return sum(v[2] for v in self.spans.values())


class Tracer:
    def __init__(self):
        self._stack = []   # child seconds of each open span
        self._cell = None  # CellTrace while a cell is open

    def _wrap(self, fn):
        name = span_name(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = self._cell
            if cell is None:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dur
                rec = cell.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
            if counter is not None:
                counter(cell.counts, args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self, points=WRAP_POINTS):
        """Replace every wrap point by a traced wrapper; restore on exit."""
        saved = []
        try:
            for path, attr in points:
                owner = _resolve(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def cell(self):
        """Record wrapped calls made inside the block into a new CellTrace."""
        self._cell = trace = CellTrace()
        try:
            yield trace
        finally:
            self._cell = None
            self._stack.clear()


def per_layer_metrics(traces, count_cells, traced_walls, plain_walls):
    """Per-layer metrics of a traced run.

    Times are medians over every traced cell of the per-cell value.  Counts
    are per-cell means over the first ``count_cells`` traced cells, which
    every run completes, so they are fixed by the seed.
    """
    head = traces[:count_cells]

    def med(f):
        return float(np.median([f(t) for t in traces]))

    def per_cell(key):
        return sum(t.counts[key] for t in head) / len(head)

    def calls(name):
        return sum(t.calls(name) for t in head) / len(head)

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    fit_s = sum(t.incl_s("mple.fit") for t in traces)
    fit_iters = sum(t.counts["fit_iters"] for t in traces)
    glauber = ("sampler.glauber_sample", "sampler.glauber_sample_many")
    glauber_s = sum(t.self_s(*glauber) for t in traces)
    updates = sum(t.counts["glauber_site_updates"] for t in traces)
    n_fits = sum(t.counts["fits"] for t in head)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (med(lambda t: sum(
            v[2] for k, v in t.spans.items() if k.startswith(layer + "."))), "s")
    m.update({
        "mple.fit_s": (med(lambda t: t.self_s("mple.fit")), "s"),
        "mple.fit_iters": (per_cell("fit_iters"), "count"),
        "mple.fit_us_per_iter": (ratio(fit_s, fit_iters, 1e6), "us"),
        "mple.fit_capped_frac": (
            ratio(sum(t.counts["fit_capped"] for t in head), n_fits, 1.0), "frac"),
        "mple.infnorm_subgradient_calls": (calls("mple.infnorm_subgradient"), "count"),
        "mple.fit_bytes": (per_cell("fit_bytes"), "B"),
        "mple.psi_s": (med(lambda t: t.self_s("mple.psi")), "s"),
        "mple.grad_beta_s": (med(lambda t: t.self_s("mple.grad_beta")), "s"),
        "basis.stacked_calls": (calls("basis.stacked"), "count"),
        "basis.stacked_bytes": (per_cell("stacked_bytes"), "B"),
        "basis.gram_schmidt_s": (med(lambda t: t.self_s("basis.gram_schmidt")), "s"),
        "basis.project_s": (med(lambda t: t.self_s("basis.project")), "s"),
        "sampler.glauber_s": (med(lambda t: t.self_s(*glauber)), "s"),
        "sampler.glauber_site_updates": (per_cell("glauber_site_updates"), "count"),
        "sampler.glauber_ns_per_update": (ratio(glauber_s, updates, 1e9), "ns"),
        "sampler.enumerate_s": (med(lambda t: t.self_s("sampler.enumerate_distribution")), "s"),
        "sampler.enumerate_configs": (per_cell("enumerate_configs"), "count"),
        "sampler.exact_sample_s": (med(lambda t: t.self_s("sampler.exact_sample")), "s"),
        "metrics.tv_chi_s": (med(lambda t: t.self_s("metrics.tv_chi_exact")), "s"),
        "metrics.linear_variance_s": (med(lambda t: t.self_s("metrics.linear_variance_exact")), "s"),
        "conditioning.build_cover_s": (med(lambda t: t.self_s("conditioning.build_cover")), "s"),
        "conditioning.verify_cover_s": (med(lambda t: t.self_s("conditioning.verify_cover")), "s"),
        "conditioning.cover_attempts": (
            ratio(per_cell("cover_attempts"), per_cell("covers"), 1.0), "count"),
        "oneparam.fit_scalar_s": (med(lambda t: t.self_s("oneparam.fit_scalar")), "s"),
        "oneparam.phi_prime_calls": (calls("oneparam.phi_prime"), "count"),
        "experiments.run_trial_self_s": (med(lambda t: t.self_s("experiments.run_trial")), "s"),
        "traced_cell_s_p50": (float(np.median(traced_walls)), "s"),
        "trace_overhead_frac": (float(np.median(traced_walls) / np.median(plain_walls) - 1.0),
                                "frac"),
    })
    return m
