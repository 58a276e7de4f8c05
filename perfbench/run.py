"""Run one benchmark workload of the isingfit package and report its metrics.

    python3 perfbench/run.py --workload estimate-n128-k8 --seed 1 --seconds 35 --trace 0

The load is a closed loop with one caller and no extra threads: a cell
starts when the previous one has been checked.  ``--trace 0`` measures the
end-to-end metrics with no wrappers installed, timing a fixed reference
kernel around and during each cell so that the cell's time can be read in
reference units (see ``reference.py``) as well as in seconds;
``--trace 1`` runs each
cell once plain and once traced and reports per-layer metrics and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in its
own process.

The package is imported from ``src/`` next to this directory, never from
an installed copy; without it the script exits non-zero and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One caller and no extra threads: BLAS runs single-threaded.  With two
# threads on two shared cores, enumeration ran 1.6x slower and its time
# depended on whether the second core happened to be free.  This is set
# before anything loads numpy.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("estimate-n128-k8", "estimate-n128-k1", "oracles-exact", "basis-n1024")
SETUP_REPEATS = 3        # fresh processes timed for setup_s; the median is reported
TRACE_MIN_STEPS = 2      # plain+traced pairs every traced run completes
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def import_package():
    """Import isingfit from this checkout's src/ and fail loudly otherwise."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import isingfit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import isingfit from {src}: {exc}")
    if not Path(isingfit.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: isingfit was imported from {isingfit.__file__}, not {src}")
    return isingfit


# ---------------------------------------------------------------------------
# Environment


def _blas_info():
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_state():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)", None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                               text=True, timeout=30, check=True).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)", None
    return head, dirty


def environment():
    import numpy as np
    import scipy

    blas, threads = _blas_info()
    commit, dirty = _git_state()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "cpu": _cpu_model(),
        "git_commit": commit,
        "git_dirty": dirty,
        "note": "CPU frequency and the file cache are not controlled",
    }


# ---------------------------------------------------------------------------
# Cells and the closed loop


@dataclass
class Cell:
    index: int
    wall_s: float        # time of the library calls only; nan if they raised
    error: str | None    # None when the cell ran and passed its check
    record: object       # the workload's small per-cell record, for summaries
    trace: object        # tracing.CellTrace for a traced cell, else None
    ref_s: float = math.nan  # mean reference kernel time around and during the cell

    @property
    def ref_units(self):
        return self.wall_s / self.ref_s


def run_cell(workload, seed, i, tracer=None, gauge=None):
    """One cell: traced if ``tracer`` is given, timed by ``gauge`` (a
    ``reference.Gauge``) if that is given."""
    inp = workload.inputs(seed, i)
    wall, trace, ref_s = math.nan, None, math.nan
    try:
        if gauge is not None:
            out, wall, ref_s = gauge.time(lambda: workload.run(inp))
        else:
            t0 = time.perf_counter()
            if tracer is None:
                out = workload.run(inp)
            else:
                with tracer.cell() as trace:
                    out = workload.run(inp)
            wall = time.perf_counter() - t0
        workload.check(inp, out)
    except Exception as exc:  # a failing cell is counted in failed_frac; the run goes on
        return Cell(i, wall, f"{type(exc).__name__}: {exc}", None, trace, ref_s)
    return Cell(i, wall, None, workload.record(out), trace, ref_s)


def closed_loop(step, seconds, min_steps):
    """Call ``step(0), step(1), ...`` back to back.

    The first ``min_steps`` always run; after that a step starts only when
    it is expected, from the previous step's duration, to end within
    ``seconds`` of the start.  Returns the cells and the loop's duration.
    """
    cells = []
    start = time.perf_counter()
    last = 0.0
    i = 0
    while i < min_steps or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        cells.extend(step(i))
        last = time.perf_counter() - t0
        i += 1
    return cells, time.perf_counter() - start


def setup(workload, seed):
    """Generate the first cell's inputs and warm up on a tiny cell (unchecked:
    only measured cells are checked and counted) and on the reference
    kernel."""
    workload.inputs(seed, 0)
    tiny = workload.tiny()
    tiny.run(tiny.inputs(seed, 0))
    reference.sample()


def setup_seconds(name, seed):
    """Median wall time of fresh processes that import, set up and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(walls):
    """Highest listed percentile with at least ten cells beyond it."""
    for p in TAIL_PERCENTILES:
        if len(walls) * (100.0 - p) / 100.0 >= 10.0:
            return p, statistics.quantiles(walls, n=1000, method="inclusive")[round(p * 10) - 1]
    return None, None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Reporting


def _line(name, value, unit, note=""):
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<32} {shown:>14} {unit:<8} {note}".rstrip())


def _failures(cells):
    failed = [c for c in cells if c.error is not None]
    for c in failed[:3]:
        print(f"  FAILED cell {c.index}: {c.error}")
    return len(failed)


def plain_run(workload, name, seed, seconds, setup_s):
    setup(workload, seed)
    gauge = reference.Gauge()
    cells, loop_s = closed_loop(lambda i: [run_cell(workload, seed, i, gauge=gauge)],
                                seconds, workload.min_cells)
    refs = gauge.samples
    ok = [c for c in cells if c.error is None]
    walls = [c.wall_s for c in ok]
    units = [c.ref_units for c in ok]
    rss = peak_rss_mb()

    print(f"workload {name}  seed {seed}  trace 0  ({len(cells)} cells in {loop_s:.2f} s)")
    failed = _failures(cells)
    _line("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} fresh processes")
    _line("cell_ref_p50", statistics.median(units) if units else math.nan, "ref",
          f"{len(units)} cells; cell wall time / mean reference kernel time")
    _line("cell_s_p50", statistics.median(walls) if walls else math.nan, "s",
          f"{len(walls)} cells")
    _line("ref_s_p50", statistics.median(refs) if refs else math.nan, "s",
          f"reference kernel, {len(refs)} samples; the host's speed")
    print("  cell_s each: " + " ".join(f"{w:.4f}" for w in walls))
    print("  cell_ref each: " + " ".join(f"{u:.2f}" for u in units))
    p, value = tail(walls)
    if p is None:
        print(f"  {'cell_s_tail':<32} {'n/a':>14} {'s':<8} "
              f"fewer than 20 cells ({len(walls)})")
    else:
        _line("cell_s_tail", value, "s", f"p{p:g} of {len(walls)} cells")
    _line("cells_per_s", len(ok) / loop_s, "1/s")
    _line("failed_frac", failed / len(cells), "frac", f"{failed} of {len(cells)}")
    _line("peak_rss_mb", rss, "MB")
    head = cells[:workload.min_cells]
    if all(c.error is None for c in head):
        for key, (value, unit) in workload.summary([c.record for c in head]).items():
            _line(key, value, unit, f"first {len(head)} cells")
    metrics = {
        "setup_s": (setup_s, "s"),
        "cell_ref_p50": (statistics.median(units) if units else 0.0, "ref"),
        "peak_rss_mb": (rss, "MB"),
    }
    return cells, metrics


def traced_run(workload, name, seed, seconds):
    from tracing import Tracer, per_layer_metrics

    setup(workload, seed)
    tracer = Tracer()

    def pair(i):
        # alternate which side runs first so neither gets the warmer caches
        sides = (None, tracer) if i % 2 == 0 else (tracer, None)
        return [run_cell(workload, seed, i, t) for t in sides]

    with tracer.installed():
        cells, loop_s = closed_loop(pair, seconds, TRACE_MIN_STEPS)
    ok = [c for c in cells if c.error is None]
    traced_ok = [c for c in ok if c.trace is not None]
    plain_ok = [c for c in ok if c.trace is None]

    print(f"workload {name}  seed {seed}  trace 1  ({len(cells)} cells in {loop_s:.2f} s, "
          f"half of them traced)")
    _failures(cells)
    if not traced_ok or not plain_ok:
        return cells, {}
    metrics = per_layer_metrics([c.trace for c in traced_ok], TRACE_MIN_STEPS,
                                [c.wall_s for c in traced_ok], [c.wall_s for c in plain_ok])
    for key, (value, unit) in metrics.items():
        _line(key, value, unit)
    wall = statistics.median(c.wall_s for c in traced_ok)
    for key, layer in (("mple.fit_s", "estimate-n128-k8"),
                       ("sampler.glauber_s", "estimate-n128-k1"),
                       ("basis.gram_schmidt_s", "basis-n1024")):
        if name == layer:
            share = metrics[key][0] / wall
            verdict = "majority" if share > 0.5 else "NOT the majority"
            print(f"  share check: {key} is {share:.1%} of the traced cell ({verdict})")
    return cells, metrics


def result_line(cells, metrics):
    failed = sum(c.error is not None for c in cells)
    return json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(cells),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, value in res["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, set up and exit; used to time setup_s")
    args = ap.parse_args(argv)

    import_package()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_only:
        setup(workload, args.seed)
        return
    if args.trace:
        cells, metrics = traced_run(workload, args.workload, args.seed, args.seconds)
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        cells, metrics = plain_run(workload, args.workload, args.seed, args.seconds, setup_s)
    print("env " + json.dumps(environment()))
    print(result_line(cells, metrics))


if __name__ == "__main__":
    main()
