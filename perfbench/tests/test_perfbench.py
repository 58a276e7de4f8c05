"""Tests of the benchmark itself, on tiny versions of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402

run.import_package()

from isingfit import experiments  # noqa: E402
from tracing import WRAP_POINTS, Tracer, _resolve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _result(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return out, json.loads(out[-1])


def test_contract_workloads_exist():
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plain_smoke_reports_every_end_to_end_metric(name, capsys):
    cells, metrics = run.plain_run(WORKLOADS[name].tiny(), name, 1, 0.2, setup_s=0.5)
    print(run.result_line(cells, metrics))
    lines, res = _result(capsys)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert set(res["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    # every cell carries the mean reference time measured around and
    # during it, and its time in reference units is its wall time over that
    assert all(c.ref_s > 0 and c.ref_units == c.wall_s / c.ref_s for c in cells)
    assert any("failed_frac" in line for line in lines)
    if name.startswith("estimate"):
        assert any("results_digest" in line for line in lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_reports_every_per_layer_metric(name, capsys):
    cells, metrics = run.traced_run(WORKLOADS[name].tiny(), name, 1, 0.2)
    print(run.result_line(cells, metrics))
    _, res = _result(capsys)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}


def test_counts_repeat_for_a_seed(capsys):
    tiny = WORKLOADS["oracles-exact"].tiny()
    counts = ("sampler.glauber_site_updates", "sampler.enumerate_configs",
              "conditioning.cover_attempts", "oneparam.phi_prime_calls")
    a = run.traced_run(tiny, "oracles-exact", 3, 0.2)[1]
    b = run.traced_run(tiny, "oracles-exact", 3, 0.5)[1]
    assert all(a[k] == b[k] for k in counts)


def test_gauge_samples_inside_the_call_and_leaves_out_its_pauses():
    gauge = reference.Gauge(interval=0.05)

    def busy():
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
        return "done"

    out, wall, ref_s = gauge.time(busy)
    assert out == "done" and ref_s > 0
    assert len(gauge.samples) >= 4  # one before, one after, the rest inside
    assert wall < 0.4  # the loop ran to its deadline, pauses included


def test_gauge_disarms_its_timer_when_the_call_raises():
    previous = signal.getsignal(signal.SIGALRM)

    def fail():
        raise RuntimeError("cell failed")

    with pytest.raises(RuntimeError):
        reference.Gauge(interval=0.01).time(fail)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_wrappers_are_restored():
    originals = {(p, a): _resolve(p).__dict__[a] for p, a in WRAP_POINTS}
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert all(_resolve(p).__dict__[a] is not f for (p, a), f in originals.items())
            raise RuntimeError("leave the block early")
    assert all(_resolve(p).__dict__[a] is f for (p, a), f in originals.items())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_fit_in_the_cell(name):
    tiny = WORKLOADS[name].tiny()
    tracer = Tracer()
    with tracer.installed():
        cells = [run.run_cell(tiny, 1, i, tracer) for i in range(2)]
    for c in cells:
        assert c.error is None and c.trace.spans
        assert 0.0 <= c.trace.total_self_s() <= c.wall_s
        assert all(v[2] >= 0.0 for v in c.trace.spans.values())


def test_nested_spans_split_self_time():
    tiny = WORKLOADS["estimate-n128-k8"].tiny()
    tracer = Tracer()
    with tracer.installed():
        cell = run.run_cell(tiny, 1, 0, tracer)
    trial = cell.trace.spans["experiments.run_trial"]
    assert trial[2] < trial[1]  # fit, sampling and the basis ran inside it
    assert cell.trace.calls("mple.fit") == 1 and cell.trace.calls("basis.stacked") >= 1


@pytest.mark.parametrize("how", ["raises", "wrong output"])
def test_failing_cell_is_counted(how, monkeypatch, capsys):
    original = experiments.run_trial

    def broken(cfg, k, trial):
        if trial != 1:
            return original(cfg, k, trial)
        if how == "raises":
            raise RuntimeError("injected failure")
        out = original(cfg, k, trial)
        out[0].psi_gap = 10.0 * cfg.epsilon
        return out

    monkeypatch.setattr(experiments, "run_trial", broken)
    cells, metrics = run.plain_run(WORKLOADS["estimate-n128-k1"].tiny(), "estimate-n128-k1",
                                   1, 0.2, setup_s=0.5)
    print(run.result_line(cells, metrics))
    lines, res = _result(capsys)
    assert res["failed"] == 1 and not res["correct"]
    frac = next(line for line in lines if "failed_frac" in line)
    assert float(frac.split()[1]) == pytest.approx(1 / res["attempted"])
