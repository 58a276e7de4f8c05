import json

import numpy as np
import pytest

from isingfit import cli
from isingfit.cli import main
from isingfit.core import IsingSpec, save_matrix, save_spins
from isingfit.experiments import ExperimentConfig, gen_erdos_renyi_incidence, gen_matchings
from isingfit.errors import InvalidEta
from isingfit.sampler import GlauberConfig, certified_sweeps, glauber_sample_many, make_rng
from isingfit.mple import DEFAULT_MAX_PROGRAMS
from tests.test_sampler import _count_tables, _model, _vectorised_glauber


@pytest.fixture
def small_model(tmp_path):
    n = 6
    J = np.zeros((n, n))
    for i in range(0, n, 2):
        J[i, i + 1] = J[i + 1, i] = 0.4
    path = tmp_path / "model.json"
    save_matrix(path, J)
    return path, J


def test_sample_exact(tmp_path, small_model):
    path, J = small_model
    out = tmp_path / "draws.jsonl"
    main(["sample", "--model", str(path), "--count", "5",
          "--seed", "3", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    for line in lines:
        row = json.loads(line)
        assert len(row) == 6
        assert set(row) <= {-1, 1}


def test_sample_glauber(tmp_path, small_model):
    path, J = small_model
    out = tmp_path / "draws.jsonl"
    main(["sample", "--model", str(path), "--method", "glauber",
          "--sweeps", "50", "--count", "3", "--seed", "1", "--out", str(out)])
    assert len(out.read_text().splitlines()) == 3


def test_sample_glauber_defaults_to_certified_sweeps(tmp_path, small_model, capsys):
    path, J = small_model
    out = tmp_path / "draws.jsonl"
    main(["sample", "--model", str(path), "--method", "glauber",
          "--count", "3", "--seed", "2", "--out", str(out)])
    spec = IsingSpec.zero_field(J)
    want = glauber_sample_many(spec, 3, GlauberConfig(certified_sweeps(spec), 2), make_rng(2))
    assert [json.loads(line) for line in out.read_text().splitlines()] == want.tolist()
    # alpha >= 1 certifies nothing: the n = 65, M = 4 model stops at once
    hot = tmp_path / "hot.json"
    save_matrix(hot, _model("erdos_renyi", 65, False, M=4.0).J)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(["sample", "--model", str(hot), "--method", "glauber"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert "alpha" in captured.err and captured.out == ""


def test_sample_glauber_of_an_empty_model(tmp_path, capsys):
    # n = 0 certifies one sweep, and every method prints an empty row
    path = tmp_path / "n0.json"
    path.write_text(json.dumps({"n": 0, "entries": []}))
    outs = []
    for extra in ([], ["--method", "glauber"], ["--method", "glauber", "--sweeps", "2"]):
        main(["sample", "--model", str(path), *extra])
        outs.append(capsys.readouterr().out)
    assert outs == ["[]\n"] * 3


def test_package_errors_exit_with_their_message(tmp_path, small_model, capsys):
    # a package error from any subcommand ends as argparse ends a bad
    # argument: one line on stderr and exit status 2
    path, _ = small_model
    argv = ["cover", "--model", str(path), "--eta", "5"]
    with pytest.raises(InvalidEta) as raised:
        cli.cmd_cover(cli.build_parser().parse_args(argv))
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"isingfit: error: {raised.value}\n" and captured.out == ""
    # a malformed matrix file is not a package error and is not caught
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "entries": [[1, 0, 0.5]]}))
    with pytest.raises(ValueError, match="strictly upper"):
        main(["sample", "--model", str(bad)])


@pytest.mark.parametrize("method,flag,value", [
    ("glauber", "--sweeps", "-3"), ("glauber", "--sweeps", "0"),
    ("glauber", "--count", "-2"), ("glauber", "--count", "0"),
    ("exact", "--count", "0")])
def test_sample_rejects_counts_below_one(tmp_path, small_model, capsys, method, flag, value):
    path, _ = small_model
    with pytest.raises(SystemExit) as exit_:
        main(["sample", "--model", str(path), "--method", method, flag, value])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}:" in captured.err and captured.out == ""


def test_sample_glauber_rows_match_vectorised_oracle(tmp_path, small_model, monkeypatch):
    # 400 sweeps of 5 chains at n = 6 run the conditional-table branch
    path, J = small_model
    built = _count_tables(monkeypatch)
    out = tmp_path / "draws.jsonl"
    main(["sample", "--model", str(path), "--method", "glauber",
          "--sweeps", "400", "--count", "5", "--seed", "4", "--out", str(out)])
    want = _vectorised_glauber(IsingSpec.zero_field(J), 5, GlauberConfig(400, 4), make_rng(4))
    assert built == [6]
    assert [json.loads(line) for line in out.read_text().splitlines()] == want.tolist()


def _basis_report(tmp_path, mats):
    files = []
    for i, m in enumerate(mats):
        p = tmp_path / f"m{i}.json"
        save_matrix(p, m)
        files.append(str(p))
    listing = tmp_path / "basis.json"
    listing.write_text(json.dumps(files))
    out = tmp_path / "report.json"
    main(["basis", "check", "--basis", str(listing), "--out", str(out)])
    return out.read_text()


def test_basis_check(tmp_path):
    report = json.loads(_basis_report(tmp_path, gen_matchings(8, 2)))
    assert report["k_input"] == 2
    assert report["k_prime"] == 2
    G = np.array(report["gram"])
    assert np.allclose(G, np.eye(2))
    # ER Gram entries off the diagonal round to zero from either side
    text = _basis_report(tmp_path, gen_erdos_renyi_incidence(10, 3, 0.3, make_rng(0)))
    assert np.array_equal(json.loads(text)["gram"], np.eye(3))
    assert "-0.0" not in text


def test_fit_roundtrip(tmp_path, small_model):
    path, J = small_model
    mats = gen_matchings(6, 1)
    mpath = tmp_path / "m0.json"
    save_matrix(mpath, mats[0])
    listing = tmp_path / "basis.json"
    listing.write_text(json.dumps([str(mpath)]))
    x = np.ones(6)
    x[1] = x[4] = -1
    spath = tmp_path / "x.json"
    save_spins(spath, x)
    out = tmp_path / "fit.json"
    main(["fit", "--basis", str(listing), "--sample", str(spath),
          "--M", "0.5", "--grad-tol", "1e-5",
          "--out", str(out)])
    res = json.loads(out.read_text())
    assert len(res["beta_hat"]) == 1
    assert res["inf_norm_hat"] <= 0.5 * (1 + 1e-9)
    assert res["stop_reason"] == "kkt" and res["iterations"] < DEFAULT_MAX_PROGRAMS
    assert 0.0 <= res["kkt_residual"] <= 1e-5
    assert res["budget_active"] == (res["inf_norm_hat"] >= 0.5 * (1 - 1e-9))
    assert "grad_norm" not in res and "over_budget" not in res


def test_cover(tmp_path):
    n = 40
    rng = np.random.default_rng(0)
    J = rng.normal(size=(n, n)) * 0.05
    J = (J + J.T) / 2
    np.fill_diagonal(J, 0.0)
    path = tmp_path / "J.json"
    save_matrix(path, J)
    out = tmp_path / "cover.json"
    main(["cover", "--model", str(path), "--eta", "0.6",
          "--seed", "4", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert rep["ok"]
    counts = np.zeros(n, dtype=int)
    for s in rep["sets"]:
        counts[np.asarray(s, dtype=int)] += 1
    assert counts.min() >= rep["target_count"]


def test_fit1(tmp_path, small_model):
    path, J = small_model
    x = np.ones(6)
    spath = tmp_path / "x.json"
    save_spins(spath, x)
    out = tmp_path / "fit1.json"
    main(["fit1", "--model", str(path), "--sample", str(spath),
          "--M", "2.0", "--out", str(out)])
    res = json.loads(out.read_text())
    assert -2.0 <= res["beta_hat"] <= 2.0
    assert abs(res["phi_prime_at_hat"]) < 1e-8 or res["boundary"]


def test_fit1_rejects_a_tolerance_that_is_not_finite(tmp_path, small_model, capsys):
    # one aligned and one opposed pair: phi' changes sign inside [-M, M] and
    # is not 0 at the first midpoint, which an infinite --tol would accept
    path, _ = small_model
    spath = tmp_path / "x.json"
    save_spins(spath, np.array([1.0, 1.0, 1.0, -1.0, 1.0, 1.0]))
    argv = ["fit1", "--model", str(path), "--sample", str(spath), "--M", "2.0"]
    main(argv)
    res = json.loads(capsys.readouterr().out)
    assert not res["boundary"] and res["beta_hat"] != 0.0
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--tol", "inf"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert "tol must be finite" in captured.err and captured.out == ""


def test_metrics(tmp_path, small_model):
    path, J = small_model
    qpath = tmp_path / "q.json"
    save_matrix(qpath, 0.5 * J)
    apath = tmp_path / "a.json"
    apath.write_text(json.dumps([1.0] * 6))
    out = tmp_path / "div.json"
    main(["metrics", "--p", str(path), "--q", str(qpath),
          "--a", str(apath), "--out", str(out)])
    rep = json.loads(out.read_text())
    assert 0 < rep["tv"] < 1
    assert rep["bound_ok"]
    assert rep["linear_variance"] > 0
    assert 0 < rep["gamma_floor"] <= 1


def test_experiment_run(tmp_path, capsys):
    cfg = ExperimentConfig(n=10, k_grid=(1,), trials=2, M=0.5,
                           max_iters=3000, eta=0.002, grad_tol=1e-4)
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg.to_dict()))
    out_dir = tmp_path / "out"
    main(["experiment", "run", "--config", str(cpath),
          "--out-dir", str(out_dir)])
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "summary.json").exists()
    printed = capsys.readouterr().out
    assert "median_frob_error" in printed
