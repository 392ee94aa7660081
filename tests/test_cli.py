import json

import numpy as np
import pytest

from kerneldrift import load_trajectory
from kerneldrift.cli import main
from kerneldrift.drift import load_drift_model
from kerneldrift.evaluation import load_error_report, relative_l2_error, system_field
from kerneldrift.systems import spec_from_meta


def run(*argv):
    return main(list(argv))


def test_simulate_writes_csv_and_meta(tmp_path):
    out = tmp_path / "run"
    code = run("simulate", "--system", "hopf", "--noise", "0.1", "--n", "300",
               "--dt", "0.01", "--seed", "7", "--out", str(out))
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x0,x1"
    assert len(lines) == 301
    meta = json.loads((out / "trajectory.meta.json").read_text())
    assert meta["system"] == "hopf" and meta["seed"] == 7
    assert (out / "config.json").exists()


def test_simulate_repeatable_bytes(tmp_path):
    args = ("simulate", "--system", "hopf", "--noise", "0.2", "--n", "200",
            "--seed", "3")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(*args, "--out", str(out1)) == 0
    assert run(*args, "--out", str(out2)) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_simulate_zero_noise_deterministic_orbit(tmp_path):
    out = tmp_path / "det"
    assert run("simulate", "--system", "lorenz63", "--noise", "0", "--n", "100",
               "--seed", "1", "--out", str(out)) == 0
    traj, meta = load_trajectory(out / "trajectory.csv")
    assert meta["sigma_noise"] == 0.0
    assert np.isfinite(traj.points).all()


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run("simulate", "--system", "unknown", "--out", str(tmp_path)) == 1
    assert run("nonsense") == 1
    assert run() == 1


@pytest.fixture(scope="module")
def hopf_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("hopf_run")
    assert run("simulate", "--system", "hopf", "--noise", "0.1", "--n", "2000",
               "--seed", "5", "--out", str(out)) == 0
    assert run("estimate", "--traj", str(out / "trajectory.csv"),
               "--centers", "150", "--out", str(out)) == 0
    return out


def test_estimate_outputs(hopf_run):
    report = load_error_report(hopf_run / "report.json")
    assert report.relative_l2 < 0.5
    assert (hopf_run / "model.json").exists()
    header = (hopf_run / "pointwise_errors.csv").read_text().splitlines()[0]
    assert header == "x0,x1,err0,err1"


def test_report_roundtrips_with_model(hopf_run):
    # re-evaluating the stored model on the held-out cloud reproduces the report
    report = load_error_report(hopf_run / "report.json")
    model = load_drift_model(hopf_run / "model.json")
    meta = json.loads((hopf_run / "trajectory.meta.json").read_text())
    spec = spec_from_meta(meta)
    from kerneldrift import simulate
    from kerneldrift.systems import default_initial_state

    held = simulate(spec, default_initial_state(spec), n_samples=2000, dt=0.01,
                    seed=meta["seed"] + 1, burn_in=meta["burn_in"],
                    substeps=meta["substeps"])
    again = relative_l2_error(model, system_field(spec), held.points)
    assert abs(again.relative_l2 - report.relative_l2) < 1e-12


def test_sparse_requires_stencil(hopf_run):
    code = run("estimate", "--traj", str(hopf_run / "trajectory.csv"),
               "--estimator", "sparse", "--out", str(hopf_run))
    assert code == 1


def test_estimate_missing_file_is_usage_error(tmp_path):
    assert run("estimate", "--traj", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path)) == 1


def test_compare_empty_model_file_is_usage_error(tmp_path):
    model = tmp_path / "empty.json"
    model.write_text("{}")
    assert run("compare", "--model", str(model), "--system", "hopf",
               "--out", str(tmp_path)) == 1


def test_compare_model_without_coefficients_is_usage_error(hopf_run, tmp_path):
    data = json.loads((hopf_run / "model.json").read_text())
    del data["coefficients"]
    model = tmp_path / "nocoef.json"
    model.write_text(json.dumps(data))
    assert run("compare", "--model", str(model), "--system", "hopf",
               "--out", str(tmp_path)) == 1


def test_estimate_sidecar_without_params_is_usage_error(hopf_run, tmp_path):
    traj = tmp_path / "trajectory.csv"
    traj.write_text((hopf_run / "trajectory.csv").read_text())
    meta = json.loads((hopf_run / "trajectory.meta.json").read_text())
    del meta["params"]
    (tmp_path / "trajectory.meta.json").write_text(json.dumps(meta))
    assert run("estimate", "--traj", str(traj), "--centers", "150",
               "--out", str(tmp_path)) == 1


def test_compare_outputs(hopf_run, tmp_path):
    out = tmp_path / "cmp"
    code = run("compare", "--model", str(hopf_run / "model.json"),
               "--system", "hopf", "--horizon", "2.0", "--x0", "0.95,0",
               "--out", str(out))
    assert code == 0
    lines = (out / "orbits.csv").read_text().splitlines()
    assert lines[0] == "t,true_x0,true_x1,est_x0,est_x1,extrapolated"
    assert len(lines) == 202
    flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert flags.count("0") > 150  # mostly in-distribution


def test_compare_non_finite_start_is_usage_error(hopf_run, tmp_path):
    code = run("compare", "--model", str(hopf_run / "model.json"),
               "--system", "hopf", "--x0", "nan,0", "--out", str(tmp_path))
    assert code == 1


def test_compare_overflowing_start_is_usage_error(hopf_run, tmp_path):
    # every squared distance to the centers overflows: no nearest center
    code = run("compare", "--model", str(hopf_run / "model.json"),
               "--system", "hopf", "--x0", "1e160,0", "--out", str(tmp_path))
    assert code == 1


def test_compare_dimension_mismatch(hopf_run, tmp_path):
    code = run("compare", "--model", str(hopf_run / "model.json"),
               "--system", "lorenz63", "--out", str(tmp_path))
    assert code == 1


def test_numerical_failure_exit_two(tmp_path):
    code = run("simulate", "--system", "lorenz63", "--noise", "0", "--n", "100",
               "--dt", "50.0", "--substeps", "1", "--out", str(tmp_path))
    assert code == 2


def test_config_file_defaults_and_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("system = hopf\nnoise = 0.1\nn = 150\nseed = 2\n# comment\n")
    out = tmp_path / "fromcfg"
    assert run("simulate", "--config", str(config), "--noise", "0.3",
               "--out", str(out)) == 0
    meta = json.loads((out / "trajectory.meta.json").read_text())
    assert meta["sigma_noise"] == 0.3  # flag wins
    assert meta["seed"] == 2  # config supplies the rest
    assert len(load_trajectory(out / "trajectory.csv")[0]) == 150


def test_config_unknown_key_rejected(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("wibble = 3\n")
    assert run("simulate", "--config", str(config), "--system", "hopf",
               "--out", str(tmp_path)) == 1


def test_sweep_small_grid(tmp_path):
    out = tmp_path / "sweep"
    code = run("sweep", "--systems", "hopf", "--n", "1500", "--centers", "100",
               "--out", str(out))
    assert code == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert set(summary) == {"hopf@0.1", "hopf@0.2", "hopf@0.5"}
    for noise in (0.1, 0.2, 0.5):
        cell = out / f"hopf_noise{noise}"
        assert (cell / "report.json").exists()
        assert (cell / "model.json").exists()
