import json
import re

import numpy as np
import pytest

from kerneldrift import CondExpParams, load_trajectory
from kerneldrift.cli import main
from kerneldrift.drift import Stencil, estimate_drift_sparse, extract_snapshots, load_drift_model
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


@pytest.mark.parametrize("option, message", [
    (("--dt", "nan"), "dt must be positive and finite"),
    (("--dt", "inf"), "dt must be positive and finite"),
    (("--noise", "nan"), "sigma_noise must be nonnegative and finite"),
    (("--noise", "inf"), "sigma_noise must be nonnegative and finite"),
])
def test_simulate_non_finite_step_or_noise_is_usage_error(tmp_path, capsys, option, message):
    # rejected up front instead of failing as a blow-up at sample index 1,
    # and before the output directory is made
    out = tmp_path / "out"
    code = run("simulate", "--system", "hopf", "--n", "50", *option, "--out", str(out))
    assert code == 1
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not out.exists()


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


def test_estimate_one_center_is_usage_error(hopf_run, tmp_path, capsys):
    # named as the fit's n_centers, not as a bandwidth check on one point
    out = tmp_path / "out"
    assert run("estimate", "--traj", str(hopf_run / "trajectory.csv"), "--centers", "1",
               "--out", str(out)) == 1
    assert "usage error: n_centers=1" in capsys.readouterr().err
    assert not out.exists()


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


def test_estimate_sidecar_without_params_is_usage_error(hopf_run, tmp_path, capsys):
    # a sidecar without params, or with a null noise level (float(None)
    # raises TypeError), is a usage error and leaves no output directory
    traj = tmp_path / "trajectory.csv"
    traj.write_text((hopf_run / "trajectory.csv").read_text())
    meta = json.loads((hopf_run / "trajectory.meta.json").read_text())
    without_params = {k: v for k, v in meta.items() if k != "params"}
    for key, sidecar in (("params", without_params), ("sigma_noise", {**meta, "sigma_noise": None})):
        (tmp_path / "trajectory.meta.json").write_text(json.dumps(sidecar))
        out = tmp_path / f"out_{key}"
        assert run("estimate", "--traj", str(traj), "--centers", "150",
                   "--out", str(out)) == 1
        sidecar = tmp_path / "trajectory.meta.json"
        assert f"usage error: {sidecar}: metadata sidecar" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("dt", None, "metadata sidecar entry 'dt'"),
    ("burn_in", None, "metadata sidecar entry 'burn_in'"),
    ("substeps", "x", "metadata sidecar entry 'substeps'"),
    ("seed", "abc", "metadata sidecar entry 'seed'"),
    (None, [], "metadata sidecar .* is not a JSON object"),
    # a value the system rejects is named by the sidecar's path
    ("params", {"p": "1.0"},
     r"\S*trajectory\.meta\.json: hopf parameter p must be a finite number, got '1.0'"),
], ids=["dt", "burn_in", "substeps", "seed", "not-an-object", "str-param"])
def test_estimate_sidecar_wrong_type_is_usage_error(hopf_run, tmp_path, capsys, key, value,
                                                    message):
    # a wrong-typed sidecar entry or system constant (by its key), or a
    # sidecar that is no JSON object, is named in a usage error, with no
    # traceback and no output directory
    traj = tmp_path / "trajectory.csv"
    traj.write_text((hopf_run / "trajectory.csv").read_text())
    meta = json.loads((hopf_run / "trajectory.meta.json").read_text())
    sidecar = value if key is None else {**meta, key: value}
    (tmp_path / "trajectory.meta.json").write_text(json.dumps(sidecar))
    out = tmp_path / "out"
    assert run("estimate", "--traj", str(traj), "--centers", "150", "--out", str(out)) == 1
    assert re.search(f"usage error: {message}", capsys.readouterr().err)
    assert not out.exists()


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


@pytest.mark.parametrize("option", [("--dt", "0"), ("--horizon", "inf")])
def test_compare_bad_step_or_horizon_is_usage_error(hopf_run, tmp_path, capsys, option):
    code = run("compare", "--model", str(hopf_run / "model.json"),
               "--system", "hopf", *option, "--out", str(tmp_path))
    assert code == 1
    assert "usage error: dt must be positive" in capsys.readouterr().err


def test_compare_dimension_mismatch(hopf_run, tmp_path):
    code = run("compare", "--model", str(hopf_run / "model.json"),
               "--system", "lorenz63", "--out", str(tmp_path))
    assert code == 1


def test_numerical_failure_exit_two(tmp_path):
    code = run("simulate", "--system", "lorenz63", "--noise", "0", "--n", "100",
               "--dt", "50.0", "--substeps", "1", "--out", str(tmp_path))
    assert code == 2


@pytest.fixture(scope="module")
def l96_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("l96_run")
    assert run("simulate", "--system", "lorenz96", "--cells", "6", "--n", "600",
               "--out", str(out)) == 0
    assert run("estimate", "--traj", str(out / "trajectory.csv"),
               "--stencil-offsets=-2,-1,0,1", "--centers", "100", "--out", str(out)) == 0
    return out


def test_stencil_offsets_fit_the_sparse_estimator(l96_run):
    # the offsets alone select the pooled fit: the library's, bit for bit
    traj, _ = load_trajectory(l96_run / "trajectory.csv")
    expected = estimate_drift_sparse(extract_snapshots(traj, Stencil.cyclic(6)),
                                     CondExpParams(n_centers=100))
    model = load_drift_model(l96_run / "model.json")
    assert model.stencil == expected.stencil
    assert np.array_equal(model.coefficients, expected.coefficients)


def test_compare_takes_lorenz96_cells_from_model(l96_run, tmp_path):
    out = tmp_path / "cmp"
    assert run("compare", "--model", str(l96_run / "model.json"), "--system", "lorenz96",
               "--horizon", "1", "--out", str(out)) == 0
    header = (out / "orbits.csv").read_text().splitlines()[0].split(",")
    assert [c for c in header if c.startswith("true_x")] == [f"true_x{i}" for i in range(6)]


def test_stencil_offsets_take_a_spaced_value(l96_run, tmp_path, capsys):
    # "--stencil-offsets -2,-1,0,1" fits what "--stencil-offsets=-2,-1,0,1"
    # does, though its value starts with "-"; 0,6 is still rejected
    out = tmp_path / "out"
    assert run("estimate", "--traj", str(l96_run / "trajectory.csv"),
               "--stencil-offsets", "-2,-1,0,1", "--centers", "100", "--out", str(out)) == 0
    assert (out / "model.json").read_bytes() == (l96_run / "model.json").read_bytes()
    assert run("estimate", "--traj", str(l96_run / "trajectory.csv"),
               "--stencil-offsets", "0,6", "--out", str(tmp_path / "bad")) == 1
    assert "usage error: Left(0) must hold exactly 2 distinct indices" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_duplicate_stencil_offsets_are_usage_error(l96_run, tmp_path, capsys):
    # offsets 0 and 6 name one and the same cell of the 6-cell lattice
    out = tmp_path / "out"
    assert run("estimate", "--traj", str(l96_run / "trajectory.csv"),
               "--stencil-offsets=0,6", "--out", str(out)) == 1
    assert "usage error: Left(0) must hold exactly 2 distinct indices" in capsys.readouterr().err
    assert not out.exists()


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
    # each cell echoes the options of an `estimate` run with the fit defaults
    cell = out / "hopf_noise0.2"
    fit = CondExpParams()
    assert json.loads((cell / "config.json").read_text()) == {
        "command": "estimate", "out": str(cell), "traj": str(cell / "trajectory.csv"),
        "stencil_offsets": None,
        "eta1": fit.eta1, "eta2": fit.eta2, "eta3": fit.eta3, "delta": fit.delta,
        "centers": 100,
    }


def test_sweep_without_systems_is_usage_error(tmp_path, capsys):
    # an empty system list is rejected before any cell runs or --out is made
    out = tmp_path / "sweep"
    assert run("sweep", "--systems", ",", "--out", str(out)) == 1
    assert "usage error: --systems names no system" in capsys.readouterr().err
    assert not out.exists()
