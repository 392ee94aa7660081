import json
import warnings

import numpy as np
import pytest

from kerneldrift import CondExpParams, load_trajectory
from kerneldrift import drift
from kerneldrift.cli import main
from kerneldrift.drift import Stencil, estimate_drift_sparse, extract_snapshots, load_drift_model
from kerneldrift.evaluation import relative_l2_error, system_field


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
    traj = load_trajectory(out / "trajectory.csv")
    assert traj.spec.name == "hopf" and traj.seed == 7
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
    traj = load_trajectory(out / "trajectory.csv")
    assert traj.spec.sigma_noise == 0.0
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
    (("--seed", "-1"), "seed must be nonnegative, got -1"),
])
def test_simulate_non_finite_step_or_noise_is_usage_error(tmp_path, capsys, option, message):
    # rejected up front instead of failing as a blow-up at sample index 1
    # (or, for a negative seed, with numpy's bare text), and before the
    # output directory is made
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
    report = json.loads((hopf_run / "report.json").read_text())
    assert report["relative_l2"] < 0.5
    assert (hopf_run / "model.json").exists()
    header = (hopf_run / "pointwise_errors.csv").read_text().splitlines()[0]
    assert header == "x0,x1,err0,err1"


def test_report_roundtrips_with_model(hopf_run):
    # re-evaluating the stored model on the held-out cloud reproduces the report
    report = json.loads((hopf_run / "report.json").read_text())
    model = load_drift_model(hopf_run / "model.json")
    traj = load_trajectory(hopf_run / "trajectory.csv")
    from kerneldrift import simulate
    from kerneldrift.systems import default_initial_state

    held = simulate(traj.spec, default_initial_state(traj.spec), n_samples=2000, dt=0.01,
                    seed=traj.seed + 1, burn_in=traj.burn_in, substeps=traj.substeps)
    again = relative_l2_error(model, system_field(traj.spec), held.points)
    assert abs(again.relative_l2 - report["relative_l2"]) < 1e-12


def test_estimate_one_center_is_usage_error(hopf_run, tmp_path, capsys):
    # named as the fit's n_centers, not as a bandwidth check on one point
    out = tmp_path / "out"
    assert run("estimate", "--traj", str(hopf_run / "trajectory.csv"), "--centers", "1",
               "--out", str(out)) == 1
    assert "usage error: n_centers must be at least 2, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_eta3_is_usage_error(hopf_run, tmp_path, capsys):
    # the Markov operator keeps a fixed 1% of pairs: no option sets it
    out = tmp_path / "out"
    assert run("estimate", "--traj", str(hopf_run / "trajectory.csv"), "--eta3", "0.01",
               "--out", str(out)) == 1
    assert "usage error: unrecognized arguments: --eta3 0.01" in capsys.readouterr().err
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


@pytest.fixture
def no_fit(monkeypatch):
    """Fail the test if ``estimate`` reaches the fit."""
    def fit(*args):
        raise AssertionError("estimate_drift was called")
    monkeypatch.setattr(drift, "estimate_drift", fit)


def test_estimate_sidecar_without_params_is_usage_error(hopf_run, tmp_path, capsys, no_fit):
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
    ("dt", None, "metadata sidecar entry 'dt' has the wrong type: None"),
    ("burn_in", None, "metadata sidecar entry 'burn_in' has the wrong type: None"),
    ("substeps", "x", "metadata sidecar entry 'substeps' has the wrong type: 'x'"),
    ("seed", "abc", "metadata sidecar entry 'seed' has the wrong type: 'abc'"),
    (None, [], "metadata sidecar is not a JSON object"),
    ("params", {"p": "1.0"}, "hopf parameter p must be a finite number, got '1.0'"),
    ("dt", float("inf"), "dt must be positive and finite, got inf"),
    ("seed", -5, "metadata sidecar entry 'seed' must be at least 0, got -5"),
    ("burn_in", -1, "metadata sidecar entry 'burn_in' must be at least 0, got -1"),
    ("substeps", 0, "metadata sidecar entry 'substeps' must be at least 1, got 0"),
], ids=["dt", "burn_in", "substeps", "seed", "not-an-object", "str-param", "inf-dt",
        "negative-seed", "negative-burn_in", "zero-substeps"])
def test_estimate_sidecar_wrong_type_is_usage_error(hopf_run, tmp_path, capsys, no_fit, key,
                                                    value, message):
    # a wrong-typed or out-of-range sidecar entry or system constant (by its
    # key), or a sidecar that is no JSON object, is a usage error that names
    # the sidecar's path, raised before the fit, with no traceback and no
    # output directory
    traj = tmp_path / "trajectory.csv"
    traj.write_text((hopf_run / "trajectory.csv").read_text())
    meta = json.loads((hopf_run / "trajectory.meta.json").read_text())
    sidecar = value if key is None else {**meta, key: value}
    (tmp_path / "trajectory.meta.json").write_text(json.dumps(sidecar))
    out = tmp_path / "out"
    assert run("estimate", "--traj", str(traj), "--centers", "150", "--out", str(out)) == 1
    meta_path = tmp_path / "trajectory.meta.json"
    assert f"usage error: {meta_path}: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_t_column_off_dt_is_usage_error(hopf_run, tmp_path, capsys, no_fit):
    # a t column stepping by twice the sidecar's dt is rejected before the
    # fit, named by both paths, and leaves no output directory
    traj = tmp_path / "trajectory.csv"
    header, *rows = (hopf_run / "trajectory.csv").read_text().splitlines()
    doubled = [",".join([repr(2 * float(row.split(",", 1)[0])), row.split(",", 1)[1]])
               for row in rows]
    traj.write_text("\n".join([header, *doubled]) + "\n")
    meta_path = tmp_path / "trajectory.meta.json"
    meta_path.write_text((hopf_run / "trajectory.meta.json").read_text())
    out = tmp_path / "out"
    assert run("estimate", "--traj", str(traj), "--centers", "150", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {traj}: t steps by ") and f"from {meta_path}\n" in err
    assert not out.exists()


@pytest.mark.parametrize("key, edit", [
    ("system", lambda meta: meta.pop("system")),
    ("seed", lambda meta: meta.pop("seed")),
    ("burn_in", lambda meta: meta.pop("burn_in")),
    ("substeps", lambda meta: meta.pop("substeps")),
    ("seed", lambda meta: meta.update(seed=None)),
], ids=["system", "seed", "burn_in", "substeps", "null-seed"])
def test_estimate_sidecar_without_held_out_setting_is_usage_error(hopf_run, tmp_path, capsys,
                                                                  no_fit, key, edit):
    # the held-out path repeats the recorded run with the next seed; a
    # sidecar that does not record it is rejected before the fit, named by
    # the trajectory's path, instead of scoring against a guessed run
    traj = tmp_path / "trajectory.csv"
    traj.write_text((hopf_run / "trajectory.csv").read_text())
    meta = json.loads((hopf_run / "trajectory.meta.json").read_text())
    edit(meta)
    (tmp_path / "trajectory.meta.json").write_text(json.dumps(meta))
    out = tmp_path / "out"
    assert run("estimate", "--traj", str(traj), "--centers", "150", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: {traj}: its metadata sidecar records no {key!r}\n"
    assert not out.exists()


def test_estimate_sidecar_naming_another_system_is_usage_error(hopf_run, tmp_path, capsys,
                                                                no_fit):
    # a 2-column Hopf CSV whose sidecar names Lorenz 63 is rejected before
    # the fit, named by the sidecar's path, not after it by the scorer
    traj = tmp_path / "trajectory.csv"
    traj.write_text((hopf_run / "trajectory.csv").read_text())
    meta = json.loads((hopf_run / "trajectory.meta.json").read_text())
    meta.update(system="lorenz63", params={"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0})
    sidecar = tmp_path / "trajectory.meta.json"
    sidecar.write_text(json.dumps(meta))
    out = tmp_path / "out"
    assert run("estimate", "--traj", str(traj), "--centers", "150", "--out", str(out)) == 1
    assert capsys.readouterr().err == (f"usage error: {sidecar}: system 'lorenz63' has "
                                       f"dimension 3, but {traj} holds 2 coordinates\n")
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda rows: rows[:2] + ["0.02,abc,0.0"] + rows[3:],
     "could not convert string 'abc' to float"),
    (lambda rows: rows[:2] + ["0.02,1.0"] + rows[3:], "the number of columns changed from 3 to 2"),
    (lambda rows: rows[:2] + ["0.02,nan,0.0"] + rows[3:],
     "trajectory contains non-finite points\n"),
    (lambda rows: rows[:4], "trajectory needs at least 4 samples, got 3\n"),
    (lambda rows: rows[:1], "expected columns t,x0,... got shape (0, 1)\n"),
], ids=["non-numeric", "ragged", "nan", "three-rows", "header-only"])
def test_estimate_bad_trajectory_csv_is_usage_error(hopf_run, tmp_path, capsys, edit, message):
    # a CSV that does not parse or holds no valid trajectory is a usage error
    # that names the CSV's path, with no traceback, no warning (numpy warns
    # on a file with no data rows) and no output directory
    traj = tmp_path / "trajectory.csv"
    traj.write_text("\n".join(edit((hopf_run / "trajectory.csv").read_text().splitlines())))
    (tmp_path / "trajectory.meta.json").write_text(
        (hopf_run / "trajectory.meta.json").read_text())
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("estimate", "--traj", str(traj), "--centers", "150", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"usage error: {traj}: {message}" in err
    assert "Warning" not in err
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
    message = "dt must be positive" if option[0] == "--dt" else "horizon must be finite, got inf"
    assert f"usage error: {message}" in capsys.readouterr().err


def test_compare_overflowing_step_count_is_usage_error(hopf_run, tmp_path, capsys):
    # both values are finite, but their ratio overflows: no traceback
    out = tmp_path / "out"
    code = run("compare", "--model", str(hopf_run / "model.json"), "--system", "hopf",
               "--horizon", "1e300", "--dt", "1e-300", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("usage error: horizon / dt must be a finite step count, "
                   "got horizon=1e+300, dt=1e-300\n")
    assert not out.exists()


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
    traj = load_trajectory(l96_run / "trajectory.csv")
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


@pytest.mark.parametrize("option", [("--stencil", "-2,-1,0,1"), ("--stencil=-2,-1,0,1",),
                                    ("--stencil-offsets", "-2,-1,0,1", "--cent", "100")])
def test_abbreviated_options_are_usage_error(l96_run, tmp_path, capsys, option):
    # an option is spelled in full: the prefix --stencil would not take a
    # spaced value that starts with "-", so no prefix is accepted
    out = tmp_path / "out"
    assert run("estimate", "--traj", str(l96_run / "trajectory.csv"), *option,
               "--out", str(out)) == 1
    assert "usage error: unrecognized arguments: --" in capsys.readouterr().err
    assert not out.exists()


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
        "eta1": fit.eta1, "eta2": fit.eta2, "delta": fit.delta,
        "centers": 100,
    }


def test_sweep_without_systems_is_usage_error(tmp_path, capsys):
    # an empty system list is rejected before any cell runs or --out is made
    out = tmp_path / "sweep"
    assert run("sweep", "--systems", ",", "--out", str(out)) == 1
    assert "usage error: --systems names no system" in capsys.readouterr().err
    assert not out.exists()
