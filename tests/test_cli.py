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


def _rejected(capsys, out, *argv):
    """Run a command line that must be rejected, with ``--out out`` (the
    empty command line stays empty), and return its stderr: exit code 1, a
    ``usage error:`` without a traceback, and no output directory."""
    assert run(*argv, *(("--out", str(out)) if argv else ())) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert not out.exists()
    return err


def _json(edit):
    """A file edit that maps the file's JSON value through ``edit``."""
    return lambda text: json.dumps(edit(json.loads(text)))


def _copy_run(run_dir, into, edits):
    """Copy a run's trajectory, sidecar and model into ``into``, each file
    through its edit in ``edits`` (one mapped to None is left out), and
    return their paths by the names the rows' messages use."""
    paths = {"traj": into / "trajectory.csv", "meta": into / "trajectory.meta.json",
             "model": into / "model.json"}
    for path in paths.values():
        edit = edits.get(path.name, lambda text: text)
        if edit is not None:
            path.write_text(edit((run_dir / path.name).read_text()))
    return paths


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


@pytest.mark.parametrize("argv, message", [
    pytest.param(("simulate", "--system", "unknown"),
                 "argument --system: invalid choice: 'unknown' "
                 "(choose from 'lorenz63', 'hopf', 'lorenz96')", id="unknown-system"),
    pytest.param(("nonsense",), "argument command: invalid choice: 'nonsense' "
                 "(choose from 'simulate', 'estimate', 'compare', 'sweep')", id="unknown-command"),
    pytest.param((), "the following arguments are required: command", id="no-command"),
    # an empty system list is rejected before any cell runs
    pytest.param(("sweep", "--systems", ","), "--systems names no system: ','", id="no-systems"),
])
def test_rejected_simulate_or_sweep(tmp_path, capsys, argv, message):
    assert _rejected(capsys, tmp_path / "out", *argv) == f"usage error: {message}\n"


@pytest.mark.parametrize("option, message", [
    (("--dt", "nan"), "dt must be a real number in (0, inf), got nan"),
    (("--dt", "inf"), "dt must be a real number in (0, inf), got inf"),
    (("--noise", "nan"), "sigma_noise must be a real number in [0, inf), got nan"),
    (("--noise", "inf"), "sigma_noise must be a real number in [0, inf), got inf"),
    (("--seed", "-1"), "seed must be nonnegative, got -1"),
])
def test_simulate_non_finite_step_or_noise_is_usage_error(tmp_path, capsys, option, message):
    # rejected up front instead of failing as a blow-up at sample index 1
    # (or, for a negative seed, with numpy's bare text), and before the
    # output directory is made
    err = _rejected(capsys, tmp_path / "out", "simulate", "--system", "hopf", "--n", "50",
                    *option)
    assert f"usage error: {message}" in err


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


@pytest.fixture
def no_fit(monkeypatch):
    """Fail the test if ``estimate`` reaches either fit."""
    def fit(*args):
        raise AssertionError("the fit was called")
    for name in ("estimate_drift", "estimate_drift_sparse"):
        monkeypatch.setattr(drift, name, fit)


_META = "trajectory.meta.json"


def _doubled_t(text):
    """The trajectory CSV with its t column stepping by twice the sidecar's dt."""
    header, *rows = text.splitlines()
    doubled = [",".join([repr(2 * float(t)), x]) for t, x in (row.split(",", 1) for row in rows)]
    return "\n".join([header, *doubled]) + "\n"


@pytest.mark.parametrize("source, options, edits, message", [
    # named as the fit's n_centers, not as a bandwidth check on one point
    pytest.param("hopf", ("--centers", "1"), {}, "n_centers must be at least 2, got 1",
                 id="one-center"),
    # an infinite ridge is no ridge
    pytest.param("hopf", ("--delta", "inf"), {},
                 "delta must be a real number in [0, inf), got inf", id="infinite-ridge"),
    pytest.param("hopf", ("--eta2", "0"), {},
                 "eta2 must be a real number in (0, 1), got 0.0", id="zero-eta2"),
    # the Markov operator keeps a fixed 1% of pairs: no option sets it
    pytest.param("hopf", ("--eta3", "0.01"), {}, "unrecognized arguments: --eta3 0.01",
                 id="eta3"),
    # offsets 0 and 6 name one and the same cell of the 6-cell lattice, with
    # "=" or with a space
    pytest.param("l96", ("--stencil-offsets=0,6",), {},
                 "Left(0) must hold exactly 2 distinct indices", id="duplicate-offsets"),
    pytest.param("l96", ("--stencil-offsets", "0,6"), {},
                 "Left(0) must hold exactly 2 distinct indices", id="duplicate-offsets-spaced"),
    pytest.param("hopf", (), {"trajectory.csv": None}, "{traj} not found.",
                 id="missing-file"),
    # a sidecar without params is named by the sidecar's path and the entry
    pytest.param("hopf", (),
                 {_META: _json(lambda meta: {k: v for k, v in meta.items() if k != "params"})},
                 "{meta}: metadata sidecar lacks the 'params' entry", id="sidecar-without-params"),
    # a t column stepping by twice the sidecar's dt is named by both paths
    pytest.param("hopf", (), {"trajectory.csv": _doubled_t},
                 "{traj}: t steps by 0.02 between samples 0 and 1, not by dt = 0.01 from {meta}",
                 id="t-off-dt"),
    # a 2-column Hopf CSV whose sidecar names Lorenz 63 is named by the
    # sidecar's path, not after the fit by the scorer
    pytest.param("hopf", (),
                 {_META: _json(lambda meta: {**meta, "system": "lorenz63", "params": {
                     "sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0}})},
                 "{meta}: system 'lorenz63' has dimension 3, but {traj} holds 2 coordinates",
                 id="another-system"),
])
def test_rejected_estimate(hopf_run, l96_run, tmp_path, capsys, no_fit, source, options, edits,
                           message):
    # each row runs `estimate` on a copy of a run's files, edited, and is
    # rejected before the fit
    paths = _copy_run({"hopf": hopf_run, "l96": l96_run}[source], tmp_path, edits)
    err = _rejected(capsys, tmp_path / "out", "estimate", "--traj", str(paths["traj"]), *options)
    assert err == f"usage error: {message.format(**paths)}\n"


_WRONG_TYPE = "metadata sidecar has an entry of the wrong type: "


@pytest.mark.parametrize("key, value, message", [
    ("dt", None, _WRONG_TYPE + "dt must be a real number in (0, inf), got None"),
    ("burn_in", None, _WRONG_TYPE + "burn_in must be an integer, got None"),
    ("substeps", "x", _WRONG_TYPE + "substeps must be an integer, got 'x'"),
    ("seed", "abc", _WRONG_TYPE + "seed must be an integer, got 'abc'"),
    (None, [], "metadata sidecar is not a JSON object"),
    ("params", {"p": "1.0"},
     _WRONG_TYPE + "hopf parameter p must be a real number in (-inf, inf), got '1.0'"),
    ("dt", float("inf"), "dt must be a real number in (0, inf), got inf"),
    ("seed", -5, "seed must be nonnegative, got -5"),
    ("burn_in", -1, "burn_in must be nonnegative, got -1"),
    ("substeps", 0, "substeps must be at least 1, got 0"),
    # float(None) raises TypeError
    ("sigma_noise", None, _WRONG_TYPE + "sigma_noise must be a real number in [0, inf), got None"),
    ("sigma_noise", "x", _WRONG_TYPE + "sigma_noise must be a real number in [0, inf), got 'x'"),
    # an integral step beyond float range is out of range, not an OverflowError
    ("dt", 10**400, f"dt must be a real number in (0, inf), got {10**400}"),
], ids=["dt", "burn_in", "substeps", "seed", "not-an-object", "str-param", "inf-dt",
        "negative-seed", "negative-burn_in", "zero-substeps", "null-sigma_noise",
        "string-sigma_noise", "huge-dt"])
def test_estimate_sidecar_wrong_type_is_usage_error(hopf_run, tmp_path, capsys, no_fit, key,
                                                    value, message):
    # a wrong-typed or out-of-range sidecar entry or system constant (by its
    # key), or a sidecar that is no JSON object, is a usage error that names
    # the sidecar's path, raised before the fit
    edit = _json(lambda meta: value if key is None else {**meta, key: value})
    paths = _copy_run(hopf_run, tmp_path, {_META: edit})
    err = _rejected(capsys, tmp_path / "out", "estimate", "--traj", str(paths["traj"]),
                    "--centers", "150")
    assert err == f"usage error: {paths['meta']}: {message}\n"


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
    def edited(meta):
        edit(meta)
        return meta
    paths = _copy_run(hopf_run, tmp_path, {_META: _json(edited)})
    err = _rejected(capsys, tmp_path / "out", "estimate", "--traj", str(paths["traj"]),
                    "--centers", "150")
    assert err == f"usage error: {paths['traj']}: its metadata sidecar records no {key!r}\n"


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
    # that names the CSV's path, with no warning (numpy warns on a file with
    # no data rows)
    paths = _copy_run(hopf_run, tmp_path,
                      {"trajectory.csv": lambda text: "\n".join(edit(text.splitlines()))})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _rejected(capsys, tmp_path / "out", "estimate", "--traj", str(paths["traj"]),
                        "--centers", "150")
    assert f"usage error: {paths['traj']}: {message}" in err
    assert "Warning" not in err


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


def _kernel_entry(key, value):
    """A model-file edit that sets one entry of the kernel."""
    return {"model.json": _json(lambda model: {**model,
                                               "kernel": {**model["kernel"], key: value}})}


def _string_coefficient(model):
    model["coefficients"][0][0] = "0.5"
    return model


_WRONG_MODEL = "{model}: drift model file has an entry of the wrong type: "


@pytest.mark.parametrize("options, edits, message", [
    pytest.param(("--system", "hopf"), {"model.json": lambda text: "{}"},
                 "{model}: drift model file lacks the 'kernel' entry", id="empty-object"),
    pytest.param(("--system", "hopf"), {"model.json": lambda text: "[]"},
                 _WRONG_MODEL + "list indices must be integers or slices, not str",
                 id="list-file"),
    pytest.param(("--system", "hopf"), {"model.json": lambda text: text[:100]},
                 "{model}: Expecting ',' delimiter: line 1 column 101 (char 100)",
                 id="truncated"),
    pytest.param(("--system", "hopf"), {"model.json": _json(
                     lambda model: {k: v for k, v in model.items() if k != "coefficients"})},
                 "{model}: drift model file lacks the 'coefficients' entry",
                 id="no-coefficients"),
    # a coefficient written as a string is not coerced
    pytest.param(("--system", "hopf"), {"model.json": _json(_string_coefficient)},
                 _WRONG_MODEL + "the coefficients hold '0.5', which is no number",
                 id="string-coefficient"),
    pytest.param(("--system", "hopf"), _kernel_entry("epsilon", None),
                 _WRONG_MODEL + "epsilon must be a real number in (0, inf), got None",
                 id="null-epsilon"),
    pytest.param(("--system", "hopf"), _kernel_entry("epsilon", "x"),
                 _WRONG_MODEL + "epsilon must be a real number in (0, inf), got 'x'",
                 id="string-epsilon"),
    # every kernel thresholds at 1e-14: a file that records another threshold
    pytest.param(("--system", "hopf"), _kernel_entry("theta_zero", 1e-10),
                 "{model}: theta_zero must be THETA_ZERO = 1e-14, got 1e-10", id="theta_zero"),
    pytest.param(("--system", "hopf", "--x0", "nan,0"), {},
                 "x0 must be finite, got [nan, 0.0]", id="nan-start"),
    # every squared distance to the centers overflows: no nearest center
    pytest.param(("--system", "hopf", "--x0", "1e160,0"), {},
                 "query point 0 is too far from every center (squared distances overflow): "
                 "[1e+160, 0.0]", id="overflowing-start"),
    # both values are finite, but their ratio overflows
    pytest.param(("--system", "hopf", "--horizon", "1e300", "--dt", "1e-300"), {},
                 "horizon / dt must be a finite step count, got horizon=1e+300, dt=1e-300",
                 id="overflowing-step-count"),
    # compare_orbits' own check
    pytest.param(("--system", "lorenz63"), {}, "model dimension 2 != system dimension 3",
                 id="dimension-mismatch"),
])
def test_rejected_compare(hopf_run, tmp_path, capsys, options, edits, message):
    # each row runs `compare` on a copy of the Hopf run's model file, edited;
    # a file's error is named by its path
    paths = _copy_run(hopf_run, tmp_path, edits)
    err = _rejected(capsys, tmp_path / "out", "compare", "--model", str(paths["model"]), *options)
    assert err == f"usage error: {message.format(**paths)}\n"


@pytest.mark.parametrize("option", [("--dt", "0"), ("--horizon", "inf")])
def test_compare_bad_step_or_horizon_is_usage_error(hopf_run, tmp_path, capsys, option):
    err = _rejected(capsys, tmp_path / "out", "compare", "--model", str(hopf_run / "model.json"),
                    "--system", "hopf", *option)
    message = ("dt must be a real number in (0, inf), got 0.0" if option[0] == "--dt"
               else "horizon must be a real number in (-inf, inf), got inf")
    assert f"usage error: {message}" in err


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


def test_stencil_offsets_take_a_spaced_value(l96_run, tmp_path):
    # "--stencil-offsets -2,-1,0,1" fits what "--stencil-offsets=-2,-1,0,1"
    # does, though its value starts with "-" (test_rejected_estimate rejects
    # a spaced 0,6)
    out = tmp_path / "out"
    assert run("estimate", "--traj", str(l96_run / "trajectory.csv"),
               "--stencil-offsets", "-2,-1,0,1", "--centers", "100", "--out", str(out)) == 0
    assert (out / "model.json").read_bytes() == (l96_run / "model.json").read_bytes()


@pytest.mark.parametrize("option", [("--stencil", "-2,-1,0,1"), ("--stencil=-2,-1,0,1",),
                                    ("--stencil-offsets", "-2,-1,0,1", "--cent", "100")])
def test_abbreviated_options_are_usage_error(l96_run, tmp_path, capsys, option):
    # an option is spelled in full: the prefix --stencil would not take a
    # spaced value that starts with "-", so no prefix is accepted
    err = _rejected(capsys, tmp_path / "out", "estimate", "--traj",
                    str(l96_run / "trajectory.csv"), *option)
    assert "usage error: unrecognized arguments: --" in err


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


@pytest.mark.parametrize("args, message", [
    (["--systems", "hopf", "--n", "100", "--centers", "500"],
     "n_centers=500 exceeds the number of inputs 97"),
    (["--centers", "1"], "n_centers must be at least 2, got 1"),
    # the 5-cell Lorenz 96 lattice gives (2000 - 3) * 5 = 9985 records
    (["--centers", "9990"], "n_centers=9990 exceeds the number of inputs 9985"),
    (["--systems", "hopf,lorenz"], "unknown system 'lorenz'"),
    (["--systems", "hopf", "--n", "2"], "n_samples must be at least 4, got 2"),
], ids=["hopf-inputs", "one-center", "l96-records", "unknown-system", "few-samples"])
def test_rejected_sweep_runs_no_cell(tmp_path, capsys, args, message):
    # the systems and every cell's fit are checked before the first cell runs
    # or --out is made
    assert _rejected(capsys, tmp_path / "sweep", "sweep", *args).startswith(
        f"usage error: {message}")
