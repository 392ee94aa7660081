import json
import re

import numpy as np
import pytest

from kerneldrift import (
    CondExpParams,
    NumericalError,
    Stencil,
    compare_orbits,
    estimate_drift,
    estimate_drift_sparse,
    eval_drift,
    extract_snapshots,
    make_spec,
    pointwise_errors,
    predict_drift_many,
    relative_l2_error,
    simulate,
    system_field,
)
from kerneldrift import drift, systems
from kerneldrift.drift import DriftModel
from kerneldrift.kernels import _BLOCK_ROWS, section_matrix
from kerneldrift.evaluation import (
    OrbitComparison,
    save_error_report,
    save_orbit_comparison,
    save_pointwise_errors,
)
from kerneldrift.systems import Trajectory, save_trajectory
from test_kernels import section_oracle


@pytest.fixture(scope="module")
def hopf_setup():
    spec = make_spec("hopf", sigma_noise=0.1)
    traj = simulate(spec, [2.0, 0.0], n_samples=4000, dt=0.01, seed=3,
                    burn_in=100, substeps=10)
    model = estimate_drift(traj, CondExpParams(n_centers=250))
    held = simulate(spec, [2.0, 0.0], n_samples=1500, dt=0.01, seed=4,
                    burn_in=100, substeps=10)
    return spec, model, held


def test_perfect_model_zero_error():
    spec = make_spec("lorenz63")
    pts = np.random.default_rng(0).normal(size=(50, 3))
    report = relative_l2_error(system_field(spec), system_field(spec), pts)
    assert report.relative_l2 == 0.0
    assert report.n_test == 50
    assert report.extrapolated_fraction == 0.0


def test_zero_model_unit_error():
    spec = make_spec("lorenz63")
    pts = np.random.default_rng(1).normal(size=(30, 3))
    zero = lambda points: np.zeros_like(np.asarray(points))
    report = relative_l2_error(zero, system_field(spec), pts)
    assert abs(report.relative_l2 - 1.0) < 1e-15


def test_scale_invariance():
    spec = make_spec("hopf")
    pts = np.random.default_rng(2).normal(size=(40, 2))
    noisy = lambda points: eval_drift(spec, points) * 1.03
    base = relative_l2_error(noisy, system_field(spec), pts).relative_l2
    scale = 17.5
    scaled_pred = lambda points: eval_drift(spec, points) * 1.03 * scale
    scaled_truth = lambda points: eval_drift(spec, points) * scale
    again = relative_l2_error(scaled_pred, scaled_truth, pts).relative_l2
    assert abs(base - again) < 1e-12


def test_permutation_invariance():
    spec = make_spec("hopf")
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(60, 2))
    biased = lambda points: eval_drift(spec, points) + 0.1
    a = relative_l2_error(biased, system_field(spec), pts).relative_l2
    b = relative_l2_error(biased, system_field(spec), pts[rng.permutation(60)]).relative_l2
    assert abs(a - b) < 1e-12


def test_zero_truth_rejected():
    zero = lambda points: np.zeros_like(np.asarray(points))
    with pytest.raises(ValueError):
        relative_l2_error(zero, zero, np.ones((5, 2)))


def test_pointwise_errors_perfect_and_biased():
    spec = make_spec("hopf")
    pts = np.random.default_rng(4).normal(size=(25, 2))
    perfect = pointwise_errors(system_field(spec), system_field(spec), pts)
    np.testing.assert_array_equal(perfect, np.zeros((25, 2)))
    biased = lambda points: eval_drift(spec, points) + np.array([0.0, 0.7])
    table = pointwise_errors(biased, system_field(spec), pts)
    np.testing.assert_allclose(table[:, 0], 0.0, atol=1e-15)
    np.testing.assert_allclose(table[:, 1], 0.7, atol=1e-12)


def test_mis_shaped_truth_rejected_not_broadcast():
    # an (n, 1) truth against an (n, 2) prediction: the table and the report
    # reject it alike, rather than broadcast it to (n, 2)
    spec = make_spec("hopf")
    pts = np.random.default_rng(5).normal(size=(5, 2))
    column = lambda points: eval_drift(spec, points)[:, :1]
    message = re.escape("field shapes differ: (5, 2) vs (5, 1)")
    with pytest.raises(ValueError, match=message):
        pointwise_errors(system_field(spec), column, pts)
    with pytest.raises(ValueError, match=message):
        relative_l2_error(system_field(spec), column, pts)


def test_hopf_error_concentrates_off_cycle(hopf_setup):
    spec, model, _ = hopf_setup
    angles = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    ring = lambda r: np.stack([r * np.cos(angles), r * np.sin(angles)], axis=1)
    pts = np.vstack([ring(1.0), ring(1.6)])
    table = pointwise_errors(model, system_field(spec), pts)
    worst = np.argmax(table.sum(axis=1))
    radius = np.linalg.norm(pts[worst])
    assert abs(radius - 1.0) > 0.3


def test_report_roundtrip(tmp_path, hopf_setup):
    spec, model, held = hopf_setup
    report = relative_l2_error(model, system_field(spec), held.points)
    path = tmp_path / "report.json"
    save_error_report(report, path)
    loaded = json.loads(path.read_text())
    assert loaded["relative_l2"] == report.relative_l2
    np.testing.assert_array_equal(loaded["per_coordinate_rmse"], report.per_coordinate_rmse)
    assert loaded["n_test"] == report.n_test
    assert loaded["extrapolated_fraction"] == report.extrapolated_fraction


def test_pointwise_csv(tmp_path):
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    errs = np.array([[0.1, 0.2], [0.3, 0.4]])
    path = tmp_path / "pw.csv"
    save_pointwise_errors(path, pts, errs)
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,x1,err0,err1"
    assert len(lines) == 3


class TestCompareOrbits:
    def test_oracle_injection_matches_simulate(self):
        # at sigma = 0 the true orbit is simulate's path, bit for bit
        _, _, model = fitted_model("lorenz63")
        spec = make_spec("lorenz63", sigma_noise=0.0)
        x0 = np.array([1.0, 1.0, 1.0])
        comparison = compare_orbits(spec, model, x0, horizon=1.0, dt=0.01)
        reference = simulate(spec, x0, n_samples=101, dt=0.01, seed=0,
                             burn_in=0, substeps=1)
        np.testing.assert_array_equal(comparison.true_orbit.points, reference.points)

    def test_hopf_orbits_stay_near_cycle(self, hopf_setup):
        spec, model, _ = hopf_setup
        comparison = compare_orbits(spec, model, np.array([1.0, 0.0]),
                                    horizon=10.0, dt=0.01)
        for orbit in (comparison.true_orbit, comparison.estimated_orbit):
            radii = np.linalg.norm(orbit.points, axis=1)
            assert np.abs(radii - 1.0).max() < 0.2

    def test_blowup_reported(self):
        # the true Euler orbit of Lorenz 63 diverges at dt = 0.1
        spec, _, model = fitted_model("lorenz63")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError,
                               match="non-finite state encountered at sample index 19"):
                compare_orbits(spec, model, np.ones(3), horizon=5.0, dt=0.1)

    def test_csv_export(self, tmp_path, hopf_setup):
        spec, model, _ = hopf_setup
        comparison = compare_orbits(spec, model, np.array([1.0, 0.0]),
                                    horizon=0.5, dt=0.01)
        path = tmp_path / "orbits.csv"
        save_orbit_comparison(comparison, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,true_x0,true_x1,est_x0,est_x1,extrapolated"
        assert len(lines) == 52

    def test_dimension_mismatch(self, hopf_setup):
        _, model, _ = hopf_setup
        spec3 = make_spec("lorenz63")
        with pytest.raises(ValueError, match=re.escape(
                "model dimension 2 != system dimension 3")):
            compare_orbits(spec3, model, np.ones(3), horizon=1.0, dt=0.01)

    def test_callable_model_rejected_before_any_step(self, monkeypatch):
        # orbits integrate a fitted model only: a callable is a TypeError
        # named by its type, before either field is evaluated
        spec = make_spec("lorenz63", sigma_noise=0.0)
        monkeypatch.setattr(systems, "_drift", unreachable_drift)

        def oracle(points):
            raise AssertionError("a field was evaluated")

        with pytest.raises(TypeError, match="model must be a DriftModel, got function"):
            compare_orbits(spec, oracle, np.ones(3), horizon=1.0, dt=0.01)

    @pytest.mark.parametrize("horizon, dt", [
        (1.0, 0.0), (1.0, -0.01), (1.0, np.nan), (1.0, np.inf),
        (np.inf, 0.01), (np.nan, 0.01), (True, 0.01),
    ])
    def test_bad_step_or_horizon_rejected(self, horizon, dt):
        # a JSON true is no horizon of 1.0
        spec, _, model = fitted_model("lorenz63")
        message = ("dt must be positive" if horizon is not True and np.isfinite(horizon)
                   else f"horizon must be finite, got {horizon}")
        with pytest.raises(ValueError, match=message):
            compare_orbits(spec, model, np.ones(3), horizon=horizon, dt=dt)

    def test_string_horizon_rejected(self):
        # Python's own message for a string where a real number is needed
        spec, _, model = fitted_model("lorenz63")
        with pytest.raises(TypeError, match="must be real number, not str"):
            compare_orbits(spec, model, np.ones(3), horizon="1.0", dt=0.01)

    def test_overflowing_step_count_rejected(self):
        # both values are finite, but 1e300 / 1e-300 is no step count
        spec, _, model = fitted_model("lorenz63")
        with pytest.raises(ValueError, match=re.escape(
                "horizon / dt must be a finite step count, got horizon=1e+300, dt=1e-300")):
            compare_orbits(spec, model, np.ones(3), horizon=1e300, dt=1e-300)

    def test_bool_step_rejected_before_any_step(self, monkeypatch):
        # a JSON true is no step of 1, which diverges on Lorenz 63: the
        # argument is rejected before either field is evaluated
        spec, _, model = fitted_model("lorenz63")

        def unreachable(*args):
            raise AssertionError("a field was evaluated")

        monkeypatch.setattr(drift, "_expansion", unreachable)
        monkeypatch.setattr(systems, "_drift", unreachable_drift)
        with pytest.raises(ValueError, match=re.escape(
                "dt must be positive and finite, got True")):
            compare_orbits(spec, model, np.ones(3), horizon=50.0, dt=True)


def unreachable_drift(spec):
    """A stand-in for ``systems._drift`` whose field fails when stepped."""
    def field(*x):
        raise AssertionError("the true field was stepped")
    return field


def reference_orbits(spec, model, x0, horizon, dt):
    """The orbit loop with numpy ``eval_drift`` steps for the true field and
    the estimated field's section rows, fallback included, from the dense
    ``cdist`` oracle."""
    n_steps = int(round(horizon / dt))
    true_points = np.empty((n_steps + 1, spec.dimension))
    est_points = np.empty((n_steps + 1, spec.dimension))
    flags = np.zeros(n_steps + 1, dtype=bool)
    true_points[0] = est_points[0] = x0
    xt, xe = x0.copy(), x0.copy()
    for k in range(1, n_steps + 1):
        points = xe[None, :] if model.stencil is None else xe[np.array(model.stencil.left)]
        sections, flag = section_oracle(model.kernel, points)
        xe = xe + (sections * model.coefficients).sum(axis=1) * dt
        xt = xt + eval_drift(spec, xt) * dt
        true_points[k], est_points[k], flags[k] = xt, xe, flag.any()
    return true_points, est_points, flags


@pytest.mark.parametrize("system, x0", [
    ("hopf", [2.5, -2.0]),
    ("lorenz63", [30.0, -30.0, 60.0]),
    ("lorenz96", [12.0, -9.0, 8.0, 13.0, -8.0]),
])
def test_orbits_off_the_data_match_reference_loop(system, x0):
    spec, _, model = fitted_model(system)
    x0 = np.array(x0)
    comparison = compare_orbits(spec, model, x0, horizon=1.0, dt=0.01)
    true_points, est_points, flags = reference_orbits(spec, model, x0, 1.0, 0.01)
    assert flags.any()
    np.testing.assert_array_equal(comparison.true_orbit.points, true_points)
    np.testing.assert_array_equal(comparison.estimated_orbit.points, est_points)
    np.testing.assert_array_equal(comparison.extrapolated, flags)


def fitted_model(system):
    """A small fit of ``system`` (the shared unit on a cyclic stencil for
    Lorenz 96) and the path it was fitted on."""
    spec = make_spec(system, sigma_noise=0.1)
    start = [2.0, 0.0] if system == "hopf" else spec.dimension * [1.0]
    traj = simulate(spec, start, n_samples=1000, dt=0.01, seed=8, burn_in=100, substeps=5)
    params = CondExpParams(n_centers=120)
    if system == "lorenz96":
        return spec, traj, estimate_drift_sparse(extract_snapshots(traj, Stencil.cyclic(5)),
                                                 params)
    return spec, traj, estimate_drift(traj, params)


@pytest.mark.parametrize("system", ["hopf", "lorenz63", "lorenz96"])
def test_orbits_on_the_data_match_reference_loop(system):
    # started on the training path, most steps evaluate the fitted sections
    # rather than the fallback rows
    spec, traj, model = fitted_model(system)
    x0 = traj.points[500]
    comparison = compare_orbits(spec, model, x0, horizon=1.0, dt=0.01)
    true_points, est_points, flags = reference_orbits(spec, model, x0, 1.0, 0.01)
    assert not flags[1:].all()
    np.testing.assert_array_equal(comparison.true_orbit.points, true_points)
    np.testing.assert_array_equal(comparison.estimated_orbit.points, est_points)
    np.testing.assert_array_equal(comparison.extrapolated, flags)


def test_wide_stencil_orbit_goes_in_row_blocks(monkeypatch):
    # a Lorenz 96 lattice of more than _BLOCK_ROWS cells: each orbit step's
    # records reach the sections one row block at a time, and the orbit is
    # still the reference loop's
    spec, traj, fitted = fitted_model("lorenz96")
    cells = _BLOCK_ROWS + 88  # a multiple of 5
    model = DriftModel(kernel=fitted.kernel, coefficients=fitted.coefficients,
                       stencil=Stencil.cyclic(cells))
    spec = make_spec("lorenz96", N=cells, sigma_noise=0.1)
    # a state of the fitted 5-cell lattice repeated, so its records lie near
    # the data, each cell nudged apart
    x0 = np.tile(traj.points[500], cells // 5) + 0.01 * np.random.default_rng(9).normal(size=cells)
    blocks = []
    sections = drift.section_matrix
    monkeypatch.setattr(drift, "section_matrix",
                        lambda kernel, records: blocks.append(len(records))
                        or sections(kernel, records))
    comparison = compare_orbits(spec, model, x0, horizon=0.03, dt=0.01)
    assert blocks == 3 * [_BLOCK_ROWS, 88]
    true_points, est_points, flags = reference_orbits(spec, model, x0, 0.03, 0.01)
    # a step's flag is any of its records'; some records of the start lie on the data
    assert not section_matrix(model.kernel, model.stencil.records(x0[None, :]))[1].all()
    np.testing.assert_array_equal(comparison.true_orbit.points, true_points)
    np.testing.assert_array_equal(comparison.estimated_orbit.points, est_points)
    np.testing.assert_array_equal(comparison.extrapolated, flags)


def test_orbit_start_too_far_out_rejected_before_any_step(hopf_setup, monkeypatch):
    # the model rejects the start, with predict_drift_many's message, before
    # the true field is stepped
    spec, model, _ = hopf_setup
    monkeypatch.setattr(systems, "_drift", unreachable_drift)
    with pytest.raises(ValueError, match="query point 0 is too far from every center"):
        predict_drift_many(model, [[1e200, 0.0]])
    with pytest.raises(ValueError, match="query point 0 is too far from every center"):
        compare_orbits(spec, model, np.array([1e200, 0.0]), horizon=1.0, dt=0.01)


def test_every_orbit_step_is_checked(hopf_setup, monkeypatch):
    # with its coefficients scaled by 1e160 the model's first step from the
    # data lands near 1e158, a finite state whose squared distances to the
    # centers overflow: the second step is that ValueError, neither a
    # NumericalError nor a fallback to a wrong nearest center
    spec, model, held = hopf_setup
    huge = DriftModel(kernel=model.kernel, coefficients=model.coefficients * 1e160)
    steps = []
    expansion = drift._expansion
    monkeypatch.setattr(drift, "_expansion", lambda *a: steps.append(1) or expansion(*a))
    with pytest.raises(ValueError, match="query point 0 is too far from every center"):
        compare_orbits(spec, huge, held.points[0], horizon=1.0, dt=0.01)
    assert len(steps) == 2


def test_extrapolated_fraction_counts_fallbacks(hopf_setup):
    spec, model, held = hopf_setup
    far = held.points + 1000.0
    report = relative_l2_error(model, system_field(spec), far)
    assert report.extrapolated_fraction == 1.0


# --- exact bytes of the plot-ready CSV files ---------------------------------
#
# The references are the writers' former per-value loops: a header line, then
# repr of each value as a float64, flags as 0/1 and t = k * dt.


def reference_trajectory_csv(traj):
    lines = ["t," + ",".join(f"x{i}" for i in range(traj.d))]
    for k, row in enumerate(traj.points):
        lines.append(",".join([repr(float(k * traj.dt))] + [repr(float(v)) for v in row]))
    return ("\n".join(lines) + "\n").encode()


def reference_pointwise_csv(test_points, errors):
    test_points = np.asarray(test_points, dtype=float)
    errors = np.asarray(errors, dtype=float)
    d = test_points.shape[1]
    lines = [",".join([f"x{i}" for i in range(d)] + [f"err{i}" for i in range(d)])]
    for x, e in zip(test_points, errors):
        lines.append(",".join([repr(float(v)) for v in x] + [repr(float(v)) for v in e]))
    return ("\n".join(lines) + "\n").encode()


def reference_orbit_csv(comparison):
    d = comparison.true_orbit.d
    lines = ["t," + ",".join(f"true_x{i}" for i in range(d)) + ","
             + ",".join(f"est_x{i}" for i in range(d)) + ",extrapolated"]
    dt = comparison.true_orbit.dt
    rows = zip(comparison.true_orbit.points, comparison.estimated_orbit.points,
               comparison.extrapolated)
    for k, (xt, xe, flag) in enumerate(rows):
        lines.append(",".join([repr(float(k * dt))] + [repr(float(v)) for v in xt]
                              + [repr(float(v)) for v in xe] + [str(int(flag))]))
    return ("\n".join(lines) + "\n").encode()


def awkward_values(n, d, seed):
    """(n, d) float64 values over many magnitudes, led by a negative zero, the
    smallest subnormal, a huge value and a sum that is not its decimal."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-12, 12, size=(n, d))
    values.flat[:4] = [-0.0, 5e-324, 1e300, 0.1 + 0.2]
    return values


def test_trajectory_csv_bytes(tmp_path):
    traj = Trajectory(dt=0.1, points=awkward_values(3000, 3, 0))
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    assert path.read_bytes() == reference_trajectory_csv(traj)


def test_pointwise_errors_csv_bytes(tmp_path):
    # integer points and float32 errors are written as their float64 values
    rng = np.random.default_rng(1)
    test_points = rng.integers(-10**6, 10**6, size=(500, 2))
    errors = np.clip(awkward_values(500, 2, 2), -1e30, 1e30).astype(np.float32)
    path = tmp_path / "pw.csv"
    save_pointwise_errors(path, test_points, errors)
    assert path.read_bytes() == reference_pointwise_csv(test_points, errors)


def test_orbit_comparison_csv_bytes(tmp_path):
    n = 3000
    comparison = OrbitComparison(
        true_orbit=Trajectory(dt=0.1, points=awkward_values(n, 2, 3)),
        estimated_orbit=Trajectory(dt=0.1, points=awkward_values(n, 2, 4)),
        extrapolated=np.random.default_rng(5).random(n) < 0.5,
    )
    assert comparison.extrapolated.any() and not comparison.extrapolated.all()
    path = tmp_path / "orbits.csv"
    save_orbit_comparison(comparison, path)
    assert path.read_bytes() == reference_orbit_csv(comparison)
