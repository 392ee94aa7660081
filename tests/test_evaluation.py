import numpy as np
import pytest

from kerneldrift import (
    BlowUpError,
    CondExpParams,
    compare_orbits,
    estimate_drift,
    eval_drift,
    make_spec,
    pointwise_errors,
    relative_l2_error,
    simulate,
    system_field,
)
from kerneldrift.evaluation import (
    load_error_report,
    save_error_report,
    save_orbit_comparison,
    save_pointwise_errors,
)


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
    loaded = load_error_report(path)
    assert loaded.relative_l2 == report.relative_l2
    np.testing.assert_array_equal(loaded.per_coordinate_rmse, report.per_coordinate_rmse)
    assert loaded.extrapolated_fraction == report.extrapolated_fraction


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
        spec = make_spec("lorenz63", sigma_noise=0.0)
        x0 = np.array([1.0, 1.0, 1.0])
        oracle = lambda points: eval_drift(spec, points)
        comparison = compare_orbits(spec, oracle, x0, horizon=1.0, dt=0.01)
        np.testing.assert_array_equal(comparison.true_orbit.points,
                                      comparison.estimated_orbit.points)
        reference = simulate(spec, x0, n_samples=101, dt=0.01, seed=0,
                             burn_in=0, substeps=1)
        np.testing.assert_array_equal(comparison.true_orbit.points, reference.points)
        assert not comparison.extrapolated.any()

    def test_hopf_orbits_stay_near_cycle(self, hopf_setup):
        spec, model, _ = hopf_setup
        comparison = compare_orbits(spec, model, np.array([1.0, 0.0]),
                                    horizon=10.0, dt=0.01)
        for orbit in (comparison.true_orbit, comparison.estimated_orbit):
            radii = np.linalg.norm(orbit.points, axis=1)
            assert np.abs(radii - 1.0).max() < 0.2

    def test_blowup_reported(self):
        spec = make_spec("lorenz63", sigma_noise=0.0)
        diverging = lambda points: np.asarray(points) * 1e8
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError):
                compare_orbits(spec, diverging, np.ones(3), horizon=4.0, dt=0.1)

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
        with pytest.raises(ValueError):
            compare_orbits(spec3, model, np.ones(3), horizon=1.0, dt=0.01)


def test_extrapolated_fraction_counts_fallbacks(hopf_setup):
    spec, model, held = hopf_setup
    far = held.points + 1000.0
    report = relative_l2_error(model, system_field(spec), far)
    assert report.extrapolated_fraction == 1.0
