import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.spatial.distance import cdist

import json

from kerneldrift import (
    CondExpParams,
    Stencil,
    estimate_drift,
    estimate_drift_sparse,
    eval_drift,
    extract_snapshots,
    increment_targets,
    make_spec,
    predict_drift,
    predict_drift_many,
    simulate,
)
from kerneldrift.drift import (
    STENCIL_WEIGHTS,
    load_drift_model,
    save_drift_model,
    save_snapshots,
)
from kerneldrift.systems import Trajectory


def test_stencil_weight_identities():
    assert STENCIL_WEIGHTS.sum() == 0.0
    offsets = np.array([0.0, 1.0, 2.0, 3.0])
    assert STENCIL_WEIGHTS @ offsets == 6.0


def test_constant_trajectory_zero_targets():
    traj = Trajectory(dt=0.1, points=np.tile([2.0, -1.0], (20, 1)))
    _, targets = increment_targets(traj)
    np.testing.assert_array_equal(targets, np.zeros((17, 2)))


def test_linear_trajectory_exact_slope():
    v = np.array([1.7, -0.4, 0.25])
    times = np.arange(30)[:, None] * 0.05
    traj = Trajectory(dt=0.05, points=times * v)
    inputs, targets = increment_targets(traj)
    np.testing.assert_allclose(targets, np.tile(v, (27, 1)), atol=1e-12)
    np.testing.assert_array_equal(inputs, traj.points[:27])


def _hopf_path(dt, n):
    spec = make_spec("hopf")

    def rhs(_, x):
        return eval_drift(spec, x)

    sol = solve_ivp(rhs, (0.0, n * dt), [1.0, 0.0], t_eval=np.arange(n) * dt,
                    rtol=1e-12, atol=1e-12, max_step=dt / 4)
    return Trajectory(dt=dt, points=sol.y.T)


def test_third_order_convergence():
    spec = make_spec("hopf")
    errors = []
    for dt in (0.02, 0.01):
        traj = _hopf_path(dt, 200)
        inputs, targets = increment_targets(traj)
        errors.append(np.abs(targets - eval_drift(spec, inputs)).max())
    assert errors[0] / errors[1] >= 6.0


def test_targets_near_drift_on_simulated_path():
    spec = make_spec("hopf", sigma_noise=0.0)
    traj = simulate(spec, [2.0, 0.0], n_samples=500, dt=0.01, seed=0,
                    burn_in=600, substeps=100)
    inputs, targets = increment_targets(traj)
    assert np.abs(targets - eval_drift(spec, inputs)).max() < 1e-4


def test_trajectory_too_short():
    with pytest.raises(ValueError):
        Trajectory(dt=0.1, points=np.zeros((3, 1)))


class TestStencil:
    def test_cyclic_lorenz96(self):
        st = Stencil.cyclic(5)
        assert st.m == 4
        assert st.left[0] == (3, 4, 0, 1)
        assert st.left[2] == (0, 1, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Stencil(m=2, left=((0, 0), (1, 0)))  # repeated index
        with pytest.raises(ValueError):
            Stencil(m=2, left=((0, 5), (1, 0)))  # out of range


class TestSnapshots:
    def test_record_count_and_values(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(12, 5))
        traj = Trajectory(dt=0.1, points=pts)
        st = Stencil.cyclic(5)
        snaps = extract_snapshots(traj, st)
        assert len(snaps) == (12 - 3) * 5
        _, rates = increment_targets(traj)
        # record (n, i) holds the stencil neighborhood and coordinate rate
        n, i = 4, 2
        rec = 4 * 5 + 2
        np.testing.assert_array_equal(snaps.inputs[rec], pts[n, list(st.left[i])])
        assert snaps.targets[rec] == rates[n, i]

    def test_constant_trajectory_zero_targets(self):
        traj = Trajectory(dt=0.1, points=np.tile(np.arange(5.0), (10, 1)))
        snaps = extract_snapshots(traj, Stencil.cyclic(5))
        np.testing.assert_array_equal(snaps.targets, np.zeros(35))

    def test_one_dimensional_reduction(self):
        rng = np.random.default_rng(1)
        traj = Trajectory(dt=0.2, points=rng.normal(size=(15, 1)))
        snaps = extract_snapshots(traj, Stencil(m=1, left=((0,),)))
        inputs, targets = increment_targets(traj)
        np.testing.assert_array_equal(snaps.inputs, inputs)
        np.testing.assert_array_equal(snaps.targets, targets[:, 0])

    def test_dimension_mismatch(self):
        traj = Trajectory(dt=0.1, points=np.zeros((6, 4)))
        with pytest.raises(ValueError):
            extract_snapshots(traj, Stencil.cyclic(5))

    def test_csv_export(self, tmp_path):
        traj = Trajectory(dt=0.1, points=np.random.default_rng(2).normal(size=(8, 5)))
        snaps = extract_snapshots(traj, Stencil.cyclic(5))
        path = tmp_path / "snaps.csv"
        save_snapshots(snaps, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "in0,in1,in2,in3,target"
        assert len(lines) == 1 + len(snaps)
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(loaded[:, :4], snaps.inputs, rtol=1e-15)


@pytest.fixture(scope="module")
def hopf_fit():
    spec = make_spec("hopf", sigma_noise=0.1)
    traj = simulate(spec, [2.0, 0.0], n_samples=4000, dt=0.01, seed=11,
                    burn_in=100, substeps=10)
    params = CondExpParams(n_centers=250)
    return spec, traj, estimate_drift(traj, params)


class TestDenseEstimator:
    def test_hopf_accuracy_near_cycle(self, hopf_fit):
        spec, _, model = hopf_fit
        value, flag = predict_drift(model, np.array([0.99, 0.0]))
        assert not flag
        truth = eval_drift(spec, np.array([0.99, 0.0]))
        assert np.abs(value - truth).max() < 0.1

    def test_far_field_flagged(self, hopf_fit):
        _, _, model = hopf_fit
        value, flag = predict_drift(model, np.array([500.0, 500.0]))
        assert flag
        assert np.isfinite(value).all()

    def test_batch_matches_single(self, hopf_fit):
        _, traj, model = hopf_fit
        pts = np.vstack([traj.points[:7], [[500.0, 500.0]]])
        batch, flags = predict_drift_many(model, pts)
        assert flags[-1]
        for i, x in enumerate(pts):
            v, f = predict_drift(model, x)
            np.testing.assert_array_equal(batch[i], v)
            assert flags[i] == f

    def test_dimension_mismatch(self, hopf_fit):
        _, _, model = hopf_fit
        with pytest.raises(ValueError):
            predict_drift(model, np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_query_rejected(self, hopf_fit, bad):
        # neither a NaN row nor the value of an arbitrary nearest center
        _, traj, model = hopf_fit
        pts = np.vstack([traj.points[:3], [[bad, 0.0]]])
        with pytest.raises(ValueError, match="query point 3 is not finite"):
            predict_drift_many(model, pts)

    def test_roundtrip(self, hopf_fit, tmp_path):
        _, traj, model = hopf_fit
        path = tmp_path / "model.json"
        save_drift_model(model, path)
        loaded = load_drift_model(path)
        pts = traj.points[:5]
        v1, f1 = predict_drift_many(model, pts)
        v2, f2 = predict_drift_many(loaded, pts)
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(f1, f2)


def test_pure_noise_field_is_small():
    # increments of a driftless random walk have conditional mean zero
    rng = np.random.default_rng(21)
    dt = 0.01
    steps = 0.1 * dt * rng.standard_normal((8000, 1))
    traj = Trajectory(dt=dt, points=np.cumsum(steps, axis=0))
    model = estimate_drift(traj, CondExpParams(n_centers=50))
    values, _ = predict_drift_many(model, traj.points[:-3])
    assert np.sqrt(np.mean(values**2)) / 0.1 < 0.2


def test_target_mean_matches_stationary_mean():
    # gradient toy system dX = -X dt + noise: the stationary mean of the
    # drift is zero, and pooled targets should agree within sampling error
    dt = 0.01
    grand_means = []
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        n = 20000
        x = np.empty(n)
        x[0] = 0.0
        kicks = 0.3 * np.sqrt(dt) * rng.standard_normal(n - 1)
        for k in range(n - 1):
            x[k + 1] = x[k] - x[k] * dt + kicks[k]
        traj = Trajectory(dt=dt, points=x[:, None])
        _, targets = increment_targets(traj)
        grand_means.append(targets.mean())
    assert abs(np.mean(grand_means)) < 0.05


@pytest.fixture(scope="module")
def l96_sparse_fit():
    spec = make_spec("lorenz96", N=5, sigma_noise=0.0)
    traj = simulate(spec, np.array([8.01, 8.0, 8.0, 8.0, 8.0]), n_samples=2000,
                    dt=0.01, seed=5, burn_in=200, substeps=10)
    stencil = Stencil.cyclic(5)
    snaps = extract_snapshots(traj, stencil)
    params = CondExpParams(n_centers=300)
    model = estimate_drift_sparse(snaps, params)
    return spec, traj, snaps, model


class TestSparseEstimator:
    def test_cyclic_equivariance_exact(self, l96_sparse_fit):
        _, traj, _, model = l96_sparse_fit
        x = traj.points[100]
        shifted = np.roll(x, 1)
        v_x, _ = predict_drift(model, x)
        v_s, _ = predict_drift(model, shifted)
        np.testing.assert_array_equal(v_s, np.roll(v_x, 1))

    def test_matches_componentwise_expansion(self, l96_sparse_fit):
        _, traj, _, model = l96_sparse_fit
        from kerneldrift.kernels import section_matrix

        x = traj.points[50]
        values, _ = predict_drift(model, x)
        for i, left in enumerate(model.stencil.left):
            row, _ = section_matrix(model.kernel, x[list(left)])
            assert values[i] == (row[0] * model.coefficients[0]).sum()

    def test_agrees_with_dense_fit_on_shared_system(self, l96_sparse_fit):
        spec, traj, _, sparse_model = l96_sparse_fit
        dense_model = estimate_drift(traj, CondExpParams(n_centers=300))
        probes = traj.points[::40][:50]
        truth = eval_drift(spec, probes)
        dense_pred, _ = predict_drift_many(dense_model, probes)
        sparse_pred, _ = predict_drift_many(sparse_model, probes)
        dense_err = np.sqrt(((dense_pred - truth) ** 2).sum())
        sparse_err = np.sqrt(((sparse_pred - truth) ** 2).sum())
        assert sparse_err <= 2.0 * dense_err

    def test_exchangeability_of_records(self, l96_sparse_fit):
        _, _, snaps, _ = l96_sparse_fit
        # permute only non-center records so the strided center set is fixed
        n = len(snaps)
        params = CondExpParams(n_centers=300, eps1=0.05, eps2=0.1, eps3=0.1)
        from kerneldrift.condexp import select_centers
        from kerneldrift.drift import SnapshotSet

        centers = set(select_centers(n, params).tolist())
        rest = np.array([i for i in range(n) if i not in centers])
        perm = np.arange(n)
        perm[rest] = rest[np.random.default_rng(4).permutation(len(rest))]
        shuffled = SnapshotSet(m=snaps.m, inputs=snaps.inputs[perm],
                               targets=snaps.targets[perm], dt=snaps.dt,
                               stencil=snaps.stencil)
        base = estimate_drift_sparse(snaps, params)
        again = estimate_drift_sparse(shuffled, params)
        probes = snaps.inputs[:20]
        from kerneldrift.kernels import section_matrix

        s1, _ = section_matrix(base.kernel, probes)
        s2, _ = section_matrix(again.kernel, probes)
        np.testing.assert_allclose(s1 @ base.coefficients[0],
                                   s2 @ again.coefficients[0], atol=1e-10)

    def test_roundtrip(self, l96_sparse_fit, tmp_path):
        _, traj, _, model = l96_sparse_fit
        path = tmp_path / "sparse.json"
        save_drift_model(model, path)
        loaded = load_drift_model(path)
        assert loaded.stencil == model.stencil
        v1, f1 = predict_drift_many(model, traj.points[:4])
        v2, f2 = predict_drift_many(loaded, traj.points[:4])
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(f1, f2)

    def test_dimension_mismatch(self, l96_sparse_fit):
        _, _, _, model = l96_sparse_fit
        with pytest.raises(ValueError):
            predict_drift(model, np.zeros(4))


def _parent_format_payload(model):
    """Older two-type model file: a ``type`` key, kernel ``deg_l`` and ``w``
    entries and a 1-D shared-unit coefficient vector."""
    k = model.kernel
    raw = np.exp(-cdist(k.centers, k.centers, "sqeuclidean") / k.epsilon)
    raw[raw < k.theta_zero] = 0.0
    deg_l = (raw * (1.0 / k.deg_r)).sum(axis=1) / k.n_centers
    kernel = {
        "kind": "diffusion",
        "epsilon": k.epsilon,
        "theta_zero": k.theta_zero,
        "centers": k.centers.tolist(),
        "deg_r": k.deg_r.tolist(),
        "deg_l": deg_l.tolist(),
        "w": (1.0 / np.sqrt(k.deg_r * deg_l)).tolist(),
    }
    payload = {"kernel": kernel, "dt": model.dt}
    if model.stencil is None:
        payload.update(type="dense", coefficients=model.coefficients.tolist())
    else:
        payload.update(type="sparse", coefficients=model.coefficients[0].tolist(),
                       stencil={"m": model.stencil.m,
                                "left": [list(r) for r in model.stencil.left]})
    return payload


def test_parent_format_files_load(hopf_fit, l96_sparse_fit, tmp_path):
    for name, (model, pts) in {
        "dense": (hopf_fit[2], hopf_fit[1].points[:6]),
        "sparse": (l96_sparse_fit[3], l96_sparse_fit[1].points[:6]),
    }.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_parent_format_payload(model)))
        loaded = load_drift_model(path)
        assert loaded.stencil == model.stencil
        v1, f1 = predict_drift_many(model, pts)
        v2, f2 = predict_drift_many(loaded, pts)
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(f1, f2)


def test_l96_orbit_divergence_is_reported_not_failed(l96_sparse_fit):
    # chaotic sensitivity makes true and reconstructed orbits separate;
    # the comparison must deliver both paths rather than erroring out
    from kerneldrift import compare_orbits

    spec, traj, _, model = l96_sparse_fit
    comparison = compare_orbits(spec, model, traj.points[500], horizon=2.0, dt=0.01)
    gap = np.linalg.norm(
        comparison.true_orbit.points - comparison.estimated_orbit.points, axis=1
    )
    assert gap[-1] > 0.1
    assert len(comparison.true_orbit) == len(comparison.estimated_orbit) == 201


def test_constant_trajectory_fit_predicts_zero():
    # all states identical: explicit bandwidths keep the kernels defined,
    # and the fitted field vanishes at the training point
    pts = np.tile([1.0, 2.0], (50, 1))
    traj = Trajectory(dt=0.1, points=pts)
    params = CondExpParams(n_centers=10, eps1=1.0, eps2=1.0, eps3=1.0)
    model = estimate_drift(traj, params)
    value, _ = predict_drift(model, np.array([1.0, 2.0]))
    np.testing.assert_allclose(value, [0.0, 0.0], atol=1e-10)
