import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.spatial.distance import cdist

import json
import re

from kerneldrift import (
    CondExpParams,
    DriftModel,
    NumericalError,
    Stencil,
    estimate_drift,
    estimate_drift_sparse,
    eval_drift,
    extract_snapshots,
    increment_targets,
    make_spec,
    predict_drift_many,
    simulate,
)
from kerneldrift.drift import (
    STENCIL_WEIGHTS,
    load_drift_model,
    save_drift_model,
)
from kerneldrift.kernels import _BLOCK_ROWS, THETA_ZERO, section_matrix
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

    def test_records_layout(self):
        # row k * d + i holds states[k, Left(i)]: the one layout of the
        # fitted snapshot records and of a stencil prediction's queries
        st = Stencil(m=2, left=((1, 0), (2, 1), (0, 2)))
        states = np.arange(12.0).reshape(4, 3)
        expected = [[states[k, j] for j in st.left[i]] for k in range(4) for i in range(3)]
        np.testing.assert_array_equal(st.records(states), expected)
        traj = Trajectory(dt=0.1, points=states)
        np.testing.assert_array_equal(extract_snapshots(traj, st).inputs,
                                      st.records(states[:1]))


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
        (value,), (flag,) = predict_drift_many(model, [[0.99, 0.0]])
        assert not flag
        truth = eval_drift(spec, np.array([0.99, 0.0]))
        assert np.abs(value - truth).max() < 0.1

    def test_far_field_flagged(self, hopf_fit):
        _, _, model = hopf_fit
        (value,), (flag,) = predict_drift_many(model, [[500.0, 500.0]])
        assert flag
        assert np.isfinite(value).all()

    def test_batch_matches_single(self, hopf_fit):
        # bitwise: a batch equals its rows predicted as batches of one
        _, traj, model = hopf_fit
        pts = np.vstack([traj.points[:7], [[500.0, 500.0]]])
        batch, flags = predict_drift_many(model, pts)
        assert flags[-1]
        for i in range(len(pts)):
            v, f = predict_drift_many(model, pts[i:i + 1])
            np.testing.assert_array_equal(batch[i:i + 1], v)
            assert flags[i] == f[0]

    def test_matches_broadcast_reduction(self, hopf_fit):
        # one coefficient row at a time gives the bits of the reduction
        # over a (n, k, M) broadcast product
        _, traj, model = hopf_fit
        from kerneldrift.kernels import section_matrix

        pts = traj.points[::20]
        sections, _ = section_matrix(model.kernel, pts)
        expected = (sections[:, None, :] * model.coefficients).sum(axis=2)
        np.testing.assert_array_equal(predict_drift_many(model, pts)[0], expected)

    def test_dimension_mismatch(self, hopf_fit):
        _, _, model = hopf_fit
        with pytest.raises(ValueError):
            predict_drift_many(model, [[1.0, 2.0, 3.0]])

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
        np.testing.assert_array_equal(loaded.coefficients, model.coefficients)
        np.testing.assert_array_equal(loaded.kernel.centers, model.kernel.centers)
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
        (v_x,), _ = predict_drift_many(model, [x])
        (v_s,), _ = predict_drift_many(model, [shifted])
        np.testing.assert_array_equal(v_s, np.roll(v_x, 1))

    def test_matches_componentwise_expansion(self, l96_sparse_fit):
        _, traj, _, model = l96_sparse_fit
        from kerneldrift.kernels import section_matrix

        x = traj.points[50]
        (values,), _ = predict_drift_many(model, [x])
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
        # permute only records on neither the strided center set nor the
        # bandwidths' strided 10% subsample, so both are fixed
        n = len(snaps)
        params = CondExpParams(n_centers=300)
        from kerneldrift.drift import SnapshotSet

        # the fit's centers are every (N // M)-th record, the bandwidths'
        # subsample every (N // round(N / 10))-th
        centers = set(range(0, 300 * (n // 300), n // 300))
        subsample = set(range(0, n, n // round(0.1 * n)))
        rest = np.array([i for i in range(n) if i not in centers | subsample])
        perm = np.arange(n)
        perm[rest] = rest[np.random.default_rng(4).permutation(len(rest))]
        shuffled = SnapshotSet(inputs=snaps.inputs[perm],
                               targets=snaps.targets[perm],
                               stencil=snaps.stencil)
        base = estimate_drift_sparse(snaps, params)
        np.testing.assert_array_equal(base.kernel.centers, snaps.inputs[sorted(centers)])
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
        np.testing.assert_array_equal(loaded.coefficients, model.coefficients)
        np.testing.assert_array_equal(loaded.kernel.centers, model.kernel.centers)
        v1, f1 = predict_drift_many(model, traj.points[:4])
        v2, f2 = predict_drift_many(loaded, traj.points[:4])
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(f1, f2)

    def test_dimension_mismatch(self, l96_sparse_fit):
        _, _, _, model = l96_sparse_fit
        with pytest.raises(ValueError):
            predict_drift_many(model, np.zeros((1, 4)))


def _parent_format_payload(model):
    """Older two-type model file: a ``type`` key, kernel ``deg_l`` and ``w``
    entries and a 1-D shared-unit coefficient vector."""
    k = model.kernel
    raw = np.exp(-cdist(k.centers, k.centers, "sqeuclidean") / k.epsilon)
    raw[raw < THETA_ZERO] = 0.0
    deg_l = (raw * (1.0 / k.deg_r)).sum(axis=1) / k.n_centers
    kernel = {
        "kind": "diffusion",
        "epsilon": k.epsilon,
        "theta_zero": THETA_ZERO,
        "centers": k.centers.tolist(),
        "deg_r": k.deg_r.tolist(),
        "deg_l": deg_l.tolist(),
        "w": (1.0 / np.sqrt(k.deg_r * deg_l)).tolist(),
    }
    payload = {"kernel": kernel, "dt": 0.01}
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


def _edited_model_file(model, path, edit):
    """Save ``model`` to ``path``, then rewrite its JSON payload with ``edit``,
    which changes it in place or returns a replacement (raw bytes as given)."""
    save_drift_model(model, path)
    payload = json.loads(path.read_text())
    replaced = edit(payload)
    if isinstance(replaced, bytes):
        path.write_bytes(replaced)
    else:
        path.write_text(json.dumps(payload if replaced is None else replaced))
    return path


@pytest.mark.parametrize("deg_r", ["zero", "nan", "short"])
def test_file_degrees_are_not_read(hopf_fit, tmp_path, deg_r):
    # the degrees derive from the centers; a file's deg_r, however wrong,
    # changes nothing
    _, traj, model = hopf_fit
    m = model.kernel.n_centers
    bad = {"zero": [0.0] * m, "nan": [float("nan")] * m,
           "short": model.kernel.deg_r[:-1].tolist()}[deg_r]
    path = _edited_model_file(model, tmp_path / "model.json",
                              lambda p: p["kernel"].update(deg_r=bad))
    loaded = load_drift_model(path)
    np.testing.assert_array_equal(loaded.kernel.deg_r, model.kernel.deg_r)
    pts = np.vstack([traj.points[:6], [[40.0, -30.0]]])
    v1, f1 = predict_drift_many(model, pts)
    v2, f2 = predict_drift_many(loaded, pts)
    assert f2[-1]
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(f1, f2)


@pytest.mark.parametrize("edit, message", [
    (lambda c: c[:3] + [[c[3][0], float("nan")]] + c[4:], "center point 3 is not finite"),
    (lambda c: c[:3] + [[c[3][0], 1e200]] + c[4:], "center point 3 is too far"),
    (lambda c: [], r"centers must be a non-empty \(M, d\) array, got shape \(0,\)"),
    (lambda c: [row[0] for row in c], r"centers must be a non-empty \(M, d\) array"),
], ids=["nan", "far", "empty", "1-d"])
def test_bad_centers_rejected_on_load(hopf_fit, tmp_path, edit, message):
    path = _edited_model_file(
        hopf_fit[2], tmp_path / "model.json",
        lambda p: p["kernel"].update(centers=edit(p["kernel"]["centers"])))
    with pytest.raises(ValueError, match=message):
        load_drift_model(path)


_WRONG_TYPE = "{path}: drift model file has an entry of the wrong type"


@pytest.mark.parametrize("fit, edit, message", [
    ("hopf_fit", lambda p: p["kernel"].update(epsilon=None), _WRONG_TYPE),
    ("hopf_fit", lambda p: p.update(kernel=[]), _WRONG_TYPE),
    ("hopf_fit", lambda p: p.update(stencil={"m": 2, "left": 5}), _WRONG_TYPE),
    ("hopf_fit", lambda p: p["kernel"].update(epsilon="0.5"), _WRONG_TYPE),
    ("hopf_fit", lambda p: [], _WRONG_TYPE),
    # a fractional stencil index or width is rejected, not truncated
    ("l96_sparse_fit", lambda p: p["stencil"]["left"][0].__setitem__(0, 3.99), _WRONG_TYPE),
    ("l96_sparse_fit", lambda p: p["stencil"].update(m=4.9), _WRONG_TYPE),
    # a JSON true is no bandwidth, stencil width or index of 1
    ("hopf_fit", lambda p: p["kernel"].update(epsilon=True),
     "{path}: epsilon must be a real number in (0, inf), got True"),
    ("l96_sparse_fit", lambda p: p["stencil"].update(m=True),
     "{path}: stencil width must be an integer, got True"),
    ("l96_sparse_fit", lambda p: p["stencil"]["left"][0].__setitem__(0, True),
     "{path}: stencil index must be an integer, got True"),
    # a file that does not decode, or a value the model rejects, is named too
    ("hopf_fit", lambda p: b"\xff" + json.dumps(p).encode(), "{path}: 'utf-8' codec can't decode"),
    ("hopf_fit", lambda p: json.dumps(p)[:-20].encode(), "{path}: Expecting"),
    ("hopf_fit", lambda p: p["kernel"].update(epsilon=-1),
     "{path}: epsilon must be a real number in (0, inf), got -1"),
    ("hopf_fit", lambda p: p["kernel"].update(epsilon=float("inf")),
     "{path}: epsilon must be a real number in (0, inf), got inf"),
    ("hopf_fit", lambda p: p["coefficients"][1].__setitem__(7, float("nan")),
     "{path}: coefficient (1, 7) is not finite"),
    ("hopf_fit", lambda p: p["kernel"].update(kind="gaussian"),
     "{path}: unknown kernel kind 'gaussian'; expected 'diffusion'"),
    # a string, bool or null among the numbers is not coerced, not even a
    # bool beside floats, which numpy would read as 1.0
    ("hopf_fit", lambda p: p["coefficients"][0].__setitem__(0, "1.0"),
     _WRONG_TYPE + ": the coefficients hold '1.0', which is no number"),
    ("hopf_fit", lambda p: p.update(coefficients=[[True, False]] * 2),
     _WRONG_TYPE + ": the coefficients hold False, which is no number"),
    ("hopf_fit", lambda p: p["coefficients"][1].__setitem__(3, True),
     _WRONG_TYPE + ": the coefficients hold True, which is no number"),
    ("hopf_fit", lambda p: p["coefficients"][1].__setitem__(3, None),
     _WRONG_TYPE + ": the coefficients hold None, which is no number"),
    ("l96_sparse_fit", lambda p: p["coefficients"][0].__setitem__(5, True),
     _WRONG_TYPE + ": the coefficients hold True, which is no number"),
    ("hopf_fit", lambda p: p["kernel"]["centers"][4].__setitem__(1, "0.5"),
     _WRONG_TYPE + ": the centers hold '0.5', which is no number"),
    ("hopf_fit", lambda p: p["kernel"]["centers"][4].__setitem__(1, False),
     _WRONG_TYPE + ": the centers hold False, which is no number"),
    ("hopf_fit", lambda p: p["kernel"]["centers"][4].__setitem__(1, None),
     _WRONG_TYPE + ": the centers hold None, which is no number"),
], ids=["null-epsilon", "list-kernel", "int-stencil-left", "str-epsilon", "list-file",
        "float-stencil-index", "float-stencil-m", "bool-epsilon", "bool-stencil-m",
        "bool-stencil-index", "undecodable", "truncated", "negative-epsilon", "inf-epsilon",
        "nan-coefficient", "other-kind", "str-coefficient", "bool-coefficients",
        "bool-among-float-coefficients", "null-coefficient", "bool-stencil-coefficient",
        "str-center", "bool-center", "null-center"])
def test_wrong_typed_entry_rejected_on_load(request, tmp_path, fit, edit, message):
    # the model is the last entry of either fixture
    path = _edited_model_file(request.getfixturevalue(fit)[-1], tmp_path / "model.json", edit)
    with pytest.raises(ValueError, match=re.escape(message.format(path=path))):
        load_drift_model(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_coefficients_rejected(hopf_fit, tmp_path, bad):
    model = hopf_fit[2]
    coefficients = model.coefficients.copy()
    coefficients[1, 7] = bad
    with pytest.raises(ValueError, match=r"coefficient \(1, 7\) is not finite"):
        DriftModel(kernel=model.kernel, coefficients=coefficients)
    path = _edited_model_file(model, tmp_path / "model.json",
                              lambda p: p["coefficients"][1].__setitem__(7, bad))
    with pytest.raises(ValueError, match=r"coefficient \(1, 7\) is not finite"):
        load_drift_model(path)


def test_kernel_dimension_must_match_inputs(hopf_fit, l96_sparse_fit, tmp_path):
    # a dense model's kernel sees its d coordinates
    hopf = hopf_fit[2]
    with pytest.raises(ValueError, match="kernel dimension 2 != d = 3"):
        DriftModel(kernel=hopf.kernel, coefficients=np.zeros((3, hopf.kernel.n_centers)))
    # a stencil model's kernel sees the stencil's m-point records
    l96 = l96_sparse_fit[3]
    with pytest.raises(ValueError, match="kernel dimension 4 != stencil.m = 3"):
        DriftModel(kernel=l96.kernel, coefficients=l96.coefficients,
                   stencil=Stencil.cyclic(5, (-1, 0, 1)))
    narrow = [list(r) for r in Stencil.cyclic(5, (-1, 0, 1)).left]
    path = _edited_model_file(l96, tmp_path / "model.json",
                              lambda p: p.update(stencil={"m": 3, "left": narrow}))
    with pytest.raises(ValueError, match="kernel dimension 4 != stencil.m = 3"):
        load_drift_model(path)


def test_empty_stencil_rejected(l96_sparse_fit, tmp_path):
    # a stencil without components would make a model of dimension 0
    message = "a stencil needs at least one component, got left=()"
    with pytest.raises(ValueError, match=re.escape(message)):
        Stencil.cyclic(0)
    with pytest.raises(ValueError, match=re.escape(message)):
        Stencil(m=1, left=())
    path = _edited_model_file(l96_sparse_fit[3], tmp_path / "model.json",
                              lambda p: p["stencil"].update(left=[]))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_drift_model(path)


@pytest.mark.parametrize("which", ["dense", "stencil"])
def test_loaded_model_first_call_extrapolates(hopf_fit, l96_sparse_fit, tmp_path, which):
    # a far query's fallback row is the in-range section row of its nearest
    # center, whether the model was fitted or loaded from a file
    model, far = {
        "dense": (hopf_fit[2], np.array([40.0, -30.0])),
        "stencil": (l96_sparse_fit[3], np.array([60.0, -50.0, 70.0, 40.0, -60.0])),
    }[which]
    path = tmp_path / "model.json"
    save_drift_model(model, path)
    (value,), (flag,) = predict_drift_many(load_drift_model(path), [far])
    assert flag
    np.testing.assert_array_equal(value, predict_drift_many(model, [far])[0][0])
    k = model.kernel
    points = far[None, :] if model.stencil is None else far[np.array(model.stencil.left)]
    nearest = k.centers[cdist(points, k.centers, "sqeuclidean").argmin(axis=1)]
    sections, flags = section_matrix(k, nearest)
    assert not flags.any()
    np.testing.assert_array_equal(value, (sections * model.coefficients).sum(axis=1))


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


def test_constant_trajectory_fit_raises_numerical_error():
    # all states identical: every pairwise distance of the bandwidths'
    # subsample is zero, so no bandwidth exists
    traj = Trajectory(dt=0.1, points=np.tile([1.0, 2.0], (50, 1)))
    with pytest.raises(NumericalError, match="coincident subsample points"):
        estimate_drift(traj, CondExpParams(n_centers=10))


def blocked_batch(traj, far, row):
    """More than two section blocks of path states, with state ``row`` set to
    ``far``, which falls back to its nearest center."""
    n = 2 * _BLOCK_ROWS + 37
    pts = traj.points[np.arange(n) % len(traj.points)].copy()
    pts[row] = far
    return pts


def broadcast_oracle(model, points):
    """Predictions from one dense evaluation of every section row."""
    records = points if model.stencil is None else \
        points[:, np.array(model.stencil.left)].reshape(-1, model.stencil.m)
    sections, flags = section_matrix(model.kernel, records)
    values = (sections[:, None, :] * model.coefficients).sum(axis=2)
    if model.stencil is None:
        return values, flags
    n, d = points.shape
    return values.reshape(n, d), flags.reshape(n, d).any(axis=1)


def assert_blocks_match_single_and_oracle(model, pts, row):
    values, flags = predict_drift_many(model, pts)
    assert flags[row]
    expected, expected_flags = broadcast_oracle(model, pts)
    np.testing.assert_array_equal(values, expected)
    np.testing.assert_array_equal(flags, expected_flags)
    for i in range(len(pts)):
        v, f = predict_drift_many(model, pts[i:i + 1])
        np.testing.assert_array_equal(values[i:i + 1], v)
        assert flags[i] == f[0]
    return values


def test_batch_across_blocks_dense(hopf_fit):
    _, traj, model = hopf_fit
    row = _BLOCK_ROWS + 5
    pts = blocked_batch(traj, [500.0, 500.0], row)
    assert_blocks_match_single_and_oracle(model, pts, row)


def test_batch_across_blocks_stencil(l96_sparse_fit):
    _, traj, _, model = l96_sparse_fit
    # five section rows per state: this state's rows open the second block
    row = _BLOCK_ROWS // 5 + 1
    pts = blocked_batch(traj, [8.0, 8.0, 500.0, 8.0, 8.0], row)
    values = assert_blocks_match_single_and_oracle(model, pts, row)
    # the rows of state 102 straddle the first block boundary, so a cyclic
    # shift moves section rows across it; equivariance stays exact
    shifted, _ = predict_drift_many(model, np.roll(pts, 1, axis=1))
    np.testing.assert_array_equal(shifted, np.roll(values, 1, axis=1))


@pytest.mark.parametrize("bad, message", [(np.nan, "is not finite"),
                                          (1e200, "is too far from every center")])
def test_bad_query_past_first_block_named(hopf_fit, bad, message):
    _, traj, model = hopf_fit
    pts = blocked_batch(traj, [0.0, 0.0], 0)
    pts[_BLOCK_ROWS + 100, 1] = bad
    with pytest.raises(ValueError, match=f"query point {_BLOCK_ROWS + 100} {message}"):
        predict_drift_many(model, pts)
