import numpy as np
import pytest
import scipy.sparse as sp

from kerneldrift import CondExpParams, SolverError, condexp, diffusion_model, section_matrix
from kerneldrift.condexp import fit_targets, solve_regularized
from kerneldrift.kernels import _BLOCK_ROWS


def fit_1d(x, y, params):
    """Fit a scalar target on 1-d inputs: ``(kernel, coefficients (M,), diagnostics)``."""
    kernel, coef, diagnostics = fit_targets(np.asarray(x, dtype=float)[:, None], y, params)
    return kernel, coef[0], diagnostics


def expand(kernel, coef, points):
    """The fitted expansion at 1-d query points: ``(values, extrapolated)``."""
    sections, flags = section_matrix(kernel, np.asarray(points, dtype=float)[:, None])
    return (sections * coef).sum(axis=1), flags


def test_params_validation():
    with pytest.raises(ValueError):
        CondExpParams(eta1=0.0)
    with pytest.raises(ValueError):
        CondExpParams(delta=-1.0)
    with pytest.raises(ValueError):
        CondExpParams(n_centers=0)
    with pytest.raises(ValueError):
        CondExpParams(eps2=-0.5)


@pytest.mark.parametrize("field, value", [
    ("theta_zero", 0.0),
    ("theta_zero", 1.0),
    ("theta_zero", 2.0),
    ("subsample_fraction", 0.0),
    ("subsample_fraction", 1.5),
])
def test_params_reject_threshold_and_subsample_out_of_range(field, value):
    # checked when the parameters are built, also with explicit bandwidths
    with pytest.raises(ValueError, match=field):
        CondExpParams(n_centers=5, eps1=0.1, eps2=0.1, eps3=0.1, **{field: value})


@pytest.mark.parametrize("field", ["eta1", "delta", "eps1", "eps2", "eps3", "theta_zero",
                                   "subsample_fraction"])
def test_params_reject_nan(field):
    # a NaN passes every comparison-based range check written as `value < 0`
    with pytest.raises(ValueError, match=field):
        CondExpParams(**{field: float("nan")})


def test_fit_targets_centers_strided():
    # the kernel centers are every (N // M)-th input
    inputs = np.random.default_rng(2).normal(size=(20, 2))
    params = CondExpParams(n_centers=5, eps1=1.0, eps2=1.0, eps3=1.0)
    kernel, _, _ = fit_targets(inputs, inputs[:, 0], params)
    np.testing.assert_array_equal(kernel.centers, inputs[[0, 4, 8, 12, 16]])
    with pytest.raises(ValueError, match="n_centers=5 exceeds the number of inputs 4"):
        fit_targets(inputs[:4], inputs[:4, 0], params)
    with pytest.raises(ValueError, match="n_centers=1: a diffusion kernel needs at least 2"):
        fit_targets(inputs, inputs[:, 0], CondExpParams(n_centers=1, eps1=1.0, eps2=1.0,
                                                        eps3=1.0))


def test_constant_target_recovery_zero_ridge():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=300)
    y = np.full(300, 3.7)
    kernel, coef, _ = fit_1d(x, y, CondExpParams(n_centers=80, delta=0.0))
    values, _ = expand(kernel, coef, np.linspace(-0.8, 0.8, 7))
    assert np.abs(values - 3.7).max() < 1e-8
    # training points too
    preds, _ = expand(kernel, coef, x[:40])
    assert np.abs(preds - 3.7).max() < 1e-8


def test_identity_smoothing_limit_interpolates():
    # with P = G = I and no ridge the solve reduces to K a = y
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(60, 1))
    kernel = diffusion_model(pts, epsilon=0.05)
    sections, _ = section_matrix(kernel, pts)
    y = np.sin(pts)
    a, residuals, _ = solve_regularized(sections, y, delta=0.0)
    assert residuals[0] < 1e-6
    np.testing.assert_allclose(sections @ a, y, atol=1e-6)


def test_matches_nadaraya_watson_oracle():
    x = np.linspace(-1, 1, 500)
    y = x**2
    kernel, coef, diagnostics = fit_1d(x, y, CondExpParams(n_centers=100))
    eps1 = diagnostics["eps1"]
    probes = np.linspace(-0.9, 0.9, 20)
    values, _ = expand(kernel, coef, probes)
    for p, value in zip(probes, values):
        weights = np.exp(-((x - p) ** 2) / eps1)
        oracle = (weights * y).sum() / weights.sum()
        assert abs(value - oracle) < 0.05


def test_residual_monotone_in_ridge():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, size=400)
    y = np.sin(2 * x) + 0.3 * rng.standard_normal(400)
    residuals = []
    for delta in (0.0, 0.01, 0.1, 1.0):
        _, _, diagnostics = fit_1d(x, y, CondExpParams(n_centers=80, delta=delta))
        residuals.append(diagnostics["residual_norms"][0])
    assert all(a <= b for a, b in zip(residuals, residuals[1:]))


def test_residual_rises_with_ridge_at_unit_scale():
    # explicit bandwidths keep the normal matrix's eigenvalues near 1..1e3,
    # where delta in [1e-3, 1] competes with them: the residual rises
    # visibly at every step, not just by rounding
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, size=60)
    y = np.sin(2 * x) + 0.3 * rng.standard_normal(60)
    residuals = []
    for delta in (0.0, 1e-3, 1e-1, 1.0):
        params = CondExpParams(n_centers=20, delta=delta, eps1=0.025, eps2=0.1, eps3=0.025)
        residuals.append(fit_1d(x, y, params)[2]["residual_norms"][0])
    assert all(a < b for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] > 1.01 * residuals[0]


def test_permutation_equivariance():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, size=(120, 1))
    y = np.cos(3 * x[:, 0])
    # fixed bandwidths and all points as centers keep the model intrinsic
    params = CondExpParams(n_centers=120, delta=0.1, eps1=0.05, eps2=0.1, eps3=0.1)
    base = fit_targets(x, y, params)
    perm = rng.permutation(120)
    shuffled = fit_targets(x[perm], y[perm], params)
    probes = rng.uniform(-0.9, 0.9, size=(10, 1))
    v1, v2 = [(section_matrix(kernel, probes)[0] * coef[0]).sum(axis=1)
              for kernel, coef, _ in (base, shuffled)]
    assert np.abs(v1 - v2).max() < 1e-10


def test_denoising_improves_with_sample_size():
    sizes = (200, 1000, 5000)
    mean_errors = []
    probes = np.linspace(-2.5, 2.5, 20)
    for n in sizes:
        errs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.uniform(-3, 3, size=n)
            y = np.sin(x) + 0.3 * rng.standard_normal(n)
            kernel, coef, _ = fit_1d(x, y, CondExpParams(n_centers=100))
            pred, _ = expand(kernel, coef, probes)
            errs.append(np.sqrt(np.mean((pred - np.sin(probes)) ** 2)))
        mean_errors.append(np.mean(errs))
    assert mean_errors[0] > mean_errors[1] > mean_errors[2]


def test_smoothing_shrink_keeps_training_error():
    # tightening the smoothing bandwidth must not degrade a smooth target
    n = 5000
    rng = np.random.default_rng(6)
    x = rng.uniform(-3, 3, size=n)
    y = np.sin(x)
    probes = x[::100]
    errors = []
    for eta1 in (0.01, 0.003, 0.001):
        kernel, coef, _ = fit_1d(x, y, CondExpParams(eta1=eta1, n_centers=100))
        pred, _ = expand(kernel, coef, probes)
        errors.append(np.sqrt(np.mean((pred - np.sin(probes)) ** 2)))
    assert errors[1] <= 2.0 * errors[0]
    assert errors[2] <= 2.0 * errors[0]


def test_far_query_flagged():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=200)
    y = x.copy()
    kernel, coef, _ = fit_1d(x, y, CondExpParams(n_centers=50))
    nearest = kernel.centers[np.argmax(kernel.centers[:, 0]), 0]
    (value, expected), flags = expand(kernel, coef, [1e5, nearest])
    np.testing.assert_array_equal(flags, [True, False])
    assert value == expected


def test_fit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fit_targets(np.ones((5, 1)), np.ones(4), CondExpParams(n_centers=2))
    bad = np.ones(5)
    bad[2] = np.inf
    with pytest.raises(ValueError):
        fit_targets(np.ones((5, 1)), bad, CondExpParams(n_centers=2))


def test_solver_failure_raises():
    b = np.ones((4, 2))
    b[0, 0] = np.nan
    with pytest.raises(SolverError):
        solve_regularized(b, np.ones((4, 1)), delta=0.1)


@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_condition_matches_svd(delta):
    rng = np.random.default_rng(12)
    b = rng.normal(size=(60, 8)) * np.logspace(0, 2, 8)
    _, _, condition = solve_regularized(b, rng.normal(size=(60, 1)), delta)
    expected = np.linalg.cond(b.T @ b + delta * np.eye(8))
    np.testing.assert_allclose(condition, expected, rtol=1e-8)


def test_condition_infinite_for_rank_deficient():
    b = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    coef, _, condition = solve_regularized(b, np.ones((3, 1)), delta=0.0)
    assert condition == np.inf
    assert np.isfinite(coef).all()


def test_fit_targets_shares_kernel_across_columns():
    rng = np.random.default_rng(10)
    x = rng.uniform(-1, 1, size=(300, 2))
    targets = np.stack([x[:, 0] ** 2, np.sin(x[:, 1])], axis=1)
    kernel, coef, diags = fit_targets(x, targets, CondExpParams(n_centers=80))
    assert coef.shape == (2, 80)
    assert len(diags["residual_norms"]) == 2
    single_kernel, single_coef, _ = fit_targets(x, targets[:, 0],
                                                CondExpParams(n_centers=80))
    np.testing.assert_allclose(single_coef[0], coef[0], rtol=1e-10, atol=1e-12)


def sparse_design(seed=13, n=200, m=30):
    """A CSR ``B`` with about 15% of its entries and scaled columns."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, m)) * (rng.random((n, m)) < 0.15) * np.logspace(0, 1, m)
    dense[np.arange(m), np.arange(m)] += 1.0  # every column stored
    return sp.csr_array(dense), rng.normal(size=(n, 3))


@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_csr_design_matches_dense(delta, monkeypatch):
    b, g = sparse_design()
    dense = solve_regularized(b.toarray(), g, delta)
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    coef, residuals, condition = solve_regularized(b, g, delta)
    # delta = 0 still takes the least-squares solve, delta > 0 the Cholesky one
    assert len(calls) == (delta == 0.0)
    assert isinstance(coef, np.ndarray) and isinstance(residuals, np.ndarray)
    np.testing.assert_allclose(coef, dense[0], rtol=1e-10)
    np.testing.assert_allclose(residuals, dense[1], rtol=1e-10)
    np.testing.assert_allclose(condition, dense[2], rtol=1e-9)


def test_csr_design_rank_deficient_zero_ridge():
    b = sp.csr_array(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    coef, _, condition = solve_regularized(b, np.ones((3, 1)), delta=0.0)
    assert condition == np.inf
    assert np.isfinite(coef).all()


def test_csr_design_failure_raises():
    b = sp.csr_array(np.array([[np.nan, 1.0], [1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(SolverError):
        solve_regularized(b, np.ones((3, 1)), delta=0.1)


def test_blocked_sections_feed_eps3_pass(monkeypatch):
    # more than two row blocks: the CSR sections stacked into the eps3 pass
    # are those of one dense evaluation, same indices and same data bits
    rng = np.random.default_rng(14)
    n = 2 * _BLOCK_ROWS + 37
    x = rng.normal(size=(n, 2))
    y = np.stack([x[:, 0] * x[:, 1], np.cos(x[:, 0])], axis=1)
    passes = []
    markov_apply = condexp.markov_apply

    def spy(rows, cols, epsilon, values, theta_zero):
        passes.append(values)
        return markov_apply(rows, cols, epsilon, values, theta_zero)

    monkeypatch.setattr(condexp, "markov_apply", spy)
    kernel, _, _ = fit_targets(x, y, CondExpParams(n_centers=40))
    assert len(passes) == 2 and sp.issparse(passes[1])
    fed = passes[1][:, : kernel.n_centers]
    expected = sp.csr_array(section_matrix(kernel, x)[0])
    assert fed.has_canonical_format
    np.testing.assert_array_equal(fed.indptr, expected.indptr)
    np.testing.assert_array_equal(fed.indices, expected.indices)
    np.testing.assert_array_equal(fed.data, expected.data)


def test_far_input_past_first_block_named():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(_BLOCK_ROWS + 50, 1))
    x[_BLOCK_ROWS + 21] = 1e200
    params = CondExpParams(n_centers=20, eps1=0.1, eps2=0.1, eps3=0.1)
    with pytest.raises(ValueError, match=f"query point {_BLOCK_ROWS + 21} is too far"):
        fit_targets(x, np.zeros(len(x)), params)
