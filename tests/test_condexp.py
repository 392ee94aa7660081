import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from kerneldrift import (CondExpParams, NumericalError, condexp, diffusion_model, kernels,
                         section_matrix)
from kerneldrift.condexp import fit_targets, solve_regularized
from kerneldrift.kernels import _BLOCK_ROWS, select_bandwidth


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
    # a bool (a JSON true) is no ridge of 1
    with pytest.raises(ValueError, match=re.escape(
            "delta must be a real number in [0, inf), got True")):
        CondExpParams(delta=True)
    with pytest.raises(ValueError):
        CondExpParams(n_centers=0)
    # the Markov matrix's sparsity target is no knob
    with pytest.raises(TypeError):
        CondExpParams(eta3=0.01)


@pytest.mark.parametrize("field", ["eta1", "delta"])
def test_params_reject_nan(field):
    # a NaN passes every comparison-based range check written as `value < 0`,
    # and an infinite ridge passes one written as `value > 0`
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=field):
            CondExpParams(**{field: value})


def test_params_reject_too_few_centers():
    # the fit's own message, before any bandwidth is selected
    with pytest.raises(ValueError, match="n_centers must be at least 2, got 1"):
        CondExpParams(n_centers=1)


def test_params_reject_non_integer_centers():
    # a float count is never truncated, and a bool is never read as a count
    with pytest.raises(TypeError):
        CondExpParams(n_centers=50.0)
    with pytest.raises(ValueError, match="n_centers must be an integer"):
        CondExpParams(n_centers=True)
    with pytest.raises(ValueError, match="n_centers must be an integer"):
        CondExpParams(n_centers=np.True_)
    assert type(CondExpParams(n_centers=np.int64(50)).n_centers) is int


def test_fit_targets_centers_strided():
    # the kernel centers are every (N // M)-th input
    inputs = np.random.default_rng(2).normal(size=(20, 2))
    params = CondExpParams(n_centers=5)
    kernel, _, _ = fit_targets(inputs, inputs[:, 0], params)
    np.testing.assert_array_equal(kernel.centers, inputs[[0, 4, 8, 12, 16]])
    with pytest.raises(ValueError, match="n_centers=5 exceeds the number of inputs 4"):
        fit_targets(inputs[:4], inputs[:4, 0], params)


def test_bandwidths_are_the_sparsity_targets_quantiles():
    # one rule for all three: select_bandwidth at the target's eta; the
    # Markov matrix's is a fixed 1%, whatever eta2 is
    inputs = np.random.default_rng(16).normal(size=(400, 2))
    params = CondExpParams(eta1=0.02, eta2=0.05, n_centers=40)
    _, _, diagnostics = fit_targets(inputs, inputs[:, 0], params)
    for i, eta in ((1, 0.02), (2, 0.05), (3, 0.01)):
        assert diagnostics[f"eps{i}"] == select_bandwidth(inputs, eta)


def test_one_distance_sample_per_fit(monkeypatch):
    # the three bandwidths come from one select_bandwidth call and one pdist,
    # etas in the order eta1, the Markov matrix's fixed 0.01, eta2
    calls, pdists = [], []
    select, pdist = condexp.select_bandwidth, kernels.pdist

    def select_spy(data, eta, *args, **kwargs):
        calls.append(eta)
        return select(data, eta, *args, **kwargs)

    monkeypatch.setattr(condexp, "select_bandwidth", select_spy)
    monkeypatch.setattr(kernels, "pdist", lambda *a, **k: pdists.append(1) or pdist(*a, **k))
    inputs = np.random.default_rng(16).normal(size=(400, 2))
    params = CondExpParams(eta1=0.02, eta2=0.05, n_centers=40)
    fit_targets(inputs, inputs[:, 0], params)
    assert calls == [(0.02, 0.01, 0.05)]
    assert len(pdists) == 1


def test_failing_bandwidth_names_first_eta():
    # coincident inputs fail at eta1, the first bandwidth a fit selects
    inputs = np.zeros((50, 2))
    with pytest.raises(NumericalError, match=re.escape(
            "the 0.02-quantile of pairwise squared distances is zero")):
        fit_targets(inputs, inputs[:, 0], CondExpParams(eta1=0.02, n_centers=5))


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
    # wide sparsity targets keep the normal matrix's eigenvalues near unit
    # scale, where delta in [1e-3, 1] competes with them: the residual rises
    # visibly at every step, not just by rounding
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, size=60)
    y = np.sin(2 * x) + 0.3 * rng.standard_normal(60)
    residuals = []
    for delta in (0.0, 1e-3, 1e-1, 1.0):
        params = CondExpParams(n_centers=20, delta=delta, eta1=0.2, eta2=0.5)
        residuals.append(fit_1d(x, y, params)[2]["residual_norms"][0])
    assert all(a < b for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] > 1.01 * residuals[0]


def test_permutation_equivariance():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, size=(120, 1))
    y = np.cos(3 * x[:, 0])
    # the bandwidths' 10% subsample is every 10th row and the centers every
    # 4th: permuting the other rows keeps both, so the model is intrinsic
    params = CondExpParams(n_centers=30, delta=0.1)
    base = fit_targets(x, y, params)
    rest = np.array([i for i in range(120) if i % 10 and i % 4])
    perm = np.arange(120)
    perm[rest] = rest[rng.permutation(len(rest))]
    shuffled = fit_targets(x[perm], y[perm], params)
    for name in ("eps1", "eps2", "eps3"):
        assert base[2][name] == shuffled[2][name]
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
    with pytest.raises(NumericalError, match="least-squares solve failed: "):
        solve_regularized(b, np.ones((4, 1)), delta=0.1)


@pytest.mark.parametrize("delta", [0.0, 0.1, 10.0])
def test_condition_matches_svd(delta):
    # the 1-norm condition, read off the Cholesky factor for delta > 0
    rng = np.random.default_rng(12)
    b = rng.normal(size=(60, 8)) * np.logspace(0, 2, 8)
    _, _, condition = solve_regularized(b, rng.normal(size=(60, 1)), delta)
    expected = np.linalg.cond(b.T @ b + delta * np.eye(8), 1)
    np.testing.assert_allclose(condition, expected, rtol=1e-8)


def raise_eigen(*args, **kwargs):
    raise AssertionError("an eigendecomposition was computed")


@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_no_eigendecomposition(delta, monkeypatch):
    # the solve factors once; its condition needs no eigenvalues
    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"), (scipy.linalg, "eigh")):
        monkeypatch.setattr(module, name, raise_eigen)
    inputs = np.random.default_rng(16).normal(size=(400, 2))
    _, coef, diagnostics = fit_targets(inputs, inputs[:, 0], CondExpParams(n_centers=40,
                                                                            delta=delta))
    assert np.isfinite(coef).all() and diagnostics["normal_condition"] > 1
    b, g = sparse_design()
    coef, _, condition = solve_regularized(b, g, delta)
    assert np.isfinite(coef).all() and np.isfinite(condition)


def test_condition_bounds_eigenvalue_ratio(monkeypatch):
    # on a real fit's normal matrix the 1-norm condition lies within a factor
    # of M of the 2-norm one: kappa_1 / M <= kappa_2 <= M kappa_1
    designs = []
    solve = condexp.solve_regularized

    def spy(b, g, delta):
        designs.append(b)
        return solve(b, g, delta)

    monkeypatch.setattr(condexp, "solve_regularized", spy)
    inputs = np.random.default_rng(17).normal(size=(2000, 2))
    params = CondExpParams(n_centers=200)
    _, _, diagnostics = fit_targets(inputs, np.sin(inputs), params)
    normal = (designs[0].T @ designs[0]).toarray() + params.delta * np.eye(200)
    eigenvalues = np.linalg.eigvalsh(normal)
    ratio = eigenvalues[-1] / eigenvalues[0]
    condition = diagnostics["normal_condition"]
    assert ratio / 200 <= condition <= 200 * ratio
    np.testing.assert_allclose(condition, np.linalg.cond(normal, 1), rtol=1e-8)


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
    with pytest.raises(NumericalError, match="least-squares solve failed: "):
        solve_regularized(b, np.ones((3, 1)), delta=0.1)


def test_blocked_sections_feed_eps3_pass(monkeypatch):
    # more than two row blocks: the CSR sections stacked into the eps3 pass
    # are those of one dense evaluation, same indices and same data bits;
    # rows that fall back, among them one input far outside the cloud and
    # no center, are table rows
    rng = np.random.default_rng(14)
    n = 2 * _BLOCK_ROWS + 37
    x = rng.normal(size=(n, 2))
    far = 2 * _BLOCK_ROWS + 1
    x[far] = [40.0, -40.0]
    y = np.stack([x[:, 0] * x[:, 1], np.cos(x[:, 0])], axis=1)
    passes = []
    markov_apply = condexp.markov_apply

    def spy(rows, cols, epsilon, values, **kwargs):
        passes.append(values)
        return markov_apply(rows, cols, epsilon, values, **kwargs)

    monkeypatch.setattr(condexp, "markov_apply", spy)
    kernel, _, _ = fit_targets(x, y, CondExpParams(n_centers=40))
    assert len(passes) == 2 and sp.issparse(passes[1])
    flags = section_matrix(kernel, x)[1]
    assert flags[far] and not flags.all()
    fed = passes[1][:, : kernel.n_centers]
    expected = sp.csr_array(section_matrix(kernel, x)[0])
    assert fed.has_canonical_format
    np.testing.assert_array_equal(fed.indptr, expected.indptr)
    np.testing.assert_array_equal(fed.indices, expected.indices)
    np.testing.assert_array_equal(fed.data, expected.data)


@pytest.mark.parametrize("eta1", [0.001, 0.003, 0.01, 0.05])
def test_shared_pair_list_matches_two_passes(eta1):
    # the fit lists pairs once, at the wider of the eps1 and eps3 cutoffs;
    # its coefficients are those of two passes that each list their own,
    # with eps1 narrower than, equal to (P's fixed 1%) and wider than eps3
    rng = np.random.default_rng(16)
    x = rng.normal(size=(900, 2))
    y = np.stack([np.sin(x[:, 0]) * x[:, 1], x[:, 0] ** 2], axis=1)
    params = CondExpParams(eta1=eta1, n_centers=45)
    kernel, coef, diagnostics = fit_targets(x, y, params)
    eps1, eps3, eps2 = select_bandwidth(x, (eta1, 0.01, params.eta2))
    assert (eps1, eps3) == (diagnostics["eps1"], diagnostics["eps3"])
    assert np.sign(eps1 - eps3) == np.sign(eta1 - 0.01)
    sections = sp.csr_array(section_matrix(diffusion_model(kernel.centers, eps2), x)[0])
    smoothed = kernels.markov_apply(x, x, eps1, y)
    stacked = kernels.markov_apply(x, x, eps3,
                                   sp.hstack([sections, sp.csr_array(smoothed)], format="csr"))
    m = kernel.n_centers
    expected = solve_regularized(stacked[:, :m], stacked[:, m:].toarray(), params.delta)[0]
    np.testing.assert_array_equal(coef, expected.T)


def test_far_input_past_first_block_named():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(_BLOCK_ROWS + 50, 1))
    x[_BLOCK_ROWS + 21] = 1e200
    params = CondExpParams(n_centers=20)
    with pytest.raises(ValueError, match=f"query point {_BLOCK_ROWS + 21} is too far"):
        fit_targets(x, np.zeros(len(x)), params)
