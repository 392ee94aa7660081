import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from kerneldrift import (
    DegenerateBandwidthError,
    IsolatedPointError,
    diffusion_model,
    section_matrix,
    select_bandwidth,
)
from kerneldrift.kernels import (
    kernel_model_from_dict,
    kernel_model_to_dict,
    markov_apply,
)


def cloud(n=60, d=2, seed=0, scale=1.0):
    return scale * np.random.default_rng(seed).normal(size=(n, d))


def dense_gaussian(xs, ys, eps):
    out = np.empty((len(xs), len(ys)))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i, j] = math.exp(-np.sum((x - y) ** 2) / eps)
    return out


def markov_dense(rows, cols, eps):
    """The Markov matrix itself: its action on the identity."""
    return markov_apply(rows, cols, eps, np.eye(len(cols)))


def thresholded_oracle(rows, cols, eps, theta_zero=1e-14):
    """Dense evaluation of the raw kernel with sub-threshold values zeroed."""
    raw = np.exp(-cdist(rows, cols, "sqeuclidean") / eps)
    raw[raw < theta_zero] = 0.0
    return raw


def left_degrees(model):
    """deg_l at the centers: mean_j g(c_i, c_j) / deg_r(c_j)."""
    raw = thresholded_oracle(model.centers, model.centers, model.epsilon, model.theta_zero)
    return (raw * (1.0 / model.deg_r)).sum(axis=1) / model.n_centers


def symmetrized_oracle(model, data):
    """g(x, y) / sqrt(deg_r(x) deg_l(x) deg_r(y) deg_l(y)) at the centers."""
    raw = thresholded_oracle(data, data, model.epsilon, model.theta_zero)
    degrees = model.deg_r * left_degrees(model)
    return raw / np.sqrt(np.outer(degrees, degrees))


def expansion(model, coeffs, points):
    """sum_j a_j k(x, c_j) at each query point, from section_matrix rows."""
    sections, flags = section_matrix(model, points)
    return (sections * coeffs).sum(axis=1), flags


class TestSelectBandwidth:
    def test_two_points_unit_distance(self):
        data = np.array([[0.0, 0.0], [1.0, 0.0]])
        eps = select_bandwidth(data, eta=0.999, subsample_fraction=1.0)
        assert abs(eps - 1.0 / math.log(1e14)) < 1e-15

    def test_scaling_quadratic(self):
        base = select_bandwidth(cloud(seed=4), eta=0.3, subsample_fraction=1.0)
        scaled = select_bandwidth(3.0 * cloud(seed=4), eta=0.3, subsample_fraction=1.0)
        assert abs(scaled - 9.0 * base) < 1e-12 * scaled

    def test_achieved_sparsity_fraction(self):
        data = cloud(n=200, seed=7)
        eps = select_bandwidth(data, eta=0.25, subsample_fraction=1.0)
        from scipy.spatial.distance import pdist

        values = np.exp(-pdist(data, "sqeuclidean") / eps)
        frac = np.mean(values >= 1e-14)
        assert abs(frac - 0.25) <= 2.0 / len(values)

    def test_monotone_in_eta(self):
        data = cloud(n=100, seed=2)
        epss = [
            select_bandwidth(data, eta=eta, subsample_fraction=1.0)
            for eta in (0.05, 0.2, 0.5, 0.9)
        ]
        assert all(a <= b for a, b in zip(epss, epss[1:]))

    def test_coincident_points_degenerate(self):
        data = np.zeros((10, 2))
        with pytest.raises(DegenerateBandwidthError):
            select_bandwidth(data, eta=0.5, subsample_fraction=1.0)

    def test_policy_validation(self):
        data = cloud(n=10, seed=1)
        with pytest.raises(ValueError, match="eta"):
            select_bandwidth(data, eta=1.5)
        with pytest.raises(ValueError, match="theta_zero"):
            select_bandwidth(data, eta=0.5, theta_zero=2.0)
        with pytest.raises(ValueError, match="subsample_fraction"):
            select_bandwidth(data, eta=0.5, subsample_fraction=0.0)


class TestMarkovMatrix:
    def test_single_column(self):
        rows = cloud(n=10, seed=0)
        mm = markov_dense(rows, rows[:1], eps=0.5)
        np.testing.assert_allclose(mm, np.ones((10, 1)), rtol=1e-12)

    def test_equidistant_rows_uniform(self):
        # rows equidistant from every column get the uniform distribution
        cols = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        centroid = cols.mean(axis=0)
        rows = np.vstack([centroid, centroid])
        mm = markov_dense(rows, cols, eps=1.0)
        np.testing.assert_allclose(mm, np.full((2, 3), 1 / 3), atol=1e-15)

    def test_matches_dense_oracle(self):
        rows = cloud(n=10, seed=3)
        cols = cloud(n=10, seed=4)
        eps = 0.8
        dense = dense_gaussian(rows, cols, eps)
        dense[dense < 1e-14] = 0.0
        expected = dense / dense.sum(axis=1, keepdims=True)
        got = markov_dense(rows, cols, eps)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("case", ["d1", "d3_rows_ne_cols", "duplicates"])
    def test_radius_assembly_matches_dense_oracle(self, case):
        if case == "d1":
            rows = cols = cloud(n=120, d=1, seed=30, scale=3.0)
            eps = 0.01
        elif case == "d3_rows_ne_cols":
            rows = cloud(n=90, d=3, seed=31)
            cols = cloud(n=70, d=3, seed=32)
            eps = 0.1
        else:
            base = cloud(n=50, seed=33, scale=2.0)
            rows = cols = np.vstack([base, base[:20], base[:5]])
            eps = 0.05
        raw = thresholded_oracle(rows, cols, eps)
        assert (raw == 0.0).any()  # the threshold drops some entries
        expected = raw / raw.sum(axis=1, keepdims=True)
        got = markov_dense(rows, cols, eps)
        np.testing.assert_array_equal(got != 0.0, raw != 0.0)
        assert np.abs(got - expected).max() <= 1e-12

    @pytest.mark.parametrize("far, theta_zero", [
        ((3.0, 4.0), 1e-14),
        # a kept pair that an unpadded radius query would miss
        ((1.0, 0.0), 0.22),
    ])
    def test_threshold_boundary_matches_oracle(self, far, theta_zero):
        # the squared distance to `far` is exact, so only the threshold
        # test decides; bandwidths a few ulps either side of the boundary
        rows = np.zeros((1, 2))
        cols = np.array([[0.0, 0.0], far])
        sq = far[0] ** 2 + far[1] ** 2
        base = sq / math.log(1.0 / theta_zero)
        decisions = set()
        for ulps in range(-4, 5):
            eps = base * (1.0 + ulps * 2.0**-52)
            kept = bool(thresholded_oracle(rows, cols, eps, theta_zero)[0, 1] > 0.0)
            got = markov_apply(rows, cols, eps, np.eye(2), theta_zero)
            assert (got[0, 1] != 0.0) == kept, ulps
            decisions.add(kept)
        assert decisions == {False, True}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            markov_apply(cloud(n=5, d=2), cloud(n=5, d=3), 1.0, np.ones(5))

    def test_rows_sum_to_one(self):
        data = cloud(n=150, seed=5)
        eps = select_bandwidth(data, eta=0.3, subsample_fraction=1.0)
        sums = markov_dense(data, data, eps).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_entries_positive_and_thresholded(self):
        data = cloud(n=80, seed=6, scale=4.0)
        eps = 0.05
        mm = markov_dense(data, data, eps)
        assert (mm >= 0).all()
        # stored pattern = entries of the raw kernel at or above the threshold
        raw = dense_gaussian(data, data, eps)
        np.testing.assert_array_equal(mm != 0, raw >= 1e-14)

    def test_isolated_row(self):
        rows = np.array([[0.0, 0.0], [100.0, 100.0]])
        cols = np.array([[0.0, 0.0], [0.1, 0.0]])
        with pytest.raises(IsolatedPointError) as info:
            markov_dense(rows, cols, eps=1e-3)
        assert info.value.row == 1

    def test_sparsification_consistency(self):
        # densify + renormalize differs from the no-threshold oracle by at
        # most n * theta_zero per row (dropped mass is below the threshold)
        data = cloud(n=120, seed=8, scale=3.0)
        eps = 0.1
        sparse = markov_dense(data, data, eps)
        dense = dense_gaussian(data, data, eps)
        dense = dense / dense.sum(axis=1, keepdims=True)
        row_gap = np.abs(sparse - dense).sum(axis=1)
        assert row_gap.max() <= len(data) * 1e-14

    def test_markov_apply_matches_matrix(self):
        data = cloud(n=90, seed=9)
        eps = 0.4
        rng = np.random.default_rng(0)
        values = rng.normal(size=(90, 3))
        raw = thresholded_oracle(data, data, eps)
        expected = (raw / raw.sum(axis=1, keepdims=True)) @ values
        np.testing.assert_allclose(markov_apply(data, data, eps, values), expected,
                                   rtol=1e-12, atol=1e-14)
        vec = values[:, 0]
        np.testing.assert_allclose(markov_apply(data, data, eps, vec),
                                   expected[:, 0], rtol=1e-12, atol=1e-14)


class TestDiffusionModel:
    def test_two_point_symmetry(self):
        pts = np.array([[0.0], [1.0]])
        model = diffusion_model(pts, epsilon=0.5)
        kdiff, _ = section_matrix(model, pts)
        # same geometry at both points
        assert abs(model.deg_r[0] - model.deg_r[1]) < 1e-15
        deg_l = left_degrees(model)
        rho = np.sqrt(deg_l / model.deg_r)
        ktilde = rho[:, None] * kdiff / rho[None, :]
        np.testing.assert_allclose(ktilde, ktilde.T, atol=1e-15)
        # scaling check at the diagonal: k(x,x) deg_r(x) deg_l(x) = 1
        for i in range(2):
            assert abs(kdiff[i, i] * model.deg_r[i] * deg_l[i] - 1.0) < 1e-14

    def test_equilateral_constant_offdiagonal(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        dense, _ = section_matrix(diffusion_model(pts, epsilon=1.0), pts)
        off = dense[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, off[0], rtol=1e-12)

    def test_degrees_against_oracle(self):
        data = cloud(n=40, seed=11)
        eps = 0.6
        model = diffusion_model(data, eps)
        raw = dense_gaussian(data, data, eps)
        raw[raw < 1e-14] = 0.0
        deg_r = raw.mean(axis=1)
        deg_l = (raw / deg_r[None, :]).mean(axis=1)
        np.testing.assert_allclose(model.deg_r, deg_r, rtol=1e-12)
        np.testing.assert_allclose(left_degrees(model), deg_l, rtol=1e-12)
        np.testing.assert_allclose(
            section_matrix(model, data)[0], raw / np.outer(deg_l, deg_r),
            rtol=1e-10, atol=1e-12
        )

    def test_symmetrization_identity(self):
        # conjugating by rho = sqrt(deg_l/deg_r) reproduces the symmetric form
        data = cloud(n=200, seed=12)
        eps = select_bandwidth(data, eta=0.5, subsample_fraction=1.0)
        model = diffusion_model(data, eps)
        kdiff, _ = section_matrix(model, data)
        rho = np.sqrt(left_degrees(model) / model.deg_r)
        lhs = rho[:, None] * kdiff / rho[None, :]
        ktilde = symmetrized_oracle(model, data)
        np.testing.assert_allclose(lhs, ktilde, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(lhs, lhs.T, atol=1e-12)


class TestEvaluateExpansion:
    def test_diffusion_in_sample_matches_dense_oracle(self):
        data = cloud(n=50, seed=15)
        eps = 0.8
        model = diffusion_model(data, eps)
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=50)
        raw = dense_gaussian(data, data, eps)
        raw[raw < 1e-14] = 0.0
        dense = raw / np.outer(left_degrees(model), model.deg_r)
        for i in (0, 17, 33):
            (value,), (flag,) = expansion(model, coeffs, data[i])
            assert not flag
            assert abs(value - dense[i] @ coeffs) < 1e-10

    def test_out_of_sample_against_direct_formula(self):
        data = cloud(n=40, seed=16)
        eps = 0.7
        model = diffusion_model(data, eps)
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=40)
        x = rng.normal(size=2)
        raw = np.exp(-np.sum((data - x) ** 2, axis=1) / eps)
        raw[raw < 1e-14] = 0.0
        rho_l = np.mean(raw / model.deg_r)
        expected = np.sum(coeffs * raw / (rho_l * model.deg_r))
        (value,), (flag,) = expansion(model, coeffs, x)
        assert not flag
        assert abs(value - expected) < 1e-10

    def test_far_field_fallback(self):
        data = cloud(n=20, seed=17)
        eps = 0.5
        model = diffusion_model(data, eps)
        coeffs = np.random.default_rng(4).normal(size=20)
        far = data[3] + np.array([1.0, 0.0]) * np.sqrt(1e4 * eps)
        (value,), (flag,) = expansion(model, coeffs, far)
        assert flag
        nearest = data[np.argmin(np.sum((data - far) ** 2, axis=1))]
        (expected,), (nf,) = expansion(model, coeffs, nearest)
        assert not nf
        assert value == expected

    def test_overflowing_far_query_rejected(self):
        # every squared distance to the centers overflows to inf, so no
        # nearest center can be told apart
        model = diffusion_model(cloud(n=50, seed=21), 0.5)
        with pytest.raises(ValueError, match="query point 1 "):
            section_matrix(model, np.array([[0.0, 0.0], [1e160, 0.0]]))

    def test_distant_query_falls_back_to_true_nearest_center(self):
        data = cloud(n=50, seed=21)
        model = diffusion_model(data, 0.5)
        far = np.array([1e10, 0.0])
        sections, flags = section_matrix(model, far)
        assert flags[0]
        nearest = np.argmin(((data - far) ** 2).sum(axis=1))
        assert nearest != 0  # centre 0 is what an all-inf argmin would pick
        np.testing.assert_array_equal(sections[0], section_matrix(model, data[nearest])[0][0])


def test_kernel_model_roundtrip():
    data = cloud(n=15, seed=20)
    model = diffusion_model(data, 0.4)
    payload = kernel_model_to_dict(model)
    assert payload["kind"] == "diffusion"
    loaded = kernel_model_from_dict(payload)
    assert loaded.epsilon == model.epsilon
    np.testing.assert_array_equal(loaded.centers, model.centers)
    np.testing.assert_array_equal(loaded.deg_r, model.deg_r)
    assert "deg_l" not in payload
    # older files carry left degrees; they are ignored
    older = kernel_model_from_dict(dict(payload, deg_l=left_degrees(model).tolist()))
    np.testing.assert_array_equal(section_matrix(older, data)[0],
                                  section_matrix(model, data)[0])
    # only the diffusion kernel is a model kind
    with pytest.raises(ValueError, match="kernel kind"):
        kernel_model_from_dict(dict(payload, kind="gaussian"))
