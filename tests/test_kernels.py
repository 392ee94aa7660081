import json
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

from kerneldrift import (
    DriftModel,
    KernelModel,
    NumericalError,
    diffusion_model,
    section_matrix,
    select_bandwidth,
)
from kerneldrift import kernels
from kerneldrift.drift import load_drift_model, save_drift_model
from kerneldrift.kernels import THETA_ZERO, _cutoff, _gaussian_pairs, _narrowed, markov_apply


def cloud(n=60, d=2, seed=0, scale=1.0):
    return scale * np.random.default_rng(seed).normal(size=(n, d))


def all_pairs(data):
    """Each point of ``data`` ten times over: the strided tenth that
    select_bandwidth measures is ``data`` itself, every pair of it."""
    return np.repeat(data, 10, axis=0)


def dense_gaussian(xs, ys, eps):
    out = np.empty((len(xs), len(ys)))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i, j] = math.exp(-np.sum((x - y) ** 2) / eps)
    return out


def markov_dense(points, eps):
    """The Markov matrix itself: its action on the identity."""
    return markov_apply(points, points, eps, np.eye(len(points)))


def thresholded_oracle(rows, cols, eps):
    """Dense evaluation of the raw kernel with values below the zero
    threshold zeroed (read when called, so a test may patch it)."""
    raw = np.exp(-cdist(rows, cols, "sqeuclidean") / eps)
    raw[raw < kernels.THETA_ZERO] = 0.0
    return raw


def assert_markov_matches_oracle(points, eps):
    """The raw pairs of one cloud carry the dense oracle's stored pattern and
    g bits exactly; the Markov matrix, assembled from them, is the oracle
    with each row divided by its sum, to rounding.  Returns the raw oracle."""
    raw = thresholded_oracle(points, points, eps)
    indptr, j, sq, _ = _gaussian_pairs(points, eps)
    pairs = np.zeros_like(raw)
    pairs[row_indices(indptr), j] = kernels._gaussian(sq, eps)
    np.testing.assert_array_equal(pairs, raw)
    # the threshold as read now: markov_apply's default was bound at import
    matrix = markov_apply(points, points, eps, sp.eye_array(len(points), format="csr"),
                          kernels.THETA_ZERO)
    stored = np.zeros(raw.shape, dtype=bool)
    stored[np.arange(len(points)).repeat(np.diff(matrix.indptr)), matrix.indices] = True
    np.testing.assert_array_equal(stored, raw != 0.0)
    np.testing.assert_allclose(matrix.toarray(), raw / raw.sum(axis=1, keepdims=True),
                               rtol=1e-12, atol=1e-15)
    return raw


def row_indices(indptr):
    """The row of each entry of a CSR list."""
    return np.arange(len(indptr) - 1).repeat(np.diff(indptr))


def section_oracle(model, points):
    """Dense section rows and fallback flags, every distance from ``cdist``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    sq = cdist(points, model.centers, "sqeuclidean")
    sections = thresholded_oracle(points, model.centers, model.epsilon)
    extrapolated = ~sections.any(axis=1)
    nearest = model.centers[np.argmin(sq[extrapolated], axis=1)]
    sections[extrapolated] = thresholded_oracle(nearest, model.centers, model.epsilon)
    sections *= 1.0 / model.deg_r
    sections /= (sections.sum(axis=1) / model.n_centers)[:, None]
    return sections, extrapolated


def assert_sections_match_oracle(model, points):
    raw = thresholded_oracle(model.centers, model.centers, model.epsilon)
    np.testing.assert_array_equal(model.deg_r, raw.sum(axis=1) / model.n_centers)
    sections, flags = section_matrix(model, points)
    expected, expected_flags = section_oracle(model, points)
    np.testing.assert_array_equal(flags, expected_flags)
    np.testing.assert_array_equal(sections, expected)
    return flags


def left_degrees(model):
    """deg_l at the centers: mean_j g(c_i, c_j) / deg_r(c_j)."""
    raw = thresholded_oracle(model.centers, model.centers, model.epsilon)
    return (raw * (1.0 / model.deg_r)).sum(axis=1) / model.n_centers


def symmetrized_oracle(model, data):
    """g(x, y) / sqrt(deg_r(x) deg_l(x) deg_r(y) deg_l(y)) at the centers."""
    raw = thresholded_oracle(data, data, model.epsilon)
    degrees = model.deg_r * left_degrees(model)
    return raw / np.sqrt(np.outer(degrees, degrees))


def expansion(model, coeffs, points):
    """sum_j a_j k(x, c_j) at each query point, from section_matrix rows."""
    sections, flags = section_matrix(model, points)
    return (sections * coeffs).sum(axis=1), flags


class TestSelectBandwidth:
    def test_two_points_unit_distance(self):
        data = np.array([[0.0, 0.0], [1.0, 0.0]])
        eps = select_bandwidth(all_pairs(data), eta=0.999)
        assert abs(eps - 1.0 / math.log(1e14)) < 1e-15

    def test_scaling_quadratic(self):
        base = select_bandwidth(all_pairs(cloud(seed=4)), eta=0.3)
        scaled = select_bandwidth(all_pairs(3.0 * cloud(seed=4)), eta=0.3)
        assert abs(scaled - 9.0 * base) < 1e-12 * scaled

    def test_achieved_sparsity_fraction(self):
        data = cloud(n=200, seed=7)
        eps = select_bandwidth(all_pairs(data), eta=0.25)
        values = np.exp(-pdist(data, "sqeuclidean") / eps)
        frac = np.mean(values >= 1e-14)
        assert abs(frac - 0.25) <= 2.0 / len(values)

    def test_monotone_in_eta(self):
        data = cloud(n=100, seed=2)
        etas = (0.05, 0.2, 0.5, 0.9)
        epss = [select_bandwidth(all_pairs(data), eta=eta) for eta in etas]
        assert all(a <= b for a, b in zip(epss, epss[1:]))
        # the same four bandwidths from one sample
        together = select_bandwidth(all_pairs(data), eta=etas)
        assert together.tolist() == epss

    @pytest.mark.parametrize(("n", "step"), [(3, 1), (25, 12), (1237, 9)])
    def test_sequence_equals_scalar_calls(self, n, step):
        # one subsample, pdist and partition for every eta, a repeated one
        # included, each == its own scalar call; the subsample is every
        # step-th point, a tenth of them and at least 2
        data = cloud(n=n, d=3, seed=24)
        etas = (0.003, 0.5, 0.01, 0.003, 1e-4, 0.999)
        together = select_bandwidth(data, etas)
        assert isinstance(together, np.ndarray) and together.shape == (6,)
        for eta, eps in zip(etas, together):
            assert eps == select_bandwidth(data, eta)
        assert together[0] == together[3]
        assert select_bandwidth(data, [0.01]).shape == (1,)
        theta = 1.0 / np.log(1.0 / THETA_ZERO)
        reference = theta * np.quantile(pdist(data[::step], "sqeuclidean"), etas)
        assert together.tolist() == reference.tolist()

    def test_coincident_points_degenerate(self):
        data = np.zeros((10, 2))
        with pytest.raises(NumericalError, match="quantile of pairwise squared distances "
                                                 r"is zero \(coincident subsample points\)"):
            select_bandwidth(data, eta=0.5)
        # a sequence names its first eta, with the scalar call's message
        with pytest.raises(NumericalError, match=re.escape(
                "the 0.2-quantile of pairwise squared distances is zero (coincident "
                "subsample points)")):
            select_bandwidth(data, eta=(0.2, 0.5))

    def test_policy_validation(self):
        data = cloud(n=10, seed=1)
        with pytest.raises(ValueError, match="eta"):
            select_bandwidth(data, eta=1.5)
        # one eta out of (0, 1) rejects the sequence, and is named
        for etas, bad in (((0.1, 1.5, 0.2), "1.5"), ([0.1, 0.0], "0.0"),
                          ((0.3, float("nan")), "nan")):
            with pytest.raises(ValueError, match=re.escape(
                    f"eta must be a real number in (0, 1), got {bad}")):
                select_bandwidth(data, eta=etas)

    def test_overflowing_quantile_rejected(self):
        # the 0.99-quantile interpolates between two overflowed (inf)
        # squared distances; the 0.5-quantile is finite and keeps its bits
        data = np.vstack([cloud(n=50, seed=0), [[1e160, 1e160]]])
        with pytest.raises(ValueError, match="squared distances overflow"):
            select_bandwidth(all_pairs(data), eta=0.99)
        eps = select_bandwidth(all_pairs(data), eta=0.5)
        assert eps == float.fromhex("0x1.6a223fab147d9p-4")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_data_rejected(self, bad):
        # every point is checked, not only the subsample's (points 0 and 5)
        data = cloud(n=10, seed=1)
        data[4, 1] = bad
        with pytest.raises(ValueError, match="data point 4 is not finite"):
            select_bandwidth(data, eta=0.5)

    def test_distances_held_once(self):
        # the quantile partitions the pdist temporary in place: the bits of
        # the quantile of a copy, at a peak near one pdist, not two
        data = cloud(n=2000, d=3, seed=72)
        repeated = all_pairs(data)
        sq = pdist(data, "sqeuclidean")
        theta = 1.0 / np.log(1.0 / 1e-14)
        for eta in (0.003, 0.01, 0.5):
            eps = select_bandwidth(repeated, eta)
            assert eps == theta * float(np.quantile(sq.copy(), eta))
        # a scalar eta and a sequence of them alike
        for eta in (0.01, (0.003, 0.01, 0.5)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                select_bandwidth(repeated, eta)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 1.3 * sq.nbytes


class TestMarkovMatrix:
    def test_single_column(self):
        # one value column: a constant one is kept, and a one-point cloud
        # keeps its own value
        points = cloud(n=10, seed=0)
        got = markov_apply(points, points, 0.5, np.full((10, 1), 2.5))
        np.testing.assert_allclose(got, 2.5, rtol=1e-12)
        one = points[:1]
        np.testing.assert_array_equal(markov_apply(one, one, 0.5, [[3.0]]), [[3.0]])

    def test_equidistant_rows_uniform(self):
        # the corners of an equilateral triangle are equidistant: each row
        # spreads the same weight uniformly over the two other corners
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        off = math.exp(-1.0)
        expected = np.full((3, 3), off / (1.0 + 2.0 * off))
        np.fill_diagonal(expected, 1.0 / (1.0 + 2.0 * off))
        np.testing.assert_allclose(markov_dense(points, eps=1.0), expected, rtol=1e-12)

    def test_matches_dense_oracle(self):
        points = cloud(n=10, seed=3)
        eps = 0.8
        dense = dense_gaussian(points, points, eps)
        dense[dense < 1e-14] = 0.0
        expected = dense / dense.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(markov_dense(points, eps), expected, atol=1e-12)
        assert_markov_matches_oracle(points, eps)

    @pytest.mark.parametrize("case", ["d1", "d3", "duplicates"])
    def test_radius_assembly_matches_dense_oracle(self, case):
        if case == "d1":
            points = cloud(n=120, d=1, seed=30, scale=3.0)
            eps = 0.01
        elif case == "d3":
            points = cloud(n=90, d=3, seed=31)
            eps = 0.1
        else:
            base = cloud(n=50, seed=33, scale=2.0)
            points = np.vstack([base, base[:20], base[:5]])
            eps = 0.05
        raw = assert_markov_matches_oracle(points, eps)
        assert (raw == 0.0).any()  # the threshold drops some entries

    @pytest.mark.parametrize("far, theta_zero", [
        ((3.0, 4.0), 1e-14),
        # a kept pair that an unpadded radius query would miss; no such
        # pair turns up at 1e-14, so the threshold is patched for it
        ((1.0, 0.0), 0.22),
    ])
    def test_threshold_boundary_matches_oracle(self, far, theta_zero, monkeypatch):
        # the squared distances from the origin to `far` and `-far` are
        # exact, so only the threshold test decides; bandwidths a few ulps
        # either side of the boundary
        monkeypatch.setattr(kernels, "THETA_ZERO", theta_zero)
        points = np.array([[0.0, 0.0], far, [-far[0], -far[1]]])
        sq = far[0] ** 2 + far[1] ** 2
        base = sq / math.log(1.0 / theta_zero)
        decisions = set()
        for ulps in range(-4, 5):
            eps = base * (1.0 + ulps * 2.0**-52)
            raw = assert_markov_matches_oracle(points, eps)
            decisions.add(bool(raw[0, 1] > 0.0))
        assert decisions == {False, True}

    @pytest.mark.parametrize("far, theta_zero", [
        ((3.0, 4.0), 1e-14),
        ((1.0, 0.0), 0.22),
    ])
    def test_threshold_boundary_self_pairs(self, far, theta_zero, monkeypatch):
        # the same boundary with rows is cols, where each pair is listed
        # once and keyed in both orientations
        monkeypatch.setattr(kernels, "THETA_ZERO", theta_zero)
        points = np.array([[0.0, 0.0], far])
        base = (far[0] ** 2 + far[1] ** 2) / math.log(1.0 / theta_zero)
        decisions = set()
        for ulps in range(-4, 5):
            eps = base * (1.0 + ulps * 2.0**-52)
            kept = bool(thresholded_oracle(points, points, eps)[0, 1] > 0.0)
            got = markov_apply(points, points, eps, np.eye(2), theta_zero)
            assert (got[0, 1] != 0.0) == kept, ulps
            assert (got[1, 0] != 0.0) == kept, ulps
            decisions.add(kept)
        assert decisions == {False, True}

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_self_pairs_match_copied_cloud(self, d, sparse):
        # a copy of the cloud passed as cols is accepted and gives the same
        # result bit for bit; both are the dense oracle's to rounding
        base = cloud(n=150, d=d, seed=50 + d, scale=2.0)
        data = np.vstack([base, base[:20], base[:5]])  # duplicate points
        eps = select_bandwidth(all_pairs(data), eta=0.05)
        rng = np.random.default_rng(d)
        dense = rng.normal(size=(len(data), 6)) * (rng.random((len(data), 6)) < 0.2)
        values = sp.csr_array(dense) if sparse else dense
        got = markov_apply(data, data, eps, values)
        copied = markov_apply(data, data.copy(), eps, values)
        if sparse:
            # sparse values give CSR, whose dense form is the dense-values result
            assert isinstance(got, sp.csr_array) and isinstance(copied, sp.csr_array)
            got, copied = got.toarray(), copied.toarray()
            np.testing.assert_array_equal(got, markov_apply(data, data, eps, dense))
        assert (got == 0.0).any() and (got != 0.0).any()
        np.testing.assert_array_equal(got, copied)
        raw = assert_markov_matches_oracle(data, eps)
        np.testing.assert_allclose(got, (raw / raw.sum(axis=1, keepdims=True)) @ dense,
                                   rtol=1e-12, atol=1e-14)

    def test_rows_in_column_order(self):
        # the raw pairs come once each, by row and then by column, so the
        # kernel is canonical CSR; a sparse result stores exactly the
        # nonzeros of the dense one, with their bits
        data = cloud(n=400, d=2, seed=60, scale=2.0)
        eps = select_bandwidth(all_pairs(data), eta=0.05)
        indptr, j, _, _ = _gaussian_pairs(data, eps)
        assert (np.diff(row_indices(indptr) * len(data) + j) > 0).all()
        rng = np.random.default_rng(61)
        dense = rng.normal(size=(400, 5)) * (rng.random((400, 5)) < 0.3)
        got = markov_apply(data, data, eps, sp.csr_array(dense))
        got.sort_indices()
        expected = sp.csr_array(markov_apply(data, data, eps, dense))
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))

    def test_dimension_mismatch(self):
        # cols must hold the points of rows: another dimension, or other
        # points of the same shape, is rejected
        points = cloud(n=5, d=2)
        for cols in (cloud(n=5, d=3), cloud(n=5, d=2, seed=1)):
            with pytest.raises(ValueError, match="cols must hold the same points"):
                markov_apply(points, cols, 1.0, np.ones((5, 1)))

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
    def test_bad_epsilon_rejected(self, eps):
        data = cloud(n=8, seed=45)
        with pytest.raises(ValueError, match=re.escape(
                "epsilon must be a real number in (0, inf)")):
            markov_apply(data, data, eps, np.ones((8, 1)))

    @pytest.mark.parametrize("theta_zero", [np.nan, 0.0, 1.0, 2.0, -1.0, 1e-10])
    def test_bad_theta_zero_rejected(self, theta_zero):
        # the parameter stays for perfbench's markov_pass hook, which reads
        # it; any value but the one zero threshold is rejected
        data = cloud(n=50, seed=47)
        with pytest.raises(ValueError, match=re.escape(
                f"theta_zero must be THETA_ZERO = {THETA_ZERO}, got {theta_zero}")):
            markov_apply(data, data, 0.5, np.ones((50, 1)), theta_zero)

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_sparse_values_match_dense(self, fmt):
        data = cloud(n=300, d=3, seed=40, scale=2.0)
        rng = np.random.default_rng(41)
        dense = rng.normal(size=(300, 12)) * (rng.random((300, 12)) < 0.1)
        dense[:, -2:] = rng.normal(size=(300, 2))
        values = sp.csr_array(dense).asformat(fmt)
        got = markov_apply(data, data, 0.05, values)
        assert isinstance(got, sp.csr_array)
        np.testing.assert_array_equal(got.toarray(), markov_apply(data, data, 0.05, dense))

    @pytest.mark.parametrize("where, bad, message", [
        ("rows", np.nan, "row point 2 is not finite"),
        ("rows", -np.inf, "row point 2 is not finite"),
        ("rows", 1e160, "row point 2 is too far"),
        # cols a copy: the point is named before the copy is compared, so a
        # NaN, which compares unequal, is named too
        ("copy", np.inf, "row point 2 is not finite"),
        ("copy", np.nan, "row point 2 is not finite"),
        ("copy", -1e160, "row point 2 is too far"),
    ])
    def test_bad_point_named(self, where, bad, message):
        points = cloud(n=6, seed=42)
        points[2, 1] = bad
        cols = points if where == "rows" else points.copy()
        with pytest.raises(ValueError, match=message):
            markov_apply(points, cols, 0.5, np.ones((6, 1)))

    def test_boxes_too_far_apart(self):
        # no point is far from the cloud's median, but the diagonal of its
        # bounding box overflows, which would make the k-d tree fail
        a = 5.5e153
        points = np.array([[a, 0.0], [-a, 0.0], [0.0, a], [0.0, -a]])
        with pytest.raises(ValueError, match="points spread so far apart"):
            markov_apply(points, points, 1.0, np.ones((4, 1)))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_nonfinite_values_rejected(self, sparse):
        data = cloud(n=20, seed=44)
        values = np.ones((20, 2))
        values[7, 1] = np.nan
        with pytest.raises(ValueError, match="values must be finite"):
            markov_apply(data, data, 0.5, sp.csr_array(values) if sparse else values)

    def test_rows_sum_to_one(self):
        data = cloud(n=150, seed=5)
        eps = select_bandwidth(all_pairs(data), eta=0.3)
        sums = markov_dense(data, eps).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_entries_positive_and_thresholded(self):
        data = cloud(n=80, seed=6, scale=4.0)
        eps = 0.05
        mm = markov_dense(data, eps)
        assert (mm >= 0).all()
        # stored pattern = entries of the raw kernel at or above the threshold
        raw = dense_gaussian(data, data, eps)
        np.testing.assert_array_equal(mm != 0, raw >= 1e-14)

    def test_isolated_row(self):
        # a point beyond the cutoff from every other one keeps only its own
        # entry, g = 1: its row is e_i, and it gets its own values back
        points = np.array([[0.0, 0.0], [0.1, 0.0], [100.0, 100.0]])
        values = np.array([[1.0, -2.0], [3.0, 0.0], [5.0, 7.0]])
        eps = 1e-3
        matrix = markov_dense(points, eps)
        assert (matrix[:2, :2] > 0.0).all()
        np.testing.assert_array_equal(matrix[2], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(markov_apply(points, points, eps, values)[2], values[2])
        csr = markov_apply(points, points, eps, sp.csr_array(values))
        np.testing.assert_array_equal(csr.toarray()[2], values[2])

    def test_sparsification_consistency(self):
        # densify + renormalize differs from the no-threshold oracle by at
        # most n * theta_zero per row (dropped mass is below the threshold)
        data = cloud(n=120, seed=8, scale=3.0)
        eps = 0.1
        sparse = markov_dense(data, eps)
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
        # values are (N, k) columns; a 1-d vector is no shortcut for one
        with pytest.raises(ValueError, match=r"\(N, k\) arrays"):
            markov_apply(data, data, eps, values[:, 0])


class TestPairLists:
    @pytest.mark.parametrize("chunk", [1, 7, kernels._PAIR_CHUNK])
    def test_narrowed_list_gives_same_bits(self, chunk, monkeypatch):
        # a list narrowed from a wider one, the narrower cutoff's own list and
        # no list give the same dense result and the same CSR, bit for bit;
        # a tiny chunk makes the row counts go in many blocks, some of them
        # empty because one row holds more pairs than a chunk
        monkeypatch.setattr(kernels, "_PAIR_CHUNK", chunk)
        data = cloud(n=300, d=3, seed=62, scale=2.0)
        narrow, wide = select_bandwidth(all_pairs(data), (0.02, 0.2))
        rng = np.random.default_rng(63)
        dense = rng.normal(size=(300, 4))
        sparse = sp.csr_array(dense * (rng.random((300, 4)) < 0.3))
        listed = _gaussian_pairs(data, wide)
        kept = _narrowed(listed, narrow)
        own = _gaussian_pairs(data, narrow)
        assert kept[3] == own[3] == _cutoff(narrow) and len(kept[2]) < len(listed[2])
        # the wide list is copied from, not changed
        np.testing.assert_array_equal(listed[2], _gaussian_pairs(data, wide)[2])
        for values in (dense, sparse):
            expected = markov_apply(data, data, narrow, values)
            for pairs in (_narrowed(listed, narrow), _gaussian_pairs(data, narrow)):
                got = markov_apply(data, data, narrow, values, pairs=pairs)
                if sp.issparse(values):
                    for name in ("indptr", "indices", "data"):
                        np.testing.assert_array_equal(getattr(got, name),
                                                      getattr(expected, name))
                else:
                    np.testing.assert_array_equal(got, expected)

    def test_list_at_other_cutoff_rejected(self):
        # a list is only good at its own cutoff and for its own cloud; it
        # cannot be narrowed to a wider cutoff
        data = cloud(n=80, seed=64)
        values = np.ones((80, 1))
        for eps, points in ((0.5, data), (0.3, data), (0.4, data[:-1])):
            with pytest.raises(ValueError, match="pairs must list the 80 points"):
                markov_apply(data, data, 0.4, values, pairs=_gaussian_pairs(points, eps))
        with pytest.raises(ValueError, match="cannot be narrowed"):
            _narrowed(_gaussian_pairs(data, 0.4), 0.5)


class TestPairMemory:
    def test_pairs_peak_and_result_per_entry(self):
        # about 10^6 listed pairs: building them peaks at no more than 24
        # traced bytes per listed entry, and the list takes 12 (int32 j,
        # float64 squared gap) plus the row pointers; the default subsample
        # keeps the bandwidth's own pdist small
        points = cloud(n=10_000, d=2, seed=70)
        eps = select_bandwidth(points, eta=0.01)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            indptr, j, sq, _ = _gaussian_pairs(points, eps)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(sq) > 900_000
        assert peak <= 24 * len(sq)
        assert j.nbytes + sq.nbytes <= 12 * len(sq)
        assert indptr.nbytes <= 4 * (len(points) + 1)

    def test_narrowing_peak_per_entry(self):
        # the copy within a narrower cutoff takes at most 1 byte per listed
        # entry (the mask) and 12 per kept entry, plus O(n) for the row
        # counts and a fixed block of them: no index or count array as long
        # as the list
        points = cloud(n=10_000, d=2, seed=72)
        narrow, wide = select_bandwidth(points, (0.003, 0.01))
        listed = _gaussian_pairs(points, wide)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kept = _narrowed(listed, narrow)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(listed[2]) > 900_000 and len(kept[2]) < len(listed[2]) / 2
        assert peak <= (len(listed[2]) + 12 * len(kept[2]) + 16 * len(points)
                        + 4 * kernels._PAIR_CHUNK)

    def test_large_indices_match_reference(self):
        # n^2 > 2^31, so a key or index that overflowed its integer type
        # would move a pair; the pairs are a reference's, listed by another
        # tree query plus the diagonal and ordered by lexsort, with the
        # squared gaps cdist computes in 1-D
        points, eps = cloud(n=50_000, d=1, seed=71), 1e-8
        n = len(points)
        indptr, j, sq, _ = _gaussian_pairs(points, eps)
        tree = cKDTree(points)
        near = tree.sparse_distance_matrix(tree, _cutoff(eps), output_type="ndarray")
        near = near[near["i"] != near["j"]]
        rows = np.concatenate([near["i"], np.arange(n)])
        cols = np.concatenate([near["j"], np.arange(n)])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        assert n * n > 2**31 and len(rows) > 10 * n
        np.testing.assert_array_equal(row_indices(indptr), rows)
        np.testing.assert_array_equal(j, cols)
        np.testing.assert_array_equal(sq, np.square(points[rows, 0] - points[cols, 0]))
        expected = np.exp(-sq / eps)
        expected[expected < 1e-14] = 0.0
        np.testing.assert_array_equal(kernels._gaussian(sq, eps), expected)
        matrix = markov_apply(points, points, eps, sp.eye_array(n, format="csr"))
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_too_many_points_rejected(self):
        # 2^31 points (a broadcast view, so nothing is allocated) overflow
        # the int32 indices and are rejected before a tree is built
        points = np.broadcast_to(np.zeros((1, 1)), (2**31, 1))
        with pytest.raises(ValueError, match=re.escape("n < 2**31")):
            _gaussian_pairs(points, 1.0)


class TestDiffusionModel:
    @pytest.mark.parametrize("eps", [0.0, -0.5, np.nan, np.inf])
    def test_bad_epsilon_rejected(self, eps):
        # checked by the model itself, also when it is loaded
        message = re.escape("epsilon must be a real number in (0, inf)")
        with pytest.raises(ValueError, match=message):
            diffusion_model(cloud(n=10, seed=46), eps)
        with pytest.raises(ValueError, match=message):
            KernelModel(epsilon=eps, centers=cloud(n=10, seed=46))

    @pytest.mark.parametrize("theta_zero", [np.nan, 0.0, 1.0, 2.0, -1.0, 1e-10])
    def test_bad_theta_zero_rejected(self, theta_zero, tmp_path):
        # a model has no threshold of its own: a model file that records
        # any threshold but THETA_ZERO is rejected, named by its path
        data = cloud(n=50, seed=47)
        path = tmp_path / "model.json"
        save_drift_model(DriftModel(kernel=diffusion_model(data, 0.5),
                                    coefficients=np.ones((2, 50))), path)
        payload = json.loads(path.read_text())
        assert payload["kernel"]["theta_zero"] == THETA_ZERO
        payload["kernel"]["theta_zero"] = theta_zero
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: theta_zero must be THETA_ZERO = {THETA_ZERO}, got {theta_zero!r}")):
            load_drift_model(path)

    @pytest.mark.parametrize("centers", [[[0.0, 1.0]], np.zeros((1, 3))])
    def test_one_center_rejected(self, centers, tmp_path):
        # the model owns the rule, so diffusion_model and a load both reject
        # one center; a model file is named by its path
        message = "a diffusion kernel needs at least 2 centers, got 1"
        with pytest.raises(ValueError, match=message):
            diffusion_model(centers, 0.5)
        with pytest.raises(ValueError, match=message):
            KernelModel(epsilon=0.5, centers=centers)
        path = tmp_path / "model.json"
        save_drift_model(DriftModel(kernel=diffusion_model(cloud(n=2, seed=48), 0.5),
                                    coefficients=np.ones((2, 2))), path)
        payload = json.loads(path.read_text())
        payload["kernel"]["centers"] = np.asarray(centers).tolist()
        payload["coefficients"] = [[1.0]] * np.shape(centers)[1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_drift_model(path)

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
        eps = select_bandwidth(all_pairs(data), eta=0.5)
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

    def test_nonfinite_query_named(self):
        model = diffusion_model(cloud(n=30, seed=22), 0.5)
        points = np.zeros((4, 2))
        points[3, 0] = np.nan
        points[2, 1] = 1e160  # a non-finite point is named first
        with pytest.raises(ValueError, match="query point 3 is not finite"):
            section_matrix(model, points)

    def test_distant_query_falls_back_to_true_nearest_center(self):
        data = cloud(n=50, seed=21)
        model = diffusion_model(data, 0.5)
        far = np.array([1e10, 0.0])
        sections, flags = section_matrix(model, far)
        assert flags[0]
        nearest = np.argmin(((data - far) ** 2).sum(axis=1))
        assert nearest != 0  # centre 0 is what an all-inf argmin would pick
        np.testing.assert_array_equal(sections[0], section_matrix(model, data[nearest])[0][0])


class TestSectionsAgainstDenseOracle:
    """Rows and flags equal, bit for bit, a dense ``cdist`` evaluation."""

    @pytest.mark.parametrize("d", [1, 3])
    def test_mixed_batch(self, d):
        centers = cloud(n=80, d=d, seed=50, scale=2.0)
        model = diffusion_model(centers, 0.05)
        rng = np.random.default_rng(51)
        points = np.vstack([
            centers[rng.integers(80, size=40)] + 0.05 * rng.normal(size=(40, d)),
            centers[:3],
            centers[:5] + 40.0,  # far outside: the nearest-center fallback
            rng.normal(size=(40, d)) * 3.0,
        ])
        flags = assert_sections_match_oracle(model, points)
        assert flags.any() and not flags.all()

    @pytest.mark.parametrize("far, theta_zero", [((3.0, 4.0), 1e-14), ((1.0, 0.0), 0.22)])
    def test_block_scale_batch_mixes_both_branches(self, far, theta_zero, monkeypatch):
        # more rows than one block, in range and extrapolated; the first
        # query's one entry within the cutoff sits at the threshold, so once
        # it is dropped the row keeps a zero entry within the cutoff and
        # takes its nearest center's table row
        monkeypatch.setattr(kernels, "THETA_ZERO", theta_zero)
        rng = np.random.default_rng(58)
        centers = np.vstack([np.zeros(2), 50.0 + cloud(n=40, d=2, seed=59)])
        n = kernels._BLOCK_ROWS + 90
        points = np.vstack([far, centers[1 + rng.integers(40, size=n)]
                            + 0.05 * rng.normal(size=(n, 2)), [[-300.0, 0.0]] * 5])
        points[7::9] *= -1.0  # about one in nine far outside: the fallback
        base = (far[0] ** 2 + far[1] ** 2) / math.log(1.0 / theta_zero)
        decisions = set()
        for ulps in range(-4, 5):
            model = diffusion_model(centers, base * (1.0 + ulps * 2.0**-52))
            flags = assert_sections_match_oracle(model, points)
            assert flags[-5:].all() and 0.05 < flags[1:-5].mean() < 0.2
            decisions.add(bool(flags[0]))
        assert decisions == {False, True}

    def test_duplicate_centers(self):
        base = cloud(n=30, d=2, seed=52)
        centers = np.vstack([base, base[:10], base[:3]])
        model = diffusion_model(centers, 0.02)
        points = np.vstack([base[:6], base[:4] + 0.01, base[:2] + 30.0])
        assert_sections_match_oracle(model, points)

    @pytest.mark.parametrize("far, theta_zero", [
        ((3.0, 4.0, 0.0), 1e-14),
        ((1.0, 0.0, 0.0), 0.22),
    ])
    def test_threshold_boundary_in_mixed_batch(self, far, theta_zero, monkeypatch):
        # the squared distance from the origin to `far` is exact, so only
        # the threshold test decides whether that section entry survives
        monkeypatch.setattr(kernels, "THETA_ZERO", theta_zero)
        centers = np.vstack([np.zeros(3), far, 20.0 + cloud(n=10, d=3, seed=53)])
        points = np.vstack([np.zeros(3), [60.0, 0.0, 0.0], centers[2:5] + 0.01])
        sq = sum(v * v for v in far)
        base = sq / math.log(1.0 / theta_zero)
        decisions = set()
        for ulps in range(-4, 5):
            eps = base * (1.0 + ulps * 2.0**-52)
            model = diffusion_model(centers, eps)
            assert_sections_match_oracle(model, points)
            decisions.add(bool(section_matrix(model, points)[0][0, 1] > 0.0))
        assert decisions == {False, True}

    def test_all_extrapolated_batch(self):
        # (0, 1000) is exactly as far from (1, 10) as from (-1, 10), whose
        # rows differ: only (-1, 10) has a neighbour; the first one is taken
        centers = np.vstack([cloud(n=40, d=2, seed=56),
                             [[1.0, 10.0], [-1.0, 10.0], [-1.3, 10.0]]])
        model = diffusion_model(centers, 0.05)
        points = np.array([[0.0, 1e3], [0.0, 1e3], [60.0, 0.0], [61.0, 0.5],
                           [-40.0, -40.0], [1e3, 1e3]])
        flags = assert_sections_match_oracle(model, points)
        assert flags.all()
        sq = cdist(points, centers, "sqeuclidean")
        nearest = sq.argmin(axis=1)
        assert sq[0, 40] == sq[0, 41] and nearest[0] == 40
        assert nearest[2] == nearest[3]
        sections, _ = section_matrix(model, points)
        assert not np.array_equal(sections[0], section_matrix(model, centers[41])[0][0])

    def test_uneven_density_fallback_rows(self):
        # a tight cluster beside lone centers: the rows copied in for far
        # queries differ in length by a factor of 60, and the table is the
        # centers' own section rows, bit for bit
        rng = np.random.default_rng(57)
        centers = np.vstack([0.01 * rng.normal(size=(60, 2)),
                             10.0 * np.arange(1, 21)[:, None] * [1.0, 0.0]])
        model = diffusion_model(centers, 0.05)
        points = np.array([[0.0, 30.0], [105.0, 40.0], [-50.0, 0.0], [203.0, -20.0],
                           [0.0, -25.0], [0.0, 0.0]])
        flags = assert_sections_match_oracle(model, points)
        assert flags[:5].all() and not flags[5]
        rows = section_matrix(model, centers)[0]
        assert np.array_equal(model._table, rows)
        assert np.count_nonzero(rows[0]) == 60 and np.count_nonzero(rows[-1]) == 1

    @pytest.mark.parametrize("d", [2, 3, 4])  # the Hopf, Lorenz 63 and Lorenz 96 stencil d
    def test_single_row_matches_row_in_large_batch(self, d):
        centers = cloud(n=500, d=d, seed=54, scale=3.0)
        model = diffusion_model(centers, 0.5)
        rng = np.random.default_rng(55)
        points = rng.normal(size=(10_000, d)) * 3.0
        points[9_000] += 200.0  # one extrapolated row
        sections, flags = section_matrix(model, points)
        assert flags[9_000] and not flags.all()
        for i in (0, 4_321, 9_000, 9_999):
            row, flag = section_matrix(model, points[i])
            np.testing.assert_array_equal(row[0], sections[i])
            assert flag[0] == flags[i]


def test_kernel_model_roundtrip(tmp_path):
    data = cloud(n=15, seed=20)
    kernel = diffusion_model(data, 0.4)
    coefficients = np.random.default_rng(21).normal(size=(2, 15))
    path = tmp_path / "model.json"
    save_drift_model(DriftModel(kernel=kernel, coefficients=coefficients), path)
    payload = json.loads(path.read_text())
    # a kernel is its bandwidth and centers, with the one zero threshold
    # recorded; no degrees, no dt
    assert payload["kernel"] == {"kind": "diffusion", "epsilon": 0.4,
                                 "theta_zero": THETA_ZERO,
                                 "centers": data.tolist()}
    assert "dt" not in payload
    loaded = load_drift_model(path).kernel
    assert loaded.epsilon == kernel.epsilon
    np.testing.assert_array_equal(loaded.centers, kernel.centers)
    np.testing.assert_array_equal(loaded.deg_r, kernel.deg_r)
    np.testing.assert_array_equal(section_matrix(loaded, data)[0],
                                  section_matrix(kernel, data)[0])
    # older files carry degrees; they are ignored
    path.write_text(json.dumps(dict(payload, kernel=dict(
        payload["kernel"], deg_r=kernel.deg_r.tolist(),
        deg_l=left_degrees(kernel).tolist()))))
    np.testing.assert_array_equal(section_matrix(load_drift_model(path).kernel, data)[0],
                                  section_matrix(kernel, data)[0])
    # only the diffusion kernel is a model kind
    path.write_text(json.dumps(dict(payload, kernel=dict(payload["kernel"], kind="gaussian"))))
    with pytest.raises(ValueError, match="kernel kind"):
        load_drift_model(path)
