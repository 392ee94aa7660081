"""Property tests of the sparse kernel paths on degenerate inputs.

Clouds with duplicate points, a constant coordinate, one dimension, as
many centers as inputs, a handful of points and bandwidths from 1e-300 to
1e300: every case gives finite values or a documented ``NumericalError``
or ``ValueError``, from the kernels up to a drift fit and its predictions.
Section rows match the dense ``cdist`` oracle bit for bit, the raw pairs
of a Markov pass over one cloud carry the oracle's pattern and bits and
the pass itself is the oracle's to rounding, and a fit's coefficients
solve the dense normal equations of its own ``B`` and ``g`` to rounding.
"""

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from kerneldrift import (  # noqa: E402
    CondExpParams,
    NumericalError,
    Stencil,
    diffusion_model,
    estimate_drift,
    estimate_drift_sparse,
    extract_snapshots,
    predict_drift_many,
    section_matrix,
)
from kerneldrift.condexp import fit_targets  # noqa: E402
from kerneldrift.kernels import markov_apply  # noqa: E402
from kerneldrift.systems import Trajectory  # noqa: E402
from test_kernels import assert_markov_matches_oracle, section_oracle  # noqa: E402

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

bandwidths = st.integers(-300, 300).map(lambda e: 10.0**e)


@st.composite
def clouds(draw, d=None, min_n=2, max_n=24):
    """(n, d) points with duplicates and constant coordinates mixed in."""
    d = d if d is not None else draw(st.integers(1, 3))
    n = draw(st.integers(min_n, max_n))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    seed = draw(st.integers(0, 2**32 - 1))
    points = scale * np.random.default_rng(seed).normal(size=(n, d))
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        points[-k:] = points[:k]
    if draw(st.booleans()):
        points[:, draw(st.integers(0, d - 1))] = draw(st.sampled_from([0.0, 3.5]))
    return points


@st.composite
def centers_and_queries(draw):
    centers = draw(clouds())
    queries = draw(clouds(d=centers.shape[1], min_n=1))
    far = draw(st.sampled_from([0.0, 1e3, 1e9]))
    return centers, np.vstack([queries, queries[:1] + far])


@FUZZ
@given(centers_and_queries(), bandwidths)
def test_section_rows_fuzz(cloud_pair, epsilon):
    centers, queries = cloud_pair
    model = diffusion_model(centers, epsilon)
    sections, flags = section_matrix(model, queries)
    assert np.isfinite(sections).all()
    expected, expected_flags = section_oracle(model, queries)
    np.testing.assert_array_equal(flags, expected_flags)
    np.testing.assert_array_equal(sections, expected)


@FUZZ
@given(clouds(), bandwidths, st.booleans())
def test_markov_self_pairs_fuzz(points, epsilon, sparse):
    # the self-pair query keeps the dense oracle's pattern and g bits
    # exactly, and the Markov pass is the oracle's to rounding
    dense = np.random.default_rng(len(points)).normal(size=(len(points), 3))
    dense[::2, 0] = 0.0
    values = sp.csr_array(dense) if sparse else dense
    got = markov_apply(points, points, epsilon, values)
    if sparse:
        # sparse values give CSR, whose dense form is the dense-values result
        assert isinstance(got, sp.csr_array)
        got = got.toarray()
        np.testing.assert_array_equal(got, markov_apply(points, points, epsilon, dense))
    assert np.isfinite(got).all()
    raw = assert_markov_matches_oracle(points, epsilon)
    np.testing.assert_allclose(got, (raw / raw.sum(axis=1, keepdims=True)) @ dense,
                               rtol=1e-12, atol=1e-12)


@st.composite
def fit_cases(draw):
    inputs = draw(clouds(max_n=30))
    n = len(inputs)
    targets = draw(hnp.arrays(np.float64, (n, draw(st.integers(1, 2))),
                              elements=st.floats(-10, 10)))
    explicit = st.none() | bandwidths
    params = CondExpParams(
        n_centers=draw(st.integers(max(1, n - 2), n)),
        subsample_fraction=1.0,
        delta=draw(st.sampled_from([0.0, 1e-3, 0.1])),
        eps1=draw(explicit), eps2=draw(explicit), eps3=draw(explicit),
    )
    return inputs, targets, params


@FUZZ
@given(fit_cases())
def test_fit_targets_fuzz(case):
    inputs, targets, params = case
    try:
        kernel, coef, diagnostics = fit_targets(inputs, targets, params)
    except (NumericalError, ValueError):
        return
    assert np.isfinite(coef).all()
    sections, _ = section_matrix(kernel, inputs)
    field = (sections[:, None, :] * coef).sum(axis=2)
    assert np.isfinite(field).all()

    # dense normal equations on the same B and g (the dense eps3 product):
    # the coefficients solve them to rounding.  A minimum-norm solve at
    # delta = 0 drops directions below eps * M of the largest eigenvalue,
    # which leaves up to about sqrt(eps * M) of the scale.
    theta = params.theta_zero
    smoothed = markov_apply(inputs, inputs, diagnostics["eps1"], targets, theta)
    stacked = markov_apply(inputs, inputs, diagnostics["eps3"],
                           np.hstack([sections, smoothed]), theta)
    b, g = stacked[:, : kernel.n_centers], stacked[:, kernel.n_centers :]
    normal = b.T @ b + params.delta * np.eye(kernel.n_centers)
    scale = (np.linalg.norm(normal) * np.linalg.norm(coef)
             + np.linalg.norm(np.abs(b).T @ np.abs(g)))
    tol = 1e-10 if params.delta > 0 else 1e-6
    assert np.linalg.norm(normal @ coef.T - b.T @ g) <= tol * scale


@st.composite
def drift_cases(draw):
    """A short path, possibly fitted through a two-offset cyclic stencil."""
    points = draw(clouds(min_n=8, max_n=30))
    n, d = points.shape
    traj = Trajectory(dt=draw(st.sampled_from([1e-3, 0.01, 1.0])), points=points)
    stencil = Stencil.cyclic(d, offsets=(-1, 0)) if d > 1 and draw(st.booleans()) else None
    records = (n - 3) * (d if stencil else 1)
    explicit = st.none() | bandwidths
    params = CondExpParams(
        n_centers=draw(st.integers(max(1, records - 3), records)),
        subsample_fraction=1.0,
        delta=draw(st.sampled_from([0.0, 1e-3, 0.1])),
        eps1=draw(explicit), eps2=draw(explicit), eps3=draw(explicit),
    )
    far = draw(st.sampled_from([0.0, 1e3, 1e9]))
    return traj, stencil, params, np.vstack([points, points[:1] + far])


@FUZZ
@given(drift_cases())
def test_estimate_drift_fuzz(case):
    # end to end: a finite field everywhere it is asked for, or a
    # documented error, never a NaN
    traj, stencil, params, probes = case
    try:
        if stencil is None:
            model = estimate_drift(traj, params)
        else:
            model = estimate_drift_sparse(extract_snapshots(traj, stencil), params)
        values, flags = predict_drift_many(model, probes)
    except (NumericalError, ValueError):
        return
    assert np.isfinite(model.coefficients).all()
    assert values.shape == probes.shape and flags.shape == (len(probes),)
    assert np.isfinite(values).all()
