"""Property tests of the sparse kernel paths on degenerate inputs.

Clouds with duplicate points, a constant coordinate, one dimension, as
many centers as inputs, a handful of points and bandwidths from 1e-300 to
1e300: every case gives finite values or a documented ``NumericalError``
or ``ValueError``.  Section rows also match the dense ``cdist`` oracle bit
for bit, and a Markov pass over one cloud (its self-pair query) matches
the tree-to-tree query over a copy of it.
"""

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from kerneldrift import CondExpParams, NumericalError, diffusion_model, section_matrix  # noqa: E402
from kerneldrift.condexp import fit_targets  # noqa: E402
from kerneldrift.kernels import markov_apply  # noqa: E402
from test_kernels import section_oracle  # noqa: E402

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
    # rows is cols (one self-pair query) against a copy of the cloud (the
    # tree-to-tree query): the same result bit for bit
    values = np.random.default_rng(len(points)).normal(size=(len(points), 3))
    values[::2, 0] = 0.0
    if sparse:
        values = sp.csr_array(values)
    got = markov_apply(points, points, epsilon, values)
    assert np.isfinite(got).all()
    np.testing.assert_array_equal(got, markov_apply(points, points.copy(), epsilon, values))


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
        kernel, coef, _ = fit_targets(inputs, targets, params)
    except (NumericalError, ValueError):
        return
    assert np.isfinite(coef).all()
    sections, _ = section_matrix(kernel, inputs)
    field = (sections[:, None, :] * coef).sum(axis=2)
    assert np.isfinite(field).all()
