"""Gaussian-derived kernels over point clouds.

Two operators are built from the squared-exponential kernel
``g(x, y) = exp(-|x - y|^2 / epsilon)``, with raw values below a zero
threshold ``theta_zero`` dropped before any normalization:

* the Markov smoothing operator (:func:`markov_apply`) -- ``g`` with each
  row divided by its sum, a row-stochastic matrix between two point clouds.
  Since ``g >= theta_zero`` exactly when
  ``|x - y|^2 <= epsilon * ln(1 / theta_zero)``, it is assembled as a
  sparse matrix from the radius neighbours a k-d tree lists;
* the diffusion kernel (:class:`KernelModel`) over a few hundred centers --
  ``k(x, y) = g(x, y) / (deg_l(x) * deg_r(y))`` with right degree
  ``deg_r(x) = mean_j g(x, c_j)`` and left degree
  ``deg_l(x) = mean_j g(x, c_j) / deg_r(c_j)``, both taken against the
  empirical measure of the centers.  Its sections (:func:`section_matrix`)
  are dense rows over the centers.  The diffusion kernel is
  symmetrizable: ``rho(x) k(x, y) / rho(y)`` with
  ``rho = sqrt(deg_l / deg_r)`` equals
  ``g(x, y) / sqrt(deg_r(x) deg_r(y) deg_l(x) deg_l(y))``.

Bandwidths are picked so a target fraction of pairwise kernel values
survives the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

from .errors import DegenerateBandwidthError, IsolatedPointError

DEFAULT_THETA_ZERO = 1e-14


@dataclass(frozen=True)
class BandwidthPolicy:
    """How to pick a Gaussian bandwidth from data.

    ``eta`` is the target fraction of pairwise kernel values that should
    exceed ``theta_zero``; squared distances are measured on a strided
    subsample of the data of relative size ``subsample_fraction``.
    """

    eta: float
    theta_zero: float = DEFAULT_THETA_ZERO
    subsample_fraction: float = 0.1

    def __post_init__(self):
        if not 0 < self.eta < 1:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if not 0 < self.theta_zero < 1:
            raise ValueError(f"theta_zero must lie in (0, 1), got {self.theta_zero}")
        if not 0 < self.subsample_fraction <= 1:
            raise ValueError(
                f"subsample_fraction must lie in (0, 1], got {self.subsample_fraction}"
            )


@dataclass
class KernelModel:
    """The diffusion kernel fitted over a set of center points.

    ``deg_r`` and ``deg_l`` hold the right and left degrees at the centers.
    """

    epsilon: float
    theta_zero: float
    centers: np.ndarray
    deg_r: np.ndarray
    deg_l: np.ndarray

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        self.centers = np.asarray(self.centers, dtype=float)

    @property
    def n_centers(self) -> int:
        return len(self.centers)

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]


def strided_subsample(data: np.ndarray, fraction: float) -> np.ndarray:
    """A subsample spread evenly through the data (at least 2 points)."""
    n = len(data)
    n_sub = max(2, int(round(n * fraction)))
    step = max(1, n // n_sub)
    return data[::step]


def select_bandwidth(data, policy: BandwidthPolicy) -> float:
    """Pick epsilon so that a fraction ``eta`` of pairwise kernel values
    on a subsample exceeds the zero threshold.

    With ``theta = 1 / ln(1 / theta_zero)`` the returned bandwidth is
    ``theta * q``, where ``q`` is the eta-quantile of the subsample's
    pairwise squared distances: ``exp(-s / epsilon) >= theta_zero`` exactly
    when ``s <= q``.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or len(data) < 2:
        raise ValueError("data must be a 2-d array with at least 2 points")
    sq = pdist(strided_subsample(data, policy.subsample_fraction), "sqeuclidean")
    theta = 1.0 / np.log(1.0 / policy.theta_zero)
    quantile = float(np.quantile(sq, policy.eta))
    if quantile <= 0.0:
        raise DegenerateBandwidthError(
            f"the {policy.eta}-quantile of pairwise squared distances is zero "
            "(coincident subsample points)"
        )
    return theta * quantile


def markov_apply(rows, cols, epsilon: float, values,
                 theta_zero: float = DEFAULT_THETA_ZERO) -> np.ndarray:
    """Apply the row-stochastic Gaussian kernel matrix to columns of ``values``.

    Entry (i, j) of the matrix is ``g(r_i, c_j) / sum_j' g(r_i, c_j')``
    over the raw values at or above ``theta_zero``.  Candidate pairs come
    from a k-d tree radius query at ``sqrt(epsilon * ln(1 / theta_zero))``;
    each one is kept by the threshold test itself, on a squared distance
    recomputed from the coordinates in the order ``cdist`` sums them, so
    the kept entries are exactly those of a dense evaluation.  They form a
    canonical (sorted-index) CSR matrix, so the result does not depend on
    the order in which the tree lists pairs.

    Raises
    ------
    IsolatedPointError
        If some row has no surviving entry.
    """
    rows = np.asarray(rows, dtype=float)
    cols = np.asarray(cols, dtype=float)
    values = np.asarray(values, dtype=float)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if rows.ndim != 2 or cols.ndim != 2 or rows.shape[1] != cols.shape[1]:
        raise ValueError(
            f"rows {rows.shape} and cols {cols.shape} must be (n, d) arrays of one d"
        )
    single = values.ndim == 1
    v = values[:, None] if single else values
    if len(v) != len(cols):
        raise ValueError(f"{len(v)} value rows for {len(cols)} column points")

    # the relative pad keeps rounding in the tree's distances from dropping
    # a pair that the threshold test below keeps
    radius = np.sqrt(epsilon * np.log(1.0 / theta_zero)) * (1.0 + 1e-12)
    pairs = cKDTree(rows).sparse_distance_matrix(cKDTree(cols), radius,
                                                 output_type="ndarray")
    i, j = pairs["i"], pairs["j"]
    sq = np.zeros(len(pairs))
    for k in range(rows.shape[1]):
        sq += (rows[i, k] - cols[j, k]) ** 2
    g = np.exp(-sq / epsilon)
    keep = g >= theta_zero
    kernel = sp.csr_array((g[keep], (i[keep], j[keep])), shape=(len(rows), len(cols)))
    kernel.sum_duplicates()  # sorts the column indices of every row

    sums = kernel.sum(axis=1)
    dead = np.flatnonzero(sums == 0.0)
    if dead.size:
        raise IsolatedPointError(row=int(dead[0]))
    out = (kernel @ v) / sums[:, None]
    return out[:, 0] if single else out


def _thresholded_gaussian(points: np.ndarray, centers: np.ndarray, epsilon: float,
                          theta_zero: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense squared distances and Gaussian values, values below the
    threshold set to zero."""
    sq = cdist(points, centers, "sqeuclidean")
    gauss = np.exp(-sq / epsilon)
    gauss[gauss < theta_zero] = 0.0
    return sq, gauss


def diffusion_model(data, epsilon: float, theta_zero: float = DEFAULT_THETA_ZERO
                    ) -> KernelModel:
    """Fit the degree-normalized diffusion kernel with ``data`` as centers.

    Degrees are means against the empirical measure of ``data``; every
    point has a degree of at least ``1 / len(data)`` from its own entry.
    """
    data = np.asarray(data, dtype=float)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if data.ndim != 2 or len(data) < 2:
        raise ValueError("data must be a 2-d array with at least 2 points")
    m = len(data)
    _, raw = _thresholded_gaussian(data, data, epsilon, theta_zero)
    deg_r = raw.sum(axis=1) / m
    # the same operations as section_matrix's out-of-sample left degree
    deg_l = (raw * (1.0 / deg_r)).sum(axis=1) / m
    return KernelModel(epsilon=epsilon, theta_zero=theta_zero, centers=data,
                       deg_r=deg_r, deg_l=deg_l)


def section_matrix(model: KernelModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate all kernel sections ``k(., c_j)`` at query points.

    Returns ``(S, extrapolated)`` where ``S[i, j] = k(points[i], c_j)`` and
    ``extrapolated`` marks rows whose raw Gaussian values all fell below the
    zero threshold; those rows are replaced by the section row of the
    nearest center (the nearest-point fallback).  For a query x the left
    degree extends out of sample as ``rho_l(x) = mean_j g(x, c_j) / deg_r(c_j)``,
    giving ``S[i, j] = g(x, c_j) / (rho_l(x) deg_r(c_j))``; at a center
    this is the fitted kernel's row.

    Raises
    ------
    ValueError
        If a query point has the wrong dimension or is not finite.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 0:
        points = points.reshape(1, 1)
    elif points.ndim == 1:
        points = points[None, :]
    if points.shape[1] != model.dimension:
        raise ValueError(
            f"query dimension {points.shape[1]} != center dimension {model.dimension}"
        )
    if not np.isfinite(points).all():
        bad = np.flatnonzero(~np.isfinite(points).all(axis=1))[0]
        raise ValueError(f"query point {bad} is not finite: {points[bad].tolist()}")

    sq, sections = _thresholded_gaussian(points, model.centers, model.epsilon,
                                         model.theta_zero)
    extrapolated = ~sections.any(axis=1)
    if extrapolated.any():
        nearest = np.argmin(sq[extrapolated], axis=1)
        sections[extrapolated] = _thresholded_gaussian(
            model.centers[nearest], model.centers, model.epsilon, model.theta_zero)[1]
    sections *= 1.0 / model.deg_r
    # row-wise reduction keeps identical query rows bitwise identical
    # regardless of their position in the batch
    rho_l = sections.sum(axis=1) / model.n_centers
    sections /= rho_l[:, None]
    return sections, extrapolated


def evaluate_expansion(model: KernelModel, coefficients, x) -> tuple[float, bool]:
    """Evaluate ``sum_j a_j k(x, c_j)`` at a single query point.

    Returns ``(value, extrapolated)``; when every raw Gaussian value against
    the centers underflows the zero threshold, the value is the expansion at
    the nearest center and the flag is set.
    """
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (model.n_centers,):
        raise ValueError(
            f"coefficients have shape {coefficients.shape}, expected ({model.n_centers},)"
        )
    rows, flags = section_matrix(model, x)
    # same row-wise reduction as the batch predictors, so single-point and
    # batched evaluations of identical rows agree bitwise
    return float((rows[0] * coefficients).sum()), bool(flags[0])


# --- persistence ------------------------------------------------------------


def kernel_model_to_dict(model: KernelModel) -> dict:
    return {
        "kind": "diffusion",
        "epsilon": model.epsilon,
        "theta_zero": model.theta_zero,
        "centers": model.centers.tolist(),
        "deg_r": np.asarray(model.deg_r).tolist(),
        "deg_l": np.asarray(model.deg_l).tolist(),
    }


def kernel_model_from_dict(data: dict) -> KernelModel:
    if data["kind"] != "diffusion":
        raise ValueError(f"unknown kernel kind {data['kind']!r}; expected 'diffusion'")
    return KernelModel(
        epsilon=float(data["epsilon"]),
        theta_zero=float(data["theta_zero"]),
        centers=np.asarray(data["centers"], dtype=float),
        deg_r=np.asarray(data["deg_r"], dtype=float),
        deg_l=np.asarray(data["deg_l"], dtype=float),
    )
