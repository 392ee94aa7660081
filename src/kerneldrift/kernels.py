"""Gaussian-derived kernels over point clouds.

Three kernel flavors are built from the squared-exponential kernel
``exp(-|x - y|^2 / epsilon)``:

* ``gaussian`` -- the raw kernel;
* ``markov_gaussian`` -- rows divided by their sums, so each row is a
  probability vector (a Markov transition matrix on the column points);
* ``diffusion`` -- the degree-normalized kernel of diffusion-maps type,
  ``k(x, y) = g(x, y) / (deg_l(x) * deg_r(y))`` with right degree
  ``deg_r(x) = mean_j g(x, c_j)`` and left degree
  ``deg_l(x) = mean_j g(x, c_j) / deg_r(c_j)``, both taken against the
  empirical measure of the model's centers.  The diffusion kernel is
  symmetrizable: ``rho(x) k(x, y) / rho(y)`` with
  ``rho = sqrt(deg_l / deg_r)`` equals
  ``g(x, y) / sqrt(deg_r(x) deg_r(y) deg_l(x) deg_l(y))``.

Raw Gaussian values below a zero threshold are dropped before any
normalization; matrices are stored sparse.  Bandwidths are picked so a
target fraction of pairwise kernel values survives the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .errors import DegenerateBandwidthError, IsolatedPointError

KERNEL_KINDS = ("gaussian", "markov_gaussian", "diffusion")

DEFAULT_THETA_ZERO = 1e-14

# Rows processed per block when assembling large kernel matrices; keeps the
# transient dense distance block at ~tens of MB for N ~ 1e4.
_BLOCK_ROWS = 512


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
    """A fitted kernel over a set of center points.

    ``deg_r`` and ``deg_l`` are populated for the diffusion kind only.
    """

    kind: str
    epsilon: float
    theta_zero: float
    centers: np.ndarray
    deg_r: Optional[np.ndarray] = None
    deg_l: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        self.centers = np.asarray(self.centers, dtype=float)

    @property
    def n_centers(self) -> int:
        return len(self.centers)

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]


@dataclass
class SparseKernelMatrix:
    """Kernel matrix storing only entries whose raw Gaussian value was
    at least ``theta_zero`` before normalization."""

    matrix: sp.csr_matrix
    model: KernelModel

    @property
    def shape(self):
        return self.matrix.shape

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


def gaussian(x, y, epsilon: float) -> float:
    """Squared-exponential kernel exp(-|x - y|^2 / epsilon) for two points."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    diff = x - y
    return float(np.exp(-np.dot(diff, diff) / epsilon))


def pairwise_squared_distances(subsample: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances over all unordered distinct pairs."""
    from scipy.spatial.distance import pdist

    return pdist(np.asarray(subsample, dtype=float), "sqeuclidean")


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
    sub = strided_subsample(data, policy.subsample_fraction)
    sq = pairwise_squared_distances(sub)
    theta = 1.0 / np.log(1.0 / policy.theta_zero)
    quantile = float(np.quantile(sq, policy.eta))
    if quantile <= 0.0:
        raise DegenerateBandwidthError(
            f"the {policy.eta}-quantile of pairwise squared distances is zero "
            "(coincident subsample points)"
        )
    return theta * quantile


def _gaussian_blocks(rows: np.ndarray, cols: np.ndarray, epsilon: float):
    """Yield (row_offset, dense Gaussian block) over row chunks."""
    for start in range(0, len(rows), _BLOCK_ROWS):
        chunk = rows[start : start + _BLOCK_ROWS]
        sq = cdist(chunk, cols, "sqeuclidean")
        yield start, np.exp(-sq / epsilon)


def _sparse_gaussian(rows: np.ndarray, cols: np.ndarray, epsilon: float,
                     theta_zero: float) -> sp.csr_matrix:
    """Row-blocked sparse Gaussian matrix keeping entries >= theta_zero."""
    blocks = []
    for _, block in _gaussian_blocks(rows, cols, epsilon):
        block[block < theta_zero] = 0.0
        blocks.append(sp.csr_matrix(block))
    return sp.vstack(blocks, format="csr")


def markov_apply(rows, cols, epsilon: float, values,
                 theta_zero: float = DEFAULT_THETA_ZERO) -> np.ndarray:
    """Apply the row-stochastic Gaussian kernel matrix to columns of ``values``.

    Equivalent to ``markov_matrix(rows, cols, epsilon, theta_zero) @ values``
    but streamed in row blocks, so the full matrix is never materialized
    (broad bandwidths make it effectively dense).

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
    single = values.ndim == 1
    v = values[:, None] if single else values
    if len(v) != len(cols):
        raise ValueError(f"{len(v)} value rows for {len(cols)} column points")
    out = np.empty((len(rows), v.shape[1]))
    for start, block in _gaussian_blocks(rows, cols, epsilon):
        block[block < theta_zero] = 0.0
        sums = block.sum(axis=1)
        dead = np.flatnonzero(sums == 0.0)
        if dead.size:
            raise IsolatedPointError(row=int(start + dead[0]))
        out[start : start + len(block)] = (block @ v) / sums[:, None]
    return out[:, 0] if single else out


def markov_matrix(rows, cols, epsilon: float, theta_zero: float = DEFAULT_THETA_ZERO
                  ) -> SparseKernelMatrix:
    """Row-stochastic Gaussian kernel matrix between two point clouds.

    Entry (i, j) is ``g(r_i, c_j) / sum_j' g(r_i, c_j')`` computed after
    dropping raw values below ``theta_zero``.

    Raises
    ------
    IsolatedPointError
        If some row has no surviving entry (all raw values under the
        threshold); enlarging epsilon fixes this.
    """
    rows = np.asarray(rows, dtype=float)
    cols = np.asarray(cols, dtype=float)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if len(cols) == 0:
        raise ValueError("cols must be nonempty")
    raw = _sparse_gaussian(rows, cols, epsilon, theta_zero)
    row_sums = np.asarray(raw.sum(axis=1)).ravel()
    dead = np.flatnonzero(row_sums == 0.0)
    if dead.size:
        raise IsolatedPointError(row=int(dead[0]))
    inv = sp.diags(1.0 / row_sums)
    model = KernelModel(kind="markov_gaussian", epsilon=epsilon,
                        theta_zero=theta_zero, centers=cols)
    return SparseKernelMatrix(matrix=(inv @ raw).tocsr(), model=model)


def diffusion_model(data, epsilon: float, theta_zero: float = DEFAULT_THETA_ZERO
                    ) -> tuple[KernelModel, SparseKernelMatrix]:
    """Fit the degree-normalized diffusion kernel over a point cloud.

    Degrees are means against the empirical measure of ``data``; the
    returned matrix holds the (generally non-symmetric) entries
    ``k(x_i, x_j) = g(x_i, x_j) / (deg_l(x_i) deg_r(x_j))``.  Use
    :func:`symmetrized_matrix` for the symmetric sibling.
    """
    data = np.asarray(data, dtype=float)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if data.ndim != 2 or len(data) < 2:
        raise ValueError("data must be a 2-d array with at least 2 points")
    m = len(data)
    raw = _sparse_gaussian(data, data, epsilon, theta_zero)
    deg_r = np.asarray(raw.sum(axis=1)).ravel() / m
    dead = np.flatnonzero(deg_r == 0.0)
    if dead.size:
        raise IsolatedPointError(row=int(dead[0]))
    deg_l = (raw @ (1.0 / deg_r)) / m
    model = KernelModel(kind="diffusion", epsilon=epsilon, theta_zero=theta_zero,
                        centers=data, deg_r=deg_r, deg_l=deg_l)
    kdiff = (sp.diags(1.0 / deg_l) @ raw @ sp.diags(1.0 / deg_r)).tocsr()
    return model, SparseKernelMatrix(matrix=kdiff, model=model)


def symmetrized_matrix(kdiff: SparseKernelMatrix) -> sp.csr_matrix:
    """Similarity-transform a diffusion kernel matrix to its symmetric form.

    Conjugating by ``rho = sqrt(deg_l / deg_r)`` turns ``k`` into
    ``g(x, y) / sqrt(deg_r(x) deg_r(y) deg_l(x) deg_l(y))``.
    """
    model = kdiff.model
    if model.kind != "diffusion":
        raise ValueError("symmetrization applies to diffusion kernel matrices only")
    rho = np.sqrt(model.deg_l / model.deg_r)
    return (sp.diags(rho) @ kdiff.matrix @ sp.diags(1.0 / rho)).tocsr()


def _diffusion_section_block(model: KernelModel, gauss_block: np.ndarray) -> np.ndarray:
    """Turn raw Gaussian rows (already thresholded) into diffusion-kernel rows.

    For a query x the left degree extends out of sample as
    ``rho_l(x) = mean_j g(x, c_j) / deg_r(c_j)``, giving rows
    ``g(x, c_j) / (rho_l(x) deg_r(c_j))``; at a center this reproduces the
    fitted matrix row exactly.
    """
    scaled = gauss_block * (1.0 / model.deg_r)
    # row-wise reduction keeps identical query rows bitwise identical
    # regardless of their position in the block
    rho_l = scaled.sum(axis=1) / model.n_centers
    return scaled / rho_l[:, None]


def section_matrix(model: KernelModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate all kernel sections ``k(., c_j)`` at query points.

    Returns ``(S, extrapolated)`` where ``S[i, j] = k(points[i], c_j)`` and
    ``extrapolated`` marks rows whose raw Gaussian values all fell below the
    zero threshold; those rows are replaced by the section row of the
    nearest center (the nearest-point fallback).
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

    n = len(points)
    out = np.empty((n, model.n_centers))
    extrapolated = np.zeros(n, dtype=bool)
    for start, block in _gaussian_blocks(points, model.centers, model.epsilon):
        block[block < model.theta_zero] = 0.0
        alive = block.any(axis=1)
        if not alive.all():
            idx = np.flatnonzero(~alive) + start
            extrapolated[idx] = True
            # substitute each dead query by its nearest center
            nearest = np.argmin(
                cdist(points[idx], model.centers, "sqeuclidean"), axis=1
            )
            replacement = np.exp(
                -cdist(model.centers[nearest], model.centers, "sqeuclidean")
                / model.epsilon
            )
            replacement[replacement < model.theta_zero] = 0.0
            block[~alive] = replacement
        if model.kind == "gaussian":
            rows = block
        elif model.kind == "markov_gaussian":
            rows = block / block.sum(axis=1, keepdims=True)
        else:
            rows = _diffusion_section_block(model, block)
        out[start : start + len(block)] = rows
    return out, extrapolated


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
    out = {
        "kind": model.kind,
        "epsilon": model.epsilon,
        "theta_zero": model.theta_zero,
        "centers": model.centers.tolist(),
    }
    for key in ("deg_r", "deg_l"):
        value = getattr(model, key)
        out[key] = None if value is None else np.asarray(value).tolist()
    return out


def kernel_model_from_dict(data: dict) -> KernelModel:
    def arr(key):
        value = data.get(key)
        return None if value is None else np.asarray(value, dtype=float)

    return KernelModel(
        kind=data["kind"],
        epsilon=float(data["epsilon"]),
        theta_zero=float(data["theta_zero"]),
        centers=np.asarray(data["centers"], dtype=float),
        deg_r=arr("deg_r"),
        deg_l=arr("deg_l"),
    )

