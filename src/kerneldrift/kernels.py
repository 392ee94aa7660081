"""Gaussian-derived kernels over point clouds.

Two operators are built from the squared-exponential kernel
``g(x, y) = exp(-|x - y|^2 / epsilon)``, with raw values below a zero
threshold ``theta_zero`` dropped before any normalization.  The raw values
of a cloud with itself come from the radius neighbours a k-d tree lists
(:func:`_gaussian_pairs`), since ``g >= theta_zero`` exactly when
``|x - y|^2 <= epsilon * ln(1 / theta_zero)``; those against another point
set from one ``cdist`` block of squared distances (:func:`_gaussian_block`).
Either way the threshold test keeps exactly the entries a dense evaluation
keeps:

* the Markov smoothing operator (:func:`markov_apply`) -- ``g`` over one
  point cloud, the sample's own empirical measure, with each row divided
  by its sum: a row-stochastic CSR matrix applied to dense columns, giving
  a dense result, or to sparse columns, giving a CSR result;
* the diffusion kernel (:class:`KernelModel`) over a few hundred centers --
  ``k(x, y) = g(x, y) / (deg_l(x) * deg_r(y))`` with right degree
  ``deg_r(x) = mean_j g(x, c_j)`` and left degree
  ``deg_l(x) = mean_j g(x, c_j) / deg_r(c_j)``, both taken against the
  empirical measure of the centers.  A model is its ``epsilon``,
  ``theta_zero`` and centers alone: when a fit or a load makes one, it
  derives ``deg_r`` and a CSR table of the raw rows at the centers from
  the centers' own block, and persists neither; the left degree is
  computed for each query.  Its sections (:func:`section_matrix`) are
  dense rows over the centers and the one evaluator of a kernel expansion:
  ``sum_j a_j k(x_i, c_j)`` is the row-wise ``(S * a).sum(axis=1)``.  A
  query with no raw value at or above the threshold takes the raw row of
  its nearest center from the table.  A large batch goes one row block at
  a time (:func:`_section_blocks`).  The diffusion kernel is
  symmetrizable: with ``rho = sqrt(deg_l / deg_r)``,
  ``rho(x) k(x, y) / rho(y)`` equals
  ``g(x, y) / sqrt(deg_r(x) deg_r(y) deg_l(x) deg_l(y))``.

Every point is checked before a tree or ``cdist`` sees it.  Bandwidths are
picked so a target fraction of pairwise kernel values survives the
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

from .errors import DegenerateBandwidthError

DEFAULT_THETA_ZERO = 1e-14

# a sum of fewer than 10^8 squared coordinate gaps below this stays finite
_SAFE_GAP = 1e150

# rows of a cdist block evaluated at a time (about 2 MB against M = 500 centers)
_BLOCK_ROWS = 512


@dataclass
class KernelModel:
    """The diffusion kernel fitted over a set of center points.

    A model is its bandwidth ``epsilon``, zero threshold ``theta_zero`` and
    (M, d) ``centers``; every fit and every load builds it the same way.
    When it is made it checks the centers and derives the rest, none of it
    persisted: the centers' bounding box, against which queries are
    checked; and, from the centers' own block of raw values, the right
    degrees ``deg_r``, their reciprocals and the CSR table of raw rows that
    an extrapolated query copies.
    """

    epsilon: float
    theta_zero: float
    centers: np.ndarray

    # derived from the fields; not persisted, compared or passed in
    deg_r: np.ndarray = field(init=False, repr=False, compare=False)
    _inv_deg_r: np.ndarray = field(init=False, repr=False, compare=False)
    _lo: np.ndarray = field(init=False, repr=False, compare=False)
    _hi: np.ndarray = field(init=False, repr=False, compare=False)
    _table: sp.csr_array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_kernel(self.epsilon, self.theta_zero)
        centers = np.asarray(self.centers, dtype=float)
        if centers.ndim != 2 or not centers.size:
            raise ValueError(f"centers must be a non-empty (M, d) array, got shape "
                             f"{centers.shape}")
        median = np.median(centers, axis=0)
        _check_points(centers, median, median, "center", "the other centers")
        self.centers = centers
        self._lo, self._hi = centers.min(axis=0), centers.max(axis=0)
        # the raw rows g(c_i, c_j) among the centers; each keeps its own 1
        raw = _gaussian_block(centers, centers, self.epsilon, self.theta_zero)[1]
        self.deg_r = raw.sum(axis=1) / len(centers)
        self._inv_deg_r = 1.0 / self.deg_r
        self._table = sp.csr_array(raw)

    @property
    def n_centers(self) -> int:
        return len(self.centers)

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]


def _strided_subsample(data: np.ndarray, fraction: float) -> np.ndarray:
    """A subsample spread evenly through the data (at least 2 points)."""
    n = len(data)
    n_sub = max(2, int(round(n * fraction)))
    step = max(1, n // n_sub)
    return data[::step]


def select_bandwidth(data, eta: float, theta_zero: float = DEFAULT_THETA_ZERO,
                     subsample_fraction: float = 0.1) -> float:
    """Pick epsilon so that a fraction ``eta`` of pairwise kernel values
    on a subsample exceeds the zero threshold ``theta_zero``.

    Squared distances are measured on a strided subsample of the data of
    relative size ``subsample_fraction``.  With
    ``theta = 1 / ln(1 / theta_zero)`` the returned bandwidth is
    ``theta * q``, where ``q`` is the eta-quantile of the subsample's
    pairwise squared distances: ``exp(-s / epsilon) >= theta_zero`` exactly
    when ``s <= q``.

    Raises
    ------
    ValueError
        If a parameter is out of range, a data point is not finite, or
        ``q`` is not finite because squared distances overflow.
    DegenerateBandwidthError
        If ``q`` is zero.
    """
    if not 0 < eta < 1:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if not 0 < theta_zero < 1:
        raise ValueError(f"theta_zero must lie in (0, 1), got {theta_zero}")
    if not 0 < subsample_fraction <= 1:
        raise ValueError(f"subsample_fraction must lie in (0, 1], got {subsample_fraction}")
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or len(data) < 2:
        raise ValueError("data must be a 2-d array with at least 2 points")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ValueError(f"data point {np.argmin(finite)} is not finite")
    sq = pdist(_strided_subsample(data, subsample_fraction), "sqeuclidean")
    theta = 1.0 / np.log(1.0 / theta_zero)
    with np.errstate(invalid="ignore"):  # inf - inf between overflowed distances
        quantile = float(np.quantile(sq, eta))
    if not math.isfinite(quantile):
        raise ValueError(f"the {eta}-quantile of pairwise squared distances is not "
                         "finite (squared distances overflow)")
    if quantile <= 0.0:
        raise DegenerateBandwidthError(
            f"the {eta}-quantile of pairwise squared distances is zero "
            "(coincident subsample points)"
        )
    return theta * quantile


def markov_apply(rows, cols, epsilon: float, values,
                 theta_zero: float = DEFAULT_THETA_ZERO) -> np.ndarray | sp.csr_array:
    """Apply the row-stochastic Gaussian kernel matrix of one point cloud to
    the columns of ``values``.

    ``rows`` is the (N, d) cloud; ``cols`` must hold the same points (the
    same array or an equal one) and stays because ``perfbench``'s
    ``markov_pass`` hook binds both names.  Entry (i, j) is
    ``g(x_i, x_j) / sum_j' g(x_i, x_j')`` over the raw values at or above
    ``theta_zero`` (:func:`_gaussian_pairs`), each CSR row in column order.
    A row keeps its own point with ``g = 1``, so no row sum is zero: a
    point beyond the cutoff from all others keeps its own value.  Dense
    (N, k) ``values`` give a dense result; a 2-d ``scipy.sparse`` array
    gives CSR, each stored entry of the sparse product divided by its row
    sum, whose ``toarray()`` is the dense result.

    Raises
    ------
    ValueError
        If ``epsilon`` or ``theta_zero`` is out of range, ``values`` is not
        a finite (N, k) array, ``cols`` holds other points, or a point is
        not finite or so far out that squared distances overflow.
    """
    points = np.asarray(rows, dtype=float)
    if sp.issparse(values):
        values = sp.csr_array(values, dtype=float)
        finite = np.isfinite(values.data).all()
    else:
        values = np.asarray(values, dtype=float)
        finite = np.isfinite(values).all()
    _check_kernel(epsilon, theta_zero)
    if points.ndim != 2 or values.ndim != 2 or values.shape[0] != len(points):
        raise ValueError(f"rows {points.shape} and values {values.shape} must be "
                         "(N, d) and (N, k) arrays")
    n = len(points)
    if not finite:
        raise ValueError("values must be finite")
    # the tree's radius query fails if the box's diagonal overflows; only
    # then are points checked one by one, against their median, to name one
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.square(np.ptp(points, axis=0)).sum() if n else 0.0
    if not spread < np.inf:
        median = np.median(points, axis=0)
        _check_points(points, median, median, "row", "the other points")
        raise ValueError("the points spread so far apart that squared distances overflow")
    if not (cols is rows or np.array_equal(cols, points)):
        raise ValueError("cols must hold the same points as rows")

    i, j, g = _gaussian_pairs(points, epsilon, theta_zero)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(i, minlength=n), out=indptr[1:])
    kernel = sp.csr_array((g, j, indptr), shape=(n, n))
    sums = kernel.sum(axis=1)
    out = kernel @ values
    if sp.issparse(out):
        # the same division of every stored entry as of the dense result
        out.data /= sums.repeat(np.diff(out.indptr))
    else:
        out /= sums[:, None]
    return out


def _check_kernel(epsilon: float, theta_zero: float) -> None:
    if isinstance(epsilon, bool) or not epsilon > 0:  # a JSON true is no bandwidth of 1
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < theta_zero < 1:
        raise ValueError(f"theta_zero must lie in (0, 1), got {theta_zero}")


def _gaussian(sq: np.ndarray, epsilon: float, theta_zero: float) -> np.ndarray:
    """``exp(-sq / epsilon)`` of squared distances, zero below ``theta_zero``."""
    g = np.exp(sq / -epsilon)  # the same bits as exp(-sq / epsilon)
    g[g < theta_zero] = 0.0
    return g


def _cutoff(epsilon: float, theta_zero: float) -> float:
    """The distance ``sqrt(epsilon * ln(1 / theta_zero))`` beyond which ``g``
    falls below ``theta_zero``, with a relative pad of 1e-12: every pair
    whose ``g`` reaches ``theta_zero`` lies within it, rounding included."""
    return math.sqrt(epsilon * math.log(1.0 / theta_zero)) * (1.0 + 1e-12)


def _gaussian_block(points: np.ndarray, others: np.ndarray, epsilon: float,
                    theta_zero: float) -> tuple[np.ndarray, np.ndarray]:
    """The squared distances ``sq = cdist(points, others, "sqeuclidean")``
    and the raw block ``g(points[i], others[j])``, zero below ``theta_zero``.

    ``exp`` is taken only within :func:`_cutoff`: far beyond it ``exp``
    underflows, which is slow.  ``cdist`` computes each entry alone, so a
    row is the same alone or in any block.
    """
    sq = cdist(points, others, "sqeuclidean")
    near = sq <= _cutoff(epsilon, theta_zero) ** 2
    raw = np.zeros_like(sq)
    raw[near] = _gaussian(sq[near], epsilon, theta_zero)
    return sq, raw


def _gaussian_pairs(points: np.ndarray, epsilon: float, theta_zero: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate pairs ``(i, j, g)`` of a cloud with itself, in canonical CSR
    order, with ``g = g(points[i], points[j])`` where it is at or above
    ``theta_zero`` and 0 where it is not.

    One ``query_pairs`` over a k-d tree of the points, at :func:`_cutoff`'s
    radius, lists each unordered pair once; keyed in both orientations plus
    the diagonal as the unique int64 ``i * n + j`` and sorted, those come in
    canonical CSR order.  The threshold test decides on a squared distance
    recomputed in the order ``cdist`` sums it, so the nonzero values are
    exactly a dense evaluation's (a negated gap is exact: ``(j, i)`` gets the
    bits of ``(i, j)``).  The radius's pad keeps rounding in the tree from
    dropping a kept pair; the candidates it adds get a zero.
    """
    n, radius = len(points), _cutoff(epsilon, theta_zero)
    lo, hi = cKDTree(points).query_pairs(radius, output_type="ndarray").astype(np.int64).T
    keys = np.concatenate([lo * n + hi, hi * n + lo, np.arange(n, dtype=np.int64) * (n + 1)])
    del lo, hi  # free the pair list before the distances are computed
    keys.sort()
    i, j = np.divmod(keys, n, out=(keys, np.empty_like(keys)))
    # coordinate by coordinate, so the temporaries stay the size of one
    # column; adding the first square to zero is exact
    sq = np.zeros(len(i))
    for k in range(points.shape[1]):
        gap = points[:, k].take(i)
        gap -= points[:, k].take(j)
        gap *= gap
        sq += gap
    return i, j, _gaussian(sq, epsilon, theta_zero)


def _check_points(points: np.ndarray, lo: np.ndarray, hi: np.ndarray, name: str,
                  other: str) -> None:
    """Reject the first (n, d) point, named ``{name} point {row}``, that is
    not finite or whose squared distance to the farthest corner of the box
    ``[lo, hi]`` (which stands for ``other``) overflows: a k-d tree radius
    query bounds its distances by such corners and fails when one does, and
    ``cdist`` would give an ``inf`` distance."""
    # a cheap bound first: no squared distance to a corner of the box can
    # overflow while every coordinate gap stays below it
    if np.maximum(points - lo, hi - points).max(initial=0.0) < _SAFE_GAP:
        return
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        bad = np.argmin(finite)
        raise ValueError(f"{name} point {bad} is not finite: {points[bad].tolist()}")
    with np.errstate(over="ignore", invalid="ignore"):
        far = np.maximum(points - lo, hi - points)
        # a box that is not finite itself (NaN) is left to its own check
        overflow = (far * far).sum(axis=1) == np.inf
    if overflow.any():
        bad = np.argmax(overflow)
        raise ValueError(f"{name} point {bad} is too far from {other} "
                         f"(squared distances overflow): {points[bad].tolist()}")


def diffusion_model(data, epsilon: float, theta_zero: float = DEFAULT_THETA_ZERO
                    ) -> KernelModel:
    """Fit the degree-normalized diffusion kernel with ``data`` as centers.

    Degrees are means against the empirical measure of ``data``; every
    point has a degree of at least ``1 / len(data)`` from its own entry.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or len(data) < 2:
        raise ValueError("data must be a 2-d array with at least 2 points")
    return KernelModel(epsilon=epsilon, theta_zero=theta_zero, centers=data)


def _normalise(model: KernelModel, raw: np.ndarray) -> np.ndarray:
    """Section rows ``raw[i, j] / (rho_l(x_i) deg_r(c_j))``, in place, from
    raw rows."""
    raw *= model._inv_deg_r
    # row-wise reduction keeps identical query rows bitwise identical
    # regardless of their position in the batch
    rho_l = np.add.reduce(raw, axis=1) / model.n_centers
    raw /= rho_l[:, None]
    return raw


def _section_blocks(model: KernelModel, points: np.ndarray) -> list[slice]:
    """Row slices of at most ``_BLOCK_ROWS`` over an (n, d) batch, in order.

    Callers evaluate :func:`section_matrix` one block at a time, so no
    dense (n, M) array is built.  A batch of more than one block is checked
    here, once, so that an error names the row's index in the whole batch.
    """
    if len(points) > _BLOCK_ROWS:
        _check_points(points, model._lo, model._hi, "query", "every center")
    return [slice(s, s + _BLOCK_ROWS) for s in range(0, len(points), _BLOCK_ROWS)]


def section_matrix(model: KernelModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate all kernel sections ``k(., c_j)`` at query points.

    Returns ``(S, extrapolated)`` where ``S[i, j] = k(points[i], c_j)`` and
    ``extrapolated`` marks rows whose raw Gaussian values all fell below the
    zero threshold; those rows are replaced by the section row of the
    nearest center (the nearest-point fallback).  For a query x the left
    degree extends out of sample as ``rho_l(x) = mean_j g(x, c_j) / deg_r(c_j)``,
    giving ``S[i, j] = g(x, c_j) / (rho_l(x) deg_r(c_j))``; at a center
    this is the fitted kernel's row.

    Each call is one row block from one ``cdist`` block of squared
    distances to every center (:func:`_gaussian_block`), so a row is the
    same alone or in any batch.  An extrapolated row's nearest center is
    the ``argmin`` of its row of that block (the first on a tie), whose raw
    row is copied in from the model's table; then every row is normalised
    once.  Every point is checked (:func:`_check_points`) against
    the centers' bounding box before ``cdist`` sees it: a squared distance
    that overflows would make a row all ``inf``, whose ``argmin`` is center
    0 however near another center is.

    Raises
    ------
    ValueError
        If a query point has the wrong dimension, is not finite, or lies so
        far out that its squared distances to the centers overflow.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != model.dimension:
        raise ValueError(
            f"query dimension {points.shape[1]} != center dimension {model.dimension}"
        )
    _check_points(points, model._lo, model._hi, "query", "every center")

    sq, raw = _gaussian_block(points, model.centers, model.epsilon, model.theta_zero)
    extrapolated = ~raw.any(axis=1)
    if extrapolated.any():
        table = model._table
        for row, center in zip(np.flatnonzero(extrapolated), sq[extrapolated].argmin(axis=1)):
            span = slice(table.indptr[center], table.indptr[center + 1])
            raw[row, table.indices[span]] = table.data[span]
    return _normalise(model, raw), extrapolated
