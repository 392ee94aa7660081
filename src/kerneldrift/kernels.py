"""Gaussian-derived kernels over point clouds.

Two operators are built from the squared-exponential kernel
``g(x, y) = exp(-|x - y|^2 / epsilon)``, with raw values below the one
zero threshold ``THETA_ZERO``, the constant :func:`select_bandwidth`
assumes, dropped before any normalization.  The raw values of a cloud
with itself come from the radius neighbours a k-d tree lists
(:func:`_gaussian_pairs`), since ``g >= THETA_ZERO`` exactly when
``|x - y|^2 <= epsilon * ln(1 / THETA_ZERO)``: a list of pairs and their
squared gaps, 12 bytes per pair, at one bandwidth's cutoff, from which the
pairs within a narrower cutoff are copied (:func:`_narrowed`), so one
radius query serves several bandwidths; those against another point set
from one ``cdist`` block of squared distances (:func:`_gaussian_block`).
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
  empirical measure of the centers.  A model is its ``epsilon`` and
  centers alone: when a fit or a load makes one, it derives ``deg_r`` and
  the dense (M, M) table of the section rows at the centers (M^2 * 8 bytes,
  2 MB at M = 500) from the centers' own block, and persists neither; the
  left degree is computed for each query.  Its sections
  (:func:`section_matrix`) are dense rows over the centers and the one
  evaluator of a kernel expansion:
  ``sum_j a_j k(x_i, c_j)`` is the row-wise ``(S * a).sum(axis=1)``.  A
  query with no raw value at or above the threshold takes the section row
  of its nearest center from the table.  A large batch goes one row block at
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
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

from .errors import NumericalError
from .systems import _real

THETA_ZERO = 1e-14

# a sum of fewer than 10^8 squared coordinate gaps below this stays finite
_SAFE_GAP = 1e150

# rows of a cdist block evaluated at a time (about 2 MB against M = 500 centers)
_BLOCK_ROWS = 512

# pairs whose g is computed at a time (about 2 MB of index and gap buffers)
_PAIR_CHUNK = 1 << 16


@dataclass
class KernelModel:
    """The diffusion kernel fitted over a set of center points.

    A model is its bandwidth ``epsilon`` in (0, inf) and (M, d) ``centers``,
    M >= 2; every fit and every load builds it the same way.  When it is made
    it checks the centers and derives the rest, none of it persisted: the
    squared cutoff (:func:`_cutoff`); the centers' bounding box, against
    which queries are checked, and the bound that spares most queries that
    check; and, from the centers' own block of raw values, the right degrees
    ``deg_r``, their reciprocals and the table of the centers' section rows
    that an extrapolated query copies: that block itself, scaled, a dense
    (M, M) float64 array of M^2 * 8 bytes.
    """

    epsilon: float
    centers: np.ndarray

    # derived from the fields; not persisted, compared or passed in
    deg_r: np.ndarray = field(init=False, repr=False, compare=False)
    _inv_deg_r: np.ndarray = field(init=False, repr=False, compare=False)
    _lo: np.ndarray = field(init=False, repr=False, compare=False)
    _hi: np.ndarray = field(init=False, repr=False, compare=False)
    _reach2: float = field(init=False, repr=False, compare=False)
    _cutoff2: float = field(init=False, repr=False, compare=False)
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _real("epsilon", self.epsilon, 0, math.inf)
        centers = np.asarray(self.centers, dtype=float)
        if centers.ndim != 2 or not centers.size:
            raise ValueError(f"centers must be a non-empty (M, d) array, got shape "
                             f"{centers.shape}")
        if len(centers) < 2:
            raise ValueError(f"a diffusion kernel needs at least 2 centers, got {len(centers)}")
        median = np.median(centers, axis=0)
        _check_points(centers, median, median, "center", "the other centers")
        self.centers = centers
        self._lo, self._hi = centers.min(axis=0), centers.max(axis=0)
        # a query whose every |coordinate| stays below this reach is less
        # than _SAFE_GAP from each side of the box
        reach = _SAFE_GAP - max(np.abs(self._lo).max(), np.abs(self._hi).max())
        self._reach2 = max(reach, 0.0) ** 2
        self._cutoff2 = _cutoff(self.epsilon) ** 2
        # the raw rows g(c_i, c_j) among the centers; each keeps its own 1
        _, raw, near, g = _gaussian_block(self, centers)
        raw.put(near, g)
        self.deg_r = raw.sum(axis=1) / len(centers)
        self._inv_deg_r = 1.0 / self.deg_r
        _scale(self, raw, near, g)
        self._table = raw  # the centers' section rows, as section_matrix computes them

    @property
    def n_centers(self) -> int:
        return len(self.centers)

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]


def select_bandwidth(data, eta: float | Sequence[float]) -> float | np.ndarray:
    """Pick epsilon so that a fraction ``eta`` of pairwise kernel values on
    a strided tenth of the data (every step-th point, at least 2) exceeds
    the zero threshold ``THETA_ZERO``; no option changes the subsample.

    With ``theta = 1 / ln(1 / THETA_ZERO)`` the returned bandwidth is
    ``theta * q``, where ``q`` is the eta-quantile of the subsample's
    pairwise squared distances: ``exp(-s / epsilon) >= THETA_ZERO`` exactly
    when ``s <= q``.  ``eta`` is one target or, as for ``np.quantile``, a
    sequence of them: a sequence gives an array of bandwidths, each ``==``
    its scalar call, from one subsample, one ``pdist`` and one partition;
    an error names the first failing eta.

    Raises
    ------
    ValueError
        If an eta is out of range or a bool, a data point is not finite,
        or ``q`` is not finite because squared distances overflow.
    TypeError
        If an eta is not a real number.
    NumericalError
        If ``q`` is zero (coincident subsample points).
    """
    etas = list(eta) if np.ndim(eta) else [eta]
    for e in etas:
        _real("eta", e, 0, 1)
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or len(data) < 2:
        raise ValueError("data must be a 2-d array with at least 2 points")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ValueError(f"data point {np.argmin(finite)} is not finite")
    step = max(1, len(data) // max(2, int(round(len(data) * 0.1))))
    sq = pdist(data[::step], "sqeuclidean")
    with np.errstate(invalid="ignore"):  # inf - inf between overflowed distances
        # partitioned in place: the distances are held once, not copied
        quantiles = np.quantile(sq, eta, overwrite_input=True)
    for e, quantile in zip(etas, np.ravel(quantiles)):
        if not math.isfinite(quantile):
            raise ValueError(f"the {e}-quantile of pairwise squared distances is not "
                             "finite (squared distances overflow)")
        if quantile <= 0.0:
            raise NumericalError(f"the {e}-quantile of pairwise squared distances is zero "
                                 "(coincident subsample points)")
    return (1.0 / np.log(1.0 / THETA_ZERO)) * quantiles  # theta * q


def markov_apply(rows, cols, epsilon: float, values,
                 theta_zero: float = THETA_ZERO, *, pairs=None) -> np.ndarray | sp.csr_array:
    """Apply the row-stochastic Gaussian kernel matrix of one point cloud to
    the columns of ``values``.

    ``rows`` is the (N, d) cloud; ``cols`` must hold the same points (the
    same array or an equal one) and ``theta_zero`` must be ``THETA_ZERO``:
    both stay because ``perfbench``'s ``markov_pass`` hook binds them.
    Entry (i, j) is ``g(x_i, x_j) / sum_j' g(x_i, x_j')`` over the raw
    values at or above ``THETA_ZERO``, each CSR row in column order.  A row
    keeps its own point with ``g = 1``, so no row sum is zero: a point
    beyond the cutoff from all others keeps its own value.  Dense (N, k)
    ``values`` give a dense result; a 2-d ``scipy.sparse`` array gives CSR,
    each stored entry of the sparse product divided by its row sum, whose
    ``toarray()`` is the dense result.

    The candidate pairs are ``pairs``, a list of ``rows`` at this
    ``epsilon``'s cutoff from :func:`_gaussian_pairs` or :func:`_narrowed`,
    or, without one, the list :func:`_gaussian_pairs` makes here.  ``g`` is
    written over the list's squared gaps, so a list is used up by the call
    that takes it, and the kernel's CSR holds the list's arrays uncopied:
    12 bytes per pair.  A list narrowed from a wider one holds the pairs
    whose squared gap is within the cutoff, and the cutoff's own list those
    the tree finds within it; they can differ only in a pair within rounding
    of the padded radius, whose ``g`` is 0.  Such a stored 0 leaves the
    product as it is, but could move the last bit of its row's sum, which
    numpy adds pairwise.

    Raises
    ------
    ValueError
        If ``epsilon`` is out of (0, inf) or a bool, ``theta_zero`` is not
        ``THETA_ZERO``, ``values`` is not a finite (N, k) array, ``cols``
        holds other points, ``pairs`` lists another number of points or was
        listed at another cutoff, or, when no list is given, a point is not
        finite or so far out that squared distances overflow, or N is 2**31
        or more.
    TypeError
        If ``epsilon`` is not a real number.
    """
    points = np.asarray(rows, dtype=float)
    if sp.issparse(values):
        values = sp.csr_array(values, dtype=float)
        finite = np.isfinite(values.data).all()
    else:
        values = np.asarray(values, dtype=float)
        finite = np.isfinite(values).all()
    _real("epsilon", epsilon, 0, math.inf)
    if theta_zero != THETA_ZERO:
        raise ValueError(f"theta_zero must be THETA_ZERO = {THETA_ZERO}, got {theta_zero}")
    if points.ndim != 2 or values.ndim != 2 or values.shape[0] != len(points):
        raise ValueError(f"rows {points.shape} and values {values.shape} must be "
                         "(N, d) and (N, k) arrays")
    n = len(points)
    if not finite:
        raise ValueError("values must be finite")
    if pairs is None:
        pairs = _gaussian_pairs(points, epsilon)  # names a bad point before cols compare
    if not (cols is rows or np.array_equal(cols, points)):
        raise ValueError("cols must hold the same points as rows")
    indptr, j, sq, radius = pairs
    if len(indptr) != n + 1 or radius != _cutoff(epsilon):
        raise ValueError(f"pairs must list the {n} points of rows at epsilon's cutoff "
                         f"{_cutoff(epsilon)}, got {len(indptr) - 1} points at {radius}")
    for start in range(0, len(sq), _PAIR_CHUNK):
        _gaussian(sq[start : start + _PAIR_CHUNK], epsilon)  # in place, a chunk at a time
    kernel = sp.csr_array((sq, j, indptr), shape=(n, n))
    sums = kernel.sum(axis=1)
    out = kernel @ values
    if sp.issparse(out):
        # the same division of every stored entry as of the dense result
        out.data /= sums.repeat(np.diff(out.indptr))
    else:
        out /= sums[:, None]
    return out


def _gaussian(sq: np.ndarray, epsilon: float) -> np.ndarray:
    """``exp(-sq / epsilon)`` of squared distances, zero below ``THETA_ZERO``,
    written over ``sq`` and returned."""
    sq /= -epsilon  # the same bits as exp(-sq / epsilon)
    np.exp(sq, out=sq)
    sq[sq < THETA_ZERO] = 0.0
    return sq


def _cutoff(epsilon: float) -> float:
    """The distance ``sqrt(epsilon * ln(1 / THETA_ZERO))`` beyond which ``g``
    falls below ``THETA_ZERO``, with a relative pad of 1e-12: every pair
    whose ``g`` reaches ``THETA_ZERO`` lies within it, rounding included."""
    return math.sqrt(epsilon * math.log(1.0 / THETA_ZERO)) * (1.0 + 1e-12)


def _gaussian_block(model: KernelModel, points: np.ndarray) -> tuple[np.ndarray, ...]:
    """The squared distances ``sq = cdist(points, model.centers,
    "sqeuclidean")``, a zero block ``raw`` of their shape, the flat indices
    ``near`` of the entries within the model's cutoff, the only ones whose
    raw value may be nonzero, and those values ``g(points[i], c_j)``, zero
    below ``THETA_ZERO``.  ``exp`` is taken only on them: far beyond the
    cutoff it underflows, which is slow.  ``cdist`` computes each entry
    alone, so a row is the same alone or in any block.

    ``raw`` is allocated before ``sq``: once a block's arrays are freed,
    glibc then finds less than its trim threshold free at the heap's top
    and keeps the pages for the next block instead of faulting them in
    again (a 2000-point Hopf prediction after a fit: about 5900 minor page
    faults down to about 70).
    """
    raw = np.zeros((len(points), model.n_centers))
    sq = cdist(points, model.centers, "sqeuclidean")
    near = (sq.ravel() <= model._cutoff2).nonzero()[0]
    return sq, raw, near, _gaussian(sq.take(near), model.epsilon)


def _gaussian_pairs(points: np.ndarray, epsilon: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The candidate pairs ``(indptr, j, sq, radius)`` of a cloud of
    ``n < 2**31`` points with itself within :func:`_cutoff`'s ``radius``:
    CSR row pointers over the int32 columns ``j``, each row in column order
    and holding its own point, and the float64 squared gaps
    ``sq = |points[i] - points[j]|^2``.

    One ``query_pairs`` over a k-d tree of the points, at that radius,
    lists each unordered pair once; keyed in both orientations plus the
    diagonal as the unique ``i * n + j`` (int32 while ``n * n < 2**31``,
    which sorts in half the time, else int64) and sorted, those come in
    canonical CSR order.  Each squared gap is recomputed in the order
    ``cdist`` sums it (a negated gap is exact: ``(j, i)`` gets the bits of
    ``(i, j)``), so the threshold test on it keeps exactly the values a
    dense evaluation keeps.  The radius's pad keeps rounding in the tree
    from dropping a kept pair; the candidates it adds get a zero ``g``.

    Memory per listed pair: the tree's pair list (8 bytes) and the keys (at
    most 8) coexist only while the keys are filled; the keys sort in place,
    split into int32 ``i`` and ``j`` and are freed, and ``sq`` is filled
    ``_PAIR_CHUNK`` entries at a time.  ``indptr`` is then found from ``i``,
    which is dropped.  So the peak is 16 bytes plus fixed chunk buffers, and
    the list 12.  ``n < 2**31`` keeps the keys below ``2**62``
    and the indices in int32; a larger cloud is a ValueError, and so is a
    point that is not finite or so far out that squared distances overflow.
    """
    n, radius = len(points), _cutoff(epsilon)
    if n >= 2**31:
        raise ValueError(f"a cloud of {n} points has indices beyond int32 (n < 2**31)")
    # the tree's radius query fails if the box's diagonal overflows; only
    # then are points checked one by one, against their median, to name one
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.square(np.ptp(points, axis=0)).sum() if n else 0.0
    if not spread < np.inf:
        median = np.median(points, axis=0)
        _check_points(points, median, median, "row", "the other points")
        raise ValueError("the points spread so far apart that squared distances overflow")
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    m, key = len(pairs), np.int32 if n * n < 2**31 else np.int64
    keys = np.empty(2 * m + n, dtype=key)
    for rows, lo, hi in ((slice(0, m), 0, 1), (slice(m, 2 * m), 1, 0)):
        np.multiply(pairs[:, lo], n, out=keys[rows], dtype=key)
        keys[rows] += pairs[:, hi]
    del pairs  # free the pair list before the keys sort
    np.multiply(np.arange(n, dtype=key), n + 1, out=keys[2 * m:])
    keys.sort()
    i, j = np.empty(len(keys), dtype=np.int32), np.empty(len(keys), dtype=np.int32)
    np.divmod(keys, n, out=(i, j))
    del keys
    # a chunk at a time and coordinate by coordinate, so the temporaries stay
    # the size of one chunk's column; adding the first square to zero is exact
    columns = np.ascontiguousarray(points.T)
    sq = np.zeros(len(i))
    for start in range(0, len(i), _PAIR_CHUNK):
        rows = slice(start, start + _PAIR_CHUNK)
        left, right, chunk = i[rows].astype(np.intp), j[rows].astype(np.intp), sq[rows]
        for column in columns:
            gap = column.take(left)
            gap -= column.take(right)
            gap *= gap
            chunk += gap
    # row r starts at the first pair whose i is at least r; an int32 indptr,
    # while the pair count fits, lets a CSR keep the int32 j uncopied
    indptr = np.empty(n + 1, dtype=np.int32 if len(i) < 2**31 else np.int64)
    indptr[:n], indptr[n] = np.searchsorted(i, np.arange(n, dtype=i.dtype)), len(i)
    return indptr, j, sq, radius


def _narrowed(pairs: tuple, epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """A copy of the pairs of a :func:`_gaussian_pairs` list whose squared
    gap is within the cutoff of ``epsilon``, a bandwidth no larger than the
    list's, as a list at that cutoff; ``pairs`` is left as it is.

    Every pair whose ``g`` reaches ``THETA_ZERO`` at ``epsilon`` is kept, with
    its squared gap's bits, and so is each row's own point; the list's
    other candidates are dropped.  One boolean mask over the list (1 byte
    per listed pair), its per-row counts and boolean compression of ``j``
    and ``sq`` make the copy: 12 bytes per kept pair, O(n) for the counts,
    and no index or count array as long as the list.
    """
    indptr, j, sq, radius = pairs
    cutoff = _cutoff(epsilon)
    if cutoff > radius:
        raise ValueError(f"pairs listed at the cutoff {radius} cannot be narrowed to {cutoff}")
    keep = sq <= cutoff * cutoff
    narrow = np.zeros_like(indptr)
    # reduceat casts all it sums to the counts' type, so it takes blocks of
    # rows of about _PAIR_CHUNK pairs; no row is empty (each holds its own
    # point), so each index starts one row's sum
    ends = np.searchsorted(indptr, np.arange(_PAIR_CHUNK, len(sq), _PAIR_CHUNK))
    for lo, hi in zip([0, *ends], [*ends, len(indptr) - 1]):
        np.add.reduceat(keep[indptr[lo] : indptr[hi]], indptr[lo:hi] - indptr[lo],
                        dtype=indptr.dtype, out=narrow[lo + 1 : hi + 1])
    np.cumsum(narrow, out=narrow)
    return narrow, j[keep], sq[keep], cutoff


def _check_points(points: np.ndarray, lo: np.ndarray, hi: np.ndarray, name: str,
                  other: str) -> None:
    """Reject the first (n, d) point, named ``{name} point {row}``, that is
    not finite or whose squared distance to the farthest corner of the box
    ``[lo, hi]`` (which stands for ``other``) overflows: a k-d tree radius
    query bounds its distances by such corners and fails when one does, and
    ``cdist`` would give an ``inf`` distance."""
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


def diffusion_model(data, epsilon: float) -> KernelModel:
    """Fit the degree-normalized diffusion kernel with ``data`` as centers.

    Degrees are means against the empirical measure of ``data``; every
    point has a degree of at least ``1 / len(data)`` from its own entry.
    """
    return KernelModel(epsilon=epsilon, centers=data)


def _scale(model: KernelModel, raw: np.ndarray, near: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Fill the zero block ``raw`` with section rows from the raw values ``g``
    at its flat indices ``near``: each times ``1 / deg_r``, over its row's
    mean ``rho_l``.  Returns the flags of the rows whose ``rho_l`` is 0."""
    one = len(raw) == 1  # an orbit step's one row: its flat indices are its columns
    g *= model._inv_deg_r.take(near if one else near % model.n_centers)
    raw.put(near, g)
    # one dense row-wise reduction keeps identical query rows bitwise
    # identical regardless of their position in the batch
    rho_l = np.add.reduce(raw, axis=1) / model.n_centers
    extrapolated = rho_l == 0.0
    rho_l[extrapolated] = 1.0  # a zero row's entries are divided by 1, not 0
    g /= rho_l if one else rho_l.take(near // model.n_centers)
    raw.put(near, g)
    return extrapolated


def _check_queries(model: KernelModel, points: np.ndarray) -> None:
    """Check (n, d) query points against the centers' bounding box: the
    exact, named :func:`_check_points` runs only on a batch whose squared
    coordinates sum to ``_reach2`` or more (or to NaN), since below it
    every gap to the box stays below ``_SAFE_GAP``."""
    if not np.vdot(points, points) < model._reach2:
        _check_points(points, model._lo, model._hi, "query", "every center")


def _section_blocks(model: KernelModel, points: np.ndarray) -> list[slice]:
    """Row slices of at most ``_BLOCK_ROWS`` over an (n, d) batch, in order.

    Callers evaluate :func:`section_matrix` one block at a time, so no
    dense (n, M) array is built.  A batch of more than one block is checked
    here, once, so that an error names the row's index in the whole batch.
    """
    if len(points) > _BLOCK_ROWS:
        _check_queries(model, points)
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
    same alone or in any batch.  Only its entries within the cutoff are
    scaled (:func:`_scale`); the one dense pass is the reduction to
    ``rho_l``, which is 0 exactly when a row kept no raw value (each kept
    one is at least ``THETA_ZERO``, and ``1 / deg_r >= 1``).  An
    extrapolated row's nearest center is the ``argmin`` of its row of that
    block (the first on a tie), and the row is the nearest center's row of
    the model's table, computed the same way when the model was made.
    Every point is checked (:func:`_check_queries`) against the centers'
    bounding box before ``cdist`` sees it: a squared distance that
    overflows would make a row all ``inf``, whose ``argmin`` is center 0
    however near another center is.

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
    _check_queries(model, points)

    sq, raw, near, g = _gaussian_block(model, points)
    extrapolated = _scale(model, raw, near, g)
    if np.count_nonzero(extrapolated):
        rows = extrapolated.nonzero()[0]
        raw[rows] = model._table[sq[rows].argmin(axis=1)]
    return raw, extrapolated
