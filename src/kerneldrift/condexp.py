"""Conditional expectations as kernel expansions.

Given paired samples ``(x_n, y_n)`` with one or more target columns, the
regression function ``E[Y | X = x]`` of each column is represented as
``sum_m a_m k(x, c_m)`` over a strided subsample of centers ``c_m``, with
``k`` a diffusion kernel.  The coefficients solve a ridge-regularized
least-squares problem

    min_a || P K a - P G y ||^2 + delta ||a||^2,

where ``G`` and ``P`` are row-stochastic Gaussian smoothing matrices over
the inputs and ``K`` is the matrix of kernel sections at the inputs.  All
three bandwidths are tuned by sparsity targets.
:func:`fit_targets` is the one fit; the expansion is evaluated through
the rows of :func:`~kerneldrift.kernels.section_matrix`.  The thresholded
operators are sparse, and so is ``B = P K``: the fit keeps ``K``, ``B``
and the products of the normal equations in CSR, and only the (M, M)
normal matrix and the (N, k) smoothed targets are dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotri

from .errors import NumericalError
from .kernels import (
    KernelModel,
    _section_blocks,
    diffusion_model,
    markov_apply,
    section_matrix,
    select_bandwidth,
)
from .systems import _integer

_ETA3 = 0.01  # P's sparsity target: the benchmark tuning, the one value any caller ran


@dataclass(frozen=True)
class CondExpParams:
    """Tuning knobs for the conditional-expectation fit.

    ``eta1``/``eta2`` are the sparsity targets that select the bandwidths
    of the smoothing matrix and the expansion kernel (defaults follow the
    benchmark tuning: 0.3% / 1%); the Markov matrix keeps 1% of pairs.
    ``delta`` is the ridge; ``n_centers``, an integer of at least 2, the
    number of kernel centers, every (N // M)-th input.  No knob sets the
    zero threshold: it is the constant ``kernels.THETA_ZERO``.
    """

    eta1: float = 0.003
    eta2: float = 0.01
    delta: float = 0.1
    n_centers: int = 500

    def __post_init__(self):
        for name in ("eta1", "eta2"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if isinstance(self.delta, bool) or not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be nonnegative and finite, got {self.delta}")
        # a diffusion kernel needs at least 2 centers
        object.__setattr__(self, "n_centers", _integer("n_centers", self.n_centers, 2))

    def _check_inputs(self, n: int) -> None:
        if self.n_centers > n:
            raise ValueError(f"n_centers={self.n_centers} exceeds the number of inputs {n}")


def solve_regularized(smoothed_sections: np.ndarray | sp.csr_array,
                      smoothed_targets: np.ndarray,
                      delta: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Ridge solution of ``min || B a - g ||^2 + delta ||a||^2`` per column.

    Uses the regularized normal equations with one Cholesky factorization;
    for ``delta = 0`` falls back to a minimum-norm least-squares solve.
    ``B`` is a dense or a CSR array, ``g`` a dense (N, k) array.  The
    normal matrix ``B^T B``, the right-hand side ``B^T g`` and the
    residuals ``B a - g`` come from ``B`` as given: a CSR ``B`` gives them
    as sparse products, and only the (M, M) normal matrix is densified.
    Returns ``(coefficients, residual_norms, condition)`` with one column /
    entry per target column and the 1-norm condition number
    ``||A||_1 ||A^-1||_1`` of the (regularized) normal matrix ``A``.  For
    ``delta > 0``, ``A^-1`` is inverted from the solve's own Cholesky
    factor (LAPACK ``potri``), so no eigendecomposition is made; for
    ``delta = 0`` the condition is ``np.linalg.cond(A, 1)``, ``inf`` when
    ``A`` is singular, as for a rank-deficient ``B``.  It bounds the
    2-norm condition (the eigenvalue ratio) within a factor of M:
    ``kappa_1 / M <= kappa_2 <= M kappa_1``.
    """
    b, g = smoothed_sections, smoothed_targets
    normal = b.T @ b
    if sp.issparse(normal):
        normal = normal.toarray()
    rhs = b.T @ g
    try:
        if delta > 0:
            # B^T B is exactly symmetric, so its transpose is the same matrix
            # in the Fortran order LAPACK factors and inverts in place
            normal = normal.T
            normal[np.diag_indices_from(normal)] += delta
            norm = np.linalg.norm(normal, 1)
            factor = cho_factor(normal, overwrite_a=True)
            coef = cho_solve(factor, rhs)
            inverse, info = dpotri(factor[0], overwrite_c=True)
            if info != 0:
                raise NumericalError(f"inverting the Cholesky factor failed: potri info {info}")
            # potri fills the upper triangle of the symmetric inverse: column
            # j's sum is its upper part plus row j's part right of the diagonal
            upper = np.triu(np.abs(inverse, out=inverse))
            sums = upper.sum(axis=0) + upper.sum(axis=1) - upper.diagonal()
            condition = float(norm * sums.max())
        else:
            coef, *_ = np.linalg.lstsq(normal, rhs, rcond=None)
            condition = float(np.linalg.cond(normal, 1))
    except (np.linalg.LinAlgError, ValueError) as err:
        raise NumericalError(f"least-squares solve failed: {err}") from err
    if not np.isfinite(coef).all():
        bad = np.flatnonzero(~np.isfinite(coef).all(axis=0))
        raise NumericalError(f"least-squares solve produced non-finite coefficients "
                             f"for target column(s) {bad.tolist()}")
    residuals = np.linalg.norm(b @ coef - g, axis=0)
    return coef, residuals, condition


def fit_targets(inputs, targets, params: CondExpParams
                ) -> tuple[KernelModel, np.ndarray, dict]:
    """Fit one kernel and one coefficient vector per target column.

    ``inputs`` has shape (N, d) and ``targets`` (N,) or (N, k); all columns
    share the bandwidths, smoothing matrices, centers (every (N // M)-th
    input; ``M > N`` raises ``ValueError``) and the factorization of the
    normal equations; one ``select_bandwidth`` call on one distance sample
    gives eps1, eps3 at ``_ETA3`` and eps2.  Returns
    ``(kernel_model, coefficients with shape (k, M), diagnostics)``.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if inputs.ndim != 2:
        raise ValueError("inputs must be a 2-d array (N, d)")
    if len(targets) != len(inputs):
        raise ValueError(f"{len(targets)} targets for {len(inputs)} inputs")
    if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
        raise ValueError("inputs and targets must be finite")
    n, m = len(inputs), params.n_centers
    params._check_inputs(n)
    single = targets.ndim == 1
    y = targets[:, None] if single else targets

    eps1, eps3, eps2 = select_bandwidth(inputs, (params.eta1, _ETA3, params.eta2))

    kernel = diffusion_model(inputs[np.arange(m) * (n // m)], eps2)
    # the sections keep about 1% of their entries: they are evaluated one
    # row block at a time and kept as CSR
    sections = sp.vstack([sp.csr_array(section_matrix(kernel, inputs[rows])[0])
                          for rows in _section_blocks(kernel, inputs)], format="csr")

    # one eps3 pass applies the Markov matrix to the kernel sections and
    # the smoothed targets together, as a sparse product that stays CSR;
    # only the k target columns are densified
    smoothed_y = markov_apply(inputs, inputs, eps1, y)
    stacked = markov_apply(inputs, inputs, eps3,
                           sp.hstack([sections, sp.csr_array(smoothed_y)], format="csr"))
    b = stacked[:, : kernel.n_centers]
    g = stacked[:, kernel.n_centers :].toarray()
    coef, residuals, condition = solve_regularized(b, g, params.delta)

    diagnostics = {
        "eps1": eps1,
        "eps2": eps2,
        "eps3": eps3,
        "delta": params.delta,
        "n_train": n,
        "n_centers": params.n_centers,
        "residual_norms": residuals.tolist(),
        "normal_condition": condition,
    }
    return kernel, coef.T, diagnostics
