"""Conditional expectations as kernel expansions.

Given paired samples ``(x_n, y_n)`` with one or more target columns, the
regression function ``E[Y | X = x]`` of each column is represented as
``sum_m a_m k(x, c_m)`` over a strided subsample of centers ``c_m``, with
``k`` a diffusion kernel.  The coefficients solve a ridge-regularized
least-squares problem

    min_a || P K a - P G y ||^2 + delta ||a||^2,

where ``G`` and ``P`` are row-stochastic Gaussian smoothing matrices over
the inputs and ``K`` is the matrix of kernel sections at the inputs.  All
three bandwidths are tuned by sparsity targets unless given explicitly.
:func:`fit_targets` is the one fit; the expansion is evaluated through
the rows of :func:`~kerneldrift.kernels.section_matrix`.  The thresholded
operators are sparse, and so is ``B = P K``: the fit keeps ``K``, ``B``
and the products of the normal equations in CSR, and only the (M, M)
normal matrix and the (N, k) smoothed targets are dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from .errors import SolverError
from .kernels import (
    DEFAULT_THETA_ZERO,
    KernelModel,
    _section_blocks,
    diffusion_model,
    markov_apply,
    section_matrix,
    select_bandwidth,
)


@dataclass(frozen=True)
class CondExpParams:
    """Tuning knobs for the conditional-expectation fit.

    ``eta1``/``eta2``/``eta3`` are the sparsity targets used to auto-select
    the bandwidths of the smoothing matrix, the expansion kernel and the
    Markov matrix respectively (defaults follow the benchmark tuning:
    0.3% / 1% / 1%), with squared distances measured on a strided
    subsample of relative size ``subsample_fraction``.  Explicit ``eps*``
    values bypass auto-selection.  ``n_centers`` is the number of kernel
    centers, every (N // M)-th input.
    """

    eta1: float = 0.003
    eta2: float = 0.01
    eta3: float = 0.01
    delta: float = 0.1
    n_centers: int = 500
    theta_zero: float = DEFAULT_THETA_ZERO
    subsample_fraction: float = 0.1
    eps1: Optional[float] = None
    eps2: Optional[float] = None
    eps3: Optional[float] = None

    def __post_init__(self):
        for name in ("eta1", "eta2", "eta3", "theta_zero"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if not 0 < self.subsample_fraction <= 1:
            raise ValueError(
                f"subsample_fraction must lie in (0, 1], got {self.subsample_fraction}"
            )
        if not self.delta >= 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        if self.n_centers < 1:
            raise ValueError(f"n_centers must be positive, got {self.n_centers}")
        for name in ("eps1", "eps2", "eps3"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive when given, got {value}")


def solve_regularized(smoothed_sections: np.ndarray | sp.csr_array,
                      smoothed_targets: np.ndarray,
                      delta: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Ridge solution of ``min || B a - g ||^2 + delta ||a||^2`` per column.

    Uses the regularized normal equations with a Cholesky factorization;
    for ``delta = 0`` falls back to a minimum-norm least-squares solve.
    ``B`` is a dense or a CSR array, ``g`` a dense (N, k) array.  The
    normal matrix ``B^T B``, the right-hand side ``B^T g`` and the
    residuals ``B a - g`` come from ``B`` as given: a CSR ``B`` gives them
    as sparse products, and only the (M, M) normal matrix is densified.
    Returns ``(coefficients, residual_norms, condition)`` with one column /
    entry per target column and the condition number of the (regularized)
    normal matrix.  The condition is ``lambda_max / lambda_min`` of that
    symmetric matrix's eigenvalues, which agrees with the 2-norm condition
    number ``np.linalg.cond`` computes by an SVD to rounding; it is ``inf``
    when ``lambda_min <= 0``, as for a rank-deficient ``B`` at ``delta = 0``.
    """
    b, g = smoothed_sections, smoothed_targets
    normal = b.T @ b
    if sp.issparse(normal):
        normal = normal.toarray()
    rhs = b.T @ g
    try:
        if delta > 0:
            normal = normal + delta * np.eye(b.shape[1])
            coef = cho_solve(cho_factor(normal), rhs)
        else:
            coef, *_ = np.linalg.lstsq(normal, rhs, rcond=None)
    except (np.linalg.LinAlgError, ValueError) as err:
        raise SolverError(f"least-squares solve failed: {err}") from err
    if not np.isfinite(coef).all():
        bad = np.flatnonzero(~np.isfinite(coef).all(axis=0))
        raise SolverError(f"least-squares solve produced non-finite coefficients "
                          f"for target column(s) {bad.tolist()}")
    eigenvalues = np.linalg.eigvalsh(normal)
    condition = float(eigenvalues[-1] / eigenvalues[0]) if eigenvalues[0] > 0 else np.inf
    residuals = np.linalg.norm(b @ coef - g, axis=0)
    return coef, residuals, condition


def fit_targets(inputs, targets, params: CondExpParams
                ) -> tuple[KernelModel, np.ndarray, dict]:
    """Fit one kernel and one coefficient vector per target column.

    ``inputs`` has shape (N, d) and ``targets`` (N,) or (N, k); all columns
    share the bandwidth selection, smoothing matrices, centers (every
    (N // M)-th input; ``M < 2`` or ``M > N`` raises ``ValueError``) and the
    factorization of the normal equations.  Returns
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
    if m > n:
        raise ValueError(f"n_centers={m} exceeds the number of inputs {n}")
    if m < 2:
        raise ValueError(f"n_centers={m}: a diffusion kernel needs at least 2 centers")
    single = targets.ndim == 1
    y = targets[:, None] if single else targets

    def bandwidth(explicit, eta):
        if explicit is not None:
            return explicit
        return select_bandwidth(inputs, eta, params.theta_zero, params.subsample_fraction)

    eps1 = bandwidth(params.eps1, params.eta1)
    eps3 = bandwidth(params.eps3, params.eta3)
    eps2 = bandwidth(params.eps2, params.eta2)

    kernel = diffusion_model(inputs[np.arange(m) * (n // m)], eps2, params.theta_zero)
    # the sections keep about 1% of their entries: they are evaluated one
    # row block at a time and kept as CSR
    sections = sp.vstack([sp.csr_array(section_matrix(kernel, inputs[rows])[0])
                          for rows in _section_blocks(kernel, inputs)], format="csr")

    # one eps3 pass applies the Markov matrix to the kernel sections and
    # the smoothed targets together, as a sparse product that stays CSR;
    # only the k target columns are densified
    smoothed_y = markov_apply(inputs, inputs, eps1, y, params.theta_zero)
    stacked = markov_apply(inputs, inputs, eps3,
                           sp.hstack([sections, sp.csr_array(smoothed_y)], format="csr"),
                           params.theta_zero)
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
