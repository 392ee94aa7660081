"""Vector-field estimation from sampled SDE paths.

The drift at a point equals the conditional mean rate of the path's
forward increments.  A four-point combination of consecutive samples,

    z_n = (18 x_{n+1} - 9 x_{n+2} + 2 x_{n+3} - 11 x_n) / (6 dt),

reads that rate off with an O(dt^3) bias on smooth paths (the weights kill
the quadratic and cubic terms of the transition expansion; the 1/6 makes a
linear path give its slope exactly).  Regressing z on x with the
conditional-expectation machinery yields the field estimate: a kernel
expansion with a (k, M) coefficient matrix.  The dense estimator fits one
row per coordinate (k = d).  The sparse estimator, for systems whose
components repeat one functional form, fits a single shared
low-dimensional unit (k = 1) and applies it to every coordinate through a
stencil.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import condexp
from .condexp import CondExpParams
from .kernels import (
    KernelModel,
    kernel_model_from_dict,
    kernel_model_to_dict,
    section_matrix,
)
from .systems import Trajectory

# forward-difference weights at offsets 0, 1, 2, 3
STENCIL_WEIGHTS = np.array([-11.0, 18.0, -9.0, 2.0])


def increment_targets(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Regression pairs (state, increment rate) from a trajectory.

    Returns ``(inputs, targets)`` of shapes (N-3, d): inputs are the base
    samples ``x_n`` and targets the stencil combination above.
    """
    x = traj.points
    n = len(x)
    combo = (
        STENCIL_WEIGHTS[0] * x[: n - 3]
        + STENCIL_WEIGHTS[1] * x[1 : n - 2]
        + STENCIL_WEIGHTS[2] * x[2 : n - 1]
        + STENCIL_WEIGHTS[3] * x[3:]
    )
    return x[: n - 3], combo / (6.0 * traj.dt)


@dataclass
class DriftModel:
    """Vector-field estimate: a kernel expansion with (k, M) coefficients.

    Without a stencil each of the k = d rows gives one coordinate of the
    field (dense estimator).  With a stencil the single row (k = 1) is a
    shared unit, applied to the stencil projection of the state for every
    coordinate (sparse estimator).
    """

    kernel: KernelModel
    coefficients: np.ndarray  # shape (k, M)
    dt: float
    stencil: Optional[Stencil] = None

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.ndim != 2:
            raise ValueError("coefficients must be a (k, M) matrix")
        if self.coefficients.shape[1] != self.kernel.n_centers:
            raise ValueError("coefficient columns must match the kernel centers")
        if self.stencil is not None and self.coefficients.shape[0] != 1:
            raise ValueError("a stencil model has exactly one coefficient row")

    @property
    def d(self) -> int:
        return self.coefficients.shape[0] if self.stencil is None else self.stencil.d


def estimate_drift(traj: Trajectory, params: CondExpParams) -> DriftModel:
    """Fit the dense drift estimator on a trajectory.

    All coordinates share one kernel construction (their inputs coincide);
    only the regression targets differ.
    """
    inputs, targets = increment_targets(traj)
    try:
        kernel, coef, _ = condexp.fit_targets(inputs, targets, params)
    except condexp.SolverError as err:
        coords = err.diagnostics.get("nonfinite_columns", [])
        raise condexp.SolverError(
            f"drift fit failed for coordinate(s) {coords}: {err}",
            diagnostics=err.diagnostics,
        ) from err
    return DriftModel(kernel=kernel, coefficients=coef, dt=traj.dt)


def predict_drift_many(model: DriftModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the estimated field at an (n, d) batch of points.

    Returns ``(values, extrapolated)`` where the flag marks points that fell
    back to their nearest center (in any component, for a stencil model).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != model.d:
        raise ValueError(f"points have shape {points.shape}, model expects (n, {model.d})")
    n, d = points.shape
    if model.stencil is not None:
        points = points[:, np.array(model.stencil.left)].reshape(n * d, model.stencil.m)
    sections, flags = section_matrix(model.kernel, points)
    # row-wise reduction (not a BLAS product) so identical section rows give
    # bitwise-identical values regardless of row position: a batch matches
    # single-point calls, and cyclic shifts of the state permute a stencil
    # prediction exactly
    values = np.stack([(sections * c).sum(axis=1) for c in model.coefficients], axis=1)
    return values.reshape(n, d), flags.reshape(n, -1).any(axis=1)


# The benchmark harness (perfbench/bench.py) times predictions by wrapping
# this name as well; it stays as an alias so that instrumentation binds.
predict_drift_sparse_many = predict_drift_many


def predict_drift(model: DriftModel, x) -> tuple[np.ndarray, bool]:
    """Evaluate the estimated field at one point: ``(vector, extrapolated)``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise ValueError(f"point has shape {x.shape}, model expects ({model.d},)")
    values, flags = predict_drift_many(model, x[None, :])
    return values[0], bool(flags[0])


@dataclass(frozen=True)
class Stencil:
    """Which coordinates each component of the field depends on.

    ``left[i]`` lists the ``m`` input coordinates feeding component ``i``.
    """

    m: int
    left: tuple

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(tuple(int(j) for j in row) for row in self.left))
        d = len(self.left)
        for i, row in enumerate(self.left):
            if len(row) != self.m or len(set(row)) != self.m:
                raise ValueError(f"Left({i}) must hold exactly {self.m} distinct indices")
            if any(j < 0 or j >= d for j in row):
                raise ValueError(f"Left({i}) has indices outside 0..{d - 1}")

    @property
    def d(self) -> int:
        return len(self.left)

    @classmethod
    def cyclic(cls, d: int, offsets: Sequence[int] = (-2, -1, 0, 1)) -> "Stencil":
        """Same offset pattern around every coordinate, indices mod d.

        The default offsets match the Lorenz 96 dependence
        (x_{i-2}, x_{i-1}, x_i, x_{i+1}).
        """
        left = tuple(tuple((i + o) % d for o in offsets) for i in range(d))
        return cls(m=len(offsets), left=left)


@dataclass
class SnapshotSet:
    """Pooled low-dimensional regression records for the sparse estimator.

    Each record pairs the stencil neighborhood of one coordinate at one
    base time with that coordinate's increment rate over the following
    three steps.  The stencil that produced the records rides along.
    """

    m: int
    inputs: np.ndarray  # (n_records, m)
    targets: np.ndarray  # (n_records,)
    dt: float
    stencil: Stencil

    def __len__(self) -> int:
        return len(self.inputs)


def extract_snapshots(traj: Trajectory, stencil: Stencil) -> SnapshotSet:
    """Pool causally complete snapshots over all times and coordinates.

    For every base index n and coordinate i the record input is
    ``x_n[Left(i)]`` and the target the four-point increment rate of
    coordinate i, giving (N - 3) * d records in row-major (time, coordinate)
    order.
    """
    if stencil.d != traj.d:
        raise ValueError(f"stencil is for d={stencil.d}, trajectory has d={traj.d}")
    base, rates = increment_targets(traj)
    n = len(base)
    d = traj.d
    left = np.array(stencil.left)  # (d, m)
    inputs = base[:, left]  # (n, d, m)
    targets = rates  # (n, d)
    return SnapshotSet(
        m=stencil.m,
        inputs=inputs.reshape(n * d, stencil.m),
        targets=targets.reshape(n * d),
        dt=traj.dt,
        stencil=stencil,
    )


def estimate_drift_sparse(snapshots: SnapshotSet, params: CondExpParams
                          ) -> DriftModel:
    """Fit the shared low-dimensional unit on pooled snapshot records."""
    kernel, coef, _ = condexp.fit_targets(snapshots.inputs, snapshots.targets, params)
    return DriftModel(kernel=kernel, coefficients=coef, dt=snapshots.dt,
                      stencil=snapshots.stencil)


# --- persistence ------------------------------------------------------------


def save_drift_model(model: DriftModel, path) -> None:
    """Write a drift model as JSON: kernel, (k, M) coefficients, dt, stencil."""
    stencil = model.stencil
    payload = {
        "kernel": kernel_model_to_dict(model.kernel),
        "coefficients": model.coefficients.tolist(),
        "dt": model.dt,
        "stencil": None if stencil is None
        else {"m": stencil.m, "left": [list(r) for r in stencil.left]},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_drift_model(path) -> DriftModel:
    """Read a drift model written by :func:`save_drift_model`.

    Older files load too: their ``type`` key and kernel ``deg_l`` and ``w``
    entries are ignored, and a shared unit's 1-D coefficient vector becomes
    one row.
    """
    data = json.loads(Path(path).read_text())
    st = data.get("stencil")
    try:
        return DriftModel(
            kernel=kernel_model_from_dict(data["kernel"]),
            coefficients=np.atleast_2d(np.asarray(data["coefficients"], dtype=float)),
            dt=float(data["dt"]),
            stencil=None if st is None else Stencil(m=int(st["m"]), left=st["left"]),
        )
    except KeyError as err:
        raise ValueError(f"{path}: drift model file lacks the {err.args[0]!r} entry") from err


def save_snapshots(snapshots: SnapshotSet, path) -> None:
    """Write pooled snapshot records as CSV with columns in0..in{m-1},target."""
    header = ",".join(f"in{i}" for i in range(snapshots.m)) + ",target"
    lines = [header]
    for row, target in zip(snapshots.inputs, snapshots.targets):
        lines.append(",".join([repr(float(v)) for v in row] + [repr(float(target))]))
    Path(path).write_text("\n".join(lines) + "\n")
