"""Reconstruction quality: relative L2 error, error fields, orbit comparison.

A field is either a fitted :class:`~kerneldrift.drift.DriftModel`, whose
predictions carry extrapolation flags, or a callable mapping an (n, d)
array of points to an (n, d) array of values; :func:`system_field` adapts
a system spec to the latter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import drift as drift_mod
from . import systems as systems_mod
from .errors import BlowUpError
from .systems import SystemSpec, Trajectory


@dataclass
class ErrorReport:
    """Summary of a field reconstruction over a test cloud."""

    relative_l2: float
    per_coordinate_rmse: np.ndarray
    n_test: int
    extrapolated_fraction: float


def system_field(spec: SystemSpec):
    """Batch evaluator for a system's true drift."""

    def evaluate(points):
        return systems_mod.eval_drift(spec, np.asarray(points, dtype=float))

    return evaluate


def _evaluate(field, points) -> tuple[np.ndarray, np.ndarray | None]:
    """Field values at (n, d) points plus extrapolation flags (None for a callable)."""
    if isinstance(field, drift_mod.DriftModel):
        return drift_mod.predict_drift_many(field, points)
    return np.asarray(field(points), dtype=float), None


def relative_l2_error(predict, truth, test_points) -> ErrorReport:
    """Relative L2 error of a predicted field over a test cloud.

    ``sqrt(sum |predicted - true|^2) / sqrt(sum |true|^2)`` over the points,
    plus per-coordinate RMSE and the fraction of extrapolated predictions.
    """
    test_points = np.asarray(test_points, dtype=float)
    if test_points.ndim != 2 or len(test_points) == 0:
        raise ValueError("test_points must be a nonempty (n, d) array")
    predicted, flags = _evaluate(predict, test_points)
    actual, _ = _evaluate(truth, test_points)
    if predicted.shape != actual.shape:
        raise ValueError(f"field shapes differ: {predicted.shape} vs {actual.shape}")
    truth_norm = np.sqrt(np.sum(actual**2))
    if truth_norm == 0.0:
        raise ValueError("true field vanishes on every test point")
    diff = predicted - actual
    return ErrorReport(
        relative_l2=float(np.sqrt(np.sum(diff**2)) / truth_norm),
        per_coordinate_rmse=np.sqrt(np.mean(diff**2, axis=0)),
        n_test=len(test_points),
        extrapolated_fraction=0.0 if flags is None else float(np.mean(flags)),
    )


def pointwise_errors(predict, truth, test_points) -> np.ndarray:
    """Absolute per-point, per-coordinate errors, shape (n, d)."""
    test_points = np.asarray(test_points, dtype=float)
    predicted, _ = _evaluate(predict, test_points)
    actual, _ = _evaluate(truth, test_points)
    return np.abs(predicted - actual)


@dataclass
class OrbitComparison:
    """Deterministic orbits of the true and the estimated field."""

    true_orbit: Trajectory
    estimated_orbit: Trajectory
    extrapolated: np.ndarray  # per estimated-orbit sample


def compare_orbits(spec: SystemSpec, model, x0, horizon: float, dt: float
                   ) -> OrbitComparison:
    """Integrate both fields deterministically from the same start.

    Plain Euler steps of size ``dt`` over ``horizon`` time units; the
    estimated-field orbit records where the nearest-center fallback fired
    (the source of spurious fixed points far from the data).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({spec.dimension},)")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    n_steps = int(round(horizon / dt))
    if n_steps < 3:
        raise ValueError("horizon must cover at least 3 steps")

    true_points = np.empty((n_steps + 1, spec.dimension))
    est_points = np.empty((n_steps + 1, spec.dimension))
    flags = np.zeros(n_steps + 1, dtype=bool)
    true_points[0] = x0
    est_points[0] = x0
    xt = x0.copy()
    xe = x0.copy()
    for k in range(1, n_steps + 1):
        # the model first: it rejects a start too far out to extrapolate
        # from before the true field overflows there
        value, flag = _evaluate(model, xe[None, :])
        xe = xe + value[0] * dt
        xt = xt + systems_mod.eval_drift(spec, xt) * dt
        if not (np.isfinite(xt).all() and np.isfinite(xe).all()):
            raise BlowUpError(index=k)
        true_points[k] = xt
        est_points[k] = xe
        flags[k] = False if flag is None else bool(flag[0])
    return OrbitComparison(
        true_orbit=Trajectory(dt=dt, points=true_points),
        estimated_orbit=Trajectory(dt=dt, points=est_points),
        extrapolated=flags,
    )


# --- plot-ready exports -----------------------------------------------------


def save_error_report(report: ErrorReport, path) -> None:
    payload = {
        "relative_l2": report.relative_l2,
        "per_coordinate_rmse": np.asarray(report.per_coordinate_rmse).tolist(),
        "n_test": report.n_test,
        "extrapolated_fraction": report.extrapolated_fraction,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_error_report(path) -> ErrorReport:
    data = json.loads(Path(path).read_text())
    return ErrorReport(
        relative_l2=float(data["relative_l2"]),
        per_coordinate_rmse=np.asarray(data["per_coordinate_rmse"], dtype=float),
        n_test=int(data["n_test"]),
        extrapolated_fraction=float(data["extrapolated_fraction"]),
    )


def save_pointwise_errors(path, test_points, errors) -> None:
    """CSV with columns x0..x{d-1},err0..err{d-1}, one row per test point."""
    test_points = np.asarray(test_points, dtype=float)
    errors = np.asarray(errors, dtype=float)
    d = test_points.shape[1]
    header = ",".join([f"x{i}" for i in range(d)] + [f"err{i}" for i in range(d)])
    lines = [header]
    for x, e in zip(test_points, errors):
        lines.append(",".join([repr(float(v)) for v in x] + [repr(float(v)) for v in e]))
    Path(path).write_text("\n".join(lines) + "\n")


def save_orbit_comparison(comparison: OrbitComparison, path) -> None:
    """Paired-path CSV: t, true coordinates, estimated coordinates, flag."""
    d = comparison.true_orbit.d
    header = (
        "t,"
        + ",".join(f"true_x{i}" for i in range(d))
        + ","
        + ",".join(f"est_x{i}" for i in range(d))
        + ",extrapolated"
    )
    lines = [header]
    dt = comparison.true_orbit.dt
    rows = zip(comparison.true_orbit.points, comparison.estimated_orbit.points,
               comparison.extrapolated)
    for k, (xt, xe, flag) in enumerate(rows):
        lines.append(
            ",".join(
                [repr(float(k * dt))]
                + [repr(float(v)) for v in xt]
                + [repr(float(v)) for v in xe]
                + [str(int(flag))]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")
