"""Reconstruction quality: relative L2 error, error fields, orbit comparison.

A scored field is a fitted :class:`~kerneldrift.drift.DriftModel`, whose
predictions carry extrapolation flags, or a callable mapping (n, d) points
to (n, d) values, as :func:`system_field` makes of a system spec; an orbit
integrates a fitted model only.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import drift as drift_mod
from . import systems as systems_mod
from .errors import NumericalError
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
    return _score(predict, truth, test_points)[0]


def _errors(predict, truth, test_points) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(predicted - true, true, flags)`` at (n, d) test points; fields of
    different shapes are a ValueError, never broadcast."""
    test_points = np.asarray(test_points, dtype=float)
    predicted, flags = _evaluate(predict, test_points)
    actual, _ = _evaluate(truth, test_points)
    if predicted.shape != actual.shape:
        raise ValueError(f"field shapes differ: {predicted.shape} vs {actual.shape}")
    return predicted - actual, actual, flags


def _score(predict, truth, test_points) -> tuple[ErrorReport, np.ndarray]:
    """:func:`relative_l2_error`'s report and the (n, d) signed errors
    ``predicted - true`` behind it, from one prediction of the cloud."""
    test_points = np.asarray(test_points, dtype=float)
    if test_points.ndim != 2 or len(test_points) == 0:
        raise ValueError("test_points must be a nonempty (n, d) array")
    diff, actual, flags = _errors(predict, truth, test_points)
    truth_norm = np.sqrt(np.sum(actual**2))
    if truth_norm == 0.0:
        raise ValueError("true field vanishes on every test point")
    report = ErrorReport(
        relative_l2=float(np.sqrt(np.sum(diff**2)) / truth_norm),
        per_coordinate_rmse=np.sqrt(np.mean(diff**2, axis=0)),
        n_test=len(test_points),
        extrapolated_fraction=0.0 if flags is None else float(np.mean(flags)),
    )
    return report, diff


def pointwise_errors(predict, truth, test_points) -> np.ndarray:
    """Absolute per-point, per-coordinate errors, shape (n, d)."""
    return np.abs(_errors(predict, truth, test_points)[0])


@dataclass
class OrbitComparison:
    """Deterministic orbits of the true and the estimated field."""

    true_orbit: Trajectory
    estimated_orbit: Trajectory
    extrapolated: np.ndarray  # per estimated-orbit sample


def compare_orbits(spec: SystemSpec, model: drift_mod.DriftModel, x0, horizon: float,
                   dt: float) -> OrbitComparison:
    """Integrate the true field and a fitted ``model`` of it from one start.

    ``model`` is a :class:`~kerneldrift.drift.DriftModel` (else a TypeError)
    of ``spec``'s dimension (else a ValueError).  Plain Euler steps of size
    ``dt`` over ``horizon`` time units; the estimated-field orbit records
    where the nearest-center fallback fired (the source of spurious fixed
    points far from the data), and its fallback steps copy their section
    rows from the model's table of center rows.  Both orbits step on Python
    floats, made arrays once at the end: the true orbit through the
    system's drift closure, as :func:`~kerneldrift.systems.simulate` does
    (the same IEEE operations, so the same bits, as
    :func:`~kerneldrift.systems.eval_drift`); the estimated one through
    :func:`~kerneldrift.drift.predict_drift_many`'s evaluator.
    """
    if not isinstance(model, drift_mod.DriftModel):
        raise TypeError(f"model must be a DriftModel, got {type(model).__name__}")
    if model.d != spec.dimension:
        raise ValueError(f"model dimension {model.d} != system dimension {spec.dimension}")
    x0 = systems_mod._start_state(spec, x0)
    systems_mod._check_dt(dt)
    if not np.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    if not math.isfinite(steps := horizon / dt):  # e.g. 1e300 / 1e-300 overflows
        raise ValueError(f"horizon / dt must be a finite step count, got {horizon=}, {dt=}")
    n_steps = int(round(steps))
    if n_steps < 3:
        raise ValueError("horizon must cover at least 3 steps")

    true_drift = systems_mod._drift(spec)
    xt = xe = x0.tolist()
    # each orbit's coordinates, row after row, as C doubles
    true_points, est_points, flags = array("d", xt), array("d", xe), [False]
    for k in range(1, n_steps + 1):
        # the model first: it rejects a start too far out to extrapolate
        # from before the true field overflows there
        values, flagged = drift_mod._expansion(model, drift_mod._records(model, np.array([xe])))
        xe = [xi + vi * dt for xi, vi in zip(xe, values.ravel().tolist())]
        xt = [xi + vi * dt for xi, vi in zip(xt, true_drift(*xt))]
        # a diverging step overflows to inf or nan (float arithmetic does not raise)
        if not (all(map(math.isfinite, xt)) and all(map(math.isfinite, xe))):
            raise NumericalError(f"non-finite state encountered at sample index {k}")
        true_points.extend(xt)
        est_points.extend(xe)
        flags.append(np.count_nonzero(flagged) > 0)
    return OrbitComparison(
        true_orbit=Trajectory(dt=dt, points=np.frombuffer(true_points).reshape(-1, len(xt))),
        estimated_orbit=Trajectory(dt=dt, points=np.frombuffer(est_points).reshape(-1, len(xt))),
        extrapolated=np.array(flags),
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


def save_pointwise_errors(path, test_points, errors) -> None:
    """CSV with columns x0..x{d-1},err0..err{d-1}, one row per test point;
    every value is written as its float64 by ``systems._write_csv``."""
    test_points = np.asarray(test_points, dtype=float)
    errors = np.asarray(errors, dtype=float)
    d = test_points.shape[1]
    systems_mod._write_csv(path, [f"x{i}" for i in range(d)] + [f"err{i}" for i in range(d)],
                           [*test_points.T, *errors.T])


def save_orbit_comparison(comparison: OrbitComparison, path) -> None:
    """Paired-path CSV written by ``systems._write_csv``: t = k*dt, the true
    and the estimated coordinates, and the extrapolation flag as 0/1."""
    true_orbit, est_orbit = comparison.true_orbit, comparison.estimated_orbit
    d = true_orbit.d
    systems_mod._write_csv(
        path,
        ["t", *(f"true_x{i}" for i in range(d)), *(f"est_x{i}" for i in range(d)),
         "extrapolated"],
        [np.arange(len(true_orbit)) * true_orbit.dt, *true_orbit.points.T,
         *est_orbit.points.T, np.asarray(comparison.extrapolated).astype(int)],
    )
