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
from .kernels import _BLOCK_ROWS, THETA_ZERO, KernelModel, _section_blocks, section_matrix
from .systems import Trajectory, _integer

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
    coordinate (sparse estimator).  Every fit and load checks that the
    coefficients are finite and that the kernel's dimension is that of its
    inputs: d, or the stencil's m.
    """

    kernel: KernelModel
    coefficients: np.ndarray  # shape (k, M)
    stencil: Optional[Stencil] = None

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.ndim != 2:
            raise ValueError("coefficients must be a (k, M) matrix")
        if self.coefficients.shape[1] != self.kernel.n_centers:
            raise ValueError("coefficient columns must match the kernel centers")
        finite = np.isfinite(self.coefficients)
        if not finite.all():
            bad = np.unravel_index(np.argmin(finite), finite.shape)
            raise ValueError(f"coefficient {tuple(map(int, bad))} is not finite")
        if self.stencil is not None and self.coefficients.shape[0] != 1:
            raise ValueError("a stencil model has exactly one coefficient row")
        # the kernel sees states (d = k coordinates) or stencil records (m)
        name, m = (("d", len(self.coefficients)) if self.stencil is None
                   else ("stencil.m", self.stencil.m))
        if self.kernel.dimension != m:
            raise ValueError(f"kernel dimension {self.kernel.dimension} != {name} = {m}")

    @property
    def d(self) -> int:
        return self.coefficients.shape[0] if self.stencil is None else self.stencil.d


def estimate_drift(traj: Trajectory, params: CondExpParams) -> DriftModel:
    """Fit the dense drift estimator on a trajectory.

    All coordinates share one kernel construction (their inputs coincide);
    only the regression targets differ.
    """
    inputs, targets = increment_targets(traj)
    kernel, coef, _ = condexp.fit_targets(inputs, targets, params)
    return DriftModel(kernel=kernel, coefficients=coef)


def predict_drift_many(model: DriftModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the estimated field at an (n, d) batch of points.

    Returns ``(values, extrapolated)`` where the flag marks points that fell
    back to their nearest center (in any component, for a stencil model).
    """
    points = _states(model, points)
    n, d = points.shape
    values, flags = _expansion(model, _records(model, points))
    if model.stencil is not None:
        values, flags = values.reshape(n, d), flags.reshape(n, d).any(axis=1)
    return values, flags


def _states(model: DriftModel, points) -> np.ndarray:
    """``points`` as an (n, d) float array of the model's states, or a
    ValueError naming its shape."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != model.d:
        raise ValueError(f"points have shape {points.shape}, model expects (n, {model.d})")
    return points


def _records(model: DriftModel, states: np.ndarray) -> np.ndarray:
    """The kernel's inputs at (n, d) states: the states themselves, or their
    (n * d, m) stencil records."""
    return states if model.stencil is None else model.stencil.records(states)


def _expansion(model: DriftModel, records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The expansion's one evaluator: (n, k) values and fallback flags at
    (n, m) float records, for :func:`predict_drift_many` after its argument
    checks and for ``compare_orbits`` at each step.

    More records than one row block (:func:`_section_blocks`) go a block
    at a time through this function, so the sections and the (rows, k, M)
    products stay the size of a few blocks however many records a batch or
    a stencil state has.
    """
    if len(records) > _BLOCK_ROWS:
        values = np.empty((len(records), len(model.coefficients)))
        flags = np.empty(len(records), dtype=bool)
        for rows in _section_blocks(model.kernel, records):
            values[rows], flags[rows] = _expansion(model, records[rows])
        return values, flags
    sections, flags = section_matrix(model.kernel, records)
    # row-wise reduction (not a BLAS product) so identical section rows give
    # bitwise-identical values regardless of row position: a batch matches
    # batches of one, and cyclic shifts of the state permute a stencil
    # prediction exactly
    return np.add.reduce(sections[:, None, :] * model.coefficients, axis=2), flags


# The benchmark harness (perfbench/bench.py) times predictions by wrapping
# this name as well; it stays as an alias so that instrumentation binds.
predict_drift_sparse_many = predict_drift_many


@dataclass(frozen=True)
class Stencil:
    """Which coordinates each component of the field depends on.

    ``left[i]`` lists the ``m`` input coordinates feeding component ``i``.
    The width and indices are integers, checked by ``systems._integer``.
    """

    m: int
    left: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", _integer("stencil width", self.m, 1))
        object.__setattr__(self, "left", tuple(tuple(_integer("stencil index", j, 0) for j in row)
                                               for row in self.left))
        d = len(self.left)
        for i, row in enumerate(self.left):
            if len(row) != self.m or len(set(row)) != self.m:
                raise ValueError(f"Left({i}) must hold exactly {self.m} distinct indices")
            if any(j >= d for j in row):
                raise ValueError(f"Left({i}) has indices outside 0..{d - 1}")

    @property
    def d(self) -> int:
        return len(self.left)

    def records(self, states: np.ndarray) -> np.ndarray:
        """The (n * d, m) records of (n, d) states, fitted and predicted alike:
        row ``k * d + i`` is ``states[k, Left(i)]``."""
        return states[:, np.array(self.left)].reshape(-1, self.m)

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
    three steps.  The stencil that produced the records rides along; its
    ``m`` is the record dimension.
    """

    inputs: np.ndarray  # (n_records, m)
    targets: np.ndarray  # (n_records,)
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
    return SnapshotSet(inputs=stencil.records(base), targets=rates.reshape(-1),
                       stencil=stencil)


def estimate_drift_sparse(snapshots: SnapshotSet, params: CondExpParams
                          ) -> DriftModel:
    """Fit the shared low-dimensional unit on pooled snapshot records."""
    kernel, coef, _ = condexp.fit_targets(snapshots.inputs, snapshots.targets, params)
    return DriftModel(kernel=kernel, coefficients=coef, stencil=snapshots.stencil)


# --- persistence ------------------------------------------------------------


def save_drift_model(model: DriftModel, path) -> None:
    """Write a drift model as JSON: the kernel's bandwidth, threshold
    (``THETA_ZERO``) and centers, the (k, M) coefficients and the stencil."""
    kernel, stencil = model.kernel, model.stencil
    payload = {
        "kernel": {
            "kind": "diffusion",
            "epsilon": kernel.epsilon,
            "theta_zero": THETA_ZERO,
            "centers": kernel.centers.tolist(),
        },
        "coefficients": model.coefficients.tolist(),
        "stencil": None if stencil is None
        else {"m": stencil.m, "left": [list(r) for r in stencil.left]},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def _numbers(entry, name):
    """``entry`` as read, once every leaf of its nested lists is a JSON
    number: a string, bool or null is a TypeError, never coerced."""
    stack = [entry]
    while stack:
        value = stack.pop()
        if isinstance(value, list):
            stack.extend(value)
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"the {name} hold {value!r}, which is no number")
    return entry


def load_drift_model(path) -> DriftModel:
    """Read a drift model written by :func:`save_drift_model`.

    The kernel is rebuilt from its bandwidth and centers, which it checks;
    its degrees and center table are derived from them, never read, and its
    threshold must be ``THETA_ZERO``.  Older files load too: their ``dt``
    and ``type`` keys and kernel ``deg_r``, ``deg_l`` and ``w`` entries are
    ignored, and a shared unit's 1-D coefficient vector becomes one row.
    Entries are passed on as read, never coerced: the coefficients and
    centers hold JSON numbers alone, and the objects the entries build
    reject a wrong type or value.  A file that does not decode, holds a
    string, bool or null among its numbers, or that such an object rejects
    is a ValueError named by the file's path.
    """
    try:
        data = json.loads(Path(path).read_text())
        kernel, st = data["kernel"], data.get("stencil")
        if kernel["kind"] != "diffusion":
            raise ValueError(f"unknown kernel kind {kernel['kind']!r}; expected 'diffusion'")
        if (theta := kernel["theta_zero"]) != THETA_ZERO:
            raise ValueError(f"theta_zero must be THETA_ZERO = {THETA_ZERO}, got {theta!r}")
        return DriftModel(
            kernel=KernelModel(epsilon=kernel["epsilon"],
                               centers=_numbers(kernel["centers"], "centers")),
            coefficients=np.atleast_2d(np.asarray(_numbers(data["coefficients"],
                                                           "coefficients"), dtype=float)),
            stencil=None if st is None else Stencil(m=st["m"], left=st["left"]),
        )
    except KeyError as err:
        raise ValueError(f"{path}: drift model file lacks the {err.args[0]!r} entry") from err
    except TypeError as err:  # e.g. a null bandwidth, or a list for the kernel or file
        raise ValueError(f"{path}: drift model file has an entry of the wrong type: "
                         f"{err}") from err
    except ValueError as err:  # undecodable bytes or JSON, or a rejected value
        raise ValueError(f"{path}: {err}") from err
