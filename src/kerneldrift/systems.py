"""Benchmark drift fields and Euler-Maruyama sample paths.

Three standard low-dimensional systems are provided: the Lorenz 63
convection model, the normal-form Hopf oscillator, and the cyclically
coupled Lorenz 96 lattice.  Each can be driven as an SDE with a diagonal,
state-dependent diffusion proportional to the drift itself,

    dX_t = V(X_t) dt + diag(sigma_noise * V(X_t)) dW_t,

which is the noise structure used throughout the benchmark experiments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import BlowUpError

SYSTEM_NAMES = ("lorenz63", "hopf", "lorenz96")

DEFAULT_PARAMS = {
    "lorenz63": {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0},
    "hopf": {"p": 1.0},
    "lorenz96": {"F": 8.0, "N": 5},
}

_PARAM_KEYS = {name: frozenset(p) for name, p in DEFAULT_PARAMS.items()}


@dataclass(frozen=True)
class SystemSpec:
    """A named benchmark system plus its noise level.

    Parameters
    ----------
    name
        One of ``lorenz63``, ``hopf``, ``lorenz96``.
    params
        System constants: lorenz63 takes ``sigma, rho, beta``; hopf takes
        ``p``; lorenz96 takes forcing ``F`` and cell count ``N`` (N >= 4 so
        the cyclic four-point dependence pattern is well defined).
    sigma_noise
        Scale of the diagonal diffusion term; 0 means a deterministic ODE.
    """

    name: str
    params: dict = field(default_factory=dict)
    sigma_noise: float = 0.0

    def __post_init__(self):
        if self.name not in SYSTEM_NAMES:
            raise ValueError(f"unknown system {self.name!r}; expected one of {SYSTEM_NAMES}")
        expected = _PARAM_KEYS[self.name]
        given = frozenset(self.params)
        if given != expected:
            unknown = sorted(given - expected)
            missing = sorted(expected - given)
            raise ValueError(
                f"bad parameters for {self.name}: unknown {unknown}, missing {missing}"
            )
        if self.name == "lorenz96":
            n = self.params["N"]
            if int(n) != n or int(n) < 4:
                raise ValueError(f"lorenz96 cell count N must be an integer >= 4, got {n}")
        if self.sigma_noise < 0:
            raise ValueError(f"sigma_noise must be nonnegative, got {self.sigma_noise}")

    @property
    def dimension(self) -> int:
        if self.name == "lorenz63":
            return 3
        if self.name == "hopf":
            return 2
        return int(self.params["N"])


def make_spec(name: str, sigma_noise: float = 0.0, **overrides) -> SystemSpec:
    """Build a :class:`SystemSpec` with standard parameter defaults.

    Keyword overrides replace individual defaults, e.g.
    ``make_spec("lorenz96", N=10)``.
    """
    if name not in DEFAULT_PARAMS:
        raise ValueError(f"unknown system {name!r}; expected one of {SYSTEM_NAMES}")
    params = dict(DEFAULT_PARAMS[name])
    for key, value in overrides.items():
        if key not in params:
            raise ValueError(f"unknown parameter {key!r} for system {name}")
        params[key] = value
    return SystemSpec(name=name, params=params, sigma_noise=sigma_noise)


def default_initial_state(spec: SystemSpec) -> np.ndarray:
    """Conventional initial condition near each system's attractor."""
    if spec.name == "lorenz63":
        return np.array([1.0, 1.0, 1.0])
    if spec.name == "hopf":
        return np.array([2.0, 0.0])
    x0 = np.full(spec.dimension, float(spec.params["F"]))
    x0[0] += 0.01
    return x0


@dataclass
class Trajectory:
    """A uniformly sampled d-dimensional path.

    ``points`` has shape (n_samples, d); sample k sits at time ``k * dt``.
    At least 4 samples are required (the increment stencil needs them).
    """

    dt: float
    points: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-d array (n_samples, d)")
        if len(self.points) < 4:
            raise ValueError(f"trajectory needs at least 4 samples, got {len(self.points)}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not np.isfinite(self.points).all():
            raise ValueError("trajectory contains non-finite points")

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)


def _drift_terms(spec: SystemSpec, xs: list) -> list:
    """The drift components V_i for state components ``xs``.

    The components may be Python floats (one state, as in the simulator
    loop) or numpy arrays (a batch); both run the same IEEE-754 double
    operations in the same order, so they agree bit for bit.
    """
    p = spec.params
    if spec.name == "lorenz63":
        x1, x2, x3 = xs
        return [
            p["sigma"] * (x2 - x1),
            x1 * (p["rho"] - x3) - x2,
            x1 * x2 - p["beta"] * x3,
        ]
    if spec.name == "hopf":
        x1, x2 = xs
        shrink = p["p"] - (x1 * x1 + x2 * x2)
        return [-x2 + x1 * shrink, x1 + x2 * shrink]
    # lorenz96: dx_n/dt = (x_{n+1} - x_{n-2}) x_{n-1} - x_n + F, cyclic
    n, forcing = len(xs), p["F"]
    return [(xs[(i + 1) % n] - xs[i - 2]) * xs[i - 1] - xs[i] + forcing for i in range(n)]


def eval_drift(spec: SystemSpec, x) -> np.ndarray:
    """Evaluate the drift field V at one state or a batch of states.

    ``x`` may have shape (d,) or (n, d); the result has the same shape.
    Lorenz 96 indices wrap cyclically.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != spec.dimension:
        raise ValueError(f"state has dimension {x.shape[-1]}, system expects {spec.dimension}")
    return np.stack(_drift_terms(spec, [x[..., i] for i in range(spec.dimension)]), axis=-1)


def simulate(
    spec: SystemSpec,
    x0,
    n_samples: int,
    dt: float,
    seed: int,
    burn_in: int = 100,
    substeps: int = 1,
) -> Trajectory:
    """Sample a noisy path of the benchmark system.

    Each integrator step of size ``h = dt / substeps`` reads

        x <- x + V(x) h + G(x) h xi,

    with ``G = sigma_noise * V`` and ``xi`` a standard normal vector.  The
    noise increment is deliberately scaled by ``h`` rather than ``sqrt(h)``:
    with sqrt(h) scaling the squared noise amplitude grows like |x|^4 and
    outruns the quadratic restoring drift of the chaotic benchmarks, so
    those SDEs explode in finite time at moderate sigma_noise and admit no
    stationary regime to sample from.  The h-scaled kicks keep every
    benchmark inside its trapping region at all sigma levels while leaving
    the conditional mean rate of increments equal to V, which is the
    quantity the estimators downstream recover.

    Only every ``substeps``-th state is recorded, at spacing ``dt``, and
    the first ``burn_in`` recorded states are discarded (a cheap
    approximation to sampling from the stationary regime).

    The loop runs on Python floats: each substep evaluates the drift once
    and reuses it for the diffusion, and the ``substeps`` noise vectors
    between two recorded samples are drawn in one block.  The generator
    yields the same normal stream either way, so identical inputs give
    bit-identical output, equal to a per-substep numpy step.

    Raises
    ------
    ValueError
        If an argument is out of range or ``x0`` is not finite.
    BlowUpError
        If a recorded state is non-finite; carries the index reached.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_samples < 4:
        raise ValueError(f"n_samples must be at least 4, got {n_samples}")
    if substeps < 1:
        raise ValueError(f"substeps must be at least 1, got {substeps}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be nonnegative, got {burn_in}")

    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({spec.dimension},)")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")

    rng = np.random.default_rng(seed)
    h = float(dt / substeps)
    sigma = float(spec.sigma_noise)
    d = spec.dimension
    total = burn_in + n_samples
    out = np.empty((total, d))
    out[0] = x0
    x = x0.tolist()
    for k in range(1, total):
        for kick in (h * rng.standard_normal((substeps, d))).tolist():
            v = _drift_terms(spec, x)
            x = [xi + vi * h + (sigma * vi) * ki for xi, vi, ki in zip(x, v, kick)]
        # a diverging step overflows to inf or nan (float arithmetic does not raise)
        if not all(map(math.isfinite, x)):
            raise BlowUpError(index=k)
        out[k] = x
    return Trajectory(dt=dt, points=out[burn_in:], seed=seed)


# --- plain-text persistence -------------------------------------------------
#
# Trajectory files are CSV with header  t,x0,...,x{d-1}  and times t = k*dt;
# a JSON sidecar (<stem>.meta.json) records how the path was generated.


def _meta_path(csv_path) -> Path:
    csv_path = Path(csv_path)
    return csv_path.with_name(csv_path.stem + ".meta.json")


def save_trajectory(traj: Trajectory, csv_path, spec: Optional[SystemSpec] = None,
                    burn_in: Optional[int] = None, substeps: Optional[int] = None) -> None:
    csv_path = Path(csv_path)
    d = traj.d
    header = "t," + ",".join(f"x{i}" for i in range(d))
    lines = [header]
    for k, row in enumerate(traj.points):
        lines.append(",".join([repr(float(k * traj.dt))] + [repr(float(v)) for v in row]))
    csv_path.write_text("\n".join(lines) + "\n")

    meta = {"dt": traj.dt, "d": d, "n_samples": len(traj), "seed": traj.seed}
    if spec is not None:
        meta["system"] = spec.name
        meta["params"] = dict(spec.params)
        meta["sigma_noise"] = spec.sigma_noise
    if burn_in is not None:
        meta["burn_in"] = burn_in
    if substeps is not None:
        meta["substeps"] = substeps
    _meta_path(csv_path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def load_trajectory(csv_path) -> tuple[Trajectory, dict]:
    """Load a trajectory CSV plus its metadata sidecar (``{}`` if absent)."""
    csv_path = Path(csv_path)
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] < 2:
        raise ValueError(f"{csv_path}: expected columns t,x0,... got shape {data.shape}")
    meta = {}
    mp = _meta_path(csv_path)
    if mp.exists():
        meta = json.loads(mp.read_text())
    if "dt" in meta:
        dt = float(meta["dt"])
    elif len(data) > 1:
        dt = float(data[1, 0] - data[0, 0])
    else:
        raise ValueError(f"{csv_path}: cannot infer dt from a single row without metadata")
    traj = Trajectory(dt=dt, points=data[:, 1:], seed=meta.get("seed"))
    return traj, meta


def spec_from_meta(meta: dict) -> SystemSpec:
    """Rebuild the generating SystemSpec from a metadata sidecar."""
    try:
        name, params = meta["system"], meta["params"]
    except KeyError as err:
        raise ValueError(f"metadata sidecar lacks the {err.args[0]!r} entry") from err
    return SystemSpec(
        name=name,
        params={k: (int(v) if k == "N" else float(v)) for k, v in params.items()},
        sigma_noise=float(meta.get("sigma_noise", 0.0)),
    )
