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
import numbers
import operator
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import NumericalError

SYSTEM_NAMES = ("lorenz63", "hopf", "lorenz96")

DEFAULT_PARAMS = {
    "lorenz63": {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0},
    "hopf": {"p": 1.0},
    "lorenz96": {"F": 8.0, "N": 5},
}

_PARAM_KEYS = {name: frozenset(p) for name, p in DEFAULT_PARAMS.items()}
_NOISE_CHUNK = 1 << 13  # normals simulate draws at a time: whole samples, at least one


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
        It lies in [0, inf) and every system constant in (-inf, inf)
        (``_real``).  An integral constant is kept as a Python int and every
        other number as a Python float, so a numpy scalar is written to a
        sidecar as the JSON number it stands for.
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
        for key, value in sorted(self.params.items()):
            _real(f"{self.name} parameter {key}", value, -math.inf, math.inf)
        object.__setattr__(self, "params", {
            key: int(value) if isinstance(value, numbers.Integral) else float(value)
            for key, value in self.params.items()})
        if self.name == "lorenz96":
            n = self.params["N"]
            if not isinstance(n, int) or n < 4:  # an integral N is an int by now
                raise ValueError(f"lorenz96 cell count N must be an integer >= 4, got {n}")
        _real("sigma_noise", self.sigma_noise, 0, math.inf, "[)")
        object.__setattr__(self, "sigma_noise", float(self.sigma_noise))

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
    ``make_spec("lorenz96", N=10)``; SystemSpec rejects an unknown system
    or override key.
    """
    params = {**DEFAULT_PARAMS.get(name, {}), **overrides}
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


@dataclass(frozen=True)
class Trajectory:
    """A uniformly sampled d-dimensional path and, when known, the run that made it.

    ``points`` has shape (n_samples, d); sample k sits at time ``k * dt``,
    ``dt`` in (0, inf).  The increment stencil needs at least 4 samples.
    :func:`simulate` records its system ``spec``, which must have the
    path's dimension, and its ``seed``, ``burn_in`` and ``substeps``, each
    kept as a Python int by ``_integer`` (``seed`` and ``burn_in`` at
    least 0, ``substeps`` at least 1).  Every field is checked once, when
    the path is built; none is set afterwards.
    """

    dt: float
    points: np.ndarray
    seed: Optional[int] = None
    spec: Optional[SystemSpec] = None
    burn_in: Optional[int] = None
    substeps: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-d array (n_samples, d)")
        if len(self.points) < 4:
            raise ValueError(f"trajectory needs at least 4 samples, got {len(self.points)}")
        _real("dt", self.dt, 0, math.inf)
        if not np.isfinite(self.points).all():
            raise ValueError("trajectory contains non-finite points")
        for name, least in (("seed", 0), ("burn_in", 0), ("substeps", 1)):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, _integer(name, value, least))
        if self.spec is not None and self.spec.dimension != self.d:
            raise ValueError(f"system {self.spec.name!r} has dimension {self.spec.dimension}, "
                             f"but the path holds {self.d} coordinates")

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)


def _drift(spec: SystemSpec):
    """The drift field of ``spec`` with its constants bound:
    ``V(x1, ..., xd) -> (V1, ..., Vd)``.

    The components may be Python floats (one state, as in the simulator
    loop) or numpy arrays (a batch); both run the same IEEE-754 double
    operations in the same order, so they agree bit for bit.
    """
    p = spec.params
    if spec.name == "lorenz63":
        sigma, rho, beta = p["sigma"], p["rho"], p["beta"]

        def lorenz63(x1, x2, x3):
            return sigma * (x2 - x1), x1 * (rho - x3) - x2, x1 * x2 - beta * x3

        return lorenz63
    if spec.name == "hopf":
        mu = p["p"]

        def hopf(x1, x2):
            shrink = mu - (x1 * x1 + x2 * x2)
            return -x2 + x1 * shrink, x1 + x2 * shrink

        return hopf
    # lorenz96: dx_n/dt = (x_{n+1} - x_{n-2}) x_{n-1} - x_n + F, cyclic
    n, forcing = spec.dimension, p["F"]
    cells = [((i + 1) % n, i - 2, i - 1, i) for i in range(n)]

    def lorenz96(*xs):
        return [(xs[a] - xs[b]) * xs[c] - xs[i] + forcing for a, b, c, i in cells]

    return lorenz96


def eval_drift(spec: SystemSpec, x) -> np.ndarray:
    """Evaluate the drift field V at one state or a batch of states.

    ``x`` may have shape (d,) or (n, d); the result has the same shape.
    Lorenz 96 indices wrap cyclically.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (spec.dimension,):
        raise ValueError(f"state has shape {x.shape}, system expects (..., {spec.dimension})")
    return np.stack(_drift(spec)(*(x[..., i] for i in range(spec.dimension))), axis=-1)


def _euler_maruyama(spec: SystemSpec, h: float, sigma: float):
    """``advance(x, samples)`` for :func:`simulate`: from ``x``, one substep
    ``x + v*h + (sigma*v)*kick`` per kick, yielding the state after each
    sample's kicks as Python floats: spelled out per component for d = 2
    and 3, so a substep builds no list, and a comprehension for Lorenz 96."""
    drift = _drift(spec)
    if spec.dimension == 2:
        def advance(x, samples):
            x1, x2 = x
            for kicks in samples:
                for k1, k2 in kicks:
                    v1, v2 = drift(x1, x2)
                    x1 = x1 + v1 * h + (sigma * v1) * k1
                    x2 = x2 + v2 * h + (sigma * v2) * k2
                yield x1, x2
    elif spec.dimension == 3:
        def advance(x, samples):
            x1, x2, x3 = x
            for kicks in samples:
                for k1, k2, k3 in kicks:
                    v1, v2, v3 = drift(x1, x2, x3)
                    x1 = x1 + v1 * h + (sigma * v1) * k1
                    x2 = x2 + v2 * h + (sigma * v2) * k2
                    x3 = x3 + v3 * h + (sigma * v3) * k3
                yield x1, x2, x3
    else:
        def advance(x, samples):
            for kicks in samples:
                for kick in kicks:
                    x = [xi + vi * h + (sigma * vi) * ki
                         for xi, vi, ki in zip(x, drift(*x), kick)]
                yield x
    return advance


def _integer(name: str, value, least: int) -> int:
    """``value`` as a Python int of at least ``least``: a Python or numpy bool
    (a JSON true) is a ValueError, never read as 1, a non-integer a
    TypeError, never truncated, and a smaller integer a ValueError."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value}")
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def _real(name: str, value, low: float, high: float, ends: str = "()") -> None:
    """Reject ``value`` unless it is a real number from ``low`` to ``high``,
    an end included where ``ends`` has a bracket (``"[)"``: ``low <= value <
    high``): a Python or numpy bool (a JSON true, never 1), NaN, an infinity
    or a value outside is a ValueError, any other non-real a TypeError."""
    rule = f"{name} must be a real number in {ends[0]}{low}, {high}{ends[1]}"
    is_bool = isinstance(value, (bool, np.bool_))
    if not (is_bool or isinstance(value, numbers.Real)):
        raise TypeError(f"{rule}, got {value!r}")
    above = low <= value if ends[0] == "[" else low < value
    below = value <= high if ends[1] == "]" else value < high
    if is_bool or not (above and below and abs(value) < math.inf):
        raise ValueError(f"{rule}, got {value}")


def _start_state(spec: SystemSpec, x0) -> np.ndarray:
    """``x0`` as a float array, rejected unless it is one finite state of ``spec``."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({spec.dimension},)")
    if not np.isfinite(x0).all():
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    return x0


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

    The loop runs on Python floats through the system's drift closure,
    built once per call with its constants bound: each substep evaluates
    the drift once and reuses it for the diffusion, with the update spelled
    out per component for Hopf and Lorenz 63 and a comprehension for
    Lorenz 96.  One draw of at most ``_NOISE_CHUNK`` normals (or one
    sample's) feeds a chunk of samples through one call of the update, and
    the chunk is checked for finiteness once.  The normal stream is that of
    per-substep draws, so the path is bit-identical to a per-substep loop's.

    The path records ``spec``, ``seed``, ``burn_in`` and ``substeps``.

    Raises
    ------
    ValueError
        If an argument is out of range or a bool, or ``x0`` is not finite.
    TypeError
        If ``dt`` is not a real number or a count not an integer.
    NumericalError
        If a recorded state is non-finite; the message names its index.
    """
    _real("dt", dt, 0, math.inf)
    n_samples = _integer("n_samples", n_samples, 4)
    substeps = _integer("substeps", substeps, 1)
    burn_in = _integer("burn_in", burn_in, 0)
    seed = _integer("seed", seed, 0)  # numpy's own message names neither seed nor value

    x0 = _start_state(spec, x0)
    rng = np.random.default_rng(seed)
    h = float(dt / substeps)
    d = spec.dimension
    total = burn_in + n_samples
    out = np.empty((total, d))
    out[0] = x0
    advance = _euler_maruyama(spec, h, float(spec.sigma_noise))
    x, chunk = x0.tolist(), max(1, _NOISE_CHUNK // (substeps * d))
    for start in range(1, total, chunk):
        stop = min(start + chunk, total)
        kicks = zip(*[iter((h * rng.standard_normal((stop - start) * substeps * d)).tolist())] * d)
        out[start:stop] = states = list(advance(x, zip(*[kicks] * substeps)))
        # a diverging step overflows to inf or nan (float arithmetic does not raise)
        finite, x = np.isfinite(out[start:stop]).all(axis=1), states[-1]
        if not finite.all():
            raise NumericalError(f"non-finite state encountered at sample index "
                                 f"{start + finite.argmin()}")
    return Trajectory(dt=dt, points=out[burn_in:], seed=seed, spec=spec, burn_in=burn_in,
                      substeps=substeps)


# --- plain-text persistence -------------------------------------------------
#
# Trajectory files are CSV with header  t,x0,...,x{d-1}  and times t = k*dt;
# a JSON sidecar (<stem>.meta.json) records how the path was generated.


def _write_csv(path, header, columns) -> None:
    """Write a plot-ready CSV: the ``header`` names, then one line per row.

    Every CSV file of the package goes through here.  ``columns`` holds one
    1-d array per name, all of one length (else a ValueError, before the
    file is opened); each value is the ``repr`` of the Python scalar
    ``ndarray.tolist()`` gives: the shortest text that round-trips a
    float64, and plain digits for an integer column such as a 0/1 flag.
    """
    columns = [np.asarray(column).tolist() for column in columns]
    lengths = set(map(len, columns))
    if len(columns) != len(header) or len(lengths) > 1:
        raise ValueError(f"a CSV of {len(header)} names needs {len(header)} equal columns, "
                         f"got {len(columns)} columns of lengths {sorted(lengths)}")
    texts = [map(repr, column) for column in columns]
    lines = [",".join(header), *map(",".join, zip(*texts))]
    Path(path).write_text("\n".join(lines) + "\n")


def _meta_path(csv_path) -> Path:
    csv_path = Path(csv_path)
    return csv_path.with_name(csv_path.stem + ".meta.json")


def save_trajectory(traj: Trajectory, csv_path) -> None:
    """Write the path as CSV (``t = k*dt``, then x0..x{d-1}) and its sidecar,
    which records ``dt``, ``d``, ``n_samples``, ``seed`` and whichever of
    the system, ``burn_in`` and ``substeps`` the path carries.

    The sidecar is encoded first, so a value JSON cannot hold raises before
    either file is written."""
    meta = {"dt": traj.dt, "d": traj.d, "n_samples": len(traj), "seed": traj.seed}
    if (spec := traj.spec) is not None:
        meta.update(system=spec.name, params=dict(spec.params), sigma_noise=spec.sigma_noise)
    for key in ("burn_in", "substeps"):
        if getattr(traj, key) is not None:
            meta[key] = getattr(traj, key)
    text = json.dumps(meta, sort_keys=True, indent=2) + "\n"
    _write_csv(csv_path, ["t"] + [f"x{i}" for i in range(traj.d)],
               [np.arange(len(traj)) * traj.dt, *traj.points.T])
    _meta_path(csv_path).write_text(text)


def load_trajectory(csv_path) -> Trajectory:
    """Load a trajectory CSV and its metadata sidecar as one path.

    The path carries the system, ``seed``, ``burn_in`` and ``substeps``
    the sidecar records, each None where it records none; without a
    sidecar, ``dt`` comes from the ``t`` column's first gap.  A sidecar
    that is no JSON object, or whose entry ``_real`` (``dt``), ``_integer``
    (``seed`` or null, ``burn_in``, ``substeps``, ``d``, ``n_samples``) or
    SystemSpec rejects, is a ValueError named by the sidecar's path, as is
    one whose system's dimension, ``d`` or ``n_samples`` disagrees with the
    CSV; a CSV that does not parse, holds no valid trajectory or has a gap
    of ``t`` off ``dt`` by more than a relative 1e-6, one named by the
    CSV's path (and the sidecar's, if ``dt`` came from it)."""
    csv_path = Path(csv_path)
    mp, meta, spec = _meta_path(csv_path), {}, None
    try:
        if mp.exists():
            try:
                meta = json.loads(mp.read_text())
            except ValueError as err:  # undecodable bytes or JSON
                raise ValueError(f"metadata sidecar is not valid JSON: {err}") from err
        if not isinstance(meta, dict):
            raise ValueError("metadata sidecar is not a JSON object")
        if "dt" in meta:  # entries are checked as read, never coerced; none is required
            _real("dt", meta["dt"], 0, math.inf)
        for key, least in (("seed", 0), ("burn_in", 0), ("substeps", 1), ("d", 1),
                           ("n_samples", 1)):
            if key in meta and (key != "seed" or meta[key] is not None):  # a null seed is none
                _integer(key, meta[key], least)
        if "system" in meta:
            spec = SystemSpec(name=meta["system"], params=meta["params"],
                              sigma_noise=meta.get("sigma_noise", 0.0))
    except KeyError as err:
        raise ValueError(f"{mp}: metadata sidecar lacks the {err.args[0]!r} entry") from err
    except (TypeError, AttributeError) as err:  # e.g. "sigma_noise": null
        raise ValueError(f"{mp}: metadata sidecar has an entry of the wrong type: {err}") from err
    except ValueError as err:  # every sidecar error is named by the sidecar's path
        raise ValueError(f"{mp}: {err}") from err
    try:
        with warnings.catch_warnings():
            # a header-only file is reported by its shape below, not by numpy
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] < 2:
            raise ValueError(f"expected columns t,x0,... got shape {data.shape}")
        if (dt := meta.get("dt")) is None:
            if len(data) < 2:
                raise ValueError("cannot infer dt from a single row without metadata")
            dt = data[1, 0] - data[0, 0]
    except ValueError as err:  # unparsable text
        raise ValueError(f"{csv_path}: {err}") from err
    if spec is not None and spec.dimension != (d := data.shape[1] - 1):
        raise ValueError(f"{mp}: system {spec.name!r} has dimension {spec.dimension}, but "
                         f"{csv_path} holds {d} coordinates")
    try:
        traj = Trajectory(dt=float(dt), points=data[:, 1:], spec=spec,
                          **{key: meta.get(key) for key in ("seed", "burn_in", "substeps")})
    except ValueError as err:  # points Trajectory rejects
        raise ValueError(f"{csv_path}: {err}") from err
    gaps = np.diff(data[:, 0])
    bad = np.flatnonzero(~(np.abs(gaps - traj.dt) <= 1e-6 * traj.dt))  # a NaN gap too
    if bad.size:
        i, source = bad[0], f"from {mp}" if "dt" in meta else "from the first gap"
        raise ValueError(f"{csv_path}: t steps by {gaps[i]} between samples {i} and {i + 1}, "
                         f"not by dt = {traj.dt} {source}")
    for key, held in (("d", traj.d), ("n_samples", len(traj))):
        if meta.get(key, held) != held:
            raise ValueError(f"{mp}: metadata sidecar entry {key!r} is {meta[key]}, but "
                             f"{csv_path} holds {held}")
    return traj
