"""The benchmark's three workloads and the cell each one repeats.

A cell is the closed-loop unit of work: every phase starts when the
previous one returns.  Each cell has three phases, and each phase is one
operation for the error rate:

* ``simulate`` -- sample the training path (seed ``s``);
* ``estimate`` -- fit, sample the held-out path (seed ``s + 1``) and score
  the fit on it;
* ``compare`` -- integrate true and estimated orbits from the held-out
  path's first sample, which lies on the attractor.

Why these three:

* ``l63-dense`` (Lorenz 63, 1e4 samples, dense estimator) is the acceptance
  cell of the Lorenz 63 reproduction.  Its two N x N Markov passes dominate,
  and a three-target fit shares them.
* ``l96-sparse`` (Lorenz 96 with 5 cells, 2e3 samples pooled into 9985
  four-dimensional records) runs the same Markov layer on another sparsity
  pattern, and predicts through the stencil at 5 section rows per state.
* ``hopf-cli`` (Hopf, 2e3 samples) runs ``simulate``, ``estimate`` and
  ``compare`` through ``cli.main``.  The simulator loop, single-point
  orbit steps and file persistence dominate; the Markov passes are a
  small share, so a change to them should leave this workload unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from kerneldrift import cli, condexp, drift, evaluation, systems

SIGMA_NOISE = 0.2
DT = 0.01
SUBSTEPS = 10
BURN_IN = 100


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    n_samples: int
    n_centers: int
    horizon: float
    sparse: bool
    via_cli: bool
    # held-out relative L2 a correct fit stays at or under
    rel_l2_bound: float


WORKLOADS = {
    w.name: w
    for w in (
        # bounds: the Lorenz 63 and Lorenz 96 acceptance thresholds at
        # sigma 0.2; for Hopf at 2e3 samples about twice the worst value
        # seen over seeds 0-11 (0.108)
        Workload("l63-dense", "lorenz63", 10_000, 500, 10.0, False, False, 0.25),
        Workload("l96-sparse", "lorenz96", 2_000, 500, 10.0, True, False, 0.47),
        Workload("hopf-cli", "hopf", 2_000, 500, 50.0, False, True, 0.2),
    )
}


def toy(workload: Workload) -> Workload:
    """A seconds-long version of a workload for the benchmark's self-test.

    Fits this small are poor, so the accuracy gate only rejects a fit that
    does no better than the zero field.
    """
    return replace(workload, n_samples=300, n_centers=40, horizon=0.5,
                   rel_l2_bound=1.0)


class GateError(Exception):
    """An output failed a correctness gate, or a command exited non-zero."""


@dataclass
class Inputs:
    """Everything a cell needs, generated from the seed before timing."""

    workload: Workload
    seed: int
    spec: systems.SystemSpec
    x0: np.ndarray
    params: condexp.CondExpParams
    workdir: Path
    # hopf-cli only: the held-out path's first sample, for ``compare``
    orbit_start: np.ndarray | None = None


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    spec = systems.make_spec(workload.system, sigma_noise=SIGMA_NOISE)
    inputs = Inputs(workload, seed, spec, systems.default_initial_state(spec),
                    condexp.CondExpParams(n_centers=workload.n_centers), workdir)
    if workload.via_cli:
        # ``estimate`` samples its held-out path from the same start with
        # seed + 1; the first recorded sample does not depend on n_samples
        head = systems.simulate(spec, inputs.x0, n_samples=4, dt=DT, seed=seed + 1,
                                burn_in=BURN_IN, substeps=SUBSTEPS)
        inputs.orbit_start = head.points[0]
    return inputs


def warm_up() -> None:
    """One small untimed fit, so BLAS/LAPACK first-call costs land in set-up."""
    spec = systems.make_spec("hopf", sigma_noise=SIGMA_NOISE)
    path = systems.simulate(spec, systems.default_initial_state(spec),
                            n_samples=1500, dt=DT, seed=0, burn_in=0)
    model = drift.estimate_drift(path, condexp.CondExpParams(n_centers=500))
    evaluation.relative_l2_error(model, evaluation.system_field(spec), path.points[:100])


def fit(workload: Workload, train: systems.Trajectory, params: condexp.CondExpParams):
    if workload.sparse:
        snapshots = drift.extract_snapshots(train, drift.Stencil.cyclic(train.d))
        return drift.estimate_drift_sparse(snapshots, params)
    return drift.estimate_drift(train, params)


def digest(coefficients) -> str:
    """SHA-256 of the fitted coefficients' float64 bytes."""
    data = np.ascontiguousarray(coefficients, dtype=np.float64)
    return hashlib.sha256(data.tobytes()).hexdigest()


@dataclass
class Outputs:
    """What a finished cell produced, for the gates to check."""

    train: np.ndarray
    coefficients: np.ndarray
    rel_l2: float
    report_fields: list
    orbits: list


def library_cell(inputs: Inputs, phase):
    w, spec, seed = inputs.workload, inputs.spec, inputs.seed
    with phase("simulate"):
        train = systems.simulate(spec, inputs.x0, w.n_samples, DT, seed,
                                 burn_in=BURN_IN, substeps=SUBSTEPS)
    with phase("estimate"):
        model = fit(w, train, inputs.params)
        held_out = systems.simulate(spec, inputs.x0, w.n_samples, DT, seed + 1,
                                    burn_in=BURN_IN, substeps=SUBSTEPS)
        report = evaluation.relative_l2_error(model, evaluation.system_field(spec),
                                              held_out.points)
    with phase("compare"):
        comparison = evaluation.compare_orbits(spec, model, held_out.points[0],
                                               horizon=w.horizon, dt=DT)
    return lambda: Outputs(
        train=train.points,
        coefficients=model.coefficients,
        rel_l2=report.relative_l2,
        report_fields=[report.per_coordinate_rmse, report.extrapolated_fraction],
        orbits=[comparison.true_orbit.points, comparison.estimated_orbit.points],
    )


def _run_cli(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise GateError(f"kerneldrift {argv[0]} exited with code {code}")


def cli_cell(inputs: Inputs, phase):
    w, out = inputs.workload, str(inputs.workdir)
    with phase("simulate"):
        _run_cli(["simulate", "--system", w.system, "--noise", repr(SIGMA_NOISE),
                  "--n", str(w.n_samples), "--dt", repr(DT), "--seed", str(inputs.seed),
                  "--burn-in", str(BURN_IN), "--substeps", str(SUBSTEPS), "--out", out])
    with phase("estimate"):
        _run_cli(["estimate", "--traj", str(inputs.workdir / "trajectory.csv"),
                  "--centers", str(w.n_centers), "--out", out])
    with phase("compare"):
        _run_cli(["compare", "--model", str(inputs.workdir / "model.json"),
                  "--system", w.system, "--horizon", repr(w.horizon), "--dt", repr(DT),
                  "--x0", ",".join(repr(float(v)) for v in inputs.orbit_start),
                  "--out", out])
    return lambda: _read_cli_outputs(inputs.workdir)


def _read_cli_outputs(workdir: Path) -> Outputs:
    model = json.loads((workdir / "model.json").read_text())
    report = json.loads((workdir / "report.json").read_text())
    orbits = np.loadtxt(workdir / "orbits.csv", delimiter=",", skiprows=1, ndmin=2)
    return Outputs(
        train=np.loadtxt(workdir / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2),
        coefficients=np.asarray(model["coefficients"], dtype=float),
        rel_l2=float(report["relative_l2"]),
        report_fields=[report["per_coordinate_rmse"], report["extrapolated_fraction"]],
        orbits=[orbits],
    )


def run_cell(inputs: Inputs, phase) -> Callable[[], Outputs]:
    """Run one cell; the returned function collects its outputs untimed."""
    if inputs.workload.via_cli:
        return cli_cell(inputs, phase)
    return library_cell(inputs, phase)


def gate_failures(workload: Workload, outputs: Outputs, reference_digest: str) -> dict:
    """Map each phase to the gates its outputs failed (empty when all pass)."""
    failures = {"simulate": [], "estimate": [], "compare": []}
    if not np.isfinite(outputs.train).all():
        failures["simulate"].append("non-finite training path")
    if not np.isfinite(outputs.coefficients).all():
        failures["estimate"].append("non-finite coefficients")
    if digest(outputs.coefficients) != reference_digest:
        failures["estimate"].append("coefficient digest differs from the run's first fit")
    if not all(np.isfinite(np.asarray(f, dtype=float)).all() for f in outputs.report_fields):
        failures["estimate"].append("non-finite error report field")
    if not np.isfinite(outputs.rel_l2) or outputs.rel_l2 > workload.rel_l2_bound:
        failures["estimate"].append(
            f"relative L2 {outputs.rel_l2!r} above the bound {workload.rel_l2_bound}")
    if not all(np.isfinite(o).all() for o in outputs.orbits):
        failures["compare"].append("non-finite orbit")
    return {k: v for k, v in failures.items() if v}
