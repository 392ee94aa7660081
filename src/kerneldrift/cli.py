"""Command-line frontend for reproducible simulate / estimate / compare runs.

Each run writes into a flat output directory: a config echo, trajectory CSV
plus metadata sidecar, model JSON, error report JSON, and plot-ready CSVs.
Exit codes: 0 success, 1 usage error, 2 numerical failure.

A config file of ``key = value`` lines may supply any long-option default
(underscores or dashes in keys); command-line flags override it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import condexp, drift, evaluation, systems
from .errors import NumericalError

NOISE_SWEEP = (0.1, 0.2, 0.5)

# Benchmark sample counts: the two small systems use 1e4 samples, the
# lattice system 2e3 (pooled over its coordinates by the sparse estimator).
DEFAULT_SAMPLES = {"lorenz63": 10_000, "hopf": 10_000, "lorenz96": 2_000}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        self.options = {}  # dest -> Action, the keys a config file may set
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest] = action
        return action

    def error(self, message):
        raise _UsageError(message)


def _read_config_file(path) -> dict:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"bad config line (expected key = value): {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _build_parser() -> tuple[_Parser, dict]:
    parser = _Parser(prog="kerneldrift",
                     description="SDE drift estimation from sampled trajectories")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value file; flags override it")
        p.add_argument("--out", default=".", help="output directory")

    sim = sub.add_parser("simulate", help="sample an SDE path and write it as CSV")
    common(sim)
    sim.add_argument("--system", choices=systems.SYSTEM_NAMES, required=True)
    sim.add_argument("--noise", type=float, default=0.0, help="diffusion scale sigma")
    sim.add_argument("--n", type=int, default=None, help="recorded samples (default per system)")
    sim.add_argument("--dt", type=float, default=0.01)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--burn-in", type=int, default=100)
    sim.add_argument("--substeps", type=int, default=10)
    sim.add_argument("--cells", type=int, default=5, help="lorenz96 cell count")

    est = sub.add_parser("estimate", help="fit a drift model from a trajectory CSV")
    common(est)
    est.add_argument("--traj", required=True, help="trajectory CSV (with .meta.json sidecar)")
    est.add_argument("--estimator", choices=("dense", "sparse"), default="dense")
    est.add_argument("--stencil-width", type=int, default=None,
                     help="cyclic stencil width (sparse estimator)")
    est.add_argument("--stencil-offsets", default=None,
                     help="comma-separated offsets, e.g. -2,-1,0,1 (overrides width)")
    est.add_argument("--eta1", type=float, default=0.003)
    est.add_argument("--eta2", type=float, default=0.01)
    est.add_argument("--eta3", type=float, default=0.01)
    est.add_argument("--delta", type=float, default=0.1)
    est.add_argument("--centers", type=int, default=500, help="number of kernel centers M")

    cmp_ = sub.add_parser("compare", help="integrate true vs estimated field orbits")
    common(cmp_)
    cmp_.add_argument("--model", required=True, help="drift model JSON")
    cmp_.add_argument("--system", choices=systems.SYSTEM_NAMES, required=True)
    cmp_.add_argument("--cells", type=int, default=5, help="lorenz96 cell count")
    cmp_.add_argument("--horizon", type=float, default=10.0, help="time units to integrate")
    cmp_.add_argument("--dt", type=float, default=0.01)
    cmp_.add_argument("--x0", default=None, help="comma-separated start state")

    sweep = sub.add_parser("sweep", help="run the full noise grid of benchmark cells")
    common(sweep)
    sweep.add_argument("--systems", default="lorenz63,hopf,lorenz96",
                       help="comma-separated subset of the benchmark systems")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--dt", type=float, default=0.01)
    sweep.add_argument("--centers", type=int, default=500)
    sweep.add_argument("--n", type=int, default=None,
                       help="override the per-system sample counts")
    return parser, {"simulate": sim, "estimate": est, "compare": cmp_, "sweep": sweep}


def _parse_args(argv):
    """Parse argv with config-file values applied as defaults (flags win)."""
    config_path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
    parser, subparsers = _build_parser()
    if config_path is not None:
        values = _read_config_file(config_path)
        command = next((a for a in argv if not a.startswith("-")), None)
        target = subparsers.get(command)
        if target is None:
            raise _UsageError("--config requires a known subcommand")
        unknown = set(values) - set(target.options)
        if unknown:
            raise _UsageError(f"unknown config keys {sorted(unknown)}")
        for dest in values:
            target.options[dest].required = False
        # string defaults are converted by the option's type at parse time
        target.set_defaults(**values)
    return parser.parse_args(argv)


def _spec_from_args(args) -> systems.SystemSpec:
    overrides = {}
    if args.system == "lorenz96":
        overrides["N"] = args.cells
    return systems.make_spec(args.system, sigma_noise=getattr(args, "noise", 0.0),
                             **overrides)


def _echo_config(args, out_dir: Path) -> None:
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "config"}
    (out_dir / "config.json").write_text(json.dumps(echo, sort_keys=True, indent=2) + "\n")


def cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = _spec_from_args(args)
    n = args.n if args.n is not None else DEFAULT_SAMPLES[args.system]
    traj = systems.simulate(spec, systems.default_initial_state(spec), n_samples=n,
                            dt=args.dt, seed=args.seed, burn_in=args.burn_in,
                            substeps=args.substeps)
    path = out_dir / "trajectory.csv"
    systems.save_trajectory(traj, path, spec=spec, burn_in=args.burn_in,
                            substeps=args.substeps)
    _echo_config(args, out_dir)
    print(f"simulate: {args.system} noise={spec.sigma_noise} n={len(traj)} "
          f"d={traj.d} dt={traj.dt} seed={args.seed} -> {path}")
    return 0


def _parse_offsets(text) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as err:
        raise _UsageError(f"bad stencil offsets {text!r}") from err


def _stencil_from_args(args, d: int) -> drift.Stencil:
    if args.stencil_offsets is not None:
        return drift.Stencil.cyclic(d, _parse_offsets(args.stencil_offsets))
    if args.stencil_width is None:
        raise _UsageError("sparse estimator requires --stencil-width or --stencil-offsets")
    width = args.stencil_width
    if width < 1 or width > d:
        raise _UsageError(f"stencil width must lie in 1..{d}, got {width}")
    offsets = tuple(range(-(width - 2), 2)) if width >= 2 else (0,)
    return drift.Stencil.cyclic(d, offsets)


def cmd_estimate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    traj, meta = systems.load_trajectory(args.traj)
    if "system" not in meta:
        raise _UsageError(f"{args.traj}: metadata sidecar with the generating system "
                          "is required to evaluate against the true field")
    spec = systems.spec_from_meta(meta)

    params = condexp.CondExpParams(eta1=args.eta1, eta2=args.eta2, eta3=args.eta3,
                                   delta=args.delta, n_centers=args.centers)
    if args.estimator == "sparse":
        stencil = _stencil_from_args(args, traj.d)
        snapshots = drift.extract_snapshots(traj, stencil)
        model = drift.estimate_drift_sparse(snapshots, params)
    else:
        model = drift.estimate_drift(traj, params)

    # held-out test cloud: same generator, next seed, same burn-in
    seed = meta.get("seed") or 0
    held_out = systems.simulate(spec, systems.default_initial_state(spec),
                                n_samples=len(traj), dt=traj.dt, seed=seed + 1,
                                burn_in=meta.get("burn_in", 100),
                                substeps=meta.get("substeps", 10))
    report = evaluation.relative_l2_error(model, evaluation.system_field(spec),
                                          held_out.points)
    errors = evaluation.pointwise_errors(model, evaluation.system_field(spec),
                                         held_out.points)

    model_path = out_dir / "model.json"
    drift.save_drift_model(model, model_path)
    evaluation.save_error_report(report, out_dir / "report.json")
    evaluation.save_pointwise_errors(out_dir / "pointwise_errors.csv",
                                     held_out.points, errors)
    _echo_config(args, out_dir)
    print(f"estimate: {args.estimator} on {args.traj} -> relative_l2="
          f"{report.relative_l2:.6g} extrapolated={report.extrapolated_fraction:.3g} "
          f"({model_path})")
    return 0


def cmd_compare(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = drift.load_drift_model(args.model)
    spec = systems.make_spec(args.system, sigma_noise=0.0,
                             **({"N": args.cells} if args.system == "lorenz96" else {}))
    if model.d != spec.dimension:
        raise _UsageError(f"model dimension {model.d} != system dimension {spec.dimension}")
    if args.x0 is not None:
        x0 = np.array([float(v) for v in args.x0.split(",")])
    else:
        x0 = systems.default_initial_state(spec)
    comparison = evaluation.compare_orbits(spec, model, x0, horizon=args.horizon,
                                           dt=args.dt)
    path = out_dir / "orbits.csv"
    evaluation.save_orbit_comparison(comparison, path)
    _echo_config(args, out_dir)
    n_flagged = int(comparison.extrapolated.sum())
    print(f"compare: {args.system} over {args.horizon} time units, "
          f"{n_flagged} extrapolated steps -> {path}")
    return 0


def cmd_sweep(args) -> int:
    """One cell per (system, noise): simulate, estimate, report."""
    out_root = Path(args.out)
    names = [s.strip() for s in args.systems.split(",") if s.strip()]
    for name in names:
        if name not in systems.SYSTEM_NAMES:
            raise _UsageError(f"unknown system {name!r}")
    results = {}
    for name in names:
        for noise in NOISE_SWEEP:
            cell_dir = out_root / f"{name}_noise{noise}"
            sim_args = argparse.Namespace(
                command="simulate", config=None, out=str(cell_dir), system=name,
                noise=noise, n=args.n, dt=args.dt, seed=args.seed, burn_in=100,
                substeps=10, cells=5,
            )
            cmd_simulate(sim_args)
            est_args = argparse.Namespace(
                command="estimate", config=None, out=str(cell_dir),
                traj=str(cell_dir / "trajectory.csv"),
                estimator="sparse" if name == "lorenz96" else "dense",
                stencil_width=4 if name == "lorenz96" else None,
                stencil_offsets=None, eta1=0.003, eta2=0.01, eta3=0.01,
                delta=0.1, centers=args.centers,
            )
            cmd_estimate(est_args)
            report = evaluation.load_error_report(cell_dir / "report.json")
            results[f"{name}@{noise}"] = report.relative_l2
    print("sweep summary (relative L2):")
    for key, value in results.items():
        print(f"  {key}: {value:.4f}")
    (out_root / "sweep_summary.json").write_text(
        json.dumps(results, sort_keys=True, indent=2) + "\n")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
