"""Command-line frontend for reproducible simulate / estimate / compare runs.

Each run writes into a flat output directory: a config echo, trajectory CSV
plus metadata sidecar, model JSON, error report JSON, and plot-ready CSVs.
Exit codes: 0 success, 1 usage error, 2 numerical failure.  A run makes its
output directory only once its arguments have passed every check, so a
rejected run leaves none behind.

Each decision has one option: ``estimate --stencil-offsets`` fits the
sparse estimator through that cyclic stencil and its absence the dense one,
and ``compare`` takes a Lorenz 96 lattice's cell count from the model.
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


class _Parser(argparse.ArgumentParser):
    # every option is spelled in full: a prefix such as --stencil would not
    # take the spaced "-2,-1,0,1" that _parse_args joins to --stencil-offsets
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


def _parse_args(argv):
    # argparse takes "-2,-1,0,1" for an option unless "=" joins it to one
    if "--stencil-offsets" in argv[:-1]:
        k = argv.index("--stencil-offsets")
        argv = [*argv[:k], "=".join(argv[k:k + 2]), *argv[k + 2:]]
    parser = _Parser(prog="kerneldrift",
                     description="SDE drift estimation from sampled trajectories")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
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
    est.add_argument("--stencil-offsets", default=None,
                     help="comma-separated cyclic stencil offsets, e.g. -2,-1,0,1: "
                          "fit the sparse estimator through them (default: the "
                          "dense estimator)")
    fit = condexp.CondExpParams()  # the fit's defaults are the options' defaults
    est.add_argument("--eta1", type=float, default=fit.eta1,
                     help="sparsity target of the smoothing operator P1's bandwidth")
    est.add_argument("--eta2", type=float, default=fit.eta2,
                     help="sparsity target of the expansion kernel K's bandwidth")
    est.add_argument("--delta", type=float, default=fit.delta,
                     help="ridge of the regularized least-squares solve")
    est.add_argument("--centers", type=int, default=fit.n_centers,
                     help="number of kernel centers M")

    cmp_ = sub.add_parser("compare", help="integrate true vs estimated field orbits")
    common(cmp_)
    cmp_.add_argument("--model", required=True, help="drift model JSON")
    cmp_.add_argument("--system", choices=systems.SYSTEM_NAMES, required=True)
    cmp_.add_argument("--horizon", type=float, default=10.0, help="time units to integrate")
    cmp_.add_argument("--dt", type=float, default=0.01)
    cmp_.add_argument("--x0", default=None, help="comma-separated start state")

    sweep = sub.add_parser("sweep", help="run the full noise grid of benchmark cells")
    common(sweep)
    sweep.add_argument("--systems", default="lorenz63,hopf,lorenz96",
                       help="comma-separated subset of the benchmark systems")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--dt", type=float, default=0.01)
    sweep.add_argument("--centers", type=int, default=fit.n_centers)
    sweep.add_argument("--n", type=int, default=None,
                       help="override the per-system sample counts")
    return parser.parse_args(argv)


def _echo_config(args, out_dir: Path) -> None:
    (out_dir / "config.json").write_text(
        json.dumps(vars(args), sort_keys=True, indent=2) + "\n")


def cmd_simulate(args) -> int:
    cells = {"N": args.cells} if args.system == "lorenz96" else {}
    spec = systems.make_spec(args.system, sigma_noise=args.noise, **cells)
    n = args.n if args.n is not None else DEFAULT_SAMPLES[args.system]
    traj = systems.simulate(spec, systems.default_initial_state(spec), n_samples=n,
                            dt=args.dt, seed=args.seed, burn_in=args.burn_in,
                            substeps=args.substeps)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "trajectory.csv"
    systems.save_trajectory(traj, path)
    _echo_config(args, out_dir)
    print(f"simulate: {args.system} noise={spec.sigma_noise} n={len(traj)} "
          f"d={traj.d} dt={traj.dt} seed={args.seed} -> {path}")
    return 0


def cmd_estimate(args) -> int:
    traj = systems.load_trajectory(args.traj)
    # the held-out path repeats the recorded run with the next seed
    for key, value in (("system", traj.spec), ("seed", traj.seed), ("burn_in", traj.burn_in),
                       ("substeps", traj.substeps)):
        if value is None:
            raise ValueError(f"{args.traj}: its metadata sidecar records no {key!r}")

    params = condexp.CondExpParams(eta1=args.eta1, eta2=args.eta2, delta=args.delta,
                                   n_centers=args.centers)
    if args.stencil_offsets is None:
        model = drift.estimate_drift(traj, params)
    else:
        offsets = tuple(int(v) for v in args.stencil_offsets.split(","))
        snapshots = drift.extract_snapshots(traj, drift.Stencil.cyclic(traj.d, offsets))
        model = drift.estimate_drift_sparse(snapshots, params)

    spec = traj.spec
    held_out = systems.simulate(spec, systems.default_initial_state(spec),
                                n_samples=len(traj), dt=traj.dt, seed=traj.seed + 1,
                                burn_in=traj.burn_in, substeps=traj.substeps)
    # one prediction of the held-out cloud scores it and gives its errors
    report, diff = evaluation._score(model, evaluation.system_field(spec), held_out.points)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.json"
    drift.save_drift_model(model, model_path)
    evaluation.save_error_report(report, out_dir / "report.json")
    evaluation.save_pointwise_errors(out_dir / "pointwise_errors.csv",
                                     held_out.points, np.abs(diff))
    _echo_config(args, out_dir)
    estimator = "dense" if model.stencil is None else "sparse"
    print(f"estimate: {estimator} on {args.traj} -> relative_l2="
          f"{report.relative_l2:.6g} extrapolated={report.extrapolated_fraction:.3g} "
          f"({model_path})")
    return 0


def cmd_compare(args) -> int:
    model = drift.load_drift_model(args.model)
    cells = {"N": model.d} if args.system == "lorenz96" else {}
    spec = systems.make_spec(args.system, **cells)
    if model.d != spec.dimension:
        raise ValueError(f"model dimension {model.d} != system dimension {spec.dimension}")
    if args.x0 is not None:
        x0 = np.array([float(v) for v in args.x0.split(",")])
    else:
        x0 = systems.default_initial_state(spec)
    comparison = evaluation.compare_orbits(spec, model, x0, horizon=args.horizon,
                                           dt=args.dt)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    if not names:
        raise ValueError(f"--systems names no system: {args.systems!r}")
    for name in names:
        if name not in systems.SYSTEM_NAMES:
            raise ValueError(f"unknown system {name!r}")
    results = {}
    for name in names:
        for noise in NOISE_SWEEP:
            cell_dir = out_root / f"{name}_noise{noise}"
            n = [] if args.n is None else [f"--n={args.n}"]
            cmd_simulate(_parse_args([
                "simulate", f"--out={cell_dir}", f"--system={name}", f"--noise={noise}",
                f"--dt={args.dt}", f"--seed={args.seed}", *n]))
            stencil = ["--stencil-offsets=-2,-1,0,1"] if name == "lorenz96" else []
            cmd_estimate(_parse_args([
                "estimate", f"--out={cell_dir}", f"--traj={cell_dir / 'trajectory.csv'}",
                f"--centers={args.centers}", *stencil]))
            report = json.loads((cell_dir / "report.json").read_text())
            results[f"{name}@{noise}"] = report["relative_l2"]
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
    except (ValueError, OSError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
