"""Simulate the three benchmark systems and write their sample paths.

Each system is integrated both deterministically and with the
drift-proportional noise used throughout the benchmarks; the paths land in
``demo_output/`` as CSV files ready for external plotting.
"""

from pathlib import Path

import numpy as np

import kerneldrift as kd

OUT = Path(__file__).parent / "demo_output"
OUT.mkdir(exist_ok=True)

for name in ("hopf", "lorenz63", "lorenz96"):
    for noise in (0.0, 0.2):
        spec = kd.make_spec(name, sigma_noise=noise)
        x0 = kd.default_initial_state(spec)
        traj = kd.simulate(spec, x0, n_samples=4000, dt=0.01, seed=1,
                           burn_in=100, substeps=10)
        path = OUT / f"{name}_noise{noise}.csv"
        kd.save_trajectory(traj, path)
        speeds = np.linalg.norm(kd.eval_drift(spec, traj.points), axis=1)
        print(f"{name:9s} noise={noise}: {len(traj)} samples in R^{traj.d}, "
              f"|x| in [{np.abs(traj.points).min():.2f}, "
              f"{np.abs(traj.points).max():.2f}], "
              f"mean |V| = {speeds.mean():.2f}  -> {path.name}")

print(f"\nwrote trajectories to {OUT}/")
