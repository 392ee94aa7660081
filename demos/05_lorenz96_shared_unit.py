"""Sparse estimator on the Lorenz 96 lattice: one unit, many coordinates.

Every component of the Lorenz 96 field is the same four-variable function
applied around the ring, so the pooled snapshot records let a single
low-dimensional fit reconstruct the whole high-dimensional field.
"""

from pathlib import Path

import numpy as np

import kerneldrift as kd

OUT = Path(__file__).parent / "demo_output"
OUT.mkdir(exist_ok=True)

spec = kd.make_spec("lorenz96", N=5, sigma_noise=0.1)
x0 = kd.default_initial_state(spec)

train = kd.simulate(spec, x0, n_samples=2000, dt=0.01, seed=0, burn_in=100,
                    substeps=10)
held = kd.simulate(spec, x0, n_samples=2000, dt=0.01, seed=1, burn_in=100,
                   substeps=10)

stencil = kd.Stencil.cyclic(5)
print("stencil neighborhoods:", stencil.left)

snapshots = kd.extract_snapshots(train, stencil)
print(f"pooled {len(snapshots)} records of dimension {snapshots.stencil.m} "
      f"from {len(train)} samples x {train.d} coordinates")
# the pooled records as CSV, columns in0..in{m-1},target
rows = [",".join(f"in{i}" for i in range(snapshots.stencil.m)) + ",target"]
rows += [",".join([repr(float(v)) for v in inputs] + [repr(float(target))])
         for inputs, target in zip(snapshots.inputs, snapshots.targets)]
(OUT / "l96_snapshots.csv").write_text("\n".join(rows) + "\n")

model = kd.estimate_drift_sparse(snapshots, kd.CondExpParams(n_centers=500))
report = kd.relative_l2_error(model, kd.system_field(spec), held.points)
print(f"held-out relative L2 error: {report.relative_l2:.4f}")

dense = kd.estimate_drift(train, kd.CondExpParams(n_centers=500))
dense_report = kd.relative_l2_error(dense, kd.system_field(spec), held.points)
print(f"dense per-coordinate estimator on the same data: "
      f"{dense_report.relative_l2:.4f}")

# pooling pays off when per-coordinate data is scarce
short = kd.simulate(spec, x0, n_samples=400, dt=0.01, seed=0, burn_in=100,
                    substeps=10)
short_snaps = kd.extract_snapshots(short, stencil)
pooled_small = kd.estimate_drift_sparse(short_snaps, kd.CondExpParams(n_centers=250))
dense_small = kd.estimate_drift(short, kd.CondExpParams(n_centers=250))
rs = kd.relative_l2_error(pooled_small, kd.system_field(spec), held.points)
rd = kd.relative_l2_error(dense_small, kd.system_field(spec), held.points)
print(f"with only 400 samples: pooled {rs.relative_l2:.4f} vs "
      f"dense {rd.relative_l2:.4f} (pooling shares samples across coordinates)")

x = held.points[500]
(values, shifted), _ = kd.predict_drift_many(model, [x, np.roll(x, 1)])
print("cyclic equivariance check (exact):",
      bool(np.all(shifted == np.roll(values, 1))))
