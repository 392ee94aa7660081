"""Recover a 1-d regression function from noisy pairs.

Fits the kernel conditional-expectation model to y = x^2 + noise and
compares it against a brute-force Nadaraya-Watson average at a few probe
points, then shows how prediction error shrinks as the sample grows.
"""

import numpy as np

import kerneldrift as kd


def fit(xs, ys):
    """The fitted kernel and coefficient vector for a scalar target."""
    kernel, coef, diagnostics = kd.fit_targets(xs[:, None], ys,
                                               kd.CondExpParams(n_centers=100))
    return kernel, coef[0], diagnostics


def evaluate(kernel, coef, points):
    """The expansion at 1-d points: a row-wise sum over the section rows."""
    sections, _ = kd.section_matrix(kernel, points[:, None])
    return (sections * coef).sum(axis=1)


rng = np.random.default_rng(1)
n = 2000
x = rng.uniform(-1, 1, size=n)
y = x**2 + 0.1 * rng.standard_normal(n)

kernel, coef, diagnostics = fit(x, y)
eps1 = diagnostics["eps1"]
print(f"fitted on {n} pairs; selected bandwidths: "
      f"eps1={eps1:.2e} eps2={diagnostics['eps2']:.2e} "
      f"eps3={diagnostics['eps3']:.2e}")

print(f"\n{'x':>6} {'truth':>8} {'fit':>8} {'NW':>8}")
probes = np.linspace(-0.8, 0.8, 9)
for p, value in zip(probes, evaluate(kernel, coef, probes)):
    weights = np.exp(-((x - p) ** 2) / eps1)
    nw = (weights * y).sum() / weights.sum()
    print(f"{p:6.2f} {p**2:8.4f} {value:8.4f} {nw:8.4f}")

print("\nerror vs sample size (same noise level):")
probes = np.linspace(-0.9, 0.9, 20)
for n in (200, 1000, 5000):
    errs = []
    for seed in range(3):
        r = np.random.default_rng(seed)
        xs = r.uniform(-1, 1, size=n)
        ys = xs**2 + 0.1 * r.standard_normal(n)
        pred = evaluate(*fit(xs, ys)[:2], probes)
        errs.append(np.sqrt(np.mean((pred - probes**2) ** 2)))
    print(f"  n={n:5d}: rmse = {np.mean(errs):.4f}")
