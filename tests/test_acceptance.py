"""Acceptance suite: one test per criterion, one printed verdict line each.

The reproduction criteria (1-3) run the full benchmark cells at production
scale and compare the held-out relative L2 error against fixed thresholds
and print it beside an affine yardstick's, the least-squares affine field
fitted to the same increment targets; on Lorenz 63 and 96 the estimator's
error must also be within a fixed fraction of the yardstick's.  The
remaining criteria pin exactness, kernel identities, oracle agreement and
reproducibility contracts.  Run with ``pytest tests/test_acceptance.py -v
-s`` to see the verdict lines.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.spatial.distance import cdist, pdist

import kerneldrift as kd
from kerneldrift import cli
from kerneldrift.kernels import THETA_ZERO, markov_apply
from kerneldrift.systems import Trajectory

DT = 0.01
SUBSTEPS = 10
CENTERS = 500


def _verdict(number, name, ok, detail):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _fit_1d(x, y, params):
    """Scalar conditional expectation on 1-d inputs: kernel, (M,) coefficients,
    diagnostics."""
    kernel, coef, diagnostics = kd.fit_targets(x[:, None], y, params)
    return kernel, coef[0], diagnostics


def _expand(kernel, coef, points):
    """The expansion at query points, one section row each, and the flags."""
    sections, flags = kd.section_matrix(kernel, points)
    return (sections * coef).sum(axis=1), flags


def _affine_rel_l2(traj, held, spec):
    """Held-out relative L2 error of the yardstick: the least-squares affine
    field fitted to the cell's increment targets on ``[x, 1]``."""
    inputs, targets = kd.increment_targets(traj)
    coef, *_ = np.linalg.lstsq(np.column_stack([inputs, np.ones(len(inputs))]), targets,
                               rcond=None)
    predicted = np.column_stack([held.points, np.ones(len(held.points))]) @ coef
    true = kd.system_field(spec)(held.points)
    return float(np.linalg.norm(predicted - true) / np.linalg.norm(true))


def _run_cell(system, sigma, n_samples, estimator="dense"):
    """The estimator's held-out relative L2 error, and the affine yardstick's."""
    spec = kd.make_spec(system, sigma_noise=sigma)
    x0 = kd.default_initial_state(spec)
    traj = kd.simulate(spec, x0, n_samples=n_samples, dt=DT, seed=0,
                       burn_in=100, substeps=SUBSTEPS)
    held = kd.simulate(spec, x0, n_samples=n_samples, dt=DT, seed=1,
                       burn_in=100, substeps=SUBSTEPS)
    params = kd.CondExpParams(n_centers=CENTERS)
    if estimator == "sparse":
        snapshots = kd.extract_snapshots(traj, kd.Stencil.cyclic(spec.dimension))
        model = kd.estimate_drift_sparse(snapshots, params)
    else:
        model = kd.estimate_drift(traj, params)
    report = kd.relative_l2_error(model, kd.system_field(spec), held.points)
    return report.relative_l2, _affine_rel_l2(traj, held, spec)


def _reproduction(number, name, system, thresholds, n_samples, estimator="dense",
                  max_ratio=None):
    """Each cell's error must be within its threshold and, given
    ``max_ratio``, within that fraction of the affine yardstick's."""
    ok, details = True, []
    for sigma, threshold in thresholds.items():
        rel, affine = _run_cell(system, sigma, n_samples, estimator)
        ratio = rel / affine
        ok = ok and rel <= threshold and (max_ratio is None or ratio <= max_ratio)
        bound = "" if max_ratio is None else f" (<= {max_ratio})"
        details.append(f"sigma={sigma}: rel={rel:.4f} (<= {threshold}), affine={affine:.4f}, "
                       f"ratio={ratio:.3f}{bound}")
    _verdict(number, name, ok, ", ".join(details))


def test_criterion_1_hopf_reproduction():
    """The affine yardstick beats the estimator on Hopf: its held-out error
    is 0.0060 / 0.0069 / 0.0112 at sigma = 0.1 / 0.2 / 0.5 against the
    estimator's 0.0162 / 0.0384 / 0.0722, so no ratio is bounded here."""
    _reproduction(1, "hopf reproduction", "hopf",
                  {0.1: 0.06, 0.2: 0.09, 0.5: 0.18}, n_samples=10_000)


def test_criterion_2_lorenz63_reproduction():
    _reproduction(2, "lorenz63 reproduction", "lorenz63",
                  {0.1: 0.20, 0.2: 0.25, 0.5: 0.35}, n_samples=10_000, max_ratio=0.20)


def test_criterion_3_lorenz96_sparse_reproduction():
    _reproduction(3, "lorenz96 sparse reproduction", "lorenz96",
                  {0.1: 0.47, 0.2: 0.47, 0.5: 0.47}, n_samples=2_000,
                  estimator="sparse", max_ratio=0.50)


def test_criterion_4_stencil_exactness():
    constant = Trajectory(dt=0.05, points=np.tile([1.5, -2.0], (30, 1)))
    _, z_const = kd.increment_targets(constant)
    const_ok = np.all(z_const == 0.0)

    slope = np.array([0.8, -1.3])
    linear = Trajectory(dt=0.05, points=np.arange(30)[:, None] * 0.05 * slope)
    _, z_lin = kd.increment_targets(linear)
    lin_err = np.abs(z_lin - slope).max()

    spec = kd.make_spec("hopf")

    def rhs(_, x):
        return kd.eval_drift(spec, x)

    errors = []
    for dt in (0.02, 0.01):
        sol = solve_ivp(rhs, (0.0, 200 * dt), [1.0, 0.0],
                        t_eval=np.arange(200) * dt, rtol=1e-12, atol=1e-12,
                        max_step=dt / 4)
        traj = Trajectory(dt=dt, points=sol.y.T)
        inputs, targets = kd.increment_targets(traj)
        errors.append(np.abs(targets - kd.eval_drift(spec, inputs)).max())
    ratio = errors[0] / errors[1]

    ok = const_ok and lin_err < 1e-12 and ratio >= 6.0
    _verdict(4, "stencil exactness", ok,
             f"constant exact={const_ok}, linear err={lin_err:.2e} (<1e-12), "
             f"halving ratio={ratio:.2f} (>=6)")


def test_criterion_5_kernel_property_suite():
    rng = np.random.default_rng(42)
    data = rng.normal(size=(200, 3))
    eta, theta_zero = 0.3, THETA_ZERO
    # every pair of data: the strided tenth of each point ten times over is data
    eps = kd.select_bandwidth(np.repeat(data, 10, axis=0), eta)

    markov = markov_apply(data, data, eps, np.eye(len(data)))
    row_gap = np.abs(markov.sum(axis=1) - 1.0).max()

    model = kd.diffusion_model(data, eps)
    kdiff, _ = kd.section_matrix(model, data)
    # the symmetric form, recomputed from the raw kernel and the degrees
    raw = np.exp(-cdist(data, data, "sqeuclidean") / eps)
    raw[raw < theta_zero] = 0.0
    deg_l = (raw * (1.0 / model.deg_r)).sum(axis=1) / len(data)
    degrees = model.deg_r * deg_l
    ktilde = raw / np.sqrt(np.outer(degrees, degrees))
    sym_gap = np.abs(ktilde - ktilde.T).max()

    rho = np.sqrt(deg_l / model.deg_r)
    identity_gap = np.abs(
        rho[:, None] * kdiff / rho[None, :] - ktilde
    ).max()

    values = np.exp(-pdist(data, "sqeuclidean") / eps)
    fraction = np.mean(values >= theta_zero)
    frac_gap = abs(fraction - eta)
    frac_tol = 2.0 / len(values)

    ok = (row_gap < 1e-12 and sym_gap < 1e-12 and identity_gap < 1e-12
          and frac_gap <= frac_tol)
    _verdict(5, "kernel property suite", ok,
             f"markov row gap={row_gap:.1e} (<1e-12), ktilde asymmetry="
             f"{sym_gap:.1e} (<1e-12), conjugation identity gap={identity_gap:.1e} "
             f"(<1e-12), sparsity fraction gap={frac_gap:.2e} (<= {frac_tol:.2e})")


def test_criterion_6_conditional_expectation_oracle():
    x = np.linspace(-1.0, 1.0, 500)
    y = x**2
    kernel, coef, diagnostics = _fit_1d(x, y, kd.CondExpParams(n_centers=100))
    eps1 = diagnostics["eps1"]
    probes = np.linspace(-0.9, 0.9, 20)
    values, _ = _expand(kernel, coef, probes[:, None])
    gaps = []
    for p, value in zip(probes, values):
        weights = np.exp(-((x - p) ** 2) / eps1)
        oracle = (weights * y).sum() / weights.sum()
        gaps.append(abs(value - oracle))
    nw_gap = max(gaps)

    rng = np.random.default_rng(7)
    xc = rng.uniform(-1, 1, size=500)
    const_kernel, const_coef, _ = _fit_1d(xc, np.full(500, 2.5),
                                          kd.CondExpParams(n_centers=100, delta=0.0))
    const_values, _ = _expand(const_kernel, const_coef, xc[:50, None])
    const_gap = np.abs(const_values - 2.5).max()

    ok = nw_gap < 0.05 and const_gap < 1e-8
    _verdict(6, "conditional expectation oracle", ok,
             f"NW gap={nw_gap:.4f} (<0.05), constant recovery gap={const_gap:.2e} "
             f"(<1e-8)")


def test_criterion_7_ridge_monotonicity():
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, size=400)
    y = np.sin(2 * x) + 0.3 * rng.standard_normal(400)
    residuals = [
        _fit_1d(x, y, kd.CondExpParams(n_centers=80, delta=delta))[2]["residual_norms"][0]
        for delta in (0.0, 0.01, 0.1, 1.0)
    ]
    ok = all(a <= b for a, b in zip(residuals, residuals[1:]))
    _verdict(7, "ridge residual monotonicity", ok,
             "residuals " + " <= ".join(f"{r:.6f}" for r in residuals))


def test_criterion_8_out_of_sample_fallback():
    rng = np.random.default_rng(13)
    data = rng.normal(size=(50, 2))
    eps = 0.4
    model = kd.diffusion_model(data, eps)
    coeffs = rng.normal(size=50)
    query = data[9] + np.array([math.sqrt(1e4 * eps), 0.0])
    nearest = data[np.argmin(((data - query) ** 2).sum(axis=1))]
    (value, expected), (flagged, near_flag) = _expand(model, coeffs,
                                                      np.stack([query, nearest]))
    ok = flagged and not near_flag and value == expected
    _verdict(8, "out-of-sample fallback", ok,
             f"flag={flagged}, value equals nearest-center value exactly="
             f"{value == expected}")


def test_criterion_9_end_to_end_determinism(tmp_path):
    files = {}
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert cli.main(["simulate", "--system", "hopf", "--noise", "0.1",
                         "--n", "10000", "--dt", "0.01", "--seed", "0",
                         "--out", str(out)]) == 0
        assert cli.main(["estimate", "--traj", str(out / "trajectory.csv"),
                         "--centers", str(CENTERS), "--out", str(out)]) == 0
        files[tag] = {
            name: (out / name).read_bytes()
            for name in ("trajectory.csv", "model.json", "report.json")
        }
    same = {name: files["first"][name] == files["second"][name]
            for name in files["first"]}
    ok = all(same.values())
    _verdict(9, "end-to-end determinism", ok,
             ", ".join(f"{name} identical={flag}" for name, flag in same.items()))
