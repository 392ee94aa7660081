import itertools
import json

import numpy as np
import pytest

from kerneldrift import (
    BlowUpError,
    SystemSpec,
    default_initial_state,
    eval_drift,
    load_trajectory,
    make_spec,
    save_trajectory,
    simulate,
)
from kerneldrift.systems import Trajectory, spec_from_meta


def reference_path(spec, x0, n_samples, dt, seed, burn_in, substeps):
    """The simulator as a per-substep numpy loop: one normal draw of size d
    per substep, the drift evaluated for V and again for G = sigma_noise V."""
    rng = np.random.default_rng(seed)
    h = dt / substeps
    x = np.asarray(x0, dtype=float)
    out = [x]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, burn_in + n_samples):
            for _ in range(substeps):
                noise = rng.standard_normal(spec.dimension)
                x = x + eval_drift(spec, x) * h + (
                    spec.sigma_noise * eval_drift(spec, x)) * (h * noise)
            if not np.isfinite(x).all():
                raise BlowUpError(index=k)
            out.append(x)
    return np.array(out[burn_in:])


def lorenz96_roll(x, forcing):
    """Lorenz 96 in its whole-array np.roll form."""
    xp1 = np.roll(x, -1, axis=-1)
    xm2 = np.roll(x, 2, axis=-1)
    xm1 = np.roll(x, 1, axis=-1)
    return (xp1 - xm2) * xm1 - x + forcing


def test_lorenz63_drift_at_ones():
    spec = make_spec("lorenz63")
    v = eval_drift(spec, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(v, [0.0, 26.0, -5.0 / 3.0], rtol=0, atol=1e-15)


def test_hopf_origin_is_fixed_point():
    spec = make_spec("hopf")
    np.testing.assert_array_equal(eval_drift(spec, [0.0, 0.0]), [0.0, 0.0])


def test_lorenz96_equilibrium():
    spec = make_spec("lorenz96", N=5)
    np.testing.assert_array_equal(eval_drift(spec, np.full(5, 8.0)), np.zeros(5))


def test_lorenz96_cyclic_equivariance():
    spec = make_spec("lorenz96", N=7)
    rng = np.random.default_rng(3)
    x = rng.normal(size=7)
    shifted = np.roll(x, 1)
    np.testing.assert_array_equal(eval_drift(spec, shifted), np.roll(eval_drift(spec, x), 1))


def test_hopf_radial_component():
    spec = make_spec("hopf", p=1.3)
    rng = np.random.default_rng(5)
    for x in rng.normal(size=(20, 2)):
        r = np.linalg.norm(x)
        radial = eval_drift(spec, x) @ x / r
        assert abs(radial - r * (1.3 - r**2)) < 1e-12


def test_eval_drift_batched_matches_single():
    specs = [make_spec("lorenz63"), make_spec("hopf"),
             make_spec("lorenz96", N=5), make_spec("lorenz96", N=10)]
    for spec in specs:
        pts = 3.0 * np.random.default_rng(0).normal(size=(10, spec.dimension))
        batch = eval_drift(spec, pts)
        assert batch.shape == pts.shape
        for i, x in enumerate(pts):
            np.testing.assert_array_equal(batch[i], eval_drift(spec, x), err_msg=spec.name)


@pytest.mark.parametrize("n", [4, 5, 10])
def test_lorenz96_matches_roll_form(n):
    spec = make_spec("lorenz96", N=n)
    pts = 4.0 * np.random.default_rng(n).normal(size=(20, n))
    np.testing.assert_array_equal(eval_drift(spec, pts), lorenz96_roll(pts, 8.0))
    np.testing.assert_array_equal(eval_drift(spec, pts[3]), lorenz96_roll(pts[3], 8.0))


def test_dimension_mismatch_raises():
    spec = make_spec("hopf")
    with pytest.raises(ValueError):
        eval_drift(spec, [1.0, 2.0, 3.0])


def test_unknown_system_and_params():
    with pytest.raises(ValueError):
        make_spec("lorenz64")
    with pytest.raises(ValueError):
        make_spec("hopf", rho=2.0)
    with pytest.raises(ValueError):
        SystemSpec(name="hopf", params={"p": 1.0, "q": 2.0})
    with pytest.raises(ValueError):
        make_spec("lorenz96", N=3)
    with pytest.raises(ValueError):
        SystemSpec(name="hopf", params={"p": 1.0}, sigma_noise=-0.1)


def test_simulate_deterministic_repeatable():
    spec = make_spec("lorenz63", sigma_noise=0.2)
    x0 = default_initial_state(spec)
    a = simulate(spec, x0, n_samples=50, dt=0.01, seed=42, burn_in=10, substeps=3)
    b = simulate(spec, x0, n_samples=50, dt=0.01, seed=42, burn_in=10, substeps=3)
    np.testing.assert_array_equal(a.points, b.points)
    c = simulate(spec, x0, n_samples=50, dt=0.01, seed=43, burn_in=10, substeps=3)
    assert not np.array_equal(a.points, c.points)


def test_zero_noise_matches_euler_oracle():
    spec = make_spec("lorenz63", sigma_noise=0.0)
    x0 = np.array([1.0, 1.0, 1.0])
    traj = simulate(spec, x0, n_samples=40, dt=0.005, seed=0, burn_in=0, substeps=1)
    x = x0.copy()
    path = [x.copy()]
    for _ in range(39):
        x = x + 0.005 * eval_drift(spec, x)
        path.append(x.copy())
    np.testing.assert_array_equal(traj.points, np.array(path))


def test_hopf_limit_cycle_radius():
    # deterministic orbit settles on the radius-sqrt(p) cycle
    spec = make_spec("hopf", sigma_noise=0.0)
    traj = simulate(spec, [2.0, 0.0], n_samples=800, dt=0.01, seed=0,
                    burn_in=0, substeps=100)
    radius = np.linalg.norm(traj.points[-1])
    assert abs(radius - 1.0) < 1e-3


def test_simulate_burn_in_drops_prefix():
    spec = make_spec("hopf", sigma_noise=0.1)
    full = simulate(spec, [2.0, 0.0], n_samples=30, dt=0.01, seed=1, burn_in=0, substeps=2)
    trimmed = simulate(spec, [2.0, 0.0], n_samples=20, dt=0.01, seed=1, burn_in=10, substeps=2)
    np.testing.assert_array_equal(trimmed.points, full.points[10:])


@pytest.mark.parametrize("name, overrides", [
    ("lorenz63", {}), ("hopf", {}), ("lorenz96", {"N": 4}), ("lorenz96", {"N": 7}),
])
def test_simulate_matches_reference_loop(name, overrides):
    for substeps, sigma, burn_in in itertools.product((1, 3), (0.0, 0.2), (0, 5)):
        spec = make_spec(name, sigma_noise=sigma, **overrides)
        x0 = default_initial_state(spec) + np.random.default_rng(1).normal(size=spec.dimension)
        args = (spec, x0, 40, 0.01, 7, burn_in, substeps)
        np.testing.assert_array_equal(simulate(*args).points, reference_path(*args),
                                      err_msg=f"substeps={substeps} sigma={sigma} "
                                              f"burn_in={burn_in}")


def test_simulate_blowup_reports_index():
    # huge dt makes the deterministic Euler step diverge immediately
    spec = make_spec("lorenz63", sigma_noise=0.0)
    args = (spec, [1.0, 1.0, 1.0], 100, 50.0, 0, 0, 1)
    with pytest.raises(BlowUpError) as expected:
        reference_path(*args)
    with pytest.raises(BlowUpError) as info:
        simulate(*args)
    assert info.value.index == expected.value.index


@pytest.mark.parametrize("x0", [[np.nan, 0.0], [0.0, np.inf]])
def test_simulate_rejects_non_finite_start(x0):
    with pytest.raises(ValueError, match="x0 must be finite"):
        simulate(make_spec("hopf"), x0, 10, 0.01, 0, burn_in=0)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(dt=0.01, points=np.zeros((3, 2)))  # too short
    with pytest.raises(ValueError):
        Trajectory(dt=-1.0, points=np.zeros((5, 2)))
    bad = np.zeros((5, 2))
    bad[2, 1] = np.nan
    with pytest.raises(ValueError):
        Trajectory(dt=0.01, points=bad)


def test_trajectory_roundtrip(tmp_path):
    spec = make_spec("hopf", sigma_noise=0.2)
    traj = simulate(spec, [2.0, 0.0], n_samples=25, dt=0.02, seed=9, burn_in=5, substeps=2)
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path, spec=spec, burn_in=5, substeps=2)

    header = path.read_text().splitlines()[0]
    assert header == "t,x0,x1"

    loaded, meta = load_trajectory(path)
    np.testing.assert_array_equal(loaded.points, traj.points)
    assert loaded.dt == traj.dt
    assert meta["seed"] == 9
    assert meta["burn_in"] == 5
    rebuilt = spec_from_meta(meta)
    assert rebuilt == spec

    sidecar = json.loads((tmp_path / "traj.meta.json").read_text())
    assert sidecar["system"] == "hopf"


def test_default_initial_states():
    np.testing.assert_array_equal(default_initial_state(make_spec("lorenz63")), [1, 1, 1])
    np.testing.assert_array_equal(default_initial_state(make_spec("hopf")), [2, 0])
    x96 = default_initial_state(make_spec("lorenz96", N=6))
    assert x96.shape == (6,)
    assert x96[0] == 8.01 and np.all(x96[1:] == 8.0)
