import itertools
import json
import re
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest

from kerneldrift import (
    CondExpParams,
    KernelModel,
    NumericalError,
    SystemSpec,
    compare_orbits,
    default_initial_state,
    eval_drift,
    load_trajectory,
    make_spec,
    save_trajectory,
    select_bandwidth,
    simulate,
)
from kerneldrift import systems
from kerneldrift.drift import DriftModel, load_drift_model, save_drift_model
from kerneldrift.kernels import markov_apply
from kerneldrift.systems import _NOISE_CHUNK, DEFAULT_PARAMS, Trajectory, _drift


def load_with_sidecar(tmp_path, **entries):
    """load_trajectory on a short Hopf path whose sidecar has ``entries`` set."""
    spec = make_spec("hopf")
    path = tmp_path / "traj.csv"
    save_trajectory(simulate(spec, [2.0, 0.0], 10, 0.01, 0, burn_in=0), path)
    sidecar = tmp_path / "traj.meta.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **entries}))
    return load_trajectory(path)


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
                raise NumericalError(f"non-finite state encountered at sample index {k}")
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
    # a batch row, a single state and the simulator's closure on Python
    # floats give the same bits
    specs = [make_spec("lorenz63"), make_spec("hopf"),
             make_spec("lorenz96", N=5), make_spec("lorenz96", N=10)]
    for spec in specs:
        pts = 3.0 * np.random.default_rng(0).normal(size=(10, spec.dimension))
        batch = eval_drift(spec, pts)
        assert batch.shape == pts.shape
        drift = _drift(spec)
        for i, x in enumerate(pts):
            np.testing.assert_array_equal(batch[i], eval_drift(spec, x), err_msg=spec.name)
            floats = drift(*x.tolist())
            assert all(type(v) is float for v in floats), spec.name
            assert np.array(floats).tobytes() == batch[i].tobytes(), spec.name


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
    # a 0-d state has no coordinate axis: its shape is named, no IndexError
    with pytest.raises(ValueError, match=re.escape(
            "state has shape (), system expects (..., 2)")):
        eval_drift(spec, 1.0)


def test_unknown_system_and_params(tmp_path):
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
    # a sidecar's fractional cell count is rejected, not truncated
    with pytest.raises(ValueError, match="cell count N must be an integer >= 4, got 5.5"):
        load_with_sidecar(tmp_path, system="lorenz96", params={"F": 8.0, "N": 5.5})


@pytest.mark.parametrize("n", [6.0, 1e300, np.float64(6.0)],
                         ids=["float", "huge", "numpy-float"])
def test_lorenz96_cell_count_is_an_int(n):
    # an integral float is no second spelling of N: its sidecar would write
    # "N": 6.0 where N = 6 writes "N": 6, and 1e300 has no dimension numpy holds
    with pytest.raises(ValueError, match=re.escape(
            f"lorenz96 cell count N must be an integer >= 4, got {float(n)}")):
        make_spec("lorenz96", N=n)


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
def test_simulate_matches_reference_loop(name, overrides, monkeypatch):
    for substeps, sigma, burn_in in itertools.product((1, 3), (0.0, 0.2), (0, 5)):
        spec = make_spec(name, sigma_noise=sigma, **overrides)
        x0 = default_initial_state(spec) + np.random.default_rng(1).normal(size=spec.dimension)
        args = (spec, x0, 40, 0.01, 7, burn_in, substeps)
        np.testing.assert_array_equal(simulate(*args).points, reference_path(*args),
                                      err_msg=f"substeps={substeps} sigma={sigma} "
                                              f"burn_in={burn_in}")
    # noise is drawn a chunk of samples at a time: a run past the first
    # chunk whose length is no multiple of it
    args = (spec, x0, _NOISE_CHUNK // (3 * spec.dimension) + 7, 0.01, 7, 5, 3)
    np.testing.assert_array_equal(simulate(*args).points, reference_path(*args))
    # and, under a smaller budget of normals, runs whose every sample needs
    # more than the budget, so each draw covers one sample
    monkeypatch.setattr(systems, "_NOISE_CHUNK", 16)
    for substeps in (1 + 16 // spec.dimension, 40):
        args = (spec, x0, 30, 0.01, 7, 2, substeps)
        np.testing.assert_array_equal(simulate(*args).points, reference_path(*args),
                                      err_msg=f"substeps={substeps}")


@pytest.mark.parametrize("name", ["lorenz63", "hopf", "lorenz96"])
def test_simulate_blowup_reports_index(name):
    # huge dt makes the deterministic Euler step diverge within a few
    # samples, in each system's own update loop
    spec = make_spec(name, sigma_noise=0.0)
    args = (spec, default_initial_state(spec), 100, 50.0, 0, 0, 1)
    blow_up = "non-finite state encountered at sample index"
    with pytest.raises(NumericalError, match=blow_up) as expected:
        reference_path(*args)
    with pytest.raises(NumericalError, match=blow_up) as info:
        simulate(*args)
    assert str(info.value) == str(expected.value)


def test_simulate_blowup_past_first_chunk_reports_index():
    # multiplicative noise at sigma_noise 1.2 throws Lorenz 63 off its
    # attractor at sample 3099 of seed 6, inside the second noise chunk
    spec = make_spec("lorenz63", sigma_noise=1.2)
    args = (spec, default_initial_state(spec), 4000, 0.01, 6, 0, 1)
    with pytest.raises(NumericalError) as expected:
        reference_path(*args)
    with pytest.raises(NumericalError, match="at sample index 3099$") as info:
        simulate(*args)
    assert str(info.value) == str(expected.value)
    assert _NOISE_CHUNK // spec.dimension + 1 < 3099 < 2 * (_NOISE_CHUNK // spec.dimension)


@pytest.mark.parametrize("x0", [[np.nan, 0.0], [0.0, np.inf]])
def test_simulate_rejects_non_finite_start(x0):
    with pytest.raises(ValueError, match="x0 must be finite"):
        simulate(make_spec("hopf"), x0, 10, 0.01, 0, burn_in=0)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, True])
def test_non_finite_or_zero_dt_rejected(dt):
    # a NaN passes a range check written as `dt <= 0`, an infinite step
    # only failed later as a blow-up at sample index 1, and a bool (a JSON
    # true) is no step of 1, which a sidecar could not record
    message = re.escape(f"dt must be a real number in (0, inf), got {dt}")
    with pytest.raises(ValueError, match=message):
        simulate(make_spec("hopf"), [2.0, 0.0], 10, dt, 0, burn_in=0)
    with pytest.raises(ValueError, match=message):
        Trajectory(dt=dt, points=np.zeros((5, 2)))


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1, False, True])
def test_non_finite_or_negative_noise_rejected(tmp_path, sigma):
    # a JSON false or true is a bool, and so an int, but no noise level
    message = re.escape(f"sigma_noise must be a real number in [0, inf), got {sigma}")
    with pytest.raises(ValueError, match=message):
        make_spec("hopf", sigma_noise=sigma)
    with pytest.raises(ValueError, match=message):
        load_with_sidecar(tmp_path, sigma_noise=sigma)


@pytest.mark.parametrize("name, overrides", [
    ("hopf", {"p": np.nan}), ("lorenz63", {"rho": np.inf}),
    ("lorenz96", {"F": -np.inf}), ("lorenz96", {"N": np.inf}),
    # a JSON true is no constant of 1, and a string constant is not coerced:
    # a TypeError from the spec, a ValueError named by the sidecar's path
    ("hopf", {"p": True}), ("lorenz96", {"N": True}), ("hopf", {"p": "1.0"}),
])
def test_non_finite_system_constant_rejected(tmp_path, name, overrides):
    (key, value), = overrides.items()
    message = re.escape(f"{name} parameter {key} must be a real number in (-inf, inf), "
                        f"got {value!r}")
    with pytest.raises(TypeError if isinstance(value, str) else ValueError, match=message):
        make_spec(name, **overrides)
    with pytest.raises(ValueError, match=message):
        load_with_sidecar(tmp_path, system=name, params={**DEFAULT_PARAMS[name], **overrides})


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
    save_trajectory(traj, path)

    header = path.read_text().splitlines()[0]
    assert header == "t,x0,x1"

    loaded = load_trajectory(path)
    np.testing.assert_array_equal(loaded.points, traj.points)
    assert loaded.dt == traj.dt
    assert loaded.seed == 9
    assert loaded.burn_in == 5
    assert loaded.spec == spec

    sidecar = json.loads((tmp_path / "traj.meta.json").read_text())
    assert sidecar["system"] == "hopf"


def test_simulated_path_roundtrips_every_field(tmp_path):
    # a path records the run that made it, and the sidecar keeps all of it:
    # the points bit for bit, dt, seed, system, burn-in and substeps
    for spec in (make_spec("lorenz63", sigma_noise=0.2), make_spec("lorenz96", N=6)):
        traj = simulate(spec, default_initial_state(spec), n_samples=30, dt=0.005, seed=11,
                        burn_in=7, substeps=3)
        assert (traj.spec, traj.seed, traj.burn_in, traj.substeps) == (spec, 11, 7, 3)
        path = tmp_path / f"{spec.name}.csv"
        save_trajectory(traj, path)
        loaded = load_trajectory(path)
        assert loaded.points.tobytes() == traj.points.tobytes()
        for f in fields(Trajectory):
            if f.name != "points":
                assert getattr(loaded, f.name) == getattr(traj, f.name), f.name


@pytest.mark.parametrize("entries, message", [
    ({"seed": -1}, "seed must be nonnegative, got -1"),
    ({"burn_in": -1}, "burn_in must be nonnegative, got -1"),
    ({"substeps": 0}, "substeps must be at least 1, got 0"),
    ({"spec": make_spec("lorenz63")},
     "system 'lorenz63' has dimension 3, but the path holds 2 coordinates"),
], ids=["seed", "burn_in", "substeps", "spec"])
def test_trajectory_rejects_a_run_it_cannot_record(entries, message):
    # checked when the path is built, so no sidecar the loader would
    # reject is ever written
    with pytest.raises(ValueError, match=re.escape(message)):
        Trajectory(dt=0.01, points=np.zeros((5, 2)), **entries)


def test_trajectory_is_fixed_once_built():
    # its fields were checked when it was built: none is set afterwards
    traj = Trajectory(dt=0.01, points=np.zeros((5, 2)), seed=0)
    with pytest.raises(FrozenInstanceError):
        traj.seed = True


def test_numpy_seed_roundtrips(tmp_path):
    # the path keeps Python ints, whether the counts came through simulate
    # or were handed to it directly, so the sidecar writes JSON integers;
    # numpy counts keep the bits
    spec = make_spec("hopf", sigma_noise=0.2)
    traj = simulate(spec, [2.0, 0.0], n_samples=np.int32(10), dt=0.01, seed=np.int64(3),
                    burn_in=np.int64(2), substeps=np.int32(3))
    assert all(type(v) is int for v in (traj.seed, traj.burn_in, traj.substeps))
    np.testing.assert_array_equal(traj.points, simulate(spec, [2.0, 0.0], n_samples=10, dt=0.01,
                                                        seed=3, burn_in=2, substeps=3).points)
    path = tmp_path / "traj.csv"
    save_trajectory(Trajectory(dt=0.01, points=traj.points, seed=np.int64(3), spec=spec,
                               burn_in=np.int64(0), substeps=np.int32(1)), path)
    loaded = load_trajectory(path)
    np.testing.assert_array_equal(loaded.points, traj.points)
    assert (loaded.seed, loaded.burn_in, loaded.substeps) == (3, 0, 1)


def test_bool_or_fractional_seed_rejected():
    # as for CondExpParams.n_centers: a bool is never read as 1, a float
    # never truncated
    spec = make_spec("hopf")
    with pytest.raises(ValueError, match="seed must be an integer, got True"):
        simulate(spec, [2.0, 0.0], 10, 0.01, True, burn_in=0)
    with pytest.raises(ValueError, match="seed must be an integer, got True"):
        simulate(spec, [2.0, 0.0], 10, 0.01, np.True_, burn_in=0)  # a numpy bool too
    with pytest.raises(TypeError, match=re.escape("seed must be an integer, got 3.0")):
        simulate(spec, [2.0, 0.0], 10, 0.01, 3.0, burn_in=0)
    # a path keeps its seed as an int from the start, so no bool is saved later
    with pytest.raises(ValueError, match="seed must be an integer, got True"):
        Trajectory(dt=0.01, points=np.zeros((5, 2)), seed=True)
    with pytest.raises(TypeError, match=re.escape("seed must be an integer, got 3.0")):
        Trajectory(dt=0.01, points=np.zeros((5, 2)), seed=3.0)
    assert type(Trajectory(dt=0.01, points=np.zeros((5, 2)), seed=np.int64(3)).seed) is int


@pytest.mark.parametrize("name, value, error", [
    ("n_samples", True, ValueError), ("n_samples", 10.0, TypeError),
    ("burn_in", True, ValueError), ("burn_in", 1.5, TypeError),
    ("substeps", True, ValueError), ("substeps", 2.0, TypeError),
])
def test_bool_or_fractional_count_rejected(name, value, error):
    # a bool is never read as 1 (burn_in=True would drop one sample) and a
    # float never truncated; the message names the argument and its value
    args = {"n_samples": 10, "burn_in": 0, "substeps": 1, name: value}
    with pytest.raises(error, match=re.escape(f"{name} must be an integer, got {value!r}")):
        simulate(make_spec("hopf"), [2.0, 0.0], dt=0.01, seed=0, **args)


@pytest.mark.parametrize("entries, error", [
    ({"seed": True}, ValueError), ({"burn_in": 2.5}, TypeError),
    ({"substeps": False}, ValueError),
], ids=["bool-seed", "float-burn-in", "bool-substeps"])
def test_refused_save_writes_no_file(tmp_path, entries, error):
    # a count the sidecar could not write is refused when the path is
    # built, before either file is written: neither the CSV nor a sidecar
    # is left behind
    spec = make_spec("lorenz96", N=6)
    with pytest.raises(error):
        save_trajectory(Trajectory(dt=0.01, points=np.zeros((5, 6)), spec=spec,
                                   **{"seed": 0, **entries}), tmp_path / "traj.csv")
    assert list(tmp_path.iterdir()) == []


def test_numpy_constants_save_and_load_back(tmp_path):
    # a spec keeps an integral numpy constant as a Python int and a real one
    # as a float, so the path it simulates saves, loads back equal and
    # keeps the bits of the spec written with Python numbers
    spec = make_spec("lorenz96", sigma_noise=np.float32(0.25), N=np.int64(6),
                     F=np.float32(8.5))
    assert spec == make_spec("lorenz96", sigma_noise=0.25, N=6, F=8.5)
    assert [type(v) for v in (spec.params["N"], spec.params["F"], spec.sigma_noise)] == [
        int, float, float]
    traj = simulate(spec, default_initial_state(spec), n_samples=20, dt=0.01, seed=1,
                    burn_in=0)
    np.testing.assert_array_equal(traj.points, simulate(
        make_spec("lorenz96", sigma_noise=0.25, N=6, F=8.5), default_initial_state(spec),
        n_samples=20, dt=0.01, seed=1, burn_in=0).points)
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    loaded = load_trajectory(path)
    np.testing.assert_array_equal(loaded.points, traj.points)
    assert (loaded.dt, loaded.spec, loaded.seed, loaded.burn_in, loaded.substeps) == (
        traj.dt, spec, 1, 0, 1)


def test_csv_without_sidecar_infers_dt(tmp_path):
    # without a sidecar, dt is read off the t column and no system is named;
    # a single row gives no spacing to read
    traj = Trajectory(dt=0.25, points=np.arange(12.0).reshape(6, 2))
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    (tmp_path / "traj.meta.json").unlink()
    loaded = load_trajectory(path)
    np.testing.assert_array_equal(loaded.points, traj.points)
    assert (loaded.dt, loaded.seed, loaded.spec, loaded.burn_in, loaded.substeps) == (
        0.25, None, None, None, None)
    path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: cannot infer dt from a single row without metadata")):
        load_trajectory(path)


def test_t_column_stepping_other_than_dt_rejected(tmp_path):
    # a t column whose spacing was doubled, against the sidecar's dt: both
    # paths are named
    spec = make_spec("hopf")
    path = tmp_path / "traj.csv"
    save_trajectory(simulate(spec, [2.0, 0.0], 10, 0.01, 0, burn_in=0), path)
    lines = path.read_text().splitlines()
    rows = [",".join([repr(2 * float(line.split(",")[0])), *line.split(",")[1:]])
            for line in lines[1:]]
    path.write_text("\n".join([lines[0], *rows]) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: t steps by 0.02 between samples 0 and 1, not by dt = 0.01 from "
            f"{tmp_path / 'traj.meta.json'}")):
        load_trajectory(path)
    # without a sidecar, times 0.01 k^2 step by 0.01 first and 0.03 next
    (tmp_path / "traj.meta.json").unlink()
    t = 0.01 * np.arange(10.0) ** 2
    path.write_text("t,x0,x1\n" + "".join(f"{v!r},1.0,2.0\n" for v in t.tolist()))
    with pytest.raises(ValueError, match=re.escape(f"{path}: t steps by 0.03 between samples "
                                                   "1 and 2, not by dt = 0.01 from the first")):
        load_trajectory(path)


@pytest.mark.parametrize("csv", sorted(
    p.with_name(p.name.replace(".meta.json", ".csv"))
    for p in (Path(__file__).parents[1] / "demos" / "demo_output").glob("*.meta.json")),
    ids=lambda p: p.name)
def test_committed_trajectories_load(csv):
    # every committed demo trajectory steps its t column by its sidecar's dt
    # and carries the run that made it
    traj = load_trajectory(csv)
    name, noise = csv.stem.split("_noise")
    assert traj.dt == 0.01 and traj.spec == make_spec(name, sigma_noise=float(noise))
    assert (len(traj), traj.seed, traj.burn_in, traj.substeps) == (4000, 1, 100, 10)


def test_long_saved_trajectory_loads(tmp_path):
    # 10^5 rows of t = k * dt, each written as its shortest repr: the gaps'
    # rounding stays far inside the relative 1e-6
    traj = Trajectory(dt=0.003, points=np.zeros((100_000, 1)))
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    assert load_trajectory(path).dt == 0.003
    (tmp_path / "traj.meta.json").unlink()  # dt read off the first gap
    assert load_trajectory(path).dt == 0.003


@pytest.mark.parametrize("entries, message", [
    ({"d": 3}, "metadata sidecar entry 'd' is 3, but {csv} holds 2"),
    ({"n_samples": 11}, "metadata sidecar entry 'n_samples' is 11, but {csv} holds 10"),
    ({"system": "lorenz63", "params": DEFAULT_PARAMS["lorenz63"]},
     "system 'lorenz63' has dimension 3, but {csv} holds 2 coordinates"),
    ({"system": "lorenz96", "params": {"F": 8.0, "N": 4}},
     "system 'lorenz96' has dimension 4, but {csv} holds 2 coordinates"),
    ({"d": True}, "d must be an integer, got True"),
    ({"n_samples": 0}, "n_samples must be at least 1, got 0"),
], ids=["d", "n_samples", "lorenz63", "lorenz96", "bool-d", "zero-n_samples"])
def test_sidecar_disagreeing_with_csv_is_named_by_path(tmp_path, entries, message):
    # the 2-column, 10-row Hopf CSV is checked against its sidecar's d,
    # n_samples and named system, and a mismatch names the sidecar's path
    sidecar, csv = tmp_path / "traj.meta.json", tmp_path / "traj.csv"
    with pytest.raises(ValueError, match=re.escape(f"{sidecar}: " + message.format(csv=csv))):
        load_with_sidecar(tmp_path, **entries)


def test_undecodable_sidecar_is_named_by_path(tmp_path):
    spec = make_spec("hopf")
    path = tmp_path / "traj.csv"
    save_trajectory(simulate(spec, [2.0, 0.0], 10, 0.01, 0, burn_in=0), path)
    sidecar = tmp_path / "traj.meta.json"
    sidecar.write_text('{"dt": 0.01,')
    with pytest.raises(ValueError, match=re.escape(f"{sidecar}: metadata sidecar is not "
                                                   "valid JSON: Expecting")):
        load_trajectory(path)


def test_default_initial_states():
    np.testing.assert_array_equal(default_initial_state(make_spec("lorenz63")), [1, 1, 1])
    np.testing.assert_array_equal(default_initial_state(make_spec("hopf")), [2, 0])
    x96 = default_initial_state(make_spec("lorenz96", N=6))
    assert x96.shape == (6,)
    assert x96[0] == 8.01 and np.all(x96[1:] == 8.0)


_HOPF = make_spec("hopf")
_CENTERS = np.random.default_rng(0).normal(size=(10, 2))


def _hopf_model():
    """A zero field over ten centers: enough for the checks before any step."""
    return DriftModel(kernel=KernelModel(0.5, _CENTERS), coefficients=np.zeros((2, 10)))


def _load_model_with_epsilon(tmp_path, epsilon):
    path = tmp_path / "model.json"
    save_drift_model(_hopf_model(), path)
    payload = json.loads(path.read_text())
    payload["kernel"]["epsilon"] = epsilon
    path.write_text(json.dumps(payload))
    return load_drift_model(path)


# every real-valued parameter: its name and interval, a finite value outside
# it (or -inf where every finite value is in), the call that passes it on
# and, for a sidecar or model file, the file that names the error
_REAL_PARAMETERS = {
    "Trajectory-dt": ("dt", "(0, inf)", -0.01, None,
                      lambda v, tmp: Trajectory(dt=v, points=np.zeros((5, 2)))),
    "simulate-dt": ("dt", "(0, inf)", 0.0, None,
                    lambda v, tmp: simulate(_HOPF, [2.0, 0.0], 10, v, 0)),
    "compare_orbits-dt": ("dt", "(0, inf)", -0.01, None,
                          lambda v, tmp: compare_orbits(_HOPF, _hopf_model(), [1.0, 0.0],
                                                        1.0, v)),
    "compare_orbits-horizon": ("horizon", "(-inf, inf)", -np.inf, None,
                               lambda v, tmp: compare_orbits(_HOPF, _hopf_model(), [1.0, 0.0],
                                                             v, 0.01)),
    "KernelModel-epsilon": ("epsilon", "(0, inf)", 0.0, None,
                            lambda v, tmp: KernelModel(v, _CENTERS)),
    "markov_apply-epsilon": ("epsilon", "(0, inf)", -1.0, None,
                             lambda v, tmp: markov_apply(_CENTERS, _CENTERS, v,
                                                         np.ones((10, 1)))),
    "SystemSpec-sigma_noise": ("sigma_noise", "[0, inf)", -0.1, None,
                               lambda v, tmp: make_spec("hopf", sigma_noise=v)),
    "SystemSpec-constant": ("lorenz63 parameter rho", "(-inf, inf)", -np.inf, None,
                            lambda v, tmp: make_spec("lorenz63", rho=v)),
    "CondExpParams-eta1": ("eta1", "(0, 1)", 1.0, None, lambda v, tmp: CondExpParams(eta1=v)),
    "CondExpParams-eta2": ("eta2", "(0, 1)", 0.0, None, lambda v, tmp: CondExpParams(eta2=v)),
    "CondExpParams-delta": ("delta", "[0, inf)", -1.0, None,
                            lambda v, tmp: CondExpParams(delta=v)),
    "select_bandwidth-eta": ("eta", "(0, 1)", 1.5, None,
                             lambda v, tmp: select_bandwidth(_CENTERS, v)),
    "select_bandwidth-subsample_fraction": ("subsample_fraction", "(0, 1]", 1.5, None,
                                            lambda v, tmp: select_bandwidth(_CENTERS, 0.5, v)),
    "sidecar-dt": ("dt", "(0, inf)", 0.0, "traj.meta.json",
                   lambda v, tmp: load_with_sidecar(tmp, dt=v)),
    "model-file-epsilon": ("epsilon", "(0, inf)", -1.0, "model.json",
                           lambda v, tmp: _load_model_with_epsilon(tmp, v)),
}
_NOT_REAL = {"True": True, "np.True_": np.True_, "str": "0.1", "None": None,
             "nan": np.nan, "inf": np.inf}


@pytest.mark.parametrize("kind", [*_NOT_REAL, "outside"])
@pytest.mark.parametrize("case", _REAL_PARAMETERS)
def test_real_parameter_rejected_by_name(tmp_path, case, kind):
    # one rule for every real-valued parameter: a Python or numpy bool is no
    # 1 and a NaN, an infinity or a value out of range no parameter, each a
    # ValueError; a string or null is a TypeError, never coerced; from a
    # sidecar or model file, any of them is a ValueError named by its path
    name, interval, outside, file, call = _REAL_PARAMETERS[case]
    value = outside if kind == "outside" else _NOT_REAL[kind]
    message = re.escape(f"{name} must be a real number in {interval}, got ")
    if file is None:
        error = TypeError if kind in ("str", "None") else ValueError
    else:  # a JSON file holds a numpy bool as true
        error, message = ValueError, re.escape(f"{tmp_path / file}: ") + ".*" + message
        value = value.item() if isinstance(value, np.generic) else value
    with pytest.raises(error, match=message):
        call(value, tmp_path)
