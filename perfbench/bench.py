"""Run one workload, time it from outside the library and check its outputs.

An untraced run (``--trace 0``) wraps nothing: the benchmark's own spans
time each cell and its phases.  A traced run (``--trace 1``) first runs one
cell the same way, then wraps every layer's public functions and runs
traced cells; the per-layer metrics come from those spans, and the
difference between the two kinds of cell is the tracing overhead.  Set-up is measured in this process and in two fresh child
processes, and the median is reported.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy.spatial import cKDTree

from kerneldrift import condexp, drift, evaluation, systems
from kerneldrift.errors import NumericalError

import workloads as wl
from tracing import Tracer, self_times, write_spans

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "cell_s": "s",
    "estimate_phase_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "systems.simulate.self_s": "s",
    "systems.simulate.samples_per_s": "1/s",
    "systems.eval_drift.calls_per_substep": "count",
    "systems.save_trajectory.share": "ratio",
    "systems.load_trajectory.share": "ratio",
    "systems.trajectory_csv.bytes": "B",
    "kernels.select_bandwidth.s": "s",
    "kernels.diffusion_model.s": "s",
    "kernels.section_matrix.fit.s": "s",
    "kernels.section_matrix.predict.s": "s",
    "kernels.section_matrix.rows": "count",
    "kernels.markov_apply.eps1.s": "s",
    "kernels.markov_apply.eps3.s": "s",
    "kernels.markov_apply.eps1.entries_evaluated": "count",
    "kernels.markov_apply.eps3.entries_evaluated": "count",
    "kernels.markov_apply.eps1.nnz_fraction": "ratio",
    "kernels.markov_apply.eps3.nnz_fraction": "ratio",
    "kernels.markov_apply.share_of_fit": "ratio",
    "condexp.fit_targets.self_s": "s",
    "condexp.solve_regularized.s": "s",
    "condexp.normal_condition": "ratio",
    "drift.fit.s": "s",
    "drift.estimate.self_s": "s",
    "drift.extract_snapshots.records": "count",
    "drift.predict.s": "s",
    "drift.save_drift_model.share": "ratio",
    "drift.load_drift_model.share": "ratio",
    "drift.model_json.bytes": "B",
    "evaluation.relative_l2_error.self_s": "s",
    "evaluation.relative_l2_error.points_per_s": "1/s",
    "evaluation.compare_orbits.self_s": "s",
    "evaluation.compare_orbits.steps": "count",
    "evaluation.compare_orbits.steps_per_s": "1/s",
    "evaluation.compare_orbits.extrapolated_fraction": "ratio",
    "evaluation.save_pointwise_errors.share": "ratio",
    "evaluation.save_orbit_comparison.share": "ratio",
    "cli.simulate.self_share": "ratio",
    "cli.estimate.self_share": "ratio",
    "cli.compare.self_share": "ratio",
    "rel_l2": "ratio",
    "error_rate": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_fraction": "ratio",
    "ref.single_thread.fit_s": "s",
}

FIT_SPANS = ("drift.estimate_drift", "drift.estimate_drift_sparse")
PREDICT_SPANS = ("drift.predict_drift_many", "drift.predict_drift_sparse_many")


# --- instrumentation ----------------------------------------------------------


def install(tracer: Tracer, captured: dict) -> None:
    """Wrap the library's public functions at the names their callers use.

    Every layer boundary gets a span or a counter.  ``captured`` receives
    the first training path and the inputs of each Markov pass, for the
    single-thread reference fit and the nnz count.
    """

    def simulated(s, a, result):
        s.attrs["samples"] = a["n_samples"]
        s.attrs["substeps"] = (a["burn_in"] + a["n_samples"] - 1) * a["substeps"]
        captured.setdefault("train", result)

    def orbited(s, a, result):
        s.attrs["steps"] = len(result.extrapolated) - 1
        s.attrs["extrapolated"] = int(result.extrapolated.sum())

    tracer.wrap(systems, "simulate", "systems.simulate", simulated)
    for name in ("estimate_drift", "estimate_drift_sparse"):
        tracer.wrap(drift, name, f"drift.{name}")
    tracer.wrap(evaluation, "relative_l2_error", "evaluation.relative_l2_error",
                lambda s, a, r: s.attrs.update(points=len(a["test_points"])))
    tracer.wrap(evaluation, "compare_orbits", "evaluation.compare_orbits", orbited)

    def file_bytes(key):
        return lambda s, a, r: s.attrs.update(bytes=os.path.getsize(a[key]))

    def section_rows(s, a, result):
        s.attrs["rows"] = len(result[0])

    def markov_pass(s, a, result):
        # fit_targets runs the eps1 pass first and the eps3 pass second
        parent = tracer.parent_of(s)
        done = parent.counts.get("markov_apply", 0) + 1 if parent else 1
        if parent:
            parent.counts["markov_apply"] = done
        label = {1: "eps1", 2: "eps3"}.get(done, f"pass{done}")
        s.name = f"kernels.markov_apply.{label}"
        rows, cols = np.asarray(a["rows"]), np.asarray(a["cols"])
        s.attrs.update(epsilon=a["epsilon"], entries=len(rows) * len(cols))
        captured.setdefault(label, (rows, a["epsilon"], a["theta_zero"]))

    tracer.count(systems, "eval_drift", "eval_drift")
    tracer.wrap(systems, "save_trajectory", "systems.save_trajectory", file_bytes("csv_path"))
    tracer.wrap(systems, "load_trajectory", "systems.load_trajectory")
    tracer.wrap(condexp, "fit_targets", "condexp.fit_targets")
    tracer.wrap(condexp, "select_bandwidth", "kernels.select_bandwidth")
    tracer.wrap(condexp, "diffusion_model", "kernels.diffusion_model")
    tracer.wrap(condexp, "section_matrix", "kernels.section_matrix.fit", section_rows)
    tracer.wrap(condexp, "markov_apply", "kernels.markov_apply", markov_pass)
    tracer.wrap(condexp, "solve_regularized", "condexp.solve_regularized",
                lambda s, a, r: s.attrs.update(condition=r[2]))
    tracer.wrap(drift, "section_matrix", "kernels.section_matrix.predict", section_rows)
    tracer.wrap(drift, "extract_snapshots", "drift.extract_snapshots",
                lambda s, a, r: s.attrs.update(records=len(r)))
    for name in ("predict_drift_many", "predict_drift_sparse_many", "load_drift_model"):
        tracer.wrap(drift, name, f"drift.{name}")
    tracer.wrap(drift, "save_drift_model", "drift.save_drift_model", file_bytes("path"))
    for name in ("pointwise_errors", "save_error_report", "save_pointwise_errors",
                 "save_orbit_comparison"):
        tracer.wrap(evaluation, name, f"evaluation.{name}")


# --- cells ------------------------------------------------------------------


@dataclass
class Cell:
    index: int
    traced: bool
    phases: list = field(default_factory=list)  # operations attempted
    failures: dict = field(default_factory=dict)  # phase -> reasons
    digest: str | None = None
    rel_l2: float | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def timed_cell(tracer: Tracer, inputs: wl.Inputs, cell: Cell, reference_digest):
    """Run one cell under a root span, then gate its outputs untimed."""
    prefix = "cli" if inputs.workload.via_cli else "phase"

    @contextmanager
    def phase(name):
        cell.phases.append(name)
        with tracer.span(f"{prefix}.{name}", phase=name):
            yield

    tracer.cell = cell.index
    collect = None
    try:
        with tracer.span("cell"):
            collect = wl.run_cell(inputs, phase)
    except (NumericalError, wl.GateError) as err:
        cell.failures[cell.phases[-1]] = [f"{type(err).__name__}: {err}"]
    finally:
        tracer.cell = None
    if collect is None:
        return reference_digest
    outputs = collect()
    cell.digest = wl.digest(outputs.coefficients)
    cell.rel_l2 = outputs.rel_l2
    reference_digest = reference_digest or cell.digest
    cell.failures.update(wl.gate_failures(inputs.workload, outputs, reference_digest))
    return reference_digest


# --- metrics ----------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(tracer: Tracer, cells: list[Cell]) -> dict:
    """Medians over the given cells of the cell and phase times.

    All of them go to the results file; the result line prints only
    ``cell_s`` and ``estimate_phase_s`` (see README.md).
    """
    ids = {c.index for c in cells if c.ok}
    samples = defaultdict(list)
    for s in tracer.spans:
        if s.cell not in ids:
            continue
        if s.name == "cell":
            samples["cell_s"].append(s.duration)
        elif "phase" in s.attrs:
            samples[f"{s.attrs['phase']}_phase_s"].append(s.duration)
    return {name: _median(values) for name, values in samples.items()}


def _rate(numerator: float, denominator: float) -> float:
    """numerator / denominator, 0 where a workload never calls the layer."""
    return numerator / denominator if denominator else 0.0


def _layer_values(tracer: Tracer, selfs: list[float], cell: int) -> dict:
    """One traced cell's per-layer totals: durations, self times and counts.

    Layers only some workloads call -- file persistence and the CLI, on
    ``hopf-cli`` -- are reported as shares of the cell's time, so that the
    others read a share of 0 rather than a time of 0.
    """
    dur, own, attrs, counts = (defaultdict(float) for _ in range(4))
    for s in tracer.spans:
        if s.cell != cell:
            continue
        dur[s.name] += s.duration
        own[s.name] += selfs[s.id]
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)):
                attrs[f"{s.name}:{key}"] += value
        for key, value in s.counts.items():
            counts[f"{s.name}:{key}"] += value

    fit = sum(dur[name] for name in FIT_SPANS)
    markov = dur["kernels.markov_apply.eps1"] + dur["kernels.markov_apply.eps3"]
    steps = attrs["evaluation.compare_orbits:steps"]
    substeps = attrs["systems.simulate:substeps"]
    values = {
        "systems.simulate.samples_per_s":
            _rate(attrs["systems.simulate:samples"], dur["systems.simulate"]),
        "systems.eval_drift.calls_per_substep":
            _rate(counts["systems.simulate:eval_drift"], substeps),
        "systems.trajectory_csv.bytes": attrs["systems.save_trajectory:bytes"],
        "kernels.section_matrix.rows": attrs["kernels.section_matrix.fit:rows"]
        + attrs["kernels.section_matrix.predict:rows"],
        "kernels.markov_apply.share_of_fit": _rate(markov, fit),
        "drift.fit.s": fit,
        "drift.estimate.self_s": sum(own[name] for name in FIT_SPANS),
        "drift.extract_snapshots.records": attrs["drift.extract_snapshots:records"],
        "drift.predict.s": sum(dur[name] for name in PREDICT_SPANS),
        "condexp.normal_condition": attrs["condexp.solve_regularized:condition"],
        "drift.model_json.bytes": attrs["drift.save_drift_model:bytes"],
        "evaluation.relative_l2_error.points_per_s": _rate(
            attrs["evaluation.relative_l2_error:points"], dur["evaluation.relative_l2_error"]),
        "evaluation.compare_orbits.steps": steps,
        "evaluation.compare_orbits.steps_per_s": _rate(steps, dur["evaluation.compare_orbits"]),
        "evaluation.compare_orbits.extrapolated_fraction":
            _rate(attrs["evaluation.compare_orbits:extrapolated"], steps),
    }
    for label in ("eps1", "eps3"):
        name = f"kernels.markov_apply.{label}"
        values[f"{name}.entries_evaluated"] = attrs[f"{name}:entries"]
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if metric in values:
            continue
        if kind == "self_s":
            values[metric] = own[base]
        elif kind == "s":
            values[metric] = dur[base]
        elif kind == "share":
            values[metric] = _rate(dur[base], dur["cell"])
        elif kind == "self_share":
            values[metric] = _rate(own[base], dur["cell"])
    return values


def fit_accounting(tracer: Tracer, selfs: list[float]) -> list[dict]:
    """Per fit span: its duration against the self times of its subtree."""
    children = defaultdict(list)
    for s in tracer.spans:
        if s.parent is not None:
            children[s.parent].append(s.id)
    out = []
    for s in tracer.spans:
        if s.name not in FIT_SPANS:
            continue
        stack, total = [s.id], 0.0
        while stack:
            i = stack.pop()
            total += selfs[i]
            stack.extend(children[i])
        out.append({"cell": s.cell, "span_s": s.duration, "self_sum_s": total})
    return out


def nnz_fraction(rows: np.ndarray, epsilon: float, theta_zero: float) -> float:
    """Share of (row, column) pairs whose Gaussian value reaches theta_zero.

    ``exp(-r^2 / eps) >= theta_zero`` exactly when
    ``r <= sqrt(eps ln(1 / theta_zero))``; pairs within that radius are
    counted with a k-d tree, independently of the library's kernels.
    """
    tree = cKDTree(rows)
    radius = float(np.sqrt(epsilon * np.log(1.0 / theta_zero)))
    return float(tree.count_neighbors(tree, radius)) / len(rows) ** 2


# --- child processes -----------------------------------------------------------


def _child(args, extra: list, env=None) -> dict:
    """Run perfbench/run.py in a fresh process and parse its last line."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), *(["--toy"] if args.toy else []), *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {extra} failed with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def single_thread_fit(args, workload: wl.Workload) -> dict:
    """Child-process mode: one fit of the saved training path, warm, timed."""
    data = np.load(args.ref_fit)
    train = systems.Trajectory(dt=float(data["dt"]), points=data["points"])
    params = condexp.CondExpParams(n_centers=workload.n_centers)
    start = time.perf_counter()
    model = wl.fit(workload, train, params)
    return {"fit_s": time.perf_counter() - start, "digest": wl.digest(model.coefficients)}


# --- environment --------------------------------------------------------------


def environment(args) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "toy": args.toy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# --- driver -----------------------------------------------------------------


def run(args, t0: float) -> int:
    workload = wl.WORKLOADS[args.workload]
    if args.toy:
        workload = wl.toy(workload)
    if args.ref_fit:
        wl.warm_up()
        print(json.dumps(single_thread_fit(args, workload)))
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl.warm_up()
        inputs = wl.make_inputs(workload, args.seed, workdir)
        setup = [time.perf_counter() - t0]
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0]}))
            return 0
        setup += [_child(args, ["--setup-only"])["setup_s"] for _ in range(SETUP_CHILDREN)]
        result = measure(args, workload, inputs)
        result["setup_samples_s"] = setup
        result["end_to_end"]["setup_s"] = statistics.median(setup)
        result["end_to_end"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if args.trace:
            result["per_layer"].update(reference_fit(args, workload, result, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result["environment"] = environment(args)
    report(args, tag, result)
    return 0


def measure(args, workload: wl.Workload, inputs: wl.Inputs) -> dict:
    tracer, captured = Tracer(), {}
    cells: list[Cell] = []
    digest = None
    start = time.perf_counter()

    def more(minimum, traced):
        done = sum(1 for c in cells if c.traced == traced)
        return done < minimum or time.perf_counter() - start < args.seconds

    try:
        if args.trace:
            # one untraced cell: the base of the tracing overhead, and the
            # digest the traced cells must reproduce
            cells.append(Cell(0, traced=False))
            digest = timed_cell(tracer, inputs, cells[-1], digest)
            install(tracer, captured)
        while more(1 if args.trace else 2, bool(args.trace)):
            cells.append(Cell(len(cells), traced=bool(args.trace)))
            digest = timed_cell(tracer, inputs, cells[-1], digest)
    finally:
        tracer.restore()

    attempted = sum(len(c.phases) for c in cells)
    failed = sum(len(c.failures) for c in cells)
    plain = [c for c in cells if not c.traced]
    result = {
        "attempted": attempted,
        "failed": failed,
        "cells": [vars(c) for c in cells],
        "end_to_end": end_to_end(tracer, plain),
        "rel_l2": _median([c.rel_l2 for c in cells if c.rel_l2 is not None]),
        "per_layer": {},
        "spans": tracer.spans,
    }
    if not args.trace:
        return result

    traced = [c for c in cells if c.traced]
    selfs = self_times(tracer.spans)
    per_cell = [_layer_values(tracer, selfs, c.index) for c in traced if c.ok]
    layer = {m: _median([v[m] for v in per_cell]) for m in per_cell[0]} if per_cell else {}
    for label in ("eps1", "eps3"):
        if label in captured:
            layer[f"kernels.markov_apply.{label}.nnz_fraction"] = nnz_fraction(*captured[label])
    base = end_to_end(tracer, plain).get("cell_s")
    with_trace = end_to_end(tracer, traced).get("cell_s")
    if base and with_trace:
        layer["trace.overhead_s"] = with_trace - base
        layer["trace.overhead_fraction"] = (with_trace - base) / base
    layer["rel_l2"] = result["rel_l2"]
    layer["error_rate"] = failed / attempted if attempted else None
    result["per_layer"] = layer
    result["fit_accounting"] = fit_accounting(tracer, selfs)
    result["train"] = captured.get("train")
    return result


def reference_fit(args, workload, result, workdir: Path) -> dict:
    """Repeat one fit of the training path in a child pinned to one BLAS thread."""
    train = result.pop("train")
    if train is None:
        return {}
    path = workdir / "ref_train.npz"
    np.savez(path, points=train.points, dt=train.dt)
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    ref = _child(args, ["--ref-fit", str(path)], env=env)
    result["single_thread_reference"] = ref
    return {"ref.single_thread.fit_s": ref["fit_s"]}


def report(args, tag: str, result: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    write_spans(result.pop("spans"), OUT / f"{tag}-spans.json")
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")

    names = PER_LAYER if args.trace else END_TO_END
    values = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in names.items()}
    correct = result["failed"] == 0 and result["attempted"] > 0
    print(f"{args.workload} seed={args.seed} trace={args.trace} cells={len(result['cells'])} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"rel_l2={result['rel_l2']}")
    for cell in result["cells"]:
        for phase, reasons in cell["failures"].items():
            print(f"  FAILED cell {cell['index']} {phase}: {'; '.join(reasons)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(f"environment: {json.dumps(result['environment'], sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
