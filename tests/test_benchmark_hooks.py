"""The benchmark's traced run binds library parameter names and counts the
fit's Markov passes; a toy cell run under its hooks breaks here, in
seconds, when a rename or a dropped pass would break ``perfbench --trace 1``.
"""

from pathlib import Path

import numpy as np

from kerneldrift import CondExpParams, drift, evaluation, make_spec, systems

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_cell_binds_every_hook(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    from tracing import Tracer

    tracer, captured = Tracer(), {}
    try:
        bench.install(tracer, captured)
        # through the module attributes the benchmark's cells call
        with tracer.span("cell"):
            hopf = make_spec("hopf", sigma_noise=0.2)
            path = systems.simulate(hopf, [1.0, 0.0], n_samples=300, dt=0.01, seed=0,
                                    burn_in=10, substeps=2)
            systems.save_trajectory(path, tmp_path / "trajectory.csv")
            path = systems.load_trajectory(tmp_path / "trajectory.csv")
            model = drift.estimate_drift(path, CondExpParams(n_centers=40))
            drift.save_drift_model(model, tmp_path / "model.json")
            evaluation.relative_l2_error(model, evaluation.system_field(hopf),
                                         path.points[:50])
            evaluation.compare_orbits(hopf, model, path.points[0], horizon=0.1, dt=0.01)
            lorenz96 = make_spec("lorenz96", sigma_noise=0.2, N=5)
            cells = systems.simulate(lorenz96, 8.0 + np.arange(5.0), n_samples=200,
                                     dt=0.01, seed=1, burn_in=10, substeps=2)
            snapshots = drift.extract_snapshots(cells, drift.Stencil.cyclic(5))
            drift.estimate_drift_sparse(snapshots, CondExpParams(n_centers=40))
    finally:
        tracer.restore()

    assert {"eps1", "eps3", "train"} <= captured.keys()
    assert any(s.name == "kernels.markov_apply.eps3" for s in tracer.spans)


def test_multi_block_fit_spans_nest(monkeypatch):
    # a fit of more than two 512-row section blocks: the tracer keeps one
    # span stack, so every wrapped call runs on the caller's thread and each
    # span closes inside its parent, with one fit section span per row block
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    from tracing import Tracer

    hopf = make_spec("hopf", sigma_noise=0.2)
    path = systems.simulate(hopf, [1.0, 0.0], n_samples=1200, dt=0.01, seed=3, burn_in=10)
    records = len(drift.increment_targets(path)[0])
    tracer = Tracer()
    try:
        bench.install(tracer, {})
        with tracer.span("cell"):
            drift.estimate_drift(path, CondExpParams(n_centers=40))
    finally:
        tracer.restore()

    for span in tracer.spans:
        parent = tracer.parent_of(span)
        assert span.start <= span.end
        if parent is not None:
            assert parent.start <= span.start and span.end <= parent.end
    sections = [s for s in tracer.spans if s.name == "kernels.section_matrix.fit"]
    assert {tracer.parent_of(s).name for s in sections} == {"condexp.fit_targets"}
    assert records > 2 * 512
    assert [s.attrs["rows"] for s in sections] == [512, 512, records - 2 * 512]
