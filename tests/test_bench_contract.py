"""The benchmark harness's bindings to the package hold.

``bench/tracer.py`` wraps package functions and ``ObjectiveEvaluator``
methods by name and reads the positional arguments of ``kernel_matrix`` and
the value of ``rgpm._worker_count``; ``bench/layers.py`` turns the recorded
spans into per-layer metrics; ``bench/workloads.py`` recomputes the sweep's
objectives from ``build_grid`` (called with a third positional argument) and
the grid's attributes, reads ``DetectionCurve`` fields and builds a
``RadarConfig`` from ``cfg.bandwidth``.  A package change that breaks one of
those bindings fails here rather than in a benchmark run.
"""

from pathlib import Path

import numpy as np
import pytest

from mafh import (AntennaLayout, ObjectiveEvaluator, RadarConfig, build_grid,
                  cli, generate_fh_code, random_feasible_layout)

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setenv("MAFH_THREADS", "4")
    import layers
    import tracer
    return tracer, layers


def _traced(tracer_mod, argv, only=None):
    """Spans of one ``mafh`` command run under the harness's tracer."""
    with tracer_mod.Tracer(only=only) as tr:
        assert cli.main(argv) == 0
    return tr.take()


def test_tracer_and_layer_metrics_bind(bench, tmp_path, capsys):
    tracer, layers = bench
    spans = _traced(tracer, ["tradeoff", "--resolution", "1", "--starts", "2",
                             "--kmax", "5", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert not [s for s in spans if s[6] and "error" in s[6]]
    wall = sum(s[5] - s[4] for s in spans if s[2] == "cli.main")
    m = layers.layer_metrics(spans, wall)
    assert m["objective.evaluators"] == 1          # one per command
    assert m["ambiguity.kernel_matrix.calls"] == 3
    assert m["ambiguity.kernel_matrix.samples"] > 0
    assert m["rgpm.multistart.calls"] == 3
    assert m["rgpm.optimize.calls"] == 6
    assert m["rgpm.iterations"] > 0
    assert m["objective.f.calls"] > 0 and m["objective.grad.calls"] > 0
    assert m["rgpm.f_evals_per_iter"] > 0
    assert m["rgpm.parallel_efficiency"] > 0       # workers from _worker_count
    assert m["output.write.calls"] == 1


@pytest.mark.parametrize("method_args", [
    ["--starts", "2", "--kmax", "3"],
    ["--method", "ga", "--generations", "2", "--population", "4"],
], ids=["rgpm", "ga"])
def test_tradeoff_builds_each_table_once_per_evaluator(bench, tmp_path, capsys,
                                                       method_args):
    tracer, _ = bench
    names = {"ambiguity.kernel_matrix", "objective.ObjectiveEvaluator.__init__"}
    spans = _traced(tracer, ["tradeoff", "--resolution", "2",
                             "--out-dir", str(tmp_path)] + method_args,
                    only=names)
    capsys.readouterr()
    evaluators = sum(s[2] == "objective.ObjectiveEvaluator.__init__"
                     for s in spans)
    tables = sum(s[2] == "ambiguity.kernel_matrix" for s in spans)
    assert evaluators == 1                         # for all 6 weight triples
    assert tables == 3


@pytest.mark.parametrize("name", ["screen", "detect"])
def test_workload_pass_passes_its_check(bench, tmp_path, name):
    """One pass as an untraced benchmark run makes it, then its check."""
    tracer, _ = bench
    import workloads
    cls = workloads.WORKLOADS[name]
    wl = cls(1, tmp_path)
    boundary = {cls.boundary} - {None}
    with tracer.Tracer(only=boundary, keep_results=boundary) as tr:
        p = wl.run_pass(0, tr)
    assert wl.check(p) == []


def test_sweep_check_recomputes_evaluator_objectives(bench, tmp_path):
    import workloads
    sweep = workloads.Sweep(0, tmp_path)
    lay = random_feasible_layout(8, 7.0, seed=3)
    fs, errors = sweep._objectives(0, lay, np.random.default_rng(0))
    assert errors == []
    cfg = RadarConfig()
    ref = AntennaLayout(d=np.full(7, 0.5), L=7.0)
    ev = ObjectiveEvaluator(build_grid(cfg, ref), generate_fh_code(cfg, 8, 0),
                            cfg)
    want = (ev.f1(lay.d), ev.f2(lay.d), ev.f3(lay.d))
    np.testing.assert_allclose(fs, want, rtol=1e-9, atol=0)
