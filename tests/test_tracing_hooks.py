"""The benchmark's tracer must still find every name it wraps.

``perfbench/tracing.py`` patches module globals and methods by name
(``simharness.route_greedy``, ``simharness.execute_path``, the
``simharness.hop_bounds`` re-import, ...).  This test installs it around
one small experiment, so renaming or deleting such a name fails here and
not only in a traced benchmark run.  It reads ``perfbench/`` and changes
nothing there.
"""

import importlib.util
import sys
from pathlib import Path

from fanetsim import analysis, geometry, routing, simharness
from fanetsim.analysis import NetworkParams
from fanetsim.mobility_config import MobilityConfig
from fanetsim.simharness import Algorithm, ExperimentConfig, SweepSpec, run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_recorder_wraps_and_restores_the_library():
    cfg = ExperimentConfig(
        mobility=MobilityConfig(time_step=30.0),
        sweep=SweepSpec("mean_speed", (10.0, 100.0)),
        algorithms=tuple(Algorithm),
        runs=2,
        sessions_per_run=5,
    )
    rec = tracing.Recorder()
    rec.install()
    try:
        result = run_experiment(cfg)
    finally:
        rec.uninstall()
    assert simharness.route_greedy is routing.route_greedy
    assert simharness.execute_path is routing.execute_path
    assert rec.check_spans() is None

    m = rec.layer_metrics()
    delivered = sum(d for d, _ in result.session_counts.values())
    attempted = sum(a for _, a in result.session_counts.values())
    statuses = ("delivered", "stuck", "hop_cap", "link_broken")
    assert m["routing.sessions.delivered"] == delivered
    assert sum(m[f"routing.sessions.{s}"] for s in statuses) == attempted
    assert m["routing.greedy.calls"] == 2 * attempted // 3
    assert m["routing.dijkstra.calls"] == attempted // 3
    assert m["routing.next_hop.calls"] > 0
    # every greedy hop choice scans its neighbors through the wrapped
    # method, and hops are judged through the wrapped distance
    assert m["topology.neighbors.calls"] == m["routing.next_hop.calls"]
    assert m["topology.distance.calls"] > 0


def test_recorder_counts_every_integrand_evaluation(monkeypatch):
    # One report with d > R on a cold cache runs two quadratures.  The
    # evaluations are counted at adaptive_quadrature's integrand, not at
    # the progress_cdf global the tracer wraps, so a quadrature whose
    # integrand bypasses that global fails here.
    evals = 0
    quadrature = geometry.adaptive_quadrature

    def counting_quadrature(f, *args, **kwargs):
        def counted(y):
            nonlocal evals
            evals += 1
            return f(y)

        return quadrature(counted, *args, **kwargs)

    monkeypatch.setattr(geometry, "adaptive_quadrature", counting_quadrature)
    cdf = geometry.progress_cdf
    analysis._worst_case_progress.cache_clear()
    rec = tracing.Recorder()
    rec.install()
    try:
        analysis.bounds_report(NetworkParams(10, 10_000.0, 5_000.0), 7_500.0)
    finally:
        rec.uninstall()
    analysis._worst_case_progress.cache_clear()
    assert geometry.progress_cdf is cdf
    assert rec.check_spans() is None

    m = rec.layer_metrics()
    assert m["analysis.bounds_report.calls"] == 1
    assert m["geometry.expected_progress.calls"] == 2
    assert evals > 0
    assert m["geometry.integrand_evals"] == evals
