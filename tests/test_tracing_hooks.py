"""The benchmark's tracer must still find every name it wraps.

``perfbench/tracing.py`` patches module globals and methods by name
(``simharness.route_greedy``, ``simharness.execute_path``, the
``simharness.hop_bounds`` re-import, ...).  These tests install it around
one small experiment, one corridor report and the four toy workloads, so
renaming or deleting such a name, or bypassing it, fails here and not
only in a traced benchmark run.  They read ``perfbench/`` and change
nothing there.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from fanetsim import analysis, geometry, routing, simharness
from fanetsim.analysis import NetworkParams
from fanetsim.mobility_config import MobilityConfig
from fanetsim.routing import SessionStatus
from fanetsim.simharness import Algorithm, ExperimentConfig, SweepSpec, run_experiment

pytestmark = pytest.mark.contract

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")


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
    counts = result.status_counts.values()
    delivered = sum(c[SessionStatus.DELIVERED] for c in counts)
    attempted = sum(sum(c.values()) for c in counts)
    cells = len(cfg.sweep.values) * len(cfg.algorithms)
    assert attempted == cells * cfg.runs * cfg.sessions_per_run
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
    # snapshots are counted through ContactSnapshot.__init__, which the
    # tracer patches on the class: every recorded snapshot is read, each
    # costs one prediction, and snapshot k follows exactly k advances
    recorded = m["topology.snapshots.recorded"]
    assert 0 < m["topology.snapshots.used"] == recorded == m["mobility.predict.calls"]
    assert m["mobility.advance.calls"] == recorded - m["mobility.fleet_init.calls"]


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


def test_tracer_blind_spots_are_the_known_ones():
    # Every span the tracer wraps fires on some toy workload, except these
    # two: the lens reaches the integrand through the private _lens, and
    # bounds_report derives the travel corridor without calling
    # expected_total_distance.  A refactor that bypasses another wrapped
    # name (progress_cdf, expected_progress, ...) grows this set and fails
    # here; fixing a blind spot shrinks it on purpose.
    workloads = _load("workloads")
    fired = set()
    for name in workloads.NAMES:
        w = workloads.make(name, 3, toy=True)
        analysis._worst_case_progress.cache_clear()
        rec = tracing.Recorder()
        rec.install()
        try:
            w.run()
        finally:
            rec.uninstall()
        assert rec.check_spans() is None
        fired |= {span[1] for span in rec.spans}
    analysis._worst_case_progress.cache_clear()
    never = {name for _, _, name in tracing._SPANS} - fired
    assert never == {"analysis.expected_total_distance", "geometry.lens_area"}
