"""The four benchmark workloads, built only through fanetsim's public API.

Each workload turns a seed into a ready-to-run pass: ``make(name, seed)``
builds the configuration (the part a user pays once, timed as set-up), and
``Workload.run()`` performs one pass and returns its output bytes, which
are hashed into the fingerprint.  Why each workload exists, and which
layer it is meant to stress, is recorded in ``NOTES.md`` next to this file.

``fanetsim`` must be importable before this module is imported; the
caller puts the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass, replace
from typing import Callable

from fanetsim import analysis, simharness
from fanetsim.cli import build_experiment_config, load_config

NAMES = ("fig3_nodes", "fig5_speed", "wide_area", "bounds_grid")

DEFAULT_SEED = 0  # fingerprints.json also records held-out seed 9001

# Pass sizes.  A full-size pass takes roughly 0.3-0.7 s on a 2-vCPU Xeon
# virtual machine, so a 20 s run times 24-60 passes; a wide_area pass takes
# 2-4 s.  wide_area routes 200 sessions because one Dijkstra session can
# cost three times the median one, and the pass total must vary little
# from seed to seed.
FIG3_RUNS = 3
FIG5_RUNS = 8
WIDE_NODES = 400
WIDE_AREA = "40km"
WIDE_RUNS = 2
WIDE_SESSIONS = 100
WIDE_MAX_HOPS = 40
BOUNDS_NODES = (5, 10, 20, 50, 100)
BOUNDS_DISTANCES = 28
BOUNDS_EPSILONS = (0.01, 0.05, 0.1)
AREA_SIDE = 10_000.0
COMM_RANGE = 5_000.0

# Toy sizes, used only by selfcheck.py.
_TOY = {
    "fig3_nodes": {"runs": 1},
    "fig5_speed": {"runs": 1},
    "wide_area": {"nodes": 60, "area": "20km", "runs": 1, "sessions": 5, "max_hops": 20},
    "bounds_grid": {"nodes": (5, 20), "distances": 4},
}


@dataclass
class Workload:
    name: str
    seed: int
    size: int  # routed sessions x algorithms, or reports for bounds_grid
    size_unit: str
    run: Callable[[], bytes]
    check: Callable[[bytes], str | None]  # None when the output is sane


def fingerprint(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()


def make(name: str, seed: int, toy: bool = False) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    return _BUILDERS[name](seed, _TOY[name] if toy else {})


def _experiment_config(overrides: list[str]):
    return build_experiment_config(load_config(None, overrides))


def _sim_workload(name, seed, cfg, entry, values, algorithms) -> Workload:
    def run() -> bytes:
        # Looked up per call, so a traced pass sees the wrapped entry point.
        return getattr(simharness, entry)(cfg).to_csv().encode()

    n_rows = len(values) * len(algorithms) * len(simharness.METRICS)
    return Workload(
        name=name,
        seed=seed,
        size=len(values) * cfg.runs * cfg.sessions_per_run * len(algorithms),
        size_unit="session-algorithms",
        run=run,
        check=lambda out: _check_csv(out, n_rows),
    )


def _fig3(seed: int, toy: dict) -> Workload:
    runs = toy.get("runs", FIG3_RUNS)
    cfg = _experiment_config(
        [f"experiment.runs={runs}", f"experiment.seed={seed}", "experiment.workers=1"]
    )
    return _sim_workload(
        "fig3_nodes",
        seed,
        cfg,
        "figure3_dataset",
        simharness.DEFAULT_NODE_SWEEP,
        (simharness.Algorithm.GREEDY_PREDICTIVE,),
    )


def _fig5(seed: int, toy: dict) -> Workload:
    runs = toy.get("runs", FIG5_RUNS)
    cfg = _experiment_config(
        [
            f"mobility.time_step={simharness.DYNAMIC_TIME_STEP:g}",
            f"experiment.runs={runs}",
            f"experiment.seed={seed}",
            "experiment.workers=1",
        ]
    )
    return _sim_workload(
        "fig5_speed",
        seed,
        cfg,
        "figure5_dataset",
        simharness.DEFAULT_SPEED_SWEEP,
        tuple(simharness.Algorithm),
    )


def _wide(seed: int, toy: dict) -> Workload:
    nodes = toy.get("nodes", WIDE_NODES)
    cfg = _experiment_config(
        [
            f"net.n_nodes={nodes}",
            f"net.area_side={toy.get('area', WIDE_AREA)}",
            f"mobility.time_step={simharness.DYNAMIC_TIME_STEP:g}",
            f"experiment.runs={toy.get('runs', WIDE_RUNS)}",
            f"experiment.sessions_per_run={toy.get('sessions', WIDE_SESSIONS)}",
            f"experiment.max_hops={toy.get('max_hops', WIDE_MAX_HOPS)}",
            f"experiment.seed={seed}",
            "experiment.workers=1",
        ]
    )
    algorithms = tuple(simharness.Algorithm)
    cfg = replace(
        cfg, sweep=simharness.SweepSpec("n_nodes", (nodes,)), algorithms=algorithms
    )
    return _sim_workload(
        "wide_area", seed, cfg, "run_experiment", (nodes,), algorithms
    )


def _check_csv(out: bytes, n_rows: int) -> str | None:
    rows = list(csv.DictReader(io.StringIO(out.decode())))
    if len(rows) != n_rows:
        return f"expected {n_rows} CSV rows, got {len(rows)}"
    for row in rows:
        if row["metric"] == "success_rate" and not 0.0 <= float(row["mean"]) <= 1.0:
            return f"success_rate out of [0, 1]: {row}"
    return None


def _bounds(seed: int, toy: dict) -> Workload:
    node_counts = toy.get("nodes", BOUNDS_NODES)
    n_dist = toy.get("distances", BOUNDS_DISTANCES)
    nets = [analysis.NetworkParams(n, AREA_SIDE, COMM_RANGE) for n in node_counts]
    # One distance per equal-width stratum of (0, sqrt(2)*L], placed by the seed.
    rng = random.Random(seed)
    width = math.sqrt(2.0) * AREA_SIDE / n_dist
    distances = [(k + 1 - rng.random()) * width for k in range(n_dist)]

    def run() -> bytes:
        lines = []
        for net in nets:
            for d in distances:
                r = analysis.bounds_report(net, d)
                lines.append(
                    ",".join(
                        format(v, ".12g")
                        for v in (
                            net.n_nodes,
                            r.src_dst_distance,
                            r.hops_lower,
                            r.hops_upper,
                            r.dist_lower,
                            r.dist_upper,
                            r.p_isolation,
                            r.p_success_lower,
                            r.p_success_upper,
                        )
                    )
                )
            for eps in BOUNDS_EPSILONS:
                r_min = analysis.min_range_for_isolation(net, eps)
                lines.append(f"{net.n_nodes},{eps:.12g},{r_min:.12g}")
        return ("\n".join(lines) + "\n").encode()

    def check(out: bytes) -> str | None:
        reports = [ln.split(",") for ln in out.decode().splitlines()]
        reports = [[float(v) for v in ln] for ln in reports if len(ln) == 9]
        if len(reports) != len(nets) * n_dist:
            return f"expected {len(nets) * n_dist} reports, got {len(reports)}"
        for _, _, h_lo, h_hi, d_lo, d_hi, _, s_lo, s_hi in reports:
            if not (1.0 <= h_lo <= h_hi and d_lo <= d_hi and 0.0 <= s_lo <= s_hi <= 1.0):
                return "corridor bounds out of order"
        return None

    return Workload(
        name="bounds_grid",
        seed=seed,
        size=len(nets) * n_dist,
        size_unit="reports",
        run=run,
        check=check,
    )


_BUILDERS = {"fig3_nodes": _fig3, "fig5_speed": _fig5, "wide_area": _wide, "bounds_grid": _bounds}
