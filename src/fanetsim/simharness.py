"""Seeded Monte Carlo experiment driver.

An experiment sweeps one parameter (node count, mean speed, ...), runs a
number of independent deployments per sweep value, routes a batch of
source/destination sessions per deployment with each enabled algorithm,
and aggregates per-run means into a mean +/- standard error per cell.
Analytical corridors (hop count, travel distance, delivery success) are
attached at each cell's empirical mean source-destination distance over
*all* sessions (``cell_mean_d``), read from one
:func:`~fanetsim.analysis.bounds_report` per cell, the same path that
``fanetsim bounds`` prints.

Reproducibility: every random stream derives from
(seed, sweep_index, run_index), and aggregation is an ordered reduction,
so results are bitwise identical across repeat invocations and across
worker counts.  Within one run, all algorithms replay the same mobility
trace, which makes the comparison paired; the trace steps the fleet only
as far as the furthest session reads (see ``record_trace``).

Metric conventions per cell and algorithm:

* ``success_rate``: delivered sessions / attempted sessions.
* ``hop_count``, ``distance``: means over delivered sessions only (a
  failed session has no completed journey).  Their CSV ``bound_*``
  columns are evaluated at the all-session ``cell_mean_d``; failed
  sessions are the long ones, so that separation overstates the one the
  means describe.  ``ExperimentResult.delivered_mean_d`` gives the
  separation of the delivered sessions, weighted as these metrics weight
  them, for a corridor on the matching population.
* ``power``: summed squared link lengths of *all* attempts divided by the
  number of delivered packets, i.e. transmit energy per delivered packet
  with the energy wasted on failed attempts amortized in, matching the
  re-initiation semantics of a failed journey.
"""

from __future__ import annotations

import json
import math
import multiprocessing
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .analysis import NetworkParams, bounds_report
# Module attributes that perfbench/tracing.py wraps by name; they are not
# called here since the corridors come from bounds_report.
from .analysis import expected_total_distance, hop_bounds, success_probability  # noqa: F401
from .mobility import Fleet, MobilityConfig
from .routing import (
    PathWeight,
    SessionOutcome,
    SessionStatus,
    execute_path,
    route_dijkstra,
    route_greedy,
)
from .topology import ContactSnapshot, NetworkTrace

__all__ = [
    "Algorithm",
    "ExperimentConfig",
    "ExperimentResult",
    "ResultRow",
    "SweepSpec",
    "baseline_config",
    "figure3_dataset",
    "figure4_dataset",
    "figure5_dataset",
    "figure6_dataset",
    "record_trace",
    "run_experiment",
]

METRICS = ("success_rate", "hop_count", "distance", "power")

DEFAULT_NODE_SWEEP = (5, 10, 15, 20, 25, 30)
DEFAULT_SPEED_SWEEP = (10.0, 30.0, 50.0, 70.0, 100.0)

# Hop duration for the velocity-sweep figures.  The transmission timing is
# not fixed by the underlying model; this value makes the topology move
# appreciably during a multi-hop session so the velocity sweeps actually
# exercise the dynamics.
DYNAMIC_TIME_STEP = 30.0

# Stream namespace (spawn key) for the per-run session-pair draws; node
# streams use small spawn keys, so keep this one far away.
_PAIR_STREAM = 1_000_003


class Algorithm(Enum):
    GREEDY_PREDICTIVE = "greedy_predictive"
    GREEDY_STATIC = "greedy_static"
    DIJKSTRA_STATIC = "dijkstra_static"


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter: a NetworkParams or MobilityConfig field name."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("sweep values must be non-empty")


@dataclass(frozen=True)
class ExperimentConfig:
    net: NetworkParams
    mobility: MobilityConfig
    sweep: SweepSpec
    algorithms: tuple[Algorithm, ...] = (Algorithm.GREEDY_PREDICTIVE,)
    runs: int = 100
    sessions_per_run: int = 10
    seed: int = 0
    max_hops: int = 0  # 0: four times the node count
    dijkstra_weight: PathWeight = PathWeight.DISTANCE
    refresh_destination: bool = True
    workers: int = 1

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs!r}")
        if self.sessions_per_run < 1:
            raise ValueError(
                f"sessions_per_run must be >= 1, got {self.sessions_per_run!r}"
            )
        if not self.algorithms:
            raise ValueError("at least one algorithm required")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if self.max_hops < 0:
            raise ValueError(f"max_hops must be >= 0, got {self.max_hops!r}")
        if self.net.area_side != self.mobility.area_side:
            raise ValueError(
                f"net.area_side {self.net.area_side!r} differs from "
                f"mobility.area_side {self.mobility.area_side!r}"
            )
        net_fields = ("n_nodes", "area_side", "comm_range")
        mob_fields = tuple(MobilityConfig.__dataclass_fields__)
        if self.sweep.name not in net_fields + mob_fields:
            raise ValueError(
                f"unknown sweep parameter {self.sweep.name!r}; "
                f"expected one of {net_fields + mob_fields}"
            )

    def hop_cap(self, n_nodes: int) -> int:
        """A session's hop budget and its trace's length: ``max_hops``, or
        four times the node count when ``max_hops`` is 0."""
        return self.max_hops or 4 * n_nodes


@dataclass(frozen=True)
class ResultRow:
    sweep_param: str
    value: float
    algorithm: str
    metric: str
    mean: float
    stderr: float
    bound_lower: float | None
    bound_upper: float | None


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated rows plus the per-cell populations behind them.

    ``cell_mean_d`` maps each sweep value to the mean source-destination
    separation over all sessions; the CSV ``bound_*`` columns of every
    metric are evaluated there.  ``delivered_mean_d`` maps
    ``(value, algorithm.value)`` to the mean over runs of each run's mean
    separation over its delivered sessions, with the same runs and
    weights as the ``hop_count`` and ``distance`` rows, so a corridor
    evaluated there describes the population those rows average.
    ``session_counts`` maps ``(value, algorithm.value)`` to the pooled
    ``(delivered, attempted)`` session counts behind ``success_rate``.
    Neither of the last two appears in the CSV or the provenance JSON.
    """

    rows: tuple[ResultRow, ...]
    config: dict
    cell_mean_d: dict
    delivered_mean_d: dict
    session_counts: dict

    def get(self, value, algorithm: Algorithm, metric: str) -> ResultRow:
        for row in self.rows:
            if (
                row.value == value
                and row.algorithm == algorithm.value
                and row.metric == metric
            ):
                return row
        raise KeyError((value, algorithm, metric))

    def to_csv(self) -> str:
        lines = ["sweep_param,value,algorithm,metric,mean,stderr,bound_lower,bound_upper"]
        for r in self.rows:
            lines.append(
                ",".join(
                    (
                        r.sweep_param,
                        _fmt(r.value),
                        r.algorithm,
                        r.metric,
                        _fmt(r.mean),
                        _fmt(r.stderr),
                        _fmt(r.bound_lower),
                        _fmt(r.bound_upper),
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())

    def provenance(self, overrides: list[str] | None = None) -> str:
        payload = {
            "config": self.config,
            "overrides": list(overrides or []),
            "cell_mean_d": {str(k): v for k, v in self.cell_mean_d.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write_provenance(self, path, overrides: list[str] | None = None) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.provenance(overrides))


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float) and math.isnan(v):
        return ""
    return format(v, ".12g")


def record_trace(fleet: Fleet, comm_range: float, n_steps: int) -> NetworkTrace:
    """Trace of n_steps steps from the fleet's current state.  The trace
    owns the fleet and steps it only when a cursor first reads a step."""
    return NetworkTrace(
        (ContactSnapshot.of_fleet(fleet, comm_range),), fleet, n_steps
    )


def _cell_params(
    cfg: ExperimentConfig, value
) -> tuple[NetworkParams, MobilityConfig]:
    name = cfg.sweep.name
    if name == "n_nodes":
        return replace(cfg.net, n_nodes=int(value)), cfg.mobility
    if name in ("area_side", "comm_range"):
        net = replace(cfg.net, **{name: float(value)})
        if name == "area_side":
            return net, replace(cfg.mobility, area_side=float(value))
        return net, cfg.mobility
    return cfg.net, replace(cfg.mobility, **{name: float(value)})


def _draw_pairs(
    rng: np.random.Generator, n: int, count: int
) -> list[tuple[int, int]]:
    """Ordered (source, dest) pairs, uniform without replacement."""
    total = n * (n - 1)
    if count > total:
        raise ValueError(
            f"cannot draw {count} distinct ordered pairs from {n} nodes"
        )
    picks = rng.choice(total, size=count, replace=False)
    pairs = []
    for k in picks:
        i, j_raw = divmod(int(k), n - 1)
        pairs.append((i, j_raw + (1 if j_raw >= i else 0)))
    return pairs


@dataclass
class _AlgStats:
    sessions: int = 0
    delivered: int = 0
    hops_sum: float = 0.0
    dist_sum: float = 0.0
    delivered_d_sum: float = 0.0
    power_total: float = 0.0

    def add(self, out: SessionOutcome) -> None:
        self.sessions += 1
        self.power_total += out.total_power
        if out.delivered:
            self.delivered += 1
            self.hops_sum += out.hop_count
            self.dist_sum += out.total_distance
            self.delivered_d_sum += out.initial_distance


def _route_session(
    alg: Algorithm,
    trace: NetworkTrace,
    source: int,
    dest: int,
    cfg: ExperimentConfig,
) -> SessionOutcome:
    """Route one session; its hop budget is the trace's length."""
    cursor = trace.cursor()
    if alg is Algorithm.GREEDY_PREDICTIVE:
        return route_greedy(
            cursor,
            source,
            dest,
            predictive=True,
            max_hops=trace.n_steps,
            refresh_destination=cfg.refresh_destination,
        )
    if alg is Algorithm.GREEDY_STATIC:
        return route_greedy(
            cursor, source, dest, predictive=False, max_hops=trace.n_steps
        )
    snap0 = cursor.snapshot()
    path = route_dijkstra(snap0, source, dest, cfg.dijkstra_weight)
    if path is None:
        return SessionOutcome(
            source,
            dest,
            snap0.distance(source, dest, use_predicted=False),
            (),
            SessionStatus.STUCK_NO_PROGRESS,
        )
    return execute_path(cursor, path, trace.n_steps)


def _run_one(cfg: ExperimentConfig, sweep_idx: int, run_idx: int) -> dict:
    """One deployment: start a trace, route every session with every
    algorithm, return plain-dict tallies (picklable for worker pools)."""
    value = cfg.sweep.values[sweep_idx]
    net, mobility = _cell_params(cfg, value)
    entropy = (cfg.seed, sweep_idx, run_idx)

    fleet = Fleet(mobility, net.n_nodes, entropy)
    trace = record_trace(fleet, net.comm_range, cfg.hop_cap(net.n_nodes))

    pair_rng = np.random.default_rng(
        np.random.SeedSequence(entropy, spawn_key=(_PAIR_STREAM,))
    )
    pairs = _draw_pairs(pair_rng, net.n_nodes, cfg.sessions_per_run)
    snap0 = trace.snapshot(0)
    sum_d = sum(
        snap0.distance(s, d, use_predicted=False) for s, d in pairs
    )

    per_alg: dict[str, _AlgStats] = {a.value: _AlgStats() for a in cfg.algorithms}
    for alg in cfg.algorithms:
        stats = per_alg[alg.value]
        for source, dest in pairs:
            stats.add(_route_session(alg, trace, source, dest, cfg))

    return {
        "sweep_idx": sweep_idx,
        "run_idx": run_idx,
        "sum_d": sum_d,
        "n_sessions": len(pairs),
        "per_alg": {
            name: {
                "sessions": s.sessions,
                "delivered": s.delivered,
                "hops_sum": s.hops_sum,
                "dist_sum": s.dist_sum,
                "delivered_d_sum": s.delivered_d_sum,
                "power_total": s.power_total,
            }
            for name, s in per_alg.items()
        },
    }


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    if not values:
        return math.nan, math.nan
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    for value in cfg.sweep.values:
        net, _ = _cell_params(cfg, value)
        if cfg.sessions_per_run > net.n_nodes * (net.n_nodes - 1):
            raise ValueError(
                f"sessions_per_run={cfg.sessions_per_run} exceeds the number "
                f"of ordered pairs for n_nodes={net.n_nodes}"
            )

    tasks = [
        (cfg, si, ri)
        for si in range(len(cfg.sweep.values))
        for ri in range(cfg.runs)
    ]
    if cfg.workers > 1:
        with multiprocessing.Pool(cfg.workers) as pool:
            results = pool.starmap(_run_one, tasks, chunksize=1)
    else:
        results = [_run_one(*t) for t in tasks]

    rows: list[ResultRow] = []
    cell_mean_d: dict = {}
    delivered_mean_d: dict = {}
    session_counts: dict = {}
    for si, value in enumerate(cfg.sweep.values):
        cell = results[si * cfg.runs : (si + 1) * cfg.runs]
        net, _ = _cell_params(cfg, value)
        mean_d = sum(r["sum_d"] for r in cell) / sum(r["n_sessions"] for r in cell)
        cell_mean_d[value] = mean_d

        rep = bounds_report(net, mean_d)
        bounds = {
            "success_rate": (rep.p_success_lower, rep.p_success_upper),
            "hop_count": (rep.hops_lower, rep.hops_upper),
            "distance": (rep.dist_lower, rep.dist_upper),
            "power": (None, None),
        }

        for alg in cfg.algorithms:
            per_run = [r["per_alg"][alg.value] for r in cell]
            success = [r["delivered"] / r["sessions"] for r in per_run]
            hops = [
                r["hops_sum"] / r["delivered"] for r in per_run if r["delivered"]
            ]
            dist = [
                r["dist_sum"] / r["delivered"] for r in per_run if r["delivered"]
            ]
            power = [
                r["power_total"] / r["delivered"]
                for r in per_run
                if r["delivered"]
            ]
            delivered_d = [
                r["delivered_d_sum"] / r["delivered"]
                for r in per_run
                if r["delivered"]
            ]
            delivered_mean_d[value, alg.value] = _mean_stderr(delivered_d)[0]
            session_counts[value, alg.value] = (
                sum(r["delivered"] for r in per_run),
                sum(r["sessions"] for r in per_run),
            )
            for metric, values in (
                ("success_rate", success),
                ("hop_count", hops),
                ("distance", dist),
                ("power", power),
            ):
                mean, stderr = _mean_stderr(values)
                lo, hi = bounds[metric]
                rows.append(
                    ResultRow(
                        sweep_param=cfg.sweep.name,
                        value=value,
                        algorithm=alg.value,
                        metric=metric,
                        mean=mean,
                        stderr=stderr,
                        bound_lower=lo,
                        bound_upper=hi,
                    )
                )

    return ExperimentResult(
        rows=tuple(rows),
        config=_config_echo(cfg),
        cell_mean_d=cell_mean_d,
        delivered_mean_d=delivered_mean_d,
        session_counts=session_counts,
    )


def _config_echo(cfg: ExperimentConfig) -> dict:
    return {
        "net": {
            "n_nodes": cfg.net.n_nodes,
            "area_side": cfg.net.area_side,
            "comm_range": cfg.net.comm_range,
        },
        "mobility": {
            "area_side": cfg.mobility.area_side,
            "mean_speed": cfg.mobility.mean_speed,
            "mean_wait": cfg.mobility.mean_wait,
            "transition_prob": cfg.mobility.transition_prob,
            "time_step": cfg.mobility.time_step,
            "prediction_noise_var": cfg.mobility.prediction_noise_var,
            "prediction_horizon": cfg.mobility.prediction_horizon,
            "mean_turn_radius": cfg.mobility.mean_turn_radius,
        },
        "sweep": {"name": cfg.sweep.name, "values": list(cfg.sweep.values)},
        "algorithms": [a.value for a in cfg.algorithms],
        "runs": cfg.runs,
        "sessions_per_run": cfg.sessions_per_run,
        "seed": cfg.seed,
        "max_hops": cfg.max_hops,
        "dijkstra_weight": cfg.dijkstra_weight.value,
        "refresh_destination": cfg.refresh_destination,
        "workers": cfg.workers,
    }


def baseline_config(**overrides) -> ExperimentConfig:
    """Defaults of the reference experiment setup; fields overridable."""
    params = {
        "net": NetworkParams(n_nodes=10, area_side=10_000.0, comm_range=5_000.0),
        "mobility": MobilityConfig(),
        "sweep": SweepSpec("n_nodes", DEFAULT_NODE_SWEEP),
        "algorithms": (Algorithm.GREEDY_PREDICTIVE,),
        "runs": 100,
        "sessions_per_run": 10,
        "seed": 0,
    }
    params.update(overrides)
    return ExperimentConfig(**params)


def _dynamic_mobility(mobility: MobilityConfig) -> MobilityConfig:
    return replace(mobility, time_step=DYNAMIC_TIME_STEP)


def figure3_dataset(cfg: ExperimentConfig | None = None) -> ExperimentResult:
    """Travel distance vs node count, with the analytical corridor."""
    if cfg is None:
        cfg = baseline_config()
    cfg = replace(
        cfg,
        sweep=SweepSpec("n_nodes", DEFAULT_NODE_SWEEP)
        if cfg.sweep.name != "n_nodes"
        else cfg.sweep,
        algorithms=(Algorithm.GREEDY_PREDICTIVE,),
    )
    return run_experiment(cfg)


def figure4_dataset(cfg: ExperimentConfig | None = None) -> ExperimentResult:
    """Delivery success vs node count, with the analytical corridor."""
    return figure3_dataset(cfg)


def figure5_dataset(cfg: ExperimentConfig | None = None) -> ExperimentResult:
    """Delivery success vs mean speed for all three algorithms."""
    if cfg is None:
        cfg = baseline_config(mobility=_dynamic_mobility(MobilityConfig()))
    cfg = replace(
        cfg,
        sweep=SweepSpec("mean_speed", DEFAULT_SPEED_SWEEP)
        if cfg.sweep.name != "mean_speed"
        else cfg.sweep,
        algorithms=(
            Algorithm.GREEDY_PREDICTIVE,
            Algorithm.GREEDY_STATIC,
            Algorithm.DIJKSTRA_STATIC,
        ),
        dijkstra_weight=PathWeight.DISTANCE,
    )
    return run_experiment(cfg)


def figure6_dataset(cfg: ExperimentConfig | None = None) -> ExperimentResult:
    """Transmit power per delivered packet vs mean speed, greedy vs Dijkstra."""
    if cfg is None:
        cfg = baseline_config(mobility=_dynamic_mobility(MobilityConfig()))
    cfg = replace(
        cfg,
        sweep=SweepSpec("mean_speed", DEFAULT_SPEED_SWEEP)
        if cfg.sweep.name != "mean_speed"
        else cfg.sweep,
        algorithms=(Algorithm.GREEDY_PREDICTIVE, Algorithm.DIJKSTRA_STATIC),
        dijkstra_weight=PathWeight.DISTANCE_SQUARED,
    )
    return run_experiment(cfg)
