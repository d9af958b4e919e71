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
(seed, sweep_index, run_index) in ``_deploy``, the one builder of a
deployment, and aggregation is an ordered reduction, so results are
bitwise identical across repeat invocations and across worker counts.
The aggregation sums exactly with ``math.fsum``, so a cell whose runs
all read the same value reports that value with a stderr of exactly 0.
The CLI's ``route`` and ``trace`` show run 0 of a one-cell, one-session
experiment at their seed.  Within one run, all algorithms replay the
same mobility trace, which makes the comparison paired; the trace steps
the fleet only as far as the furthest session reads (see ``record_trace``).
``run_experiment`` resolves each sweep value's ``(NetworkParams,
MobilityConfig)`` once, and every run and the aggregation of that value
share the pair.  A run tallies its sessions' statuses under their string
values, and the aggregation maps them back to :class:`SessionStatus`
once per cell, for ``ExperimentResult.status_counts``.

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
* ``stderr``: the standard error of a cell's per-run values; NaN (an
  empty CSV cell) when the cell holds one value, which has no spread to
  estimate, and exactly 0 when its values are all equal.

Importing this module loads no numpy, nor does the aggregation:
``_deploy`` and ``record_trace`` import numpy, ``Fleet`` and the topology
classes once per run, and ``run_experiment`` imports ``multiprocessing``
only to open a pool.
Before it opens one, it imports ``mobility`` and ``topology`` (numpy with
them), so the forked workers inherit them instead of each importing
numpy, and it hands the workers their runs in about four chunks each.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from typing import TYPE_CHECKING

from . import analysis
from .analysis import NetworkParams
# Module attributes that perfbench/tracing.py wraps by name; they are not
# called here since the corridors come from analysis.bounds_report.
from .analysis import expected_total_distance, hop_bounds, success_probability  # noqa: F401
from .mobility_config import MobilityConfig, _check_count
from .routing import (
    PathWeight,
    SessionOutcome,
    SessionStatus,
    execute_path,
    route_dijkstra,
    route_greedy,
)

if TYPE_CHECKING:
    import numpy as np
    from .mobility import Fleet
    from .topology import NetworkTrace

__all__ = [
    "Algorithm",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "FIGURES",
    "ResultRow",
    "SweepSpec",
    "figure3_dataset",
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


class ConfigError(ValueError):
    """Bad configuration: a file, key or value, a swept value its cell
    rejects, or sessions that a swept cell cannot draw."""


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
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("sweep values must be non-empty")
        for i, value in enumerate(self.values):
            if value in self.values[:i]:  # 10 and 10.0 would share a cell's key
                raise ValueError(f"sweep value {value!r} appears twice in {self.values!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; the defaults are the reference setup.  They, and
    each figure's entry in ``FIGURES``, are where the CLI's INI keys and
    defaults come from."""

    net: NetworkParams = NetworkParams(10, MobilityConfig.area_side, 5_000.0)
    mobility: MobilityConfig = MobilityConfig()
    sweep: SweepSpec = SweepSpec("n_nodes", DEFAULT_NODE_SWEEP)
    algorithms: tuple[Algorithm, ...] = (Algorithm.GREEDY_PREDICTIVE,)
    runs: int = 100
    sessions_per_run: int = 10
    seed: int = 0
    max_hops: int = 0  # 0: four times the node count
    dijkstra_weight: PathWeight = PathWeight.DISTANCE
    workers: int = 1

    def __post_init__(self) -> None:
        for name, minimum in (
            ("runs", 1), ("sessions_per_run", 1), ("seed", 0), ("max_hops", 0), ("workers", 1)
        ):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), minimum))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.algorithms:
            raise ValueError("at least one algorithm required")
        for alg in self.algorithms:
            if not isinstance(alg, Algorithm):
                raise ValueError(f"algorithms entry {alg!r} is not an Algorithm")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError(f"an algorithm appears twice in {self.algorithms!r}")
        if not isinstance(self.dijkstra_weight, PathWeight):
            raise ValueError(
                f"dijkstra_weight {self.dijkstra_weight!r} is not a PathWeight"
            )
        if self.net.area_side != self.mobility.area_side:
            raise ValueError(
                f"net.area_side {self.net.area_side!r} differs from "
                f"mobility.area_side {self.mobility.area_side!r}"
            )
        names = tuple(dict.fromkeys(  # area_side is a field of both
            f.name for f in fields(NetworkParams) + fields(MobilityConfig)))
        if self.sweep.name not in names:
            raise ValueError(
                f"unknown sweep parameter {self.sweep.name!r}; "
                f"expected one of {names}"
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
    ``status_counts`` maps the same keys to the pooled count of sessions
    ending in each :class:`SessionStatus` (every status present, zeros
    included): the ``DELIVERED`` count over the sum of all of them is the
    pooled ratio behind ``success_rate``.  None of the last three appears
    in the CSV or the provenance JSON.
    """

    rows: tuple[ResultRow, ...]
    config: dict
    cell_mean_d: dict
    delivered_mean_d: dict
    status_counts: dict

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

    def provenance(self, overrides: list[str] | None = None) -> str:
        payload = {
            "config": self.config,
            "overrides": list(overrides or []),
            "cell_mean_d": {str(k): v for k, v in self.cell_mean_d.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float) and math.isnan(v):
        return ""
    return format(v, ".12g")


def record_trace(fleet: Fleet, comm_range: float, n_steps: int) -> NetworkTrace:
    """Trace of n_steps steps from the fleet's current state.  The trace
    owns the fleet and steps it only when a cursor first reads a step."""
    from .topology import ContactSnapshot, NetworkTrace
    return NetworkTrace(
        (ContactSnapshot.of_fleet(fleet, comm_range),), fleet, n_steps
    )


def _cell_params(
    cfg: ExperimentConfig, value
) -> tuple[NetworkParams, MobilityConfig]:
    name = cfg.sweep.name
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} sweep value {value!r} is not a number")
    if name == "n_nodes":
        return replace(cfg.net, n_nodes=value), cfg.mobility
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
    picks = rng.choice(n * (n - 1), size=count, replace=False)
    pairs = []
    for k in picks:
        i, j_raw = divmod(int(k), n - 1)
        pairs.append((i, j_raw + (1 if j_raw >= i else 0)))
    return pairs


_STATUS_VALUES = tuple(s.value for s in SessionStatus)


@dataclass
class _AlgStats:
    delivered: int = 0
    hops_sum: float = 0.0
    dist_sum: float = 0.0
    delivered_d_sum: float = 0.0
    power_total: float = 0.0
    # session count per SessionStatus value: a str key hashes in C, where
    # an enum member hashes through Enum.__hash__
    statuses: dict = field(default_factory=lambda: dict.fromkeys(_STATUS_VALUES, 0))

    def add(self, out: SessionOutcome) -> None:
        """Tally one session, with the travel and power that
        ``total_distance`` and ``total_power`` report."""
        travel, power = out._totals()
        status = out.status
        self.statuses[status._value_] += 1
        self.power_total += power
        if status is SessionStatus.DELIVERED:
            self.delivered += 1
            self.hops_sum += len(out.hops)
            self.dist_sum += travel
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
    if alg is not Algorithm.DIJKSTRA_STATIC:
        return route_greedy(
            cursor,
            source,
            dest,
            predictive=alg is Algorithm.GREEDY_PREDICTIVE,
            max_hops=trace.n_steps,
        )
    snap0 = cursor.snapshot()
    path = route_dijkstra(snap0, source, dest, cfg.dijkstra_weight)
    if path is None:
        return SessionOutcome(
            source,
            dest,
            snap0.distance(source, dest),
            (),
            SessionStatus.STUCK_NO_PROGRESS,
        )
    return execute_path(cursor, path, trace.n_steps)


def _deploy(
    cfg: ExperimentConfig,
    entropy: tuple[int, int, int],
    net: NetworkParams,
    mobility: MobilityConfig,
) -> tuple[NetworkTrace, list[tuple[int, int]]]:
    """The trace, ``hop_cap`` steps long, and the session pairs of the
    deployment with cell parameters ``net`` and ``mobility``."""
    import numpy as np
    from .mobility import Fleet

    fleet = Fleet(mobility, net.n_nodes, entropy)
    trace = record_trace(fleet, net.comm_range, cfg.hop_cap(net.n_nodes))
    pair_rng = np.random.default_rng(
        np.random.SeedSequence(entropy, spawn_key=(_PAIR_STREAM,))
    )
    return trace, _draw_pairs(pair_rng, net.n_nodes, cfg.sessions_per_run)


def _run_one(
    cfg: ExperimentConfig,
    sweep_idx: int,
    run_idx: int,
    net: NetworkParams,
    mobility: MobilityConfig,
) -> tuple[float, dict[Algorithm, _AlgStats]]:
    """One deployment of sweep value ``sweep_idx``, whose cell parameters
    are ``net`` and ``mobility``: route every session with every
    algorithm.  Returns the sessions' summed session-start separation and
    each algorithm's tallies."""
    trace, pairs = _deploy(cfg, (cfg.seed, sweep_idx, run_idx), net, mobility)
    snap0 = trace.snapshot(0)
    sum_d = sum(snap0.distance(s, d) for s, d in pairs)

    per_alg = {a: _AlgStats() for a in cfg.algorithms}
    for alg in cfg.algorithms:
        stats = per_alg[alg]
        for source, dest in pairs:
            stats.add(_route_session(alg, trace, source, dest, cfg))
    return sum_d, per_alg


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    """The mean and standard error (``n - 1`` divisor) of ``values``, from
    exact sums of their offsets from the first value: equal values give
    that value and a stderr of exactly 0."""
    n = len(values)
    if not n:
        return math.nan, math.nan
    v0 = values[0]
    offsets = [v - v0 for v in values]
    shift = math.fsum(offsets) / n
    if n < 2:
        return v0 + shift, math.nan
    var = math.fsum((x - shift) * (x - shift) for x in offsets) / (n - 1)
    return v0 + shift, math.sqrt(var) / math.sqrt(n)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    # Not checked in ExperimentConfig: the figure functions replace the sweep.
    # Each sweep value's cell parameters are resolved here, once.
    cells = []
    for value in cfg.sweep.values:
        try:
            net, mobility = _cell_params(cfg, value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if cfg.sessions_per_run > net.n_nodes * (net.n_nodes - 1):
            raise ConfigError(
                f"sessions_per_run={cfg.sessions_per_run} exceeds the number "
                f"of ordered pairs for n_nodes={net.n_nodes}"
            )
        cells.append((net, mobility))

    tasks = [
        (cfg, si, ri, net, mobility)
        for si, (net, mobility) in enumerate(cells)
        for ri in range(cfg.runs)
    ]
    processes = min(cfg.workers, len(tasks))
    if processes > 1:  # the usable CPU set is known on Linux only
        cpu_set = getattr(os, "sched_getaffinity", None)
        processes = min(processes, len(cpu_set(0)) if cpu_set else os.cpu_count() or 1)
    if processes > 1:
        import multiprocessing
        # Imported before the fork, so that no worker imports numpy again.
        from . import mobility, topology  # noqa: F401
        # About four chunks per worker; starmap keeps task order, so the
        # results do not depend on the chunking.
        chunksize = math.ceil(len(tasks) / (4 * processes))
        with multiprocessing.Pool(processes) as pool:
            results = pool.starmap(_run_one, tasks, chunksize=chunksize)
    else:
        results = [_run_one(*t) for t in tasks]

    rows: list[ResultRow] = []
    cell_mean_d: dict = {}
    delivered_mean_d: dict = {}
    status_counts: dict = {}
    attempted = cfg.runs * cfg.sessions_per_run  # per cell, by each algorithm
    for si, (value, (net, _)) in enumerate(zip(cfg.sweep.values, cells)):
        cell = results[si * cfg.runs : (si + 1) * cfg.runs]
        sums_d, per_alg = zip(*cell)
        mean_d = sum(sums_d) / attempted
        cell_mean_d[value] = mean_d

        rep = analysis.bounds_report(net, mean_d)
        bounds = (  # in the order of METRICS
            (rep.p_success_lower, rep.p_success_upper),
            (rep.hops_lower, rep.hops_upper),
            (rep.dist_lower, rep.dist_upper),
            (None, None),
        )

        for alg in cfg.algorithms:
            per_run = [stats[alg] for stats in per_alg]
            delivering = [r for r in per_run if r.delivered]
            success = [r.delivered / cfg.sessions_per_run for r in per_run]
            hops = [r.hops_sum / r.delivered for r in delivering]
            dist = [r.dist_sum / r.delivered for r in delivering]
            power = [r.power_total / r.delivered for r in delivering]
            delivered_d = [r.delivered_d_sum / r.delivered for r in delivering]
            delivered_mean_d[value, alg.value] = _mean_stderr(delivered_d)[0]
            status_counts[value, alg.value] = {
                status: sum(r.statuses[status.value] for r in per_run)
                for status in SessionStatus
            }
            for metric, values, (lo, hi) in zip(
                METRICS, (success, hops, dist, power), bounds
            ):
                mean, stderr = _mean_stderr(values)
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
        status_counts=status_counts,
    )


def _plain(value):
    """``value`` for JSON: enums as values, sequences as lists, numbers as
    Python's own."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return int(value) if isinstance(value, numbers.Integral) else float(value)
    return value


def _config_echo(cfg: ExperimentConfig) -> dict:
    """Every config field, nested as in the dataclasses, enums as values."""
    return asdict(cfg, dict_factory=lambda items: {k: _plain(v) for k, v in items})


# Figure command -> its reference config.  A figure fixes its entry's
# sweep parameter, algorithms and Dijkstra weight; the rest are defaults.
_SPEED_FIGURE = ExperimentConfig(
    mobility=MobilityConfig(time_step=DYNAMIC_TIME_STEP),
    sweep=SweepSpec("mean_speed", DEFAULT_SPEED_SWEEP),
)
FIGURES = {
    "fig3": ExperimentConfig(),
    "fig5": replace(_SPEED_FIGURE, algorithms=tuple(Algorithm)),
    "fig6": replace(
        _SPEED_FIGURE,
        algorithms=(Algorithm.GREEDY_PREDICTIVE, Algorithm.DIJKSTRA_STATIC),
        dijkstra_weight=PathWeight.DISTANCE_SQUARED,
    ),
}
FIGURES["fig4"] = FIGURES["fig3"]


def _figure_dataset(
    ref: ExperimentConfig, cfg: ExperimentConfig | None
) -> ExperimentResult:
    """Run ``cfg`` (default ``ref``) with figure ``ref``'s algorithms, Dijkstra
    weight and sweep; a ``cfg`` that sweeps the same parameter keeps its values."""
    cfg = ref if cfg is None else cfg
    return run_experiment(
        replace(
            cfg,
            sweep=cfg.sweep if cfg.sweep.name == ref.sweep.name else ref.sweep,
            algorithms=ref.algorithms,
            dijkstra_weight=ref.dijkstra_weight,
        )
    )


def figure3_dataset(cfg: ExperimentConfig | None = None) -> ExperimentResult:
    """Travel distance and delivery success vs node count, with the
    analytical corridors; ``fanetsim fig4`` writes this dataset too."""
    return _figure_dataset(FIGURES["fig3"], cfg)


def figure5_dataset(cfg: ExperimentConfig | None = None) -> ExperimentResult:
    """Delivery success vs mean speed for all three algorithms.  A given
    ``cfg`` keeps its own ``time_step``: start from ``FIGURES["fig5"]``
    for the figure's 30 s hop."""
    return _figure_dataset(FIGURES["fig5"], cfg)


def figure6_dataset(cfg: ExperimentConfig | None = None) -> ExperimentResult:
    """Transmit power per delivered packet vs mean speed, greedy vs Dijkstra.
    A given ``cfg`` keeps its own ``time_step``: start from
    ``FIGURES["fig6"]`` for the figure's 30 s hop."""
    return _figure_dataset(FIGURES["fig6"], cfg)
