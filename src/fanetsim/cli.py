"""Command-line front end.

Subcommands: ``fig3``..``fig6`` run the canned experiments and write CSV
datasets (plus a JSON provenance echo), ``bounds`` prints the analytical
corridor table for one parameter set, ``route`` traces a single seeded
session hop by hop, and ``trace`` dumps mobility trajectories as CSV.

Configuration is a flat INI file with one section per module; every key
can be overridden on the command line via ``--set section.key=value``.
Lengths accept a ``km`` or ``m`` suffix and are stored in meters.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import NetworkParams, bounds_report, min_range_for_isolation
from .mobility import Fleet, MobilityConfig, trajectory_rows
from .routing import PathWeight
from .simharness import (
    DEFAULT_NODE_SWEEP,
    DEFAULT_SPEED_SWEEP,
    DYNAMIC_TIME_STEP,
    Algorithm,
    ExperimentConfig,
    SweepSpec,
    figure3_dataset,
    figure4_dataset,
    figure5_dataset,
    figure6_dataset,
    record_trace,
    _route_session,
)

OUTPUT_DIR_ENV = "FANETSIM_OUTDIR"


class ConfigError(Exception):
    """Bad configuration file, key, or value."""


def parse_length(text: str) -> float:
    """Parse a length; bare numbers are meters, 'km'/'m' suffixes accepted."""
    s = str(text).strip().lower()
    factor = 1.0
    if s.endswith("km"):
        factor, s = 1000.0, s[:-2]
    elif s.endswith("m"):
        s = s[:-1]
    try:
        return float(s) * factor
    except ValueError as exc:
        raise ConfigError(f"cannot parse length {text!r}") from exc


_DEFAULTS = {
    "net": {
        "n_nodes": "10",
        "area_side": "10km",
        "comm_range": "5km",
    },
    "mobility": {
        "mean_speed": "50",
        "mean_wait": "20",
        "transition_prob": "0.2",
        "time_step": "1",
        "prediction_noise_var": "10",
        "prediction_horizon": "",  # empty: one time step
        "mean_turn_radius": "500",
    },
    "experiment": {
        "runs": "100",
        "sessions_per_run": "10",
        "seed": "0",
        "max_hops": "0",  # 0: four times the node count
        "dijkstra_weight": "distance",
        "refresh_destination": "true",
        "workers": "1",
    },
}

_LENGTH_KEYS = {
    ("net", "area_side"),
    ("net", "comm_range"),
    ("mobility", "mean_turn_radius"),
}


def _base_parser() -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.read_dict(_DEFAULTS)
    return cp


def load_config(
    path: str | None, overrides: list[str] | None = None
) -> configparser.ConfigParser:
    """Defaults, then the INI file (if any), then key=value overrides."""
    cp = _base_parser()
    if path:
        if not Path(path).is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            read = cp.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file: {path}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        key, value = item.split("=", 1)
        if "." not in key:
            raise ConfigError(f"override key must be section.key: {key!r}")
        section, option = key.split(".", 1)
        if section not in cp or option not in cp[section]:
            raise ConfigError(f"unknown config key: {key!r}")
        cp[section][option] = value
    return cp


def _get_float(cp, section, key) -> float:
    raw = cp[section][key]
    try:
        if (section, key) in _LENGTH_KEYS:
            return parse_length(raw)
        return float(raw)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc


def _get_int(cp, section, key) -> int:
    raw = cp[section][key]
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc


def build_experiment_config(cp: configparser.ConfigParser) -> ExperimentConfig:
    try:
        net = NetworkParams(
            n_nodes=_get_int(cp, "net", "n_nodes"),
            area_side=_get_float(cp, "net", "area_side"),
            comm_range=_get_float(cp, "net", "comm_range"),
        )
        horizon_raw = cp["mobility"]["prediction_horizon"].strip()
        mobility = MobilityConfig(
            area_side=net.area_side,
            mean_speed=_get_float(cp, "mobility", "mean_speed"),
            mean_wait=_get_float(cp, "mobility", "mean_wait"),
            transition_prob=_get_float(cp, "mobility", "transition_prob"),
            time_step=_get_float(cp, "mobility", "time_step"),
            prediction_noise_var=_get_float(cp, "mobility", "prediction_noise_var"),
            prediction_horizon=float(horizon_raw) if horizon_raw else None,
            mean_turn_radius=_get_float(cp, "mobility", "mean_turn_radius"),
        )
        weight_raw = cp["experiment"]["dijkstra_weight"].strip().lower()
        try:
            weight = PathWeight(weight_raw)
        except ValueError as exc:
            raise ConfigError(
                f"bad experiment.dijkstra_weight: {weight_raw!r}"
            ) from exc
        return ExperimentConfig(
            net=net,
            mobility=mobility,
            sweep=SweepSpec("n_nodes", DEFAULT_NODE_SWEEP),
            runs=_get_int(cp, "experiment", "runs"),
            sessions_per_run=_get_int(cp, "experiment", "sessions_per_run"),
            seed=_get_int(cp, "experiment", "seed"),
            max_hops=_get_int(cp, "experiment", "max_hops"),
            dijkstra_weight=weight,
            refresh_destination=cp.getboolean("experiment", "refresh_destination"),
            workers=_get_int(cp, "experiment", "workers"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_FIGURES = {
    "fig3": figure3_dataset,
    "fig4": figure4_dataset,
    "fig5": figure5_dataset,
    "fig6": figure6_dataset,
}


def _figure_overrides(name: str) -> list[str]:
    """Per-figure config defaults, applied before user overrides."""
    if name in ("fig5", "fig6"):
        return [f"mobility.time_step={DYNAMIC_TIME_STEP}"]
    return []


def _output_dir(args) -> Path:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_figure(name: str, args) -> int:
    overrides = _figure_overrides(name) + list(args.set or [])
    if args.runs is not None:
        overrides.append(f"experiment.runs={args.runs}")
    if args.seed is not None:
        overrides.append(f"experiment.seed={args.seed}")
    if args.workers is not None:
        overrides.append(f"experiment.workers={args.workers}")
    cp = load_config(args.config, overrides)
    cfg = build_experiment_config(cp)
    result = _FIGURES[name](cfg)
    out_dir = _output_dir(args)
    csv_path = out_dir / f"{name}.csv"
    result.write_csv(csv_path)
    result.write_provenance(out_dir / f"{name}.json", overrides=list(args.set or []))
    print(f"wrote {csv_path}")
    return 0


def _cmd_bounds(args) -> int:
    try:
        net = NetworkParams(
            n_nodes=args.n,
            area_side=parse_length(args.l),
            comm_range=parse_length(args.r),
        )
        d = parse_length(args.d)
        report = bounds_report(net, d)
        r_min = (
            None
            if args.epsilon is None
            else min_range_for_isolation(net, args.epsilon)
        )
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc
    print(f"N={net.n_nodes}  L={net.area_side:g} m  R={net.comm_range:g} m  D={d:g} m")
    print(f"expected hops:       [{report.hops_lower:.4f}, {report.hops_upper:.4f}]")
    print(f"total distance (m):  [{report.dist_lower:.2f}, {report.dist_upper:.2f}]")
    print(f"isolation prob:      {report.p_isolation:.6g}")
    print(
        f"success prob:        [{report.p_success_lower:.6f}, "
        f"{report.p_success_upper:.6f}]"
    )
    if r_min is not None:
        print(f"min range for eps={args.epsilon:g}: {r_min:.2f} m")
    return 0


def _cmd_route(args) -> int:
    overrides = list(args.set or [])
    if args.n is not None:
        overrides.append(f"net.n_nodes={args.n}")
    if args.seed is not None:
        overrides.append(f"experiment.seed={args.seed}")
    cp = load_config(args.config, overrides)
    cfg = build_experiment_config(cp)

    fleet = Fleet(cfg.mobility, cfg.net.n_nodes, cfg.seed)
    trace = record_trace(fleet, cfg.net.comm_range, cfg.hop_cap(cfg.net.n_nodes))
    rng = np.random.default_rng(cfg.seed)
    source, dest = (int(x) for x in rng.choice(cfg.net.n_nodes, 2, replace=False))

    algorithm = Algorithm(args.algorithm)
    out = _route_session(algorithm, trace, source, dest, cfg)

    print(
        f"session: source={out.source} dest={out.destination} "
        f"D0={out.initial_distance:.1f} m algorithm={algorithm.value}"
    )
    remaining = out.initial_distance
    for i, hop in enumerate(out.hops, start=1):
        remaining -= hop.progress
        print(
            f"hop {i} t={hop.time:g}: {hop.src} -> {hop.dst} "
            f"link={hop.tx_distance:.1f} m remaining={remaining:.1f} m"
        )
    print(
        f"status: {out.status.value} hops={out.hop_count} "
        f"distance={out.total_distance:.1f} m power={out.total_power:.4g} m^2"
    )
    return 0


def _cmd_trace(args) -> int:
    overrides = list(args.set or [])
    if args.n is not None:
        overrides.append(f"net.n_nodes={args.n}")
    if args.seed is not None:
        overrides.append(f"experiment.seed={args.seed}")
    cp = load_config(args.config, overrides)
    cfg = build_experiment_config(cp)
    try:
        rows = trajectory_rows(cfg.mobility, cfg.net.n_nodes, cfg.seed, args.steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(out_path, "w", encoding="utf-8", newline="")
    else:
        fh = sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "node_id", "x", "y", "mode"])
        for t, node_id, x, y, mode in rows:
            writer.writerow([format(t, "g"), node_id, repr(x), repr(y), mode])
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file")
    p.add_argument(
        "--set",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="override one config key (repeatable)",
    )
    p.add_argument("--seed", type=int, help="master seed")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanetsim",
        description="Greedy geographic routing experiments for dynamic UAV networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb in (
        ("fig3", "travel distance vs node count"),
        ("fig4", "delivery success vs node count"),
        ("fig5", "delivery success vs mean speed, three algorithms"),
        ("fig6", "power per delivered packet vs mean speed"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_common(p)
        p.add_argument("--runs", type=int, help="Monte Carlo runs per cell")
        p.add_argument("--workers", type=int, help="parallel worker processes")
        p.add_argument("--out", help="output directory (default $FANETSIM_OUTDIR or .)")

    p = sub.add_parser("bounds", help="print the analytical corridor table")
    p.add_argument("--n", type=int, required=True, help="number of nodes")
    p.add_argument("--l", required=True, help="deployment square side (m or km)")
    p.add_argument("--r", required=True, help="transmission range (m or km)")
    p.add_argument("--d", required=True, help="source-destination distance (m or km)")
    p.add_argument("--epsilon", type=float, help="isolation target for min range")

    p = sub.add_parser("route", help="trace one seeded routing session")
    _add_common(p)
    p.add_argument("--n", type=int, help="number of nodes")
    p.add_argument(
        "--algorithm",
        default=Algorithm.GREEDY_PREDICTIVE.value,
        choices=[a.value for a in Algorithm],
    )

    p = sub.add_parser("trace", help="dump mobility trajectories as CSV")
    _add_common(p)
    p.add_argument("--n", type=int, help="number of nodes")
    p.add_argument("--steps", type=int, default=100, help="time steps to record")
    p.add_argument("--out", help="output CSV path (default stdout)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _FIGURES:
            return _cmd_figure(args.command, args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "route":
            return _cmd_route(args)
        if args.command == "trace":
            return _cmd_trace(args)
        parser.error(f"unknown command {args.command!r}")
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary, no tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
