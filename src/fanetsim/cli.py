"""Command-line front end.

Subcommands: ``fig3``..``fig6`` run the canned experiments and write CSV
datasets (plus a JSON provenance echo), ``bounds`` prints the analytical
corridor table for one parameter set, ``route`` traces a single seeded
session hop by hop, and ``trace`` dumps mobility trajectories as CSV; both
show run 0 of a one-cell, one-session experiment at ``--seed``.

Configuration is a flat INI file whose keys and defaults are the fields of
the config dataclasses (``_SECTIONS``); every key can be overridden on the
command line via ``--set section.key=value``.  ``--runs``, ``--seed``,
``--workers`` and ``--n`` are shorthands for the INI keys in ``_FLAG_KEYS``,
applied after ``--set``.  A command's config is its reference
(``ExperimentConfig()``, or a figure's entry in ``FIGURES``) with the values
set in the file, by ``--set`` and by the shorthands replaced.  Lengths accept
a ``km`` or ``m`` suffix and are stored in meters.

Each subcommand names its handler in the parser; a figure command writes
``ExperimentResult.to_csv()`` and ``provenance()`` to its output directory.

Importing this module loads no numpy: only ``route``, ``trace`` and the figures do.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
from dataclasses import fields, replace
from enum import Enum
from pathlib import Path

from .analysis import NetworkParams, bounds_report, min_range_for_isolation
from .simharness import (
    FIGURES,
    Algorithm,
    ConfigError,
    ExperimentConfig,
    run_experiment,
    _deploy,
    _route_session,
)

OUTPUT_DIR_ENV = "FANETSIM_OUTDIR"


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


_LENGTH_KEYS = {
    ("net", "area_side"),
    ("net", "comm_range"),
    ("mobility", "mean_turn_radius"),
}


def _scalar_fields(obj, skip: str = "") -> dict:
    """A dataclass instance's INI keys and their defaults."""
    return {
        f.name: getattr(obj, f.name)
        for f in fields(obj)
        if f.name != skip
        and isinstance(getattr(obj, f.name), (int, float, Enum))
    }


# INI section -> key -> default, read off ``ExperimentConfig()``; a value
# parses as its default's type.  mobility.area_side is no key: it is
# net.area_side.
_SECTIONS = {
    "net": _scalar_fields(ExperimentConfig().net),
    "mobility": _scalar_fields(ExperimentConfig().mobility, skip="area_side"),
    "experiment": _scalar_fields(ExperimentConfig()),
}


def load_config(
    path: str | None, overrides: list[str] | None = None
) -> dict[str, dict[str, str]]:
    """The values set in the INI file (if any), then by the overrides, as
    section -> key -> text.  Keys are case-insensitive, sections are not."""
    cp = configparser.ConfigParser(interpolation=None)
    for section in _SECTIONS:  # then a [DEFAULT] key is an unknown net key
        cp.add_section(section)
    if path:
        if not Path(path).is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            read = cp.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file: {path}")
        for section in cp.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section {section!r} in {path}")
            for option in cp.options(section):
                if option not in _SECTIONS[section]:
                    key = f"{section}.{option}"
                    raise ConfigError(f"unknown config key {key!r} in {path}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        key, value = item.split("=", 1)
        if "." not in key:
            raise ConfigError(f"override key must be section.key: {key!r}")
        section, option = key.split(".", 1)
        if option.lower() not in _SECTIONS.get(section, ()):
            raise ConfigError(f"unknown config key {key!r}")
        cp[section][option] = value  # the parser lowercases the key
    return {section: dict(cp[section]) for section in _SECTIONS}


def _parse(section: str, key: str, raw: str):
    """One INI value, parsed as its default's type."""
    default = _SECTIONS[section][key]
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, Enum):
            return type(default)(raw.strip().lower())
        if (section, key) in _LENGTH_KEYS:
            return parse_length(raw)
        return float(raw)
    except ValueError as exc:  # ConfigError is a ValueError
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc


def build_experiment_config(
    values: dict[str, dict[str, str]],
    reference: ExperimentConfig = ExperimentConfig(),
) -> ExperimentConfig:
    """``reference`` with the ``load_config`` values parsed and set."""
    parsed = {
        section: {key: _parse(section, key, raw) for key, raw in keys.items()}
        for section, keys in values.items()
    }
    try:
        net = replace(reference.net, **parsed["net"])
        mobility = replace(
            reference.mobility, area_side=net.area_side, **parsed["mobility"]
        )
        return replace(reference, net=net, mobility=mobility, **parsed["experiment"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _reject_fixed_keys(name: str, values: dict[str, dict[str, str]]) -> None:
    """A figure fixes its sweep and Dijkstra weight, so setting either is an error."""
    swept = FIGURES[name].sweep.name
    swept_in = next(s for s, keys in _SECTIONS.items() if swept in keys)
    for section, key, verb in ((swept_in, swept, "sweeps"),
                               ("experiment", "dijkstra_weight", "fixes")):
        if key in values[section]:
            raise ConfigError(f"{section}.{key} cannot be set: {name} {verb} it")


# Convenience flag -> the INI key it sets; the flags given apply after --set.
_FLAG_KEYS = {
    "runs": "experiment.runs",
    "seed": "experiment.seed",
    "workers": "experiment.workers",
    "n": "net.n_nodes",
}


def _command_values(args) -> dict[str, dict[str, str]]:
    """``load_config`` of the command's file, its --set values, then its flags."""
    flags = [f"{key}={getattr(args, flag)}" for flag, key in _FLAG_KEYS.items()
             if getattr(args, flag, None) is not None]
    return load_config(args.config, [*(args.set or []), *flags])


def _cmd_figure(args) -> int:
    name = args.command
    values = _command_values(args)
    _reject_fixed_keys(name, values)
    result = run_experiment(build_experiment_config(values, FIGURES[name]))
    out_dir = Path(args.out or os.environ.get(OUTPUT_DIR_ENV) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    csv_path.write_text(result.to_csv(), encoding="utf-8", newline="\n")
    provenance = result.provenance(args.set)
    (out_dir / f"{name}.json").write_text(provenance, encoding="utf-8", newline="\n")
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
    except ValueError as exc:  # ConfigError is a ValueError
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
    cfg = replace(build_experiment_config(_command_values(args)), sessions_per_run=1)
    trace, [(source, dest)] = _deploy(cfg, (cfg.seed, 0, 0), cfg.net, cfg.mobility)
    algorithm = Algorithm(args.algorithm)
    out = _route_session(algorithm, trace, source, dest, cfg)

    print(
        f"session: source={out.source} dest={out.destination} "
        f"D0={out.initial_distance:.1f} m algorithm={algorithm.value}"
    )
    for i, hop in enumerate(out.hops, start=1):
        remaining = trace.snapshot(i).distance(hop.dst, dest)  # where hop i lands
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
    from .mobility import trajectory_rows
    cfg = build_experiment_config(_command_values(args))
    try:
        entropy = (cfg.seed, 0, 0)  # the harness's run 0, as in route
        rows = trajectory_rows(cfg.mobility, cfg.net.n_nodes, entropy, args.steps)
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
        p.set_defaults(handler=_cmd_figure)
        _add_common(p)
        p.add_argument("--runs", type=int, help="Monte Carlo runs per cell")
        p.add_argument("--workers", type=int, help="parallel worker processes")
        p.add_argument("--out", help="output directory (default $FANETSIM_OUTDIR or .)")

    p = sub.add_parser("bounds", help="print the analytical corridor table")
    p.set_defaults(handler=_cmd_bounds)
    p.add_argument("--n", type=int, required=True, help="number of nodes")
    p.add_argument("--l", required=True, help="deployment square side (m or km)")
    p.add_argument("--r", required=True, help="transmission range (m or km)")
    p.add_argument("--d", required=True, help="source-destination distance (m or km)")
    p.add_argument("--epsilon", type=float, help="isolation target for min range")

    p = sub.add_parser("route", help="trace one seeded routing session")
    p.set_defaults(handler=_cmd_route)
    _add_common(p)
    p.add_argument("--n", type=int, help="number of nodes")
    p.add_argument(
        "--algorithm",
        default=Algorithm.GREEDY_PREDICTIVE.value,
        choices=[a.value for a in Algorithm],
    )

    p = sub.add_parser("trace", help="dump mobility trajectories as CSV")
    p.set_defaults(handler=_cmd_trace)
    _add_common(p)
    p.add_argument("--n", type=int, help="number of nodes")
    p.add_argument("--steps", type=int, default=100, help="time steps to record")
    p.add_argument("--out", help="output CSV path (default stdout)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # The reader stopped early (``| head``): stop quietly, as a tool
        # killed by SIGPIPE would.  Later flushes go to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary, no tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
