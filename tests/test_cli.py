import argparse
import configparser
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fanetsim.analysis import NetworkParams, bounds_report, min_range_for_isolation
from fanetsim import cli
from fanetsim.cli import ConfigError, build_experiment_config, load_config, main, parse_length
from fanetsim.routing import SessionStatus
from fanetsim.simharness import (
    FIGURES,
    Algorithm,
    ExperimentConfig,
    SweepSpec,
    _deploy,
    figure3_dataset,
    figure5_dataset,
    figure6_dataset,
    run_experiment,
)

ALL_KEYS = [f"{s}.{k}" for s, keys in cli._SECTIONS.items() for k in keys]


class TestParseLength:
    def test_meters_by_default(self):
        assert parse_length("5000") == 5000.0

    def test_km_suffix(self):
        assert parse_length("10km") == 10_000.0
        assert parse_length("2.5 km") == 2_500.0

    def test_m_suffix(self):
        assert parse_length("750m") == 750.0

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_length("fast")


class TestConfigLoading:
    def test_defaults(self):
        cfg = build_experiment_config(load_config(None))
        assert cfg.net.n_nodes == 10
        assert cfg.net.area_side == 10_000.0
        assert cfg.net.comm_range == 5_000.0
        assert cfg.mobility.mean_speed == 50.0
        assert cfg.mobility.mean_wait == 20.0
        assert cfg.mobility.transition_prob == 0.2
        assert cfg.mobility.prediction_noise_var == 10.0
        assert cfg.runs == 100

    def test_file_and_overrides(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[net]\nn_nodes = 20\n[experiment]\nruns = 7\n")
        cfg = build_experiment_config(
            load_config(str(ini), ["experiment.runs=9", "net.comm_range=4km"])
        )
        assert cfg.net.n_nodes == 20
        assert cfg.runs == 9
        assert cfg.net.comm_range == 4_000.0

    def test_only_set_values_are_loaded(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[net]\nn_nodes = 20\n")
        assert load_config(None) == {"net": {}, "mobility": {}, "experiment": {}}
        assert load_config(str(ini), ["experiment.runs=9"]) == {
            "net": {"n_nodes": "20"}, "mobility": {}, "experiment": {"runs": "9"}
        }

    def test_keys_are_case_insensitive_sections_are_not(self, tmp_path, capsys):
        # the file's parser lowercases keys, and --set reads them the same way
        ini = tmp_path / "upper.ini"
        ini.write_text("[net]\nN_NODES = 12\n")
        from_file = build_experiment_config(load_config(str(ini)))
        from_set = build_experiment_config(load_config(None, ["net.N_NODES=12"]))
        assert from_file == from_set == replace(
            ExperimentConfig(), net=replace(ExperimentConfig().net, n_nodes=12)
        )
        assert main(["route", "--set", "net.N_NODES=12"]) == 0
        capsys.readouterr()
        ini.write_text("[NET]\nn_nodes = 12\n")
        for argv, err in (
            (["--set", "NET.n_nodes=12"], "unknown config key 'NET.n_nodes'"),
            (["--config", str(ini)], f"unknown config section 'NET' in {ini}"),
        ):
            assert main(["route", *argv]) == 2
            assert f"config error: {err}" in capsys.readouterr().err

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["net.velocity=3"])

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["runs=9"])
        with pytest.raises(ConfigError):
            load_config(None, ["experiment.runs"])

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.ini")

    def test_bad_value_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            build_experiment_config(load_config(None, ["experiment.runs=ten"]))

    def test_defaults_are_the_dataclass_defaults(self):
        assert build_experiment_config(load_config(None)) == ExperimentConfig()

    def test_readme_example_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        ini = tmp_path / "readme.ini"
        ini.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        assert build_experiment_config(load_config(str(ini))) == ExperimentConfig()
        # the example lists every key, and no other, in its own section
        listed = configparser.ConfigParser(interpolation=None)
        listed.read(ini, encoding="utf-8")
        assert {s: set(listed[s]) for s in listed.sections()} == {
            s: set(keys) for s, keys in cli._SECTIONS.items()
        }

    @pytest.mark.parametrize(
        "key, value",
        [("mobility.prediction_horizon", "1"), ("experiment.refresh_destination", "true")],
    )
    def test_retired_keys_exit_2(self, tmp_path, capsys, key, value):
        # predictions always look one time step ahead, and greedy always
        # scores against the destination in the snapshot it decides on
        section, option = key.split(".")
        ini = tmp_path / "retired.ini"
        ini.write_text(f"[{section}]\n{option} = {value}\n")
        for argv, where in (
            (["--set", f"{key}={value}"], ""),
            (["--config", str(ini)], f" in {ini}"),
        ):
            code = main(["route", *argv])
            captured = capsys.readouterr()
            assert code == 2
            assert f"config error: unknown config key {key!r}{where}" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_bad_value_names_its_key(self, key):
        with pytest.raises(ConfigError, match=re.escape(f"bad value for {key}: 'x'")):
            build_experiment_config(load_config(None, [f"{key}=x"]))

    def test_percent_override_exits_2(self, capsys):
        code = main(["route", "--set", "experiment.seed=5%"])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error: bad value for experiment.seed: '5%'" in captured.err
        assert captured.out == ""

    def test_percent_file_value_exits_2(self, tmp_path, capsys):
        # values are literal: no %(name)s interpolation
        ini = tmp_path / "percent.ini"
        ini.write_text("[experiment]\nruns = %(nope)s\n")
        code = main(["fig3", "--config", str(ini), "--out", str(tmp_path)])
        assert code == 2
        assert "config error: bad value for experiment.runs: '%(nope)s'" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "fig3.csv").exists()

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "latin1.ini"
        ini.write_bytes("[net]\n# Flughöhe\nn_nodes = 10\n".encode("latin-1"))
        code = main(["fig3", "--config", str(ini), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error: cannot parse config file {ini}: " in err
        assert "'utf-8' codec can't decode" in err
        assert not (tmp_path / "fig3.csv").exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[net]\nnodes = 20\n", "key 'net.nodes'"),
            ("[mobility]\narea_side = 40km\n", "key 'mobility.area_side'"),
            ("[bogus]\n", "section 'bogus'"),
            ("[DEFAULT]\nruns = 3\n", "key 'net.runs'"),
        ],
    )
    def test_unknown_file_key_exits_2(self, tmp_path, capsys, text, key):
        ini = tmp_path / "typo.ini"
        ini.write_text(text)
        code = main(["fig3", "--config", str(ini), "--out", str(tmp_path)])
        assert code == 2
        assert f"config error: unknown config {key} in {ini}" in capsys.readouterr().err
        assert not (tmp_path / "fig3.csv").exists()


def test_subcommands_are_the_figures_and_three_tools():
    # main sends every command that is no figure, bounds or route to trace
    parser = cli.build_arg_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {*FIGURES, "bounds", "route", "trace"}


class TestBoundsCommand:
    def test_table_matches_library(self, capsys):
        code = main(
            ["bounds", "--n", "10", "--l", "10000", "--r", "5000", "--d", "7500",
             "--epsilon", "0.05"]
        )
        out = capsys.readouterr().out
        assert code == 0
        rep = bounds_report(NetworkParams(10, 10_000.0, 5_000.0), 7_500.0)
        assert f"[{rep.hops_lower:.4f}, {rep.hops_upper:.4f}]" in out
        assert f"{rep.p_isolation:.6g}" in out
        r_min = min_range_for_isolation(NetworkParams(10, 10_000.0, 5_000.0), 0.05)
        assert f"{r_min:.2f}" in out

    def test_km_inputs(self, capsys):
        code = main(["bounds", "--n", "10", "--l", "10km", "--r", "5km", "--d", "7.5km"])
        assert code == 0
        assert "L=10000 m" in capsys.readouterr().out

    def test_invalid_parameters_exit_2(self, capsys):
        assert main(["bounds", "--n", "1", "--l", "10", "--r", "5", "--d", "3"]) == 2
        assert "config error" in capsys.readouterr().err

    # a count no float holds used to exit 1 (int too large to convert to float)
    @pytest.mark.parametrize("command", ["bounds", "route"])
    def test_node_count_beyond_every_float_exits_2(self, capsys, command):
        lengths = ["--l", "10km", "--r", "5km", "--d", "7km"] if command == "bounds" else []
        code = main([command, "--n", str(10**400), *lengths])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("config error: n_nodes must be <= ")
        assert captured.out == ""

    # 1e-300 squared underflows (a division by zero in the lens) and
    # 1e300 squared overflows; both used to exit 1 mid-report
    @pytest.mark.parametrize("length", ["1e-300", "1e300"])
    def test_unrepresentable_squares_exit_2(self, capsys, length):
        code = main(["bounds", "--n", "10", "--l", length, "--r", length,
                     "--d", length])
        captured = capsys.readouterr()
        assert code == 2
        assert f"config error: area_side={float(length)!r} is out of range" in (
            captured.err
        )
        assert captured.out == ""

    # squares fine, but the lens radicand (a product of four lengths)
    # overflowed, or underflowed into a wrong corridor
    @pytest.mark.parametrize(
        "l, r, d", [("1e100", "5e99", "7.5e99"), ("1e-100", "5e-101", "7.5e-101")]
    )
    def test_unrepresentable_fourth_powers_exit_2(self, capsys, l, r, d):
        code = main(["bounds", "--n", "10", "--l", l, "--r", r, "--d", d])
        captured = capsys.readouterr()
        assert code == 2
        assert f"config error: comm_range={float(r)!r} is out of range" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("epsilon", ["1.5", "nan", "0"])
    def test_invalid_epsilon_exits_2_before_the_table(self, capsys, epsilon):
        code = main(["bounds", "--n", "10", "--l", "10km", "--r", "5km",
                     "--d", "7.5km", "--epsilon", epsilon])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error: epsilon must be in (0, 1)" in captured.err
        assert captured.out == ""


class TestFigureCommands:
    def run_fig(self, tmp_path, name, sub, extra=()):
        out_dir = tmp_path / name
        code = main(
            [sub, "--runs", "2", "--seed", "7", "--out", str(out_dir),
             "--set", "experiment.sessions_per_run=4", *extra]
        )
        assert code == 0
        return (out_dir / f"{sub}.csv").read_bytes(), (out_dir / f"{sub}.json").read_text()

    def test_fig4_byte_identical_reruns(self, tmp_path):
        a, _ = self.run_fig(tmp_path, "a", "fig4")
        b, _ = self.run_fig(tmp_path, "b", "fig4")
        assert a == b

    def test_worker_count_does_not_change_csv(self, tmp_path):
        a, _ = self.run_fig(tmp_path, "a", "fig4")
        c, _ = self.run_fig(tmp_path, "c", "fig4", extra=("--workers", "2"))
        assert a == c

    def test_provenance_round_trips_overrides(self, tmp_path):
        _, prov = self.run_fig(tmp_path, "a", "fig3")
        payload = json.loads(prov)
        assert payload["overrides"] == ["experiment.sessions_per_run=4"]
        assert payload["config"]["runs"] == 2
        assert payload["config"]["seed"] == 7

    def test_fig5_uses_dynamic_time_step(self, tmp_path):
        _, prov = self.run_fig(tmp_path, "a", "fig5")
        payload = json.loads(prov)
        assert payload["config"]["mobility"]["time_step"] == 30.0
        assert payload["config"]["sweep"]["name"] == "mean_speed"

    def test_time_step_still_overridable_for_figures(self, tmp_path):
        out_dir = tmp_path / "override"
        code = main(
            ["fig5", "--runs", "1", "--seed", "1", "--out", str(out_dir),
             "--set", "experiment.sessions_per_run=2",
             "--set", "mobility.time_step=12"]
        )
        assert code == 0
        payload = json.loads((out_dir / "fig5.json").read_text())
        assert payload["config"]["mobility"]["time_step"] == 12.0

    def test_unknown_override_exits_2(self, tmp_path, capsys):
        code = main(["fig3", "--out", str(tmp_path), "--set", "nope.key=1"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_hop_cap_shorter_than_dijkstra_paths(self, tmp_path):
        # Dijkstra plans paths longer than one hop; capping them must not
        # read the one-step trace past its end
        code = main(["fig5", "--runs", "1", "--out", str(tmp_path),
                     "--set", "experiment.max_hops=1"])
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig3", "--set", "experiment.seed=-1"],
            ["fig5", "--seed", "-1"],
            ["route", "--seed", "-1"],
            ["trace", "--seed", "-1", "--steps", "1"],
        ],
    )
    def test_negative_seed_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "config error: seed must be >= 0, got -1" in captured.err
        assert captured.out == ""

    def test_too_many_sessions_exits_2(self, tmp_path, capsys):
        code = main(["fig3", "--runs", "1", "--out", str(tmp_path),
                     "--set", "experiment.sessions_per_run=25"])
        captured = capsys.readouterr()
        assert code == 2
        assert ("config error: sessions_per_run=25 exceeds the number of "
                "ordered pairs for n_nodes=5") in captured.err
        assert not (tmp_path / "fig3.csv").exists()

    @pytest.mark.parametrize(
        "sub, key",
        [
            ("fig3", "net.n_nodes"),
            ("fig4", "net.n_nodes"),
            ("fig5", "mobility.mean_speed"),
            ("fig6", "mobility.mean_speed"),
        ],
    )
    def test_swept_key_exits_2(self, tmp_path, capsys, sub, key):
        section, option = key.split(".")
        ini = tmp_path / "swept.ini"
        ini.write_text(f"[{section}]\n{option} = 40\n")
        for argv in (["--set", f"{key}=40"], ["--config", str(ini)]):
            code = main([sub, "--runs", "1", "--out", str(tmp_path), *argv])
            assert code == 2
            assert f"config error: {key} cannot be set: {sub} sweeps it" in (
                capsys.readouterr().err
            )
            assert not (tmp_path / f"{sub}.csv").exists()

    @pytest.mark.parametrize("sub", ["fig3", "fig4", "fig5", "fig6"])
    def test_config_is_the_reference_with_the_set_values(self, sub):
        values = load_config(None, ["experiment.runs=3", "mobility.time_step=12"])
        assert values == {
            "net": {}, "mobility": {"time_step": "12"}, "experiment": {"runs": "3"}
        }
        ref = FIGURES[sub]
        cfg = build_experiment_config(values, ref)
        assert cfg == replace(ref, runs=3, mobility=replace(ref.mobility, time_step=12.0))
        assert (cfg.sweep, cfg.algorithms, cfg.dijkstra_weight) == (
            ref.sweep, ref.algorithms, ref.dijkstra_weight
        )

    @pytest.mark.parametrize("sub", ["fig3", "fig4", "fig5", "fig6"])
    def test_dijkstra_weight_exits_2(self, tmp_path, capsys, sub):
        # fig3/fig4 run no Dijkstra; fig5/fig6 fix the weight they compare
        key = "experiment.dijkstra_weight"
        ini = tmp_path / "weight.ini"
        ini.write_text("[experiment]\ndijkstra_weight = distance\n")
        for argv in (["--set", f"{key}=distance"], ["--config", str(ini)]):
            code = main([sub, "--runs", "1", "--out", str(tmp_path), *argv])
            assert code == 2
            assert f"config error: {key} cannot be set: {sub} fixes it" in (
                capsys.readouterr().err
            )
            assert not (tmp_path / f"{sub}.csv").exists()

    @pytest.mark.parametrize(
        "sub, dataset",
        [
            ("fig3", figure3_dataset),
            ("fig4", figure3_dataset),
            ("fig5", figure5_dataset),
            ("fig6", figure6_dataset),
        ],
    )
    def test_command_writes_the_library_dataset(self, tmp_path, sub, dataset):
        code = main([sub, "--runs", "1", "--seed", "5", "--out", str(tmp_path),
                     "--set", "experiment.sessions_per_run=3"])
        assert code == 0
        expected = dataset(replace(FIGURES[sub], runs=1, seed=5, sessions_per_run=3))
        assert (tmp_path / f"{sub}.csv").read_text() == expected.to_csv()
        payload = json.loads((tmp_path / f"{sub}.json").read_text())
        assert payload["config"] == expected.config

    def test_negative_max_hops_exits_2(self, tmp_path, capsys):
        code = main(["fig3", "--out", str(tmp_path),
                     "--set", "experiment.max_hops=-1"])
        assert code == 2
        assert "config error: max_hops must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ("mobility.time_step=nan", "time_step must be finite"),
            ("mobility.mean_speed=nan", "mean_speed must be finite"),
            ("mobility.mean_wait=inf", "mean_wait must be finite"),
            ("mobility.prediction_noise_var=nan", "prediction_noise_var must be finite"),
            ("mobility.mean_speed=inf", "mean_speed must be finite"),
            ("mobility.time_step=inf", "time_step must be finite"),
            ("mobility.transition_prob=nan", "transition_prob must be finite"),
            ("mobility.mean_turn_radius=inf", "mean_turn_radius must be finite"),
        ],
    )
    def test_non_finite_mobility_exits_2(self, tmp_path, capsys, override, message):
        code = main(["fig3", "--runs", "1", "--out", str(tmp_path), "--set", override])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "fig3.csv").exists()

    def test_swept_speed_too_fast_for_the_square_exits_2(self, tmp_path, capsys):
        # 50 m/s x 30 s is within 1000 sides of a 2 m square; 70 m/s is not
        code = main(["fig5", "--runs", "1", "--out", str(tmp_path),
                     "--set", "net.area_side=2", "--set", "net.comm_range=1"])
        assert code == 2
        assert ("config error: mean_speed * time_step must be <= 1000 * "
                "area_side, got 70.0 * 30.0") in capsys.readouterr().err
        assert not (tmp_path / "fig5.csv").exists()

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        out = tmp_path / "from_env"
        monkeypatch.setenv("FANETSIM_OUTDIR", str(out))
        code = main(["fig4", "--runs", "1", "--seed", "1",
                     "--set", "experiment.sessions_per_run=2"])
        assert code == 0
        assert (out / "fig4.csv").is_file()

    def test_one_run_has_no_stderr(self, tmp_path):
        # one run is one value per cell: there is no spread to put an
        # error bar on, so the stderr cell is empty rather than 0
        assert main(["fig3", "--runs", "1", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "fig3.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6 * 4
        assert [row["stderr"] for row in rows] == [""] * len(rows)
        assert all(row["mean"] for row in rows if row["metric"] == "success_rate")

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(["fig4", "--runs", "1", "--seed", "1",
                     "--out", str(blocker / "sub")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestFlagsAreIniKeys:
    """Each convenience flag is a shorthand for one INI key, set after --set."""

    @pytest.mark.parametrize(
        "sub, flags, keys",
        [
            ("fig3", ["--runs", "1", "--seed", "5"],
             ["--set", "experiment.runs=1", "--set", "experiment.seed=5"]),
            ("fig5", ["--runs", "1", "--workers", "2"],
             ["--runs", "1", "--set", "experiment.workers=2"]),
        ],
    )
    def test_figure_flags_write_the_key_csv(self, tmp_path, sub, flags, keys):
        csvs = []
        for name, argv in (("flags", flags), ("keys", keys)):
            assert main([sub, "--out", str(tmp_path / name), *argv]) == 0
            csvs.append((tmp_path / name / f"{sub}.csv").read_bytes())
        assert csvs[0] == csvs[1]

    @staticmethod
    def route(capsys, *argv):
        assert main(["route", *argv]) == 0
        return capsys.readouterr().out

    def test_route_flags_print_the_key_session(self, capsys):
        assert self.route(capsys, "--n", "12", "--seed", "8") == self.route(
            capsys, "--set", "net.n_nodes=12", "--set", "experiment.seed=8"
        )

    def test_flag_wins_over_set(self, capsys):
        seed_2 = self.route(capsys, "--seed", "2")
        assert seed_2 != self.route(capsys, "--seed", "1")
        assert self.route(capsys, "--set", "experiment.seed=1", "--seed", "2") == seed_2


class TestRouteCommand:
    def test_static_trace_monotone_remaining(self, capsys):
        code = main(
            ["route", "--seed", "3", "--n", "10",
             "--set", "mobility.mean_speed=0",
             "--set", "mobility.prediction_noise_var=0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert re.search(r"status: (delivered|stuck_no_progress|link_broken)", out)
        remaining = [float(m) for m in re.findall(r"remaining=([0-9.\-]+) m", out)]
        assert remaining == sorted(remaining, reverse=True)
        if "status: delivered" in out:
            assert remaining[-1] == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("seed, n", [(1, 10), (17, 20)])
    def test_moving_remaining_is_the_landing_distance(self, capsys, seed, n):
        # remaining used to be D0 minus the summed progress, which drifts
        # as the destination moves: seed 1 printed -11.5 m on delivery
        assert main(["route", "--seed", str(seed), "--n", str(n)]) == 0
        out = capsys.readouterr().out
        remaining = re.findall(r"remaining=([0-9.\-]+) m", out)
        assert "status: delivered" in out and remaining[-1] == "0.0"
        assert all(float(r) >= 0.0 for r in remaining)

    def test_all_algorithms_run(self, capsys):
        for alg in ("greedy_predictive", "greedy_static", "dijkstra_static"):
            code = main(["route", "--seed", "5", "--n", "8", "--algorithm", alg])
            assert code == 0
            assert f"algorithm={alg}" in capsys.readouterr().out

    @pytest.mark.parametrize("alg", list(Algorithm), ids=lambda a: a.value)
    def test_session_is_the_harness_session(self, capsys, alg):
        # route shows run 0 of the one-cell, one-session experiment at
        # --seed; at seed 8 each algorithm delivers, in 3, 3 and 4 hops
        assert main(["route", "--seed", "8", "--n", "12", "--algorithm", alg.value]) == 0
        out = capsys.readouterr().out
        result = run_experiment(
            ExperimentConfig(sweep=SweepSpec("n_nodes", (12,)), runs=1,
                             sessions_per_run=1, algorithms=(alg,), seed=8)
        )
        status, hops = re.search(r"status: (\w+) hops=(\d+)", out).groups()
        counts = result.status_counts[12, alg.value]
        assert counts[SessionStatus(status)] == 1 and sum(counts.values()) == 1
        assert f"D0={result.cell_mean_d[12]:.1f} m" in out
        assert result.get(12, alg, "hop_count").mean == int(hops)


# Recorded sha256 of `fanetsim trace` CSVs.  trace prints positions with
# repr, so a last-bit drift anywhere in the mobility model changes them.
_TRACE_SHA256 = {
    "--n 10 --steps 200 --seed 7":
        "707346eef317d0da050e6cfbbd786f0848c062d25236911fc2ea37d555c317d9",
    "--n 30 --steps 100 --seed 3 --set mobility.time_step=30":
        "6bff934dc4cbf57874381497a7a767d4440054d08e4ca10c1b661a08f266bdf0",
    # 60 m/s on a 200 m square: a wall reflection every few steps
    "--n 12 --steps 300 --seed 5 --set net.area_side=200 --set net.comm_range=100 "
    "--set mobility.mean_speed=60 --set mobility.mean_wait=3 --set mobility.time_step=5":
        "70a54cf25b76009934f88606c92f53f0604b7587595b3a673926035399f74820",
}


class TestTraceCommand:
    @pytest.mark.contract
    @pytest.mark.parametrize("args", list(_TRACE_SHA256))
    def test_bytes_match_recorded_sha256(self, tmp_path, args):
        out = tmp_path / "trace.csv"
        assert main(["trace", *args.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _TRACE_SHA256[args]

    def test_csv_columns_and_rows(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["trace", "--seed", "2", "--n", "3", "--steps", "5",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,node_id,x,y,mode"
        assert len(lines) == 1 + 3 * 6
        t, node_id, x, y, mode = lines[1].split(",")
        assert float(t) == 0.0
        assert mode in ("linear", "circular")

    def test_rows_are_the_harness_deployment(self, capsys):
        # trace dumps the fleet of run 0 of a one-cell experiment at --seed
        assert main(["trace", "--seed", "4", "--n", "5", "--steps", "3"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        cfg = ExperimentConfig(net=NetworkParams(5, 10_000.0, 5_000.0), sessions_per_run=1)
        trace, _ = _deploy(cfg, (4, 0, 0), cfg.net, cfg.mobility)
        for k in range(4):
            snap = trace.snapshot(k)
            at_k = [r for r in rows if float(r[0]) == k * cfg.mobility.time_step]
            assert [int(r[1]) for r in at_k] == list(range(5))
            assert [(float(r[2]), float(r[3])) for r in at_k] == [
                tuple(p) for p in snap.true_positions.tolist()
            ]

    def test_negative_steps_exit_2(self, capsys):
        code = main(["trace", "--seed", "2", "--n", "2", "--steps", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error: n_steps must be >= 0" in captured.err
        assert captured.out == ""

    def test_stdout_output(self, capsys):
        code = main(["trace", "--seed", "2", "--n", "2", "--steps", "1"])
        assert code == 0
        assert capsys.readouterr().out.startswith("t,node_id,x,y,mode")

    def test_closed_pipe_stops_quietly(self):
        # `fanetsim trace --n 50 --steps 2000 | head -1`: 100,050 rows
        # outgrow the pipe's buffer, so writing after the reader closes fails
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "fanetsim.cli", "trace", "--n", "50",
             "--steps", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.stdout.readline() == b"t,node_id,x,y,mode\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--seed", "2", "--n", "2", "--steps", "1"],
            ["route", "--seed", "3", "--n", "20"],
            ["bounds", "--n", "100", "--l", "10km", "--r", "2km", "--d", "6km"],
            ["fig4", "--runs", "1", "--seed", "1",
             "--set", "experiment.sessions_per_run=2"],
        ],
        ids=["trace", "route", "bounds", "fig4"],
    )
    def test_every_command_stops_quietly_on_a_closed_pipe(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        class ClosedPipe(io.TextIOBase):
            def fileno(self):
                return fd

            def writable(self):
                return True

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setenv("FANETSIM_OUTDIR", str(tmp_path))
        sink = tmp_path / "stdout"
        fd = os.open(sink, os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(argv) == 141
            # later writes to the closed stdout go to devnull
            os.write(fd, b"late")
        finally:
            os.close(fd)
        assert capsys.readouterr().err == ""
        assert sink.read_bytes() == b""

    def test_speed_too_fast_for_the_square_exits_2(self, capsys):
        # 1e10 m/s crosses a million sides per step: the fold crawled for
        # seconds, and at 1e22 it never ended
        code = main(["trace", "--n", "2", "--steps", "1", "--seed", "1",
                     "--set", "mobility.mean_speed=1e10"])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error: mean_speed * time_step must be <= 1000" in captured.err
        assert captured.out == ""
