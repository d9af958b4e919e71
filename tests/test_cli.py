import json
import math
import re

import pytest

from fanetsim.analysis import NetworkParams, bounds_report, min_range_for_isolation
from fanetsim.cli import ConfigError, build_experiment_config, load_config, main, parse_length


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
            ("mobility.prediction_horizon=-1", "prediction_horizon must be >= 0"),
        ],
    )
    def test_non_finite_mobility_exits_2(self, tmp_path, capsys, override, message):
        code = main(["fig3", "--runs", "1", "--out", str(tmp_path), "--set", override])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "fig3.csv").exists()

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        out = tmp_path / "from_env"
        monkeypatch.setenv("FANETSIM_OUTDIR", str(out))
        code = main(["fig4", "--runs", "1", "--seed", "1",
                     "--set", "experiment.sessions_per_run=2"])
        assert code == 0
        assert (out / "fig4.csv").is_file()

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(["fig4", "--runs", "1", "--seed", "1",
                     "--out", str(blocker / "sub")])
        assert code == 1
        assert "error" in capsys.readouterr().err


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

    def test_all_algorithms_run(self, capsys):
        for alg in ("greedy_predictive", "greedy_static", "dijkstra_static"):
            code = main(["route", "--seed", "5", "--n", "8", "--algorithm", alg])
            assert code == 0
            assert f"algorithm={alg}" in capsys.readouterr().out


class TestTraceCommand:
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
