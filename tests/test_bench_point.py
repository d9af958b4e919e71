"""``tools/bench_point.py``: the keys of a point, and a failed run recorded
in place of its numbers.  Every subprocess is faked, so nothing is built
or measured."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench_point = _load("bench_point")

WORKLOADS = ("fig5_speed", "bounds_grid")  # in BENCHMARK.json order, not sorted
ENV = {"nproc": 2, "cpu_model": "test cpu", "python": "3.11", "numpy": "2", "load_1m": 0.5}


def _checkout(tmp_path):
    """A checkout with the files a point reads besides run output."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "calib.py").write_text("REFERENCE_S = 0.01\n")
    benchmark = {"workloads": [{"name": w} for w in WORKLOADS]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return tmp_path


@pytest.fixture
def fake_runs(monkeypatch):
    """Fakes subprocess.run; ``broken`` holds ``(workload, seed, trace)``
    runs whose last line is not JSON."""
    broken = set()

    def fake_run(cmd, cwd, **kwargs):
        out = ""
        if "perfbench/run.py" in cmd:
            workload, seed, trace = (cmd[cmd.index(f) + 1] for f in
                                     ("--workload", "--seed", "--trace"))
            if seed == "0" and trace == "0":
                record = {"env": ENV, "wall_s_samples": [1.0, 2.0, 3.0],
                          "wall_kernel_s_samples": [0.02, 0.02, 0.01],
                          "setup_s_samples": [0.1, 0.3, 0.2]}
                out_dir = Path(cwd) / "perfbench" / "out"
                out_dir.mkdir(exist_ok=True)
                (out_dir / f"{workload}-seed0-trace0.json").write_text(json.dumps(record))
            metrics = ({"routing.hops": {"value": 7, "unit": "count"}} if trace == "1"
                       else {"peak_rss_mb": {"value": 36.5, "unit": "MB"}})
            result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
            last = "Traceback ..." if (workload, seed, trace) in broken else json.dumps(result)
            out = f"fingerprint: abc{seed} (matches recorded)\n{last}\n"
        elif "pytest" in cmd:
            out = "....F\n1 failed, 598 passed, 2 warnings in 51.00s\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench_point.subprocess, "run", fake_run)
    return broken


def test_point_keys_and_figures(tmp_path, fake_runs):
    point = bench_point.take_point(str(_checkout(tmp_path)))
    assert list(point) == ["env", "workloads", "tier1", "figures", "failed"]
    assert point["env"] == ENV
    assert list(point["workloads"]) == list(WORKLOADS)
    for got in point["workloads"].values():
        assert list(got) == ["end_to_end", "per_layer", "seed_9001"]
        e2e = got["end_to_end"]
        # each pass scaled by REFERENCE_S / kernel: 0.5, 1.0 and 3.0
        assert e2e["wall_s"] == {"median": 1.0, "q1": 0.5, "q3": 3.0, "n": 3}
        assert e2e["setup_s"]["median"] == 0.2 and e2e["setup_s"]["n"] == 3
        assert e2e["peak_rss_mb"] == {"median": 36.5, "q1": 36.5, "q3": 36.5, "n": 1}
        assert e2e["calibration_kernel_s"] == 0.02
        assert e2e["fingerprint"] == "abc0 (matches recorded)"
        assert got["per_layer"] == {"routing.hops": 7}
        assert got["seed_9001"] == {"fingerprint": "abc9001 (matches recorded)"}
    tier1 = point["tier1"]
    assert (tier1["passed"], tier1["failed"], tier1["errors"]) == (598, 1, 0)
    assert list(point["figures"]) == ["fig3", "fig5", "fig6"]
    for figure in point["figures"].values():
        assert list(figure) == ["workers_1_s", "workers_2_s"]
        assert all(isinstance(s, float) for s in figure.values())
    assert point["failed"] == []


def test_a_run_whose_last_line_is_not_json_is_recorded_as_failed(tmp_path, fake_runs):
    fake_runs.add(("bounds_grid", "0", "1"))
    point = bench_point.take_point(str(_checkout(tmp_path)))
    per_layer = point["workloads"]["bounds_grid"]["per_layer"]
    assert list(per_layer) == ["error"]
    assert per_layer["error"].startswith("last line is not JSON")
    assert point["workloads"]["fig5_speed"]["per_layer"] == {"routing.hops": 7}
    assert point["failed"] == ["workloads.bounds_grid.per_layer"]


def test_main_writes_the_point_and_exits_1_on_a_failed_run(tmp_path, fake_runs, monkeypatch):
    fake_runs.add(("fig5_speed", "0", "0"))
    monkeypatch.setattr(bench_point.signal, "signal", lambda *args: None)
    monkeypatch.setattr(bench_point.ab_pairs, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_point.ab_pairs, "git", lambda *args: "f00d")

    def fake_extract(tree, dest):
        Path(dest).mkdir()
        _checkout(Path(dest))

    monkeypatch.setattr(bench_point.ab_pairs, "extract", fake_extract)
    assert bench_point.main(["parent"]) == 1
    point = json.loads((tmp_path / "BENCH_parent.json").read_text())
    assert (point["label"], point["revision"]) == ("parent", "f00d")
    assert point["failed"] == ["workloads.fig5_speed.end_to_end"]
    assert point["env"] == ENV  # from the first record that exists


@pytest.mark.parametrize("label", ["", "a/b", "../x"])
def test_a_label_outside_a_file_name_exits_2(label):
    assert bench_point.main([label]) == 2
