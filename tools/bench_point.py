"""One benchmark point of the checked-out commit, written to
``BENCH_<LABEL>.json`` at the top of the checkout.

Usage (from anywhere inside a checkout):

    python3 tools/bench_point.py LABEL

Extracts HEAD's tree into a temporary directory with the ``git archive``
routine of ``tools/ab_pairs.py``, so uncommitted changes are not measured
and no bytecode cache is shared, and in that directory:

* for each workload of ``BENCHMARK.json``, in its order, runs
  ``perfbench/run.py``:

  - ``--trace 0`` at seed 0 for 20 s: the median and quartiles of
    ``wall_s`` (each pass scaled to the reference host speed, as run.py
    scales it), ``setup_s`` and ``peak_rss_mb``, from the samples of its
    ``perfbench/out/`` record (run.py keeps one ``peak_rss_mb`` sample,
    its result), and the calibration kernel's median reading;
  - ``--trace 1`` at seed 0, once: the per-layer metrics;
  - ``--trace 0`` at seed 9001 for its minimum of passes: the fingerprint
    verdict;

* runs the tier-1 suite once: its pass and fail counts and wall seconds;
* runs ``fanetsim fig3``, ``fig5`` and ``fig6`` at ``--runs 100 --seed
  0`` with ``--workers 1`` and ``--workers 2``: each the median wall
  seconds of 5 fresh processes.

The point records the commit, and the ``env`` block of the first
workload's record (CPU, Python, numpy, load).  A run that exits non-zero,
prints nothing, whose last line is not JSON, or that is not correct is
recorded as an ``error`` in place of its numbers and named in
``failed``; the point is written all the same.  Exits 1 when a run
failed, 2 on a bad LABEL, 0 otherwise.  Removes its temporary directory
on exit.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_pairs  # noqa: E402

SECONDS = 20.0  # of each workload's --trace 0 run at seed 0
FINGERPRINT_SEED = 9001  # the other seed fingerprints.json records
FIGURES = ("fig3", "fig5", "fig6")
FIGURE_PROCESSES = 5  # fresh processes per figure and worker count
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def spread(samples: list[float]) -> dict:
    """Median, quartiles and count of ``samples``."""
    q1, q2, q3 = ab_pairs.quartiles(samples)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(samples)}


def bench_result(checkout: str, workload: str, seed: int, seconds: float,
                 trace: int) -> tuple[dict, str]:
    """run.py's result object, with an ``error`` when the run failed or is
    not correct; and its fingerprint line."""
    result, fingerprint = ab_pairs.run_bench(checkout, workload, seed, seconds, trace)
    if "error" not in result and (not result.get("correct") or result.get("failed")):
        result["error"] = f"correct={result.get('correct')} failed={result.get('failed')}"
    return result, fingerprint


def end_to_end(checkout: str, workload: str) -> tuple[dict, dict]:
    """The ``--trace 0`` figures at seed 0, and its record's ``env`` block."""
    result, fingerprint = bench_result(checkout, workload, 0, SECONDS, 0)
    if "error" in result:
        return {"error": result["error"]}, {}
    path = os.path.join(checkout, "perfbench", "out", f"{workload}-seed0-trace0.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    spec = importlib.util.spec_from_file_location(
        "bench_point_calib", os.path.join(checkout, "perfbench", "calib.py"))
    calib = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calib)
    kernels = record["wall_kernel_s_samples"]
    walls = [w * calib.REFERENCE_S / k for w, k in zip(record["wall_s_samples"], kernels)]
    return {
        "wall_s": spread(walls),
        "setup_s": spread(record["setup_s_samples"]),
        "peak_rss_mb": spread([result["metrics"]["peak_rss_mb"]["value"]]),
        "calibration_kernel_s": statistics.median(kernels),
        "calibration_reference_s": calib.REFERENCE_S,
        "fingerprint": fingerprint,
    }, record["env"]


def tier1(checkout: str) -> dict:
    """Pass and fail counts and wall seconds of one tier-1 run."""
    env = {**os.environ, "PYTHONPATH": "src"}
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    summary = lines[-1] if lines else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    if "passed" not in counts:
        return {"error": f"exit {proc.returncode}, no summary: {summary[-300:]!r}"}
    return {"passed": counts["passed"], "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0), "seconds": seconds}


def figure_seconds(checkout: str, figure: str, workers: int) -> float | dict:
    """Median wall seconds of fresh ``fanetsim FIGURE`` processes, or an
    ``error``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    out = os.path.join(checkout, "figures-out")
    cmd = [sys.executable, "-m", "fanetsim.cli", figure, "--runs", "100", "--seed", "0",
           "--workers", str(workers), "--out", out]
    times = []
    for _ in range(FIGURE_PROCESSES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return statistics.median(times)


def take_point(checkout: str) -> dict:
    """Every figure of a point, measured in ``checkout``."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    point: dict = {"env": {}, "workloads": {}}
    for name in workloads:
        print(f"{name} ...", file=sys.stderr, flush=True)
        e2e, env = end_to_end(checkout, name)
        point["env"] = point["env"] or env
        traced, _ = bench_result(checkout, name, 0, 0.0, 1)
        if "error" not in traced:
            traced = {k: v["value"] for k, v in traced["metrics"].items()}
        other, fingerprint = bench_result(checkout, name, FINGERPRINT_SEED, 0.0, 0)
        if "error" not in other:
            other = {"fingerprint": fingerprint}
        point["workloads"][name] = {
            "end_to_end": e2e, "per_layer": traced, f"seed_{FINGERPRINT_SEED}": other}
    print("tier-1 ...", file=sys.stderr, flush=True)
    point["tier1"] = tier1(checkout)
    point["figures"] = {}
    for figure in FIGURES:
        print(f"{figure} ...", file=sys.stderr, flush=True)
        point["figures"][figure] = {
            f"workers_{w}_s": figure_seconds(checkout, figure, w) for w in (1, 2)}
    point["failed"] = list(failures(point))
    return point


def failures(node, path: str = ""):
    """The paths of the ``error`` entries under ``node``."""
    if isinstance(node, dict):
        if "error" in node:
            yield path
            return
        for key, value in node.items():
            yield from failures(value, f"{path}.{key}" if path else key)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label", help="names the file BENCH_<label>.json")
    label = p.parse_args(argv).label
    if not re.fullmatch(r"[A-Za-z0-9._-]+", label):
        print(f"error: label {label!r} must be letters, digits, '.', '_' or '-'",
              file=sys.stderr)
        return 2
    # SIGTERM ends the run through the finally clause below, like Ctrl-C.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    revision = ab_pairs.git("rev-parse", "HEAD")
    tmp = tempfile.mkdtemp(prefix="bench_point-")
    try:
        checkout = os.path.join(tmp, "tree")
        ab_pairs.extract(ab_pairs.git("rev-parse", "HEAD^{tree}"), checkout)
        point = {"label": label, "revision": revision, **take_point(checkout)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = os.path.join(ab_pairs.ROOT, f"BENCH_{label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}" + (f"; failed: {', '.join(point['failed'])}" if point["failed"] else ""))
    return 1 if point["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
