"""fanetsim benchmark: run one workload at one seed and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig3_nodes --seed 0 --seconds 20 --trace 0

Workloads: fig3_nodes, fig5_speed, wide_area, bounds_grid (see NOTES.md).

With ``--trace 0`` the run reports the end-to-end metrics:

* ``wall_s``: median host seconds of one pass, over every pass timed in
  ``--seconds`` seconds after a warm-up pass, each scaled to the reference
  host speed by the calibration kernel of calib.py, timed right before and
  after the pass; the report also prints the highest percentile with at
  least ten samples beyond it, the sample count and the raw median.  The
  scaling is there because host speed on a shared machine swings by up to
  about 2x for seconds to minutes at a time (see NOTES.md);
* ``setup_s``: median time for a fresh interpreter to import
  ``fanetsim.cli`` and build the workload's configuration;
* ``peak_rss_mb``: peak resident memory of a fresh process that sets up
  and runs one pass.

With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of tracing.py, the per-layer self-time shares and
the tracing overhead.  Every pass, traced or not, is checked: its output
must hash to the fingerprint recorded in fingerprints.json for this seed
(when one is recorded) and to the same value as every other pass of the
run.  A pass that raises or mismatches counts as failed; error_rate is
failed / attempted.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
with the environment stamp and all samples, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_PROBES = 7  # fresh interpreters timed per run; setup_s is their median
RSS_PROBES = 1  # of those, how many also run a pass for peak_rss_mb
MIN_PASSES = 5  # wide_area passes take 2-4 s, so a 20 s run may time only 5-8
MIN_TRACED = 2  # traced passes, so counts can be compared between two
MAX_LOOP_S = 120  # stop taking passes after this long, minimums met or not
PROBE_TIMEOUT_S = 120
KERNEL_SHARE = 0.1  # calibration kernel time next to a pass, as a share of the pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None, help="workload seed (default: recorded default)")
    p.add_argument("--seconds", type=float, default=20.0, help="measurement time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="toy sizes, for selfcheck.py")
    return p.parse_args(argv)


def env_stamp() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_1m": os.getloadavg()[0],
    }


def probe(name: str, seed: int, passes: int, toy: bool) -> dict:
    """Start child.py in a fresh interpreter; return its timings and output."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), name, str(seed), str(passes)]
    if toy:
        cmd.append("toy")
    started_at = time.time()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"probe {cmd} exited with {proc.returncode}")
    out = json.loads(lines[0])
    out["setup_s"] = out.pop("ready_at") - started_at
    if passes:
        out.update(json.loads(lines[-1]))
    return out


def scale(samples: list[float], kernels: list[float], reference_s: float) -> list[float]:
    """Each sample scaled to the host speed at which the calibration kernel
    takes reference_s; kernels[i] is the kernel's time next to samples[i]."""
    return [x * reference_s / k for x, k in zip(samples, kernels)]


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, and its value."""
    s = sorted(samples)
    if len(s) < 11:
        return "no percentile with 10 samples beyond it"
    idx = len(s) - 11
    return f"p{100.0 * (idx + 1) / len(s):.0f} {s[idx]:.6f} s"


class Checker:
    """Runs passes, checking every output against the expected fingerprint."""

    def __init__(self, recorded: dict, workloads):
        self.recorded = recorded
        self.workloads = workloads
        self.reference: dict[int, str] = {}  # first fingerprint seen per unrecorded seed
        self.observed: dict[int, str] = {}  # last fingerprint seen per seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def expect(self, seed: int, fp: str, what: str) -> bool:
        self.observed[seed] = fp
        want = self.recorded.get(str(seed)) or self.reference.setdefault(seed, fp)
        if fp != want:
            self.errors.append(f"{what}: fingerprint {fp[:16]} != expected {want[:16]} (seed {seed})")
            return False
        return True

    def run_pass(self, w, what: str) -> float | None:
        """One pass; its wall time, or None when it raised or mismatched."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = w.run()
            wall = time.perf_counter() - t0
            problem = w.check(out)
        except Exception:  # noqa: BLE001 - a failing pass is counted, not fatal
            self.failed += 1
            self.errors.append(f"{what} raised:\n{traceback.format_exc()}")
            return None
        if problem is not None:
            self.errors.append(f"{what}: {problem}")
        if problem is not None or not self.expect(w.seed, self.workloads.fingerprint(out), what):
            self.failed += 1
            return None
        return wall


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fanetsim", "__init__.py")):
        print(f"error: no fanetsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import calib
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; expected one of {workloads.NAMES}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    with open(os.path.join(HERE, "fingerprints.json"), encoding="utf-8") as fh:
        recorded = {} if args.toy else json.load(fh).get(args.workload, {})

    env = env_stamp()
    if env["load_1m"] > env["nproc"]:
        print(
            f"warning: 1-minute load {env['load_1m']:.2f} exceeds nproc {env['nproc']}; "
            "timings will be noisy",
            file=sys.stderr,
        )

    checker = Checker(recorded, workloads)
    probes = [
        probe(args.workload, seed, 1 if i < RSS_PROBES and not args.trace else 0, args.toy)
        for i in range(SETUP_PROBES)
    ]
    for p in probes:
        if "fingerprint" in p:
            checker.attempted += 1
            if not checker.expect(seed, p["fingerprint"], "fresh-process pass"):
                checker.failed += 1

    # Warm-up at the default seed: checks the recorded fingerprint on every run.
    warm_wall = checker.run_pass(
        workloads.make(args.workload, workloads.DEFAULT_SEED, args.toy), "warm-up pass"
    )
    w = workloads.make(args.workload, seed, args.toy)
    reps = calib.reps_for(warm_wall or 0.0, KERNEL_SHARE)

    walls: list[float] = []
    kernels: list[float] = []  # calibration kernel seconds around each of walls
    traced_walls: list[float] = []
    traced = []  # (layer metrics, layer shares) per traced pass
    first_rec = None  # spans of the first traced pass, kept to write out
    t_start = time.perf_counter()
    kernel_before = calib.measure(reps)
    while True:
        wall = checker.run_pass(w, "pass")
        kernel_after = calib.measure(reps)
        if wall is not None:
            walls.append(wall)
            kernels.append(0.5 * (kernel_before + kernel_after))
        kernel_before = kernel_after
        if args.trace:
            rec = tracing.Recorder()
            rec.install()
            try:
                rec.open("bench.pass")
                try:
                    wall = checker.run_pass(w, "traced pass")
                finally:
                    rec.close()
            finally:
                rec.uninstall()
            if wall is not None:
                traced_walls.append(wall)
                problem = rec.check_spans()
                if problem:
                    checker.errors.append(f"traced pass {len(traced)}: {problem}")
                traced.append((rec.layer_metrics(), rec.layer_shares()))
                first_rec = first_rec or rec
        elapsed = time.perf_counter() - t_start
        enough = len(traced) >= MIN_TRACED if args.trace else len(walls) >= MIN_PASSES
        if (elapsed >= args.seconds and enough) or elapsed >= MAX_LOOP_S:
            break

    report = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "toy": args.toy,
        "pass_size": w.size,
        "pass_size_unit": w.size_unit,
        "env": env,
        "wall_s_samples": walls,
        "wall_kernel_s_samples": kernels,
        "traced_wall_s_samples": traced_walls,
        "setup_s_samples": [p["setup_s"] for p in probes],
        "fingerprint": checker.observed.get(seed),
        "fingerprint_recorded": recorded.get(str(seed)),
    }
    lines = [
        f"fanetsim benchmark: workload={args.workload} seed={seed} trace={args.trace}"
        f"{' toy' if args.toy else ''}; one pass = {w.size} {w.size_unit}",
        "env: " + json.dumps(env, sort_keys=True),
    ]
    scaled_walls = scale(walls, kernels, calib.REFERENCE_S)
    if walls:
        lines.append(
            f"wall_s: median {statistics.median(scaled_walls):.6f} s (reported), "
            f"{tail(scaled_walls)}, n={len(walls)} untraced passes, scaled to the "
            f"reference host speed; raw median {statistics.median(walls):.6f} s, "
            f"calibration kernel median {statistics.median(kernels):.6f} s "
            f"(reference {calib.REFERENCE_S} s)"
        )
    setup_s = statistics.median(report["setup_s_samples"])
    lines.append(f"setup_s: median {setup_s:.6f} s over {len(probes)} fresh interpreters")

    if args.trace:
        metrics, shares = layer_report(tracing, traced, probes, checker)
        report["layer_shares"] = shares
        report["span_self_times"] = first_rec.span_self_times() if first_rec else {}
        if walls and traced_walls:
            overhead = statistics.fmean(traced_walls) - statistics.fmean(walls)
            report["tracing_overhead_s"] = overhead
            lines.append(
                f"tracing overhead: {overhead:.6f} s per pass "
                f"(traced mean {statistics.fmean(traced_walls):.6f} s, n={len(traced_walls)})"
            )
        lines.append(
            "self-time shares by layer: "
            + ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
        )
        units = dict(tracing.LAYER_METRICS)
        lines += [f"{name}: {metrics[name]} {units[name]}" for name, _ in tracing.LAYER_METRICS]
        if first_rec:
            os.makedirs(OUT_DIR, exist_ok=True)
            first_rec.write_spans(
                os.path.join(OUT_DIR, f"{args.workload}-seed{seed}.spans.jsonl")
            )
    else:
        rss_kb = [p["maxrss_kb"] for p in probes if "maxrss_kb" in p]
        metrics = {"wall_s": statistics.median(scaled_walls) if walls else None, "setup_s": setup_s,
                   "peak_rss_mb": statistics.median(rss_kb) / 1024.0}
        lines.append(f"peak_rss_mb: {metrics['peak_rss_mb']:.3f} MB (fresh process, one pass)")
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    lines.append(
        f"error_rate: {checker.failed}/{checker.attempted} passes = "
        f"{checker.failed / max(checker.attempted, 1):.4f}"
    )
    fp, want = report["fingerprint"], report["fingerprint_recorded"]
    status = "not recorded for this seed" if want is None else (
        "matches recorded" if fp == want else f"DIFFERS from recorded {want}")
    lines.append(f"fingerprint: {fp} ({status})")
    for e in checker.errors:
        print(f"error: {e}", file=sys.stderr)
    correct = checker.failed == 0 and not checker.errors and bool(walls)
    report.update(
        correct=correct, attempted=checker.attempted, failed=checker.failed, errors=checker.errors,
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": report["metrics"],
    }))
    return 0


def layer_report(tracing, traced, probes, checker) -> tuple[dict, dict]:
    """Per-layer metrics and layer shares over the traced passes: counts from
    the first pass (checked to repeat exactly in every other), self times and
    shares as medians."""
    per_pass = [m for m, _ in traced]
    metrics: dict = {}
    for name, unit in tracing.LAYER_METRICS:
        if name.startswith("cli."):
            continue
        values = [m[name] for m in per_pass]
        if unit == "s":
            metrics[name] = statistics.median(values) if values else 0.0
            continue
        metrics[name] = values[0] if values else 0
        if any(v != values[0] for v in values):
            checker.errors.append(f"determinism defect: {name} differs between traced passes: {values}")
    metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    metrics["cli.config.self_s"] = statistics.median(p["config_s"] for p in probes)
    layers = sorted({k for _, s in traced for k in s})
    shares = {k: statistics.median(s.get(k, 0.0) for _, s in traced) for k in layers}
    return metrics, shares


if __name__ == "__main__":
    sys.exit(main())
