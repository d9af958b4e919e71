"""Self-check of the benchmark at toy sizes.

Usage (from the root of a checkout): python3 perfbench/selfcheck.py

Checks, for every workload:

* run.py prints, as its last line, the result object with every metric
  BENCHMARK.json names, each with the unit BENCHMARK.json gives it, for
  both ``--trace 0`` and ``--trace 1``;
* spans nest inside their parents and every self time is >= 0;
* traced and untraced passes give the same output fingerprint, and every
  count metric repeats exactly between two traced passes.

Exits 0 when all checks pass, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402


def check_result_line(name: str, trace: int, bench: dict) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{name} trace={trace}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{name} trace={trace}: not correct: {proc.stderr[-500:]}")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{name} trace={trace}: metrics/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}, "
                        f"units {sorted(k for k in got if k in wanted and got[k] != wanted[k])}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            problems.append(f"{name}: {k} is not a number")
        if v["unit"] == "count" and not isinstance(v["value"], int):
            problems.append(f"{name}: count metric {k} is not an integer")
    return problems


def check_traced_pass(name: str) -> list[str]:
    w = workloads.make(name, 3, toy=True)
    plain = workloads.fingerprint(w.run())
    problems, counts = [], []
    for _ in range(2):
        rec = tracing.Recorder()
        rec.install()
        try:
            traced = workloads.fingerprint(w.run())
        finally:
            rec.uninstall()
        if traced != plain:
            problems.append(f"{name}: traced fingerprint {traced[:16]} != untraced {plain[:16]}")
        problem = rec.check_spans()
        if problem:
            problems.append(f"{name}: {problem}")
        if not rec.spans:
            problems.append(f"{name}: traced pass recorded no spans")
        m = rec.layer_metrics()
        counts.append({k: m[k] for k in tracing.COUNT_METRICS if k in m})
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        problems.append(f"{name}: determinism defect, counts differ between passes: {diff}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if listed != dict(tracing.LAYER_METRICS):
        problems.append("tracing.LAYER_METRICS and BENCHMARK.json per_layer differ")
    if [w["name"] for w in bench["workloads"]] != list(workloads.NAMES):
        problems.append("workloads.NAMES and BENCHMARK.json workloads differ")
    for name in workloads.NAMES:
        found = check_traced_pass(name)
        for trace in (0, 1):
            found += check_result_line(name, trace, bench)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
