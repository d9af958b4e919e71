"""Interleaved A/B pairs of one benchmark workload: a git revision against
the working tree.

Usage (from anywhere inside a checkout):

    python3 tools/ab_pairs.py REV WORKLOAD [--pairs 10] [--seed 0] [--seconds 20]

Builds both sides with one routine: ``git archive`` of a tree, extracted
into one of two temporary directories whose names have equal length.
REV's tree is its commit's.  The working tree's comes from ``git add
--all`` and ``git write-tree`` run against a temporary copy of the index
(``GIT_INDEX_FILE``), so it holds the tracked files and the untracked
ones that are not ignored, without the deleted ones, and the real index
is left untouched.  The blobs and trees hashed that way stay in
``.git/objects``, referenced by nothing, until ``git gc`` prunes them.

Then runs ``python3 perfbench/run.py --workload WORKLOAD --seed SEED
--seconds SECONDS --trace 0`` in each directory, one pair at a time,
alternating which side runs first.  Like the benchmark itself, both sides
run in fresh directories, so neither reads a bytecode cache that the
other lacks (a stale ``__pycache__`` in the working tree alone moved
``wide_area`` ``wall_s`` by about 0.9%), and a killed run leaves nothing
registered in the repository.  Running the two sides in pairs cancels the
drift of a shared host's speed, which ``setup_s`` (not scaled by the
calibration kernel) follows.

Prints each pair's ``wall_s``, ``setup_s`` and ``peak_rss_mb``, then for
each metric both sides' medians and quartiles, how many pairs the working
tree won (lower is better for all three; a tie counts for neither side),
and whether a gain claim holds: the working tree wins at least 9 in 10
pairs, and its median is better than REV's by more than REV's
interquartile spread.  A run that exits non-zero, prints nothing, or
whose last line is not JSON counts as failed, and its pair gives no
sample.  Exits 2 when REV names no commit, 1 when a run fails or is not
correct, 0 otherwise.  Removes its temporary directories on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
WIN_SHARE = 0.9  # a claimed gain must win at least this share of pairs


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev", help="git revision to compare against, e.g. HEAD")
    p.add_argument("workload", help="perfbench workload name")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    return args


def git(*args: str, env: dict | None = None) -> str:
    """The stripped stdout of ``git ARGS`` run at the top of the checkout."""
    return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def write_working_tree(tmp: str) -> str:
    """The id of a tree object holding the working tree's files that git
    tracks or would track, hashed through a copy of the index in ``tmp``."""
    index = os.path.join(tmp, "index")
    real_index = os.path.join(ROOT, git("rev-parse", "--git-path", "index"))
    if os.path.exists(real_index):  # its stat data spares rehashing unchanged files
        shutil.copyfile(real_index, index)
    env = {**os.environ, "GIT_INDEX_FILE": index}
    git("add", "--all", env=env)
    return git("write-tree", env=env)


def extract(tree: str, dest: str) -> None:
    """The files of ``tree`` under ``dest``."""
    with subprocess.Popen(["git", "archive", "--format=tar", tree], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
    if proc.returncode != 0:
        raise SystemExit(f"git archive {tree} exited with {proc.returncode}")


def run_bench(checkout: str, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, str]:
    """One ``perfbench/run.py`` run in ``checkout``: the result object of
    its last line, or an ``error``; and the text of its ``fingerprint:``
    line, the hash and the verdict on it in parentheses."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    fingerprint = next((ln.removeprefix("fingerprint: ") for ln in lines
                        if ln.startswith("fingerprint: ")), "")
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}, fingerprint
    try:
        return json.loads(lines[-1]), fingerprint
    except ValueError:
        return {"error": f"last line is not JSON: {lines[-1][-300:]!r}"}, fingerprint


def run_once(checkout: str, args) -> dict:
    """One untraced benchmark run in ``checkout``: its metrics, or an ``error``."""
    result, fingerprint = run_bench(checkout, args.workload, args.seed, args.seconds, 0)
    if "error" in result:
        return result
    out = {m: result["metrics"][m]["value"] for m in METRICS}
    if None in out.values():
        return {"error": f"no value for {[m for m, v in out.items() if v is None]}"}
    out["fingerprint"] = fingerprint.partition("(")[2].rstrip(")") or "missing"
    if not result["correct"] or result["failed"]:
        out["error"] = f"correct={result['correct']} failed={result['failed']}"
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summarize(metric: str, base: list[float], new: list[float], rev: str) -> str:
    b1, b2, b3 = quartiles(base)
    n1, n2, n3 = quartiles(new)
    wins = sum(n < b for b, n in zip(base, new))
    gap = b2 - n2
    holds = wins >= math.ceil(WIN_SHARE * len(base)) and gap > b3 - b1
    change = f"{-100.0 * gap / b2:+.2f}%" if b2 else "n/a"
    return (
        f"{metric}: {rev} median {b2:.6g} [q1 {b1:.6g}, q3 {b3:.6g}]; "
        f"working tree median {n2:.6g} [q1 {n1:.6g}, q3 {n3:.6g}]; "
        f"change {change}; working tree wins {wins}/{len(base)}; "
        f"gap {gap:.6g} vs {rev} IQR {b3 - b1:.6g}; "
        f"gain claim {'holds' if holds else 'does not hold'}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    verify = ["git", "rev-parse", "--verify", "--quiet", f"{args.rev}^{{commit}}"]
    if subprocess.run(verify, cwd=ROOT, capture_output=True).returncode != 0:
        print(f"error: {args.rev!r} names no commit", file=sys.stderr)
        return 2
    # SIGTERM ends the run through the finally clause below, like Ctrl-C.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix="ab_pairs-")
    try:
        # Equal-length names, so neither side's paths are longer.
        sides = {args.rev: os.path.join(tmp, "base"),
                 "working tree": os.path.join(tmp, "work")}
        trees = {args.rev: git("rev-parse", f"{args.rev}^{{tree}}"),
                 "working tree": write_working_tree(tmp)}
        for side, tree in trees.items():
            extract(tree, sides[side])
        samples = {side: {m: [] for m in METRICS} for side in sides}
        failed = False
        print(f"{args.workload} seed {args.seed}, {args.seconds:g} s per run: "
              f"{args.rev} against the working tree, {args.pairs} pairs", flush=True)
        for i in range(args.pairs):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            got = {side: run_once(sides[side], args) for side in order}
            failed = failed or any("error" in r for r in got.values())
            paired = all("wall_s" in r for r in got.values())
            parts = []
            for side in sides:
                r = got[side]
                if paired:
                    for m in METRICS:
                        samples[side][m].append(r[m])
                if "wall_s" in r:
                    parts.append(
                        f"{side}: wall_s {r['wall_s']:.6f} setup_s {r['setup_s']:.6f} "
                        f"peak_rss_mb {r['peak_rss_mb']:.3f} ({r['fingerprint']})"
                    )
                if "error" in r:
                    parts.append(f"{side}: FAILED {r['error']}")
            print(f"pair {i + 1} ({order[0]} first): " + "; ".join(parts), flush=True)
        base, new = samples[args.rev], samples["working tree"]
        if not base["wall_s"]:
            print("no pair gave metrics on both sides; no summary", file=sys.stderr)
            return 1
        for m in METRICS:
            print(summarize(m, base[m], new[m], args.rev))
        return 1 if failed else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
