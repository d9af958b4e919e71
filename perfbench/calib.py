"""Host-speed calibration kernel.

The benchmark runs on shared virtual machines whose speed swings by up to
about 2x, in episodes from seconds to minutes, because other tenants
contend for the physical cores.  Raw pass times follow those swings, so
run.py times this fixed kernel right before and right after every pass and
scales the pass time by how fast the kernel ran at that moment:

    wall_s = pass seconds * REFERENCE_S / (kernel seconds next to the pass)

which is the time the pass would take on a host that runs the kernel in
``REFERENCE_S`` seconds.  The kernel is code of the benchmark, not of
fanetsim, so a change to fanetsim moves the scaled time exactly as it
moves the raw time.  It mixes the operations the workloads spend their
time on: scalar float math, heapq, dict stores, scalar draws from a numpy
Generator, small numpy arrays, and shortest-path searches over points in a
numpy array indexed one element at a time.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

ITERATIONS = 2000  # of the scalar loop
N_POINTS = 48  # of the shortest-path search
# Seconds one kernel run takes on the reference host: a 2-vCPU Intel Xeon
# virtual machine, Python 3.11.7, numpy 2.4.6, in its fast mode.
REFERENCE_S = 0.013
_EXPECTED = None  # the kernel's result, fixed by its first run


def kernel() -> float:
    rng = np.random.default_rng(20240601)
    # Scalar loop: float math, heapq, dict stores, numpy scalar draws and
    # small arrays, as in mobility stepping and the corridor quadratures.
    acc = 0.0
    heap: list = []
    table: dict = {}
    for i in range(ITERATIONS):
        v = float(rng.uniform(0.0, 2.0 * math.pi))
        acc += math.cos(v) * math.hypot(acc % 3.0, v)
        heapq.heappush(heap, (acc % 97.0, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        table[i & 511] = v
        if i % 16 == 0:
            pts = np.array([(acc, v), (v, acc)], dtype=float)
            acc += float(pts.sum()) * 1e-12
    # Shortest paths over points in a numpy array, indexed one element at a
    # time, as in neighbor scans and Dijkstra routing.
    pos = rng.uniform(0.0, 1000.0, size=(N_POINTS, 2))
    r2 = 300.0 * 300.0
    for src in range(0, N_POINTS, 6):
        best = {src: 0.0}
        heap = [(0.0, src)]
        done = set()
        while heap:
            d, i = heapq.heappop(heap)
            if i in done:
                continue
            done.add(i)
            x, y = pos[i]
            for j in range(N_POINTS):
                dx = pos[j, 0] - x
                dy = pos[j, 1] - y
                if j != i and dx * dx + dy * dy <= r2:
                    nd = d + math.hypot(dx, dy)
                    if nd < best.get(j, math.inf):
                        best[j] = nd
                        heapq.heappush(heap, (nd, j))
        acc += sum(best.values()) * 1e-9
    return acc + len(table)


def measure(reps: int = 1) -> float:
    """Mean seconds one kernel run takes now, over reps runs in a row."""
    global _EXPECTED
    t0 = time.perf_counter()
    for _ in range(reps):
        out = kernel()
    dt = (time.perf_counter() - t0) / reps
    if _EXPECTED is None:
        _EXPECTED = out
    elif out != _EXPECTED:
        raise RuntimeError("calibration kernel gave a different result")
    return dt


def reps_for(pass_s: float, share: float) -> int:
    """Kernel runs to time next to each pass of pass_s seconds, so that the
    kernel takes about share of the pass time: long enough that it averages
    the host's speed over a stretch of time, as the pass does."""
    return max(1, round(share * pass_s / measure()))
