"""Fresh-interpreter probe for set-up time and peak memory.

Usage: python3 perfbench/child.py WORKLOAD SEED PASSES [toy]

Imports ``fanetsim.cli`` and builds the workload's configuration, then
prints one JSON line with the two durations as measured inside this
process and the wall-clock time it got there.  The parent takes the span
from starting this process to that time as ``setup_s``.  With PASSES > 0
it then runs that many passes and prints a second line with the output
fingerprint and the process's peak resident memory.
"""

import json
import os
import resource
import sys
import time

t_start = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import fanetsim.cli  # noqa: E402,F401  (timed: this is the import users pay)

t_import = time.perf_counter()
import workloads  # noqa: E402

name, seed, passes = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
w = workloads.make(name, seed, toy=sys.argv[4:] == ["toy"])
t_config = time.perf_counter()
print(
    json.dumps(
        {"ready_at": time.time(), "import_s": t_import - t_start, "config_s": t_config - t_import}
    ),
    flush=True,
)

if passes:
    for _ in range(passes):
        out = w.run()
    print(
        json.dumps(
            {
                "fingerprint": workloads.fingerprint(out),
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
        ),
        flush=True,
    )
