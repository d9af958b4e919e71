"""Byte-identity gate: one seed-0 pass of each benchmark workload must hash
to the sha256 recorded in ``perfbench/fingerprints.json``.

The workloads and the recorded hashes are read from ``perfbench/`` and
not changed.  Seed 9001 is held out for checking performance claims, so
only seed 0 runs here.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.contract

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 0


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
RECORDED = json.loads((PERFBENCH / "fingerprints.json").read_text())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_output_matches_recorded_fingerprint(name):
    work = workloads.make(name, SEED)
    out = work.run()
    assert work.check(out) is None
    assert workloads.fingerprint(out) == RECORDED[name][str(SEED)]
