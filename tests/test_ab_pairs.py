"""The gain-claim rule of ``tools/ab_pairs.py``, and its reading of a run.

A claim holds when the working tree wins at least 9 in 10 pairs and its
median beats REV's by more than REV's interquartile range.  A pair whose
two sides read the same value is a tie and a win for neither side.
"""

import importlib.util
import re
import subprocess
import sys
from types import SimpleNamespace
from pathlib import Path

import pytest

pytestmark = pytest.mark.contract

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


ab_pairs = _load("ab_pairs")

# REV's runs: median 1.045, quartiles 1.0175 and 1.0725, so its IQR is 0.055
BASE = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def _verdict(base, new):
    """The working tree's win count and whether the claim holds."""
    line = ab_pairs.summarize("wall_s", base, new, "HEAD")
    wins = int(re.search(r"working tree wins (\d+)/", line).group(1))
    assert line.endswith(("gain claim holds", "gain claim does not hold"))
    return wins, line.endswith("gain claim holds")


def test_nine_wins_and_a_gap_beyond_the_iqr_hold():
    # each pair 0.1 lower but the last, which loses; median gap 0.1 > 0.055
    new = [b - 0.1 for b in BASE[:9]] + [BASE[9] + 0.01]
    assert _verdict(BASE, new) == (9, True)


def test_eight_wins_do_not_hold():
    new = [b - 0.1 for b in BASE[:8]] + [b + 0.01 for b in BASE[8:]]
    wins, holds = _verdict(BASE, new)
    assert wins == 8
    assert not holds


def test_a_gap_inside_the_iqr_does_not_hold():
    # every pair won, but the median moves by 0.01 against an IQR of 0.055
    new = [b - 0.01 for b in BASE]
    wins, holds = _verdict(BASE, new)
    assert wins == 10
    assert not holds


@pytest.mark.parametrize("swap", [False, True], ids=["as-given", "sides-swapped"])
def test_ties_count_for_neither_side(swap):
    # eight clear wins and two ties: the ties do not make nine wins, for
    # the working tree nor, with the sides swapped, for REV
    new = [b - 0.1 for b in BASE[:8]] + BASE[8:]
    base, new = (new, BASE) if swap else (BASE, new)
    wins, holds = _verdict(base, new)
    assert wins == (0 if swap else 8)
    assert not holds


@pytest.mark.parametrize("stdout", ["fingerprint: x (abc)\nTraceback ...\n", "{\"metrics\": \n"])
def test_a_run_whose_last_line_is_not_json_fails(monkeypatch, stdout):
    # it reads as a failed run, so the pairs already taken are kept
    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    args = SimpleNamespace(workload="bounds_grid", seed=0, seconds=1.0)
    got = ab_pairs.run_once(".", args)
    assert list(got) == ["error"]
    assert got["error"].startswith("last line is not JSON")
