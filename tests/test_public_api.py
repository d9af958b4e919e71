import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fanetsim
from fanetsim import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(fanetsim.__path__))


def _fresh_interpreter(code: str) -> int:
    """The exit status of ``code`` run in a new interpreter on this source tree."""
    src = str(Path(fanetsim.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    return proc.returncode


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"fanetsim.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random adds import time and resident memory to every command;
    # the CLI loads the simulator only when a simulation runs
    code = "import sys, fanetsim.cli; sys.exit('numpy.random' in sys.modules)"
    assert _fresh_interpreter(code) == 0


@pytest.mark.parametrize(
    "modules, unloaded",
    [
        # the package re-exports nothing, so the closed-form bounds load
        # neither numpy nor the simulator
        ("fanetsim.analysis, fanetsim.geometry", ("numpy", "fanetsim.simharness")),
        # the harness and the CLI load numpy, the simulator and a process
        # pool only when a simulation runs
        (
            "fanetsim.cli, fanetsim.simharness",
            ("numpy", "fanetsim.mobility", "fanetsim.topology", "multiprocessing"),
        ),
        # perfbench/run.py imports the simulator for its tracer but runs no
        # fleet, and its workload children's peak RSS starts at its own, so
        # mobility builds its seeding helpers on first use, not at import
        ("fanetsim.mobility, fanetsim.topology", ("numpy.random",)),
    ],
    ids=["bounds", "cli", "simulator"],
)
def test_bounds_modules_leave_numpy_unloaded(modules, unloaded):
    code = f"import sys, {modules}; sys.exit(bool(set({unloaded!r}) & set(sys.modules)))"
    assert _fresh_interpreter(code) == 0


@pytest.mark.parametrize(
    "argv, status",
    [
        (["bounds", "--n", "10", "--l", "10km", "--r", "5km", "--d", "7km"], 0),
        (["fig3", "--set", "net.bogus=1"], 2),
    ],
    ids=["bounds", "config-error"],
)
def test_commands_without_a_simulation_leave_numpy_unloaded(argv, status):
    # 99: the command returned, but numpy was loaded
    code = (
        f"import sys; from fanetsim import cli; status = cli.main({argv!r}); "
        "sys.exit(99 if 'numpy' in sys.modules else status)"
    )
    assert _fresh_interpreter(code) == status


def test_console_script_is_cli_main():
    # a console-script launcher passes main's return value to sys.exit
    pyproject = Path(fanetsim.__file__).parents[2] / "pyproject.toml"
    scripts = pyproject.read_text().split("[project.scripts]\n", 1)[1]
    target = re.match(r'fanetsim = "(.+)"\n', scripts).group(1)
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
