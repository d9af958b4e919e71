import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fanetsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(fanetsim.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"fanetsim.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(fanetsim.__file__).read_text())
    missing = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not hasattr(importlib.import_module(f"fanetsim.{node.module}"), alias.name)
        or not hasattr(fanetsim, alias.asname or alias.name)
    ]
    assert missing == []


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random adds import time and resident memory to every command;
    # mobility builds its seeding helpers on first use instead
    src = str(Path(fanetsim.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, fanetsim.cli; sys.exit('numpy.random' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0
