"""Package-wide policies checked on the source itself."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from importlib import resources

import longvk


def test_no_module_rebinds_a_global():
    """Caches are bounded ``functools`` caches or per-object properties,
    never module-level state rebound through ``global``."""
    for path in resources.files("longvk").iterdir():
        if path.name.endswith(".py"):
            tree = ast.parse(path.read_text(), filename=path.name)
            assert not any(isinstance(node, ast.Global) for node in ast.walk(tree)), path.name


def test_import_does_not_load_the_cli():
    """The command line stays out of every library import."""
    src = os.path.dirname(os.path.dirname(longvk.__file__))
    probe = "import sys, longvk; print('longvk.cli' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"
