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


def _loaded_by_import(module: str) -> bool:
    """Whether a fresh ``import longvk`` loads ``module``."""
    src = os.path.dirname(os.path.dirname(longvk.__file__))
    probe = f"import sys, longvk; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    return {"True": True, "False": False}[result.stdout.strip()]


def test_import_does_not_load_the_cli():
    """The command line stays out of every library import."""
    assert not _loaded_by_import("longvk.cli")


def test_import_does_not_load_the_enumerator():
    """The biquandle enumerator is compiled on the first enumeration only,
    behind a function bound in ``longvk.invariants`` that tracing wraps
    and tests replace."""
    assert not _loaded_by_import("longvk._enumerate")
    assert "enumerate_biquandles" in vars(longvk.invariants)
    assert longvk.invariants.enumerate_biquandles.__module__ == "longvk.invariants"
