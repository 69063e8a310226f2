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


def _unbounded_caches(source: str) -> list[int]:
    """Lines that use ``functools.cache``, or ``functools.lru_cache``
    other than called with a positive integer ``maxsize``."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "functools"
               for alias in node.names}
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    bad = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = aliases.get(node.id)
        else:
            continue
        if name not in ("cache", "lru_cache"):
            continue
        call = calls.get(id(node))
        sizes = [] if call is None else (
            call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"])
        size = None
        if name == "lru_cache" and len(sizes) == 1:
            size = eval(compile(ast.Expression(sizes[0]), "maxsize", "eval"),
                        {"__builtins__": {}})
        if not (isinstance(size, int) and size > 0):
            bad.append(node.lineno)
    return bad


def test_every_functools_cache_is_bounded():
    """Every ``functools`` cache is an ``lru_cache`` called with an
    integer ``maxsize``: no ``functools.cache``, no ``maxsize=None``."""
    for path in resources.files("longvk").iterdir():
        if path.name.endswith(".py"):
            assert _unbounded_caches(path.read_text()) == [], path.name
    assert _unbounded_caches("import functools\n@functools.lru_cache(maxsize=1 << 12)\n"
                             "def f(): pass\nf2 = functools.lru_cache(64)(len)") == []
    for bad in ("import functools\n@functools.cache\ndef f(): pass",
                "import functools\n@functools.lru_cache\ndef f(): pass",
                "from functools import lru_cache as c\n@c(maxsize=None)\ndef f(): pass",
                "import functools\nf = functools.lru_cache(None)(len)"):
        assert _unbounded_caches(bad) == [2], bad


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
