"""Package-wide policies checked on the source itself."""

from __future__ import annotations

import ast
from importlib import resources


def test_no_module_rebinds_a_global():
    """Caches are bounded ``functools`` caches or per-object properties,
    never module-level state rebound through ``global``."""
    for path in resources.files("longvk").iterdir():
        if path.name.endswith(".py"):
            tree = ast.parse(path.read_text(), filename=path.name)
            assert not any(isinstance(node, ast.Global) for node in ast.walk(tree)), path.name
