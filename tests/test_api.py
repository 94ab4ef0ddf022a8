"""The public API has no stale names: everything a module lists in
`__all__` exists, and the package root re-exports only listed names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import panelforest

MODULES = sorted(m.name for m in pkgutil.iter_modules(panelforest.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"panelforest.{name}")
    assert hasattr(module, "__all__")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(panelforest.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    unlisted = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
                if alias.name not in importlib.import_module(f"panelforest.{node.module}").__all__]
    assert unlisted == []
