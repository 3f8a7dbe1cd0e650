"""The public API names what exists: every `__all__` entry and every
name the package re-exports resolves to an object."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sgmor

MODULES = sorted(f"sgmor.{m.name}" for m in pkgutil.iter_modules(sgmor.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_resolve():
    tree = ast.parse(Path(sgmor.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"sgmor.{node.module}")
        for alias in node.names:
            assert alias.name in getattr(module, "__all__", ()), f"sgmor.{node.module} does not export {alias.name}"
            assert getattr(sgmor, alias.asname or alias.name) is getattr(module, alias.name)
