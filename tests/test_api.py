"""The public API names what exists: every `__all__` entry and every
name the package re-exports resolves to an object."""

import ast
import dis
import importlib
import inspect
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


# the names perfbench/traced.py replaces in the `sgmor.cli` namespace to time
# each layer; a stage that stops looking one of them up there drops its span
TRACED_CLI_NAMES = [
    "parse_netlist",
    "mna_assemble",
    "build_index_set",
    "assemble",
    "downsize",
    "sample_transfer",
    "hardy_norms",
    "pencil_spectrum",
    "simulate_transient",
    "rank_and_theta",
    "select_indices",
    "theorem1_certificate",
    "theorem2_certificate",
    "arnoldi_reduce",
    "svd_basis",
    "deflate",
    "_load_galerkin",
    "_load_samples",
    "_write_csv",
    "_write_json",
]


@pytest.mark.parametrize("name", TRACED_CLI_NAMES)
def test_cli_binds_traced_names(name):
    from sgmor import cli

    assert callable(getattr(cli, name, None)), f"sgmor.cli no longer binds {name}"
    codes = [f.__code__ for f in vars(cli).values() if inspect.isfunction(f) and f.__module__ == cli.__name__]
    globals_read = set()
    while codes:  # each function with its nested comprehensions and closures
        code = codes.pop()
        globals_read.update(i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL")
        codes.extend(c for c in code.co_consts if inspect.iscode(c))
    assert name in globals_read, f"no function of sgmor.cli looks {name} up as a global"
