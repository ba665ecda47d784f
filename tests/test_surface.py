"""Public surface: every exported name exists where it is declared."""

import ast
import importlib
import pkgutil

import pytest

import gaborfio

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(gaborfio.__path__)
                    if m.name != "__main__")


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"gaborfio.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, missing


def test_package_imports_are_declared():
    # So that `from gaborfio.<module> import *` sees what the package
    # exports from it.
    with open(gaborfio.__file__) as fh:
        tree = ast.parse(fh.read())
    undeclared = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"gaborfio.{node.module}")
            undeclared += [f"{node.module}.{alias.name}"
                           for alias in node.names
                           if alias.name not in module.__all__]
    assert not undeclared, undeclared
