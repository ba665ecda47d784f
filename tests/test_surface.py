"""Public surface: every exported name exists where it is declared."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys

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


def _loaded_names(paths):
    """Names read by Name, Attribute or ImportFrom nodes of the files."""
    names = set()
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_exported_names_have_a_caller_outside_the_tests():
    # No public surface that only tests use: every exported name is read
    # by the package itself (the re-exports of __init__.py do not count)
    # or by the benchmark under perfbench/.
    loaded = _loaded_names(_package_and_benchmark_sources())
    unused = [f"{name}.{n}" for name in SUBMODULES
              for n in importlib.import_module(f"gaborfio.{name}").__all__
              if n not in loaded]
    assert not unused, unused


def _package_and_benchmark_sources():
    """The package's modules but __init__.py, and perfbench/'s."""
    package = os.path.dirname(gaborfio.__file__)
    perfbench = os.path.join(os.path.dirname(os.path.dirname(package)),
                             "perfbench")
    return ([os.path.join(package, f) for f in os.listdir(package)
             if f.endswith(".py") and f != "__init__.py"]
            + [os.path.join(perfbench, f) for f in os.listdir(perfbench)
               if f.endswith(".py")])


def test_private_functions_and_methods_have_a_reader():
    # No test-only oracle in the library either: every module-level
    # private function and every method of a class (dunders aside, which
    # Python calls) is read somewhere in the package or the benchmark.
    # A test's oracle belongs in the tests (conftest.atom_matrix).
    defined = []
    for name in SUBMODULES:
        with open(importlib.import_module(f"gaborfio.{name}").__file__) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                defined.append((name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [(name, f"{node.name}.{item.name}")
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))]
    loaded = _loaded_names(_package_and_benchmark_sources())
    unread = [f"{module}.{name}" for module, name in defined
              if name.rsplit(".", 1)[-1] not in loaded]
    assert not unread, unread


def test_module_constants_have_a_reader():
    # No constant left behind by a change that removed its last reader:
    # every module-level UPPER_CASE name is read somewhere in the package
    # or the benchmark, its own module included.
    defined = []
    for name in SUBMODULES:
        with open(importlib.import_module(f"gaborfio.{name}").__file__) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:  # A = ... or A, B = ...
                defined += [(name, t.id) for t in getattr(
                    target, "elts", [target])
                    if isinstance(t, ast.Name) and t.id.isupper()]
    assert defined
    loaded = _loaded_names(_package_and_benchmark_sources())
    unread = [f"{module}.{name}" for module, name in defined
              if name not in loaded]
    assert not unread, unread


def _benchmark_workloads():
    """perfbench/workloads.py, loaded without writing bytecode there."""
    perfbench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(gaborfio.__file__))), "perfbench")
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(perfbench, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.path.insert(0, perfbench)  # it imports tracing as a top-level name
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(perfbench)
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("workload", ["fit-sweep", "propagate",
                                      "cli-artifacts", "fit-large"])
def test_benchmark_traced_names_exist(tmp_path, workload):
    # The traced benchmark run wraps these library names; a rename makes
    # it raise AttributeError before it measures anything.
    wl = _benchmark_workloads()
    assert set(wl.WORKLOADS) == {"fit-sweep", "propagate", "cli-artifacts",
                                 "fit-large"}
    run = wl.Run(wl.Tracer(False))
    patches = wl.WORKLOADS[workload](0, run, str(tmp_path)).patches()
    assert patches
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in patches if not hasattr(owner, attr)]
    assert not missing, missing


def test_cli_import_loads_no_heavy_module():
    # Every process the benchmark times starts by importing the CLI, so
    # import does no work that can wait: the CSV formatter's tables are
    # built on its first call, from Python ints, and nothing pulls in
    # these modules.
    package_root = os.path.dirname(os.path.dirname(gaborfio.__file__))
    code = ("import sys, gaborfio.cli; print(sorted(m for m in "
            "('fractions', 'decimal', 'numpy.ma', 'scipy') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, cwd=package_root)
    assert proc.stdout.strip() == "[]", proc.stdout
