"""Every qtc module's `__all__` names exactly what the module defines in
public, and every name the benchmark imports from qtc exists."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import qtc

MODULES = sorted(m.name for m in pkgutil.iter_modules(qtc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    mod = importlib.import_module(f"qtc.{name}")
    exported = getattr(mod, "__all__", None)
    assert exported is not None, f"qtc.{name} has no __all__"
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []
    defined = [
        n for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    ]
    assert [n for n in defined if n not in exported] == []


def test_package_exports_exist():
    assert [n for n in qtc.__all__ if not hasattr(qtc, n)] == []


def test_benchmark_imports_exist():
    """perfbench/workloads.py runs against every later version of the
    library, so no change may drop a name it imports."""
    source = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source.read_text(encoding="utf8")))
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "qtc"
        for alias in node.names
    ]
    assert len(imports) >= 10
    missing = [(m, n) for m, n in imports if not hasattr(importlib.import_module(m), n)]
    assert missing == []
