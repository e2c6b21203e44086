"""Every qtc module's `__all__` names exactly what the module defines in public."""

import importlib
import inspect
import pkgutil

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
