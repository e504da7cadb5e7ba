import importlib
import pkgutil

import pytest

import miworlds

MODULES = sorted(m.name for m in pkgutil.iter_modules(miworlds.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"miworlds.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"miworlds.{name}.__all__ names {missing}"
