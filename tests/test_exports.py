"""Every name a module lists in ``__all__`` exists in that module."""
import importlib
import pkgutil

import pytest

import tamezeta

MODULES = sorted(m.name for m in pkgutil.iter_modules(tamezeta.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module("tamezeta." + name)
    exported = module.__all__
    assert exported
    assert [n for n in exported if not hasattr(module, n)] == []
