"""Every name a module exports resolves, so a deletion cannot leave a stale export."""

import importlib

import pytest

import defreg


@pytest.mark.parametrize("module", ["defreg", *(f"defreg.{m}" for m in defreg._SUBMODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__, f"{module} exports nothing"
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names what it does not define: {missing}"
