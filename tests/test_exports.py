"""Public surface: every name a module exports resolves."""

import importlib

import pytest

MODULES = ["tadic", "tadic.gf2ps", "tadic.dynamics", "tadic.vanderput", "tadic.carlitz",
           "tadic.cyclegen", "tadic.z2compare", "tadic.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
