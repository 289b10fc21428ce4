"""Public surface: every name a module exports resolves, the Z2 aliases stay in z2compare, and importing the CLI stays light."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import tadic

MODULES = ["tadic", "tadic.gf2ps", "tadic.dynamics", "tadic.vanderput", "tadic.carlitz",
           "tadic.cyclegen", "tadic.z2compare", "tadic.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_cli_import_leaves_out_heavy_stdlib_modules():
    # `python -m tadic` pays for every module that importing the CLI loads;
    # the value types need neither dataclasses (which loads inspect) nor fractions
    src = os.path.dirname(os.path.dirname(tadic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys; import tadic.cli; print(' '.join(sorted({'dataclasses', 'fractions', 'inspect'} & set(sys.modules))))"
    got = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert got.returncode == 0, got.stderr
    assert got.stdout.split() == []


# the Z2 names of generic jobs; the ring travels with the argument, so only z2compare binds them
Z2_ALIASES = ("check_ergodic_z2", "check_mp_z2", "is_transitive_mod_z2", "to_vdp_z2", "vdp_table_z2")


def test_z2_aliases_live_only_in_z2compare():
    z2compare = importlib.import_module("tadic.z2compare")
    assert set(Z2_ALIASES) <= set(z2compare.__all__)
    assert not set(Z2_ALIASES) & set(tadic.__all__)
    for path in pathlib.Path(tadic.__file__).parent.glob("*.py"):
        if path.name != "z2compare.py":
            text = path.read_text()
            assert [n for n in Z2_ALIASES if n in text] == [], path.name
