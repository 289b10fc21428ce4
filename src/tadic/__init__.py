"""Ergodic 1-Lipschitz dynamics over F2[[T]] and Z2, truncated to finite precision.

Bit-packed power series arithmetic, Van der Put and Carlitz basis
expansions with verified measure-preservation and single-cycle criteria,
a constructive generator of transitive maps, keystream orbits, and the
2-adic reference theory for comparison.  Each job has one fast path; the
exact Carlitz polynomials, F2[T] division, unit inversion and ball
indicators that check those paths are oracles in the test suite, not part
of the library.

`import tadic` loads no submodule: each name of `__all__` is read from
its submodule the first time it is asked for (PEP 562), so a
`python -m tadic` run loads only the modules its command uses.
"""

import importlib

__version__ = "0.1.0"

# the public names of each submodule
_EXPORTS = {
    "carlitz": "CarlitzCoefficients carlitz_table from_carlitz to_carlitz",
    "cyclegen": "CycleData gen_cycle random_data",
    "dynamics": "FunctionTable LevelVerdicts Z2FunctionTable check_ergodic check_lipschitz check_mp is_bijective_mod "
                "is_compatible is_transitive_mod orbit parity_lift",
    "gf2ps": "clmul clmul_trunc order trunc",
    "mahler": "MahlerCoefficients mahler_eval",
    "vanderput": "VdpCoefficients Z2VdpCoefficients from_vdp to_vdp vdp_table",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
