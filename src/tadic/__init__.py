"""Ergodic 1-Lipschitz dynamics over F2[[T]] and Z2, truncated to finite precision.

Bit-packed power series arithmetic, Van der Put and Carlitz basis
expansions with verified measure-preservation and single-cycle criteria,
a constructive generator of transitive maps, keystream orbits, and the
2-adic reference theory for comparison.  Each job has one fast path; the
exact Carlitz polynomials, F2[T] division and ball indicators that check
those paths are oracles in the test suite, not part of the library.
"""

from .carlitz import (
    CarlitzCoefficients,
    carlitz_table,
    check_ergodic_carlitz,
    check_lipschitz_carlitz,
    from_carlitz,
    to_carlitz,
)
from .cyclegen import CycleData, gen_cycle, random_data
from .dynamics import (
    FunctionTable,
    LevelVerdicts,
    is_bijective_mod,
    is_compatible,
    is_transitive_mod,
    orbit,
    parity_lift,
)
from .gf2ps import clmul, clmul_trunc, degree, invert_unit, order, trunc
from .vanderput import (
    VdpCoefficients,
    check_ergodic_vdp,
    check_lipschitz_vdp,
    check_mp_vdp,
    from_vdp,
    to_vdp,
    vdp_table,
)
from .z2compare import (
    MahlerCoefficients,
    Z2FunctionTable,
    Z2VdpCoefficients,
    check_ergodic_mahler_z2,
    mahler_eval,
)

__version__ = "0.1.0"

__all__ = [
    "CarlitzCoefficients",
    "CycleData",
    "FunctionTable",
    "LevelVerdicts",
    "MahlerCoefficients",
    "VdpCoefficients",
    "Z2FunctionTable",
    "Z2VdpCoefficients",
    "carlitz_table",
    "check_ergodic_carlitz",
    "check_ergodic_mahler_z2",
    "check_ergodic_vdp",
    "check_lipschitz_carlitz",
    "check_lipschitz_vdp",
    "check_mp_vdp",
    "clmul",
    "clmul_trunc",
    "degree",
    "from_carlitz",
    "from_vdp",
    "gen_cycle",
    "invert_unit",
    "is_bijective_mod",
    "is_compatible",
    "is_transitive_mod",
    "mahler_eval",
    "orbit",
    "order",
    "parity_lift",
    "random_data",
    "to_carlitz",
    "to_vdp",
    "trunc",
    "vdp_table",
]
