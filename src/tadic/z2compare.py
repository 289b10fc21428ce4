"""Truncated 2-adic reference theory for side-by-side comparisons.

Integers mod 2^k share their bit patterns with the series side, so a
point is a plain int in both rings and the mask-based compatibility,
bijectivity, and cycle walks carry over as is; only the ring addition
differs, carries instead of XOR.  The Z2 table type is the F2[[T]] one
tagged "Z2" whose `add` and `sub` carry, and every Z2 coefficient type
adds with it.  This module holds the names of the Z2 side: the Z2 table
and Van der Put types, defined beside their F2[[T]] parents, and the
Mahler record and table, defined in `tadic.mahler`; to_vdp_z2,
vdp_table_z2, check_ergodic_z2 and is_transitive_mod_z2, the generic
functions under other names; and check_mp_z2 and
check_ergodic_mahler_z2, bool views of the criteria.
"""

from .dynamics import Z2FunctionTable, check_ergodic, check_mp, is_transitive_mod
from .mahler import MahlerCoefficients, mahler_table
from .vanderput import Z2VdpCoefficients, to_vdp, vdp_table

__all__ = [
    "MahlerCoefficients",
    "Z2FunctionTable",
    "Z2VdpCoefficients",
    "check_ergodic_mahler_z2",
    "check_ergodic_z2",
    "check_mp_z2",
    "is_transitive_mod_z2",
    "mahler_table",
    "to_vdp_z2",
    "vdp_table_z2",
]

# The ring travels with the argument, so the Z2 names are the generic functions.
to_vdp_z2 = to_vdp
vdp_table_z2 = vdp_table
check_ergodic_z2 = check_ergodic
is_transitive_mod_z2 = is_transitive_mod


def check_mp_z2(c):
    """check_mp's overall verdict as a bool: compatible and bijective mod 2^m at every level."""
    return check_mp(c).overall is True


def check_ergodic_mahler_z2(c):
    """Binomial-basis single-cycle test (Anashin): a_0 odd, a_1 = 1 mod 4, ord(a_i) >= floor(log2(i + 1)) + 1 for i >= 2.

    Each modulus is capped at 2^k.  This is every raw ergodic level of the
    sparse scan, level k too: the decay clause of a_i is band floor(log2 i)'s
    unit clause and, at i = 2^j - 1, the lift clause pinning digit j to 0.
    """
    return all(c._scanned[2])
