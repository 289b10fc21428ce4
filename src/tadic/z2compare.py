"""Truncated 2-adic reference theory for side-by-side comparisons.

Residues mod 2^k share their bit patterns with the series side, so the
mask-based compatibility, bijectivity, and cycle walks carry over as is;
only the ring addition differs (carries instead of XOR).  The Z2 residue,
table and Van der Put types are the F2[[T]] ones tagged "Z2"; they live
beside their parents and are re-exported here.  The Z2 names to_vdp_z2,
vdp_table_z2, check_ergodic_z2 and is_transitive_mod_z2 are the generic
functions under other names.
What is 2-adic only lives here: the Mahler basis and its single-cycle
criterion at p=2.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, and_, mul

from .dynamics import SparseCoefficients, Z2FunctionTable, is_transitive_mod, unwrap_point
from .gf2ps import Z2Residue
from .vanderput import Z2VdpCoefficients, check_ergodic_vdp, check_mp_vdp, to_vdp, vdp_table

__all__ = [
    "MahlerCoefficients",
    "Z2FunctionTable",
    "Z2Residue",
    "Z2VdpCoefficients",
    "check_ergodic_mahler_z2",
    "check_ergodic_z2",
    "check_mp_z2",
    "is_transitive_mod_z2",
    "mahler_eval",
    "mahler_table",
    "to_vdp_z2",
    "vdp_table_z2",
]

# The ring travels with the argument, so the Z2 names are the generic functions.
to_vdp_z2 = to_vdp
vdp_table_z2 = vdp_table
check_ergodic_z2 = check_ergodic_vdp
is_transitive_mod_z2 = is_transitive_mod


class MahlerCoefficients(SparseCoefficients):
    """Sparse binomial-basis coefficients a_i mod 2^k; missing indices are zero."""

    ring, basis = "Z2", "mahler"


def check_mp_z2(c):
    """Compatible and bijective mod 2^m at every level: 1-Lipschitz, b_0 + b_1 odd, all b_m odd."""
    return check_mp_vdp(c).overall is True


def mahler_eval(c, x):
    """Sum of a_i * binom(x, i) with exact integer binomials, mod 2^k."""
    x, wrap = unwrap_point(x, c.precision)
    acc = sum(v * math.comb(x, i) for i, v in c.a.items() if i <= x)
    return wrap(acc & ((1 << c.precision) - 1))


def mahler_table(c):
    """The full table, column-wise: entry x is the masked sum of a_i * binom(x, i) over i <= x, as in mahler_eval."""
    size = 1 << c.precision
    acc = [0] * size
    for i, v in c.a.items():
        # exact binomials, zero below i; an index from 2^k up gives an empty column
        acc[i:] = map(add, acc[i:], map(mul, map(math.comb, range(i, size), repeat(i)), repeat(v)))
    return Z2FunctionTable(c.precision, tuple(map(and_, acc, repeat(size - 1))))


def check_ergodic_mahler_z2(c):
    """Binomial-basis single-cycle test: a_0 odd, a_1 = 1 mod 4, fast 2-power decay.

    Each modulus is capped at 2^k, so conditions deeper than the precision
    are checked as far as the stored residues can certify them.
    """
    k = c.precision
    if not c.coeff(0) & 1:
        return False
    if c.coeff(1) % min(4, 1 << k) != 1:
        return False
    for i, v in c.a.items():
        if i < 2:
            continue
        w = min((i + 1).bit_length(), k)
        if v & ((1 << w) - 1):
            return False
    return True
