"""Carlitz basis machinery over F2[T] at r=2.

Coefficient extraction from a function table and evaluation back;
Lipschitz and single-cycle criteria read off the coefficients.  The
transform pair and point evaluation work mod T^k with the recurrence
E_i = (E_{i-1}^2 + E_{i-1}) / [i]: its division by T costs one digit per
level, so E_0 carries k - 1 guard digits and every E_i, i < k, comes out
exact mod T^k.  Both directions of the transform are one top-digit
butterfly over the canonical points, run on all 2^k values packed into
one int: O(k^3) whole-table big-int operations on slots of O(k) bits.
"""

import functools
from itertools import compress

from .dynamics import FunctionTable, LevelVerdicts, SparseCoefficients, restrict_sparse
from .gf2ps import check_residues, clmul, clmul_trunc, pack, repack, tile, trunc, unpack

__all__ = [
    "CarlitzCoefficients",
    "carlitz_table",
    "check_ergodic_carlitz",
    "check_lipschitz_carlitz",
    "from_carlitz",
    "restrict",
    "to_carlitz",
]


class CarlitzCoefficients(SparseCoefficients):
    """Sparse coefficients a_n mod T^k; missing indices are zero."""

    ring, basis = "F2T", "carlitz"


def _E_values(x, k):
    """E_0(x), ..., E_{k-1}(x) mod T^k at one point, by the Carlitz recurrence.

    E_i = (E_{i-1}^2 + E_{i-1}) / [i] with [i] = T (1 + T^(2^i - 1)).  The
    division by T is a shift that costs one digit, so E_0 = x starts with
    k - 1 guard digits and E_i is exact mod T^(2k-1-i); the unit is
    inverted as the geometric series of T^(2^i - 1).  E_i vanishes once
    2^i > x, so the recurrence stops at the degree of x.
    """
    p = 2 * k - 1
    e = trunc(x, p)
    out = [trunc(e, k)]
    for i in range(1, min(k, x.bit_length())):
        e = trunc(clmul(e, e) ^ e, p) >> 1
        p -= 1
        step = (1 << i) - 1
        if step < p:
            e = clmul_trunc(e, sum(1 << j for j in range(0, p, step)), p)
        out.append(trunc(e, k))
    return out + [0] * (k - len(out))


@functools.lru_cache(maxsize=None)
def _level_constants(k):
    """Per level j < k, the shift constants c_i = E_i(T^j) mod T^k for i < j."""
    return tuple(tuple(_E_values(1 << j, k)[:j]) for j in range(k))


def _butterfly(packed, k, synthesize):
    """Coefficients to table (synthesize) or table to coefficients, on the 2^k values of indices 0..2^k - 1.

    A level splits blocks of 2h points, h = 2^j, on the top digit: on the
    upper half x + T^j (deg x < j) linearity gives E_i(x) + c_i for i < j,
    c_i = E_i(T^j), and E_j = 1.  Per block, synthesis is
    hi <- shift_c(lo + hi) from the top level down; expansion undoes it,
    hi <- lo + shift_c(hi) from the bottom level up, since the shift (the
    Kronecker product of [[1, c_i], [0, 1]] over i < j) is its own inverse
    in characteristic 2.  Index n holds slot n of one int, a power of two
    bytes wide so a product of two k-bit values fits, and a level is a few
    whole-table operations: factor i of the shift takes the upper-half
    slots with digit i set from what factor i - 1 left, multiplies them by
    c_i, cuts them to k bits and XORs them 2^i slots down.  The values come
    and go packed in slots of 2k - 1 bits, as pack's (int, slot width).
    """
    w, size = packed
    mask = ((1 << k) - 1).to_bytes(size, "little")
    full = tile((1 << k) - 1, 1 << k, size)
    # digit[i]: the slots whose index has digit i set
    digit = [int.from_bytes((bytes(size << i) + mask * (1 << i)) * (1 << (k - 1 - i)), "little") for i in range(k)]
    for j, c in sorted(enumerate(_level_constants(k)), reverse=synthesize):
        upper = w & digit[j]
        lower = w ^ upper
        if synthesize:
            upper ^= lower << (size << (j + 3))
        for i, ci in enumerate(c):
            upper ^= (clmul(upper & digit[i], ci) & full) >> (size << (i + 3))
        if not synthesize:
            upper ^= lower << (size << (j + 3))
        w = lower | upper
    return w, size


def to_carlitz(t):
    """Extract a_n mod T^k for n < 2^k from the full table: the butterfly's nonzero values, already in range."""
    k = t.precision
    w, size = _butterfly(repack(t.packed, 1 << k, 2 * k - 1), k, synthesize=False)
    values = unpack(w, 1 << k, size)
    return CarlitzCoefficients._trusted(k, dict(compress(enumerate(values), values)))


def from_carlitz(c, x):
    """Evaluate sum of a_n G_n at a canonical point, mod T^k, without a table.

    Indices n >= 2^k contribute 0 at canonical points and are skipped.
    """
    k = c.precision
    check_residues(k, (x,), "point")
    E = _E_values(x, k)
    acc = 0
    for n, v in c.a.items():
        if n >> k:
            continue
        while n and v:
            low = n & -n
            v = clmul_trunc(v, E[low.bit_length() - 1], k)
            n ^= low
        acc ^= v
    return acc


def carlitz_table(c):
    """Synthesize the full table of the expansion at its own precision; indices n >= 2^k vanish there."""
    k = c.precision
    w, size = _butterfly(pack([c.a.get(n, 0) for n in range(1 << k)], 2 * k - 1), k, synthesize=True)
    return FunctionTable._trusted(k, unpack(w, 1 << k, size), packed=repack((w, size), 1 << k, k + 1))


restrict = restrict_sparse


def _scan(c):
    """One pass over the stored indices: the level `top` through which c is 1-Lipschitz, and the bad bands.

    top is k, or the least order of an off-floor a_n (ord(a_n) <
    floor(log2 n)); as a_n < 2^k, past the precision the floor refutes any
    stored a_n.  Band m is bad when some a_n with floor(log2 n) = m-1 has
    a digit below T^m.
    """
    top, bad = c.precision, set()
    for n, v in c.a.items():
        band = n.bit_length()
        low = v & ((1 << band) - 1)
        if low:
            bad.add(band)
            off = low & ((1 << (band - 1)) - 1)
            if off:
                top = min(top, (off & -off).bit_length() - 1)
    return top, bad


def check_lipschitz_carlitz(c):
    """True iff c is 1-Lipschitz through level k (top == k): ord(a_n) >= floor(log2 n) for every stored n."""
    return _scan(c)[0] == c.precision


def check_ergodic_carlitz(c):
    """Single-cycle criterion per level, three-valued.

    Every level m first needs c 1-Lipschitz through level m, so a set off
    its floor gets False from level top + 1 on, and no set raises.  Level 1
    needs a_0 and a_1 odd.  Level m adds ord(a_n) >= m across the band
    floor(log2 n) = m-1 and a lift clause pinning the next coefficient of
    the chain a_{2^j - 1}: the T^{m-1} digit of a_{2^{m-1}-1} (the T digit
    of a_1 at m = 2).  True is only reported below the precision; level k
    stays undecided unless a clause fails outright.  Each clause reads only
    stored indices, so the cost is linear in the set.
    """
    k = c.precision
    top, bad_bands = _scan(c)
    ok = top >= 1 and bool(c.coeff(0) & 1) and bool(c.coeff(1) & 1)
    raw = [ok]
    for m in range(2, k + 1):
        ok = ok and m <= top and m not in bad_bands and bool(c.coeff((1 << (m - 1)) - 1) >> (m - 1) & 1)
        raw.append(ok)
    return LevelVerdicts.below_precision(raw)
