"""Carlitz basis machinery over F2[T] at r=2.

Coefficient extraction from a function table and evaluation back.  A set
is the one coefficient record with lift tag 1, and its criteria are
dynamics' check_lipschitz, check_mp and check_ergodic; two keep Carlitz
names, check_lipschitz_carlitz and check_ergodic_carlitz.  The
transform pair and point evaluation work mod T^k with the recurrence
E_i = (E_{i-1}^2 + E_{i-1}) / [i]: its division by T costs one digit per
level, so E_0 carries k - 1 guard digits and every E_i, i < k, comes out
exact mod T^k.  Both directions of the transform are one top-digit
butterfly over the canonical points, run on all 2^k values packed into
one int in the table's own slots of W >= k + 1 bits: one right shift and
one XOR of the whole table per set bit of each level constant (122 of
each per direction at k = 9), and one cut to k bits at the end.  A shift
by s carries a k-bit value out of its slot only when k - 1 + s >= W, so
only those shifts first keep the low k - s bits of their factor, all
that survives mod T^k; the table's `packed` form goes in and out as is.
The shifts and masks, each mask as large as the packed table, depend
only on k and the slot size: one builder, `_constants`, makes them, and
one held entry keeps them for the last precision used, with no other
cache.  So a transform builds none, and they stay resident until a
transform at another precision replaces them (12 KB at k = 9, 120 MB at
k = 20).
"""

from .dynamics import Coefficients, check_ergodic, check_lipschitz
from .gf2ps import check_residues, clmul, clmul_trunc, tile, trunc

__all__ = [
    "CarlitzCoefficients",
    "carlitz_table",
    "check_ergodic_carlitz",
    "check_lipschitz_carlitz",
    "from_carlitz",
    "to_carlitz",
]


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


def _digit_masks(k, size):
    """The low k bits of 2^k slots of `size` bytes, and per digit i those of the slots whose index has digit i set."""
    full = tile((1 << k) - 1, 1 << k, size)
    digit = [full >> (size << (k + 2)) << (size << (k + 2))]
    # digit i from digit i + 1 and its shift down 2^i slots: adding 2^i mod 2^k flips digit i + 1 iff digit i is 1
    for i in range(k - 2, -1, -1):
        digit.append(digit[-1] ^ digit[-1] >> (size << (i + 3)))
    return full, digit[::-1]


# the butterfly's constants for the last (precision, slot size) it ran at: one entry, replaced whole
_HELD = {}


def _constants(k, size):
    """The butterfly's constants at k and `size`: (final cut, levels bottom up, levels top down).

    Level j is (its digit's mask, its half-block width in bits, one factor
    per i < j).  Factor i is the mask of digit i and the product by
    c_i = E_i(T^j) mod T^k as right shifts of the table: per set bit s of
    c_i a value moves 2^i slots down and s bits up, one shift by
    d = 8 * size * 2^i - s.  Where k - 1 + s >= 8 * size the shift would
    carry a k-bit value out of its slot, so it spills: it comes as (d, the
    mask of the low k - s bits of every slot), all that survives mod T^k,
    and the shifts that fit come as their d alone.  The constants depend
    only on (k, size), so the last pair's are held in `_HELD`, the one
    cache of the module.  The held entry is dropped before another pair's
    are built, so no call holds two precisions' masks at once, and a call
    returns what it built or found, never a re-read of the record another
    call may have cleared.
    """
    held = _HELD.get((k, size))
    if held is None:
        _HELD.clear()
        full, digit = _digit_masks(k, size)
        first = (size << 3) - k + 1
        keep = {s: tile((1 << (k - s)) - 1, 1 << k, size) for s in range(first, k)}
        up = tuple((digit[j], size << (j + 3), tuple(
            (digit[i], tuple((size << (i + 3)) - s for s in range(min(first, k)) if c >> s & 1),
             tuple(((size << (i + 3)) - s, keep[s]) for s in keep if c >> s & 1))
            for i, c in enumerate(_E_values(1 << j, k)[:j]))) for j in range(k))
        held = _HELD[k, size] = full, up, up[::-1]
    return held


def _butterfly(w, size, k, synthesize):
    """Coefficients to table (synthesize) or table to coefficients, on the 2^k values of indices 0..2^k - 1.

    A level splits blocks of 2h points, h = 2^j, on the top digit: on the
    upper half x + T^j (deg x < j) linearity gives E_i(x) + c_i for i < j,
    c_i = E_i(T^j), and E_j = 1.  Per block, synthesis is
    hi <- shift_c(lo + hi) from the top level down; expansion undoes it,
    hi <- lo + shift_c(hi) from the bottom level up, since the shift (the
    Kronecker product of [[1, c_i], [0, 1]] over i < j) is its own inverse
    in characteristic 2.  Index n holds slot n of one int, the table's slot
    of W = 8 * size bits, and a level is a few whole-table operations:
    factor i takes the low k bits of the upper-half slots with digit i set
    from what factor i - 1 left and XORs in their product by c_i, one shift
    per set bit, as `_constants` lays them out.  What a shift puts at T^k
    and above stays in the slot until the one cut at the end.  The values
    come as pack's int w and slot width and go back as pack's pair.
    """
    full, up, down = _constants(k, size)
    for top, cut, factors in down if synthesize else up:
        upper = w & top
        lower = w ^ upper
        if synthesize:
            upper ^= lower << cut
        for digit, fits, spills in factors:
            u = upper & digit
            for d in fits:
                upper ^= u >> d
            for d, keep in spills:
                upper ^= (u & keep) >> d
        if not synthesize:
            upper ^= lower << cut
        w = lower | upper
    return w & full, size


def to_carlitz(t):
    """Extract a_n mod T^k for n < 2^k from the full table: the butterfly's packed slots, already in range."""
    k = t.precision
    return CarlitzCoefficients._trusted(k, packed=_butterfly(*t.packed, k, synthesize=False))


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
    """Synthesize the full table at its own precision from the set's packed slots; n >= 2^k vanish there."""
    return type(c).table_type._trusted(c.precision, packed=_butterfly(*c.packed, c.precision, synthesize=True))


class CarlitzCoefficients(Coefficients):
    """Coefficients a_n mod T^k of the Carlitz basis G_n; missing indices are zero; the lift clauses want 1 digits."""

    ring, basis, lift = "F2T", "carlitz", 1
    expand, evaluate, synthesize = staticmethod(to_carlitz), staticmethod(from_carlitz), staticmethod(carlitz_table)


# the Carlitz names of two criteria, whose one body each is in dynamics
check_lipschitz_carlitz, check_ergodic_carlitz = check_lipschitz, check_ergodic
