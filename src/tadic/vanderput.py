"""Van der Put basis over F2[[T]] and Z2: expansion, evaluation, criteria.

A function on residues mod T^k (or 2^k) is written as f(x) = sum of
B_alpha * chi_alpha(x) over indices alpha below 2^k, where chi_alpha is the
indicator of the ball x = alpha mod T^{deg alpha + 1}.  Coefficients are
finite differences of f, so expansion and evaluation accumulate with the
ring's addition: XOR in F2[[T]], carrying addition in Z2.  A set is
dynamics' one coefficient record, packed from `to_vdp` and a map from a
file, so a sparse file stays sparse.  Its type carries the basis, ring
and kernels as class tags (`Z2VdpCoefficients` is a `VdpCoefficients` with
Z2's ring and lift tags), read off the argument's type, which adds with its
`table_type`; to_vdp finds its table's ring's type in dynamics.FORMATS.
The criteria are dynamics' check_lipschitz, check_mp and check_ergodic
under van der Put names; `VdpCoefficients.clauses` states van der Put's own.
"""

import functools

from .dynamics import FORMATS, TABLE_BUDGET, Coefficients, check_ergodic, check_lipschitz, check_mp
from .gf2ps import check_residues, fold, pack, tile

__all__ = [
    "VdpCoefficients",
    "Z2VdpCoefficients",
    "check_ergodic_vdp",
    "check_lipschitz_vdp",
    "check_mp_vdp",
    "from_vdp",
    "to_vdp",
    "vdp_table",
]


def _sweep(r, cls, synthesize):
    """The transform pair on a record's packed 2^k values: B_m = f(m) - f(m - 2^{deg m}), or back.

    Synthesis is f(m) = B_m + f(m - 2^{deg m}).  Value m sits in slot m of
    one int, k + 1 bits or wider so that a Z2 sum or biased difference of
    two residues stays in its slot, and band d (the 2^d slots from slot
    2^d) meets the 2^d slots below it shifted up by 2^d slots.  Expanding,
    those come from the source table, so every band is done in one
    difference; synthesizing, from the output built so far, one band at a
    time from d = 1 up.  The result is reduced mod pi^k, so its int is
    pack's form of the values, all that the record built on it gets.
    """
    (w, width), k, table = r.packed, r.precision, cls.table_type
    n = 1 << k
    full = tile(n - 1, n, width)
    if synthesize:
        for d in range(1, k):
            cut = width << (d + 3)
            w = table.add(w, (w & ((1 << cut) - 1)) << cut) & full
    else:
        s = 0
        for d in range(1, k):
            cut = width << (d + 3)
            s |= (w & ((1 << cut) - 1)) << cut
        # 2^k in every slot: no Z2 difference borrows from the slot above
        w = table.sub(w | tile(n, n, width), s) & full
    return (table if synthesize else cls)._trusted(k, packed=(w, width))


def to_vdp(t):
    """Read coefficients off the table: values at 0 and 1, then top-bit differences."""
    return _sweep(t, FORMATS[t.ring, "vanderput"], synthesize=False)


def from_vdp(c, x):
    """Evaluate the expansion at x: the ring sum of B_alpha over the at most k balls alpha = x mod T^(d+1) around x."""
    check_residues(c.precision, (x,), "point")
    balls = [x & 1] + [x & ((2 << d) - 1) for d in range(1, x.bit_length()) if x >> d & 1]
    return functools.reduce(c.table_type.add, map(c._slot_reader(), balls)) & ((1 << c.precision) - 1)


def vdp_table(c):
    """Synthesize the full table of the expansion at its own precision: the sweep of to_vdp inverted."""
    return _sweep(c, type(c), synthesize=True)


class VdpCoefficients(Coefficients):
    """Coefficients B_alpha indexed by the canonical integer of alpha, itself a residue mod pi^k."""

    ring, basis, lift, cap, residue_index = "F2T", "vanderput", 2, TABLE_BUDGET, True
    expand, evaluate, synthesize = staticmethod(to_vdp), staticmethod(from_vdp), staticmethod(vdp_table)

    def clauses(self, ors, band):
        """Van der Put's clauses on the scaled b_alpha = B_alpha / pi^(deg alpha), off band(d), band d's packed slots.

        mp starts from b_0 + b_1 a unit, ergodicity from b_0; unit(d) asks each b_alpha of band d a unit (bit d set).
        lift(m) asks b_0 + b_1 = 1 + pi mod pi^2 at m = 2, and beyond, the ring sum of band m - 2 mod pi^k (its bits
        m - 2 and m - 1) is 2 mod pi^2 at m = 3 and `lift` above (T in F2[[T]], 0 in Z2).  The fold cuts no carry out
        of a slot: a level reads lift(m) only when band m - 2 is on its floor, every value a multiple of pi^(m-2),
        and there the fewer than 2^(m-2) carries that wrap into slot 0 cannot reach bit m - 2.
        """
        k, add, slot = self.precision, self.table_type.add, self._slot_reader()
        width, low = pack((), k + 1)[1], add(slot(0), slot(1))

        def unit(d):
            mask = tile(1 << d, 1 << d, width)
            return band(d) & mask == mask

        def lift(m):
            if m == 2:
                return bool(low & 2)
            total = fold(band(m - 2), 1 << (m - 2), width, add)
            return total >> (m - 2) & 3 == (2 if m == 3 else self.lift)

        return (bool(low & 1), bool(slot(0) & 1)), unit, lift


class Z2VdpCoefficients(VdpCoefficients):
    """Coefficients B_m of the ball-indicator expansion mod 2^k."""

    ring, lift = "Z2", 0


# the van der Put names of the criteria, whose one body each is in dynamics
check_lipschitz_vdp, check_mp_vdp, check_ergodic_vdp = check_lipschitz, check_mp, check_ergodic
