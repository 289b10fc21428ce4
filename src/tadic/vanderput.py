"""Van der Put basis over F2[[T]] and Z2: expansion, evaluation, criteria.

A function on residues mod T^k (or 2^k) is written as f(x) = sum of
B_alpha * chi_alpha(x) over indices alpha below 2^k, where chi_alpha is the
indicator of the ball x = alpha mod T^{deg alpha + 1}.  Coefficients are
finite differences of f, so expansion and evaluation accumulate with the
ring's addition: XOR in F2[[T]], carrying addition in Z2.  The types carry
their ring as class tags (`Z2VdpCoefficients` is a `VdpCoefficients` with
Z2's tag, addition and table type), read off the argument's type.  The
criteria per level are the ones of every basis, dynamics' check_lipschitz,
check_mp and check_ergodic, exported here under their van der Put names.
What is van der Put's own is the floor memo `_top`, one AND of the packed
set with its floor bits, and `_scan`, their other clauses on the scaled
coefficients b_alpha: one split of the packed bands per set, the
`_scanned` memo, which hands its unit and lift clauses to `clause_levels`.
"""

import functools
import operator

from .dynamics import TABLE_BUDGET, FunctionTable, Z2FunctionTable, clause_levels, truncation_mask
from .dynamics import check_ergodic, check_lipschitz, check_mp
from .gf2ps import (
    Record,
    check_residues,
    coeffs_document,
    fold,
    order,
    pack_residues,
    read_coeffs_document,
    split_bands,
    tile,
    unpack,
)

__all__ = [
    "VdpCoefficients",
    "Z2VdpCoefficients",
    "check_ergodic_vdp",
    "check_lipschitz_vdp",
    "check_mp_vdp",
    "from_vdp",
    "restrict",
    "to_vdp",
    "vdp_table",
]


class VdpCoefficients(Record):
    """Coefficients B_alpha indexed by the canonical integer of alpha.

    Class tags: the ring's `table_type`, `add` and `sub`, and `lift`, the
    value mod pi^2 of level m's lift clause for m > 3 (both rings ask 2 at
    m = 3).  `packed` is B packed by pack_residues, as a table's, not a
    field; nor are the memos `_top` (the floor) and `_scanned` (the scan).
    """

    ring, basis = "F2T", "vanderput"
    table_type, add, sub, lift = FunctionTable, operator.xor, operator.xor, 2
    _fields, _bodies = ("precision", "B"), ("B",)

    def _check(self):
        object.__setattr__(self, "B", tuple(self.B))
        k = self.precision
        check_residues(k)
        if len(self.B) != 1 << k:
            raise ValueError("need exactly 2^%d coefficients" % k)
        object.__setattr__(self, "packed", pack_residues(k, self.B, "coefficient"))

    @functools.cached_property
    def _top(self):
        """The floor's top: k, or the least order of a digit below pi^deg alpha, by one AND with a tile of them."""
        (w, width), k = self.packed, self.precision
        floor = b"".join(((1 << d) - 1).to_bytes(width, "little") * (1 << d) for d in range(k))
        low = w & int.from_bytes(bytes(width) + floor, "little")
        return order(fold(low, 1 << k, width, operator.or_)) if low else k

    @functools.cached_property
    def _scanned(self):
        """_scan's (top, mp levels, raw ergodic levels), computed at most once per set; B is a tuple, so it cannot go stale."""
        return _scan(self)

    def json_dict(self):
        return coeffs_document(self, ((m, v) for m, v in enumerate(self.B) if v))

    @classmethod
    def from_json_dict(cls, obj):
        # stored densely, so a van der Put file is held to the table budget
        k, coeffs = read_coeffs_document(cls, obj, TABLE_BUDGET)
        # an index alpha is itself a residue mod pi^k
        check_residues(k, coeffs.keys(), "coefficient index")
        B = [0] * (1 << k)
        for m, v in coeffs.items():
            B[m] = v
        return cls(k, B)


class Z2VdpCoefficients(VdpCoefficients):
    """Coefficients B_m of the ball-indicator expansion mod 2^k."""

    ring = "Z2"
    table_type, add, sub, lift = Z2FunctionTable, operator.add, operator.sub, 0


# the coefficient type that to_vdp gives a table of each ring
_VDP = {cls.ring: cls for cls in (VdpCoefficients, Z2VdpCoefficients)}


def _sweep(r, cls, synthesize):
    """The transform pair on a record's packed 2^k values: B_m = f(m) - f(m - 2^{deg m}), or back.

    Synthesis is f(m) = B_m + f(m - 2^{deg m}).  Value m sits in slot m of
    one int, k + 1 bits or wider so that a Z2 sum or biased difference of
    two residues stays in its slot, and band d (the 2^d slots from slot
    2^d) meets the 2^d slots below it shifted up by 2^d slots.  Expanding,
    those come from the source table, so every band is done in one
    difference; synthesizing, from the output built so far, one band at a
    time from d = 1 up.  The result is reduced mod pi^k, so its int is
    pack's form of the values and the record built on it skips its check.
    """
    (w, width), k = r.packed, r.precision
    n = 1 << k
    full = tile(n - 1, n, width)
    if synthesize:
        for d in range(1, k):
            cut = width << (d + 3)
            w = cls.add(w, (w & ((1 << cut) - 1)) << cut) & full
    else:
        s = 0
        for d in range(1, k):
            cut = width << (d + 3)
            s |= (w & ((1 << cut) - 1)) << cut
        # 2^k in every slot: no Z2 difference borrows from the slot above
        w = cls.sub(w | tile(n, n, width), s) & full
    return (cls.table_type if synthesize else cls)._trusted(k, unpack(w, n, width), packed=(w, width))


def to_vdp(t):
    """Read coefficients off the table: values at 0 and 1, then top-bit differences."""
    return _sweep(t, _VDP[t.ring], synthesize=False)


def from_vdp(c, x):
    """Evaluate the expansion at x; nested balls leave at most k nonzero terms."""
    check_residues(c.precision, (x,), "point")
    add = type(c).add
    B = c.B
    acc = B[x & 1]
    n = x >> 1
    shift = 1
    while n:
        if n & 1:
            acc = add(acc, B[x & ((2 << shift) - 1)])
        n >>= 1
        shift += 1
    return acc & ((1 << c.precision) - 1)


def vdp_table(c):
    """Synthesize the full table of the expansion at its own precision: the sweep of to_vdp inverted."""
    return _sweep(c, type(c), synthesize=True)


def restrict(c, prec):
    """Truncate the expansion to a lower precision."""
    mask = truncation_mask(c, prec)
    return type(c)(prec, tuple(v & mask for v in c.B[: 1 << prec]))


def _scan(c):
    """One split of c's packed bands: the floor's top, and the raw mp and ergodic levels of the criteria in dynamics.

    top is c._top, the floor memo.  clause_levels reads the rest on the
    scaled coefficients b_alpha.  The mp start clause is b_0 + b_1 a
    unit, the ergodic one b_0 a unit; band d's unit clause is b_alpha a
    unit for every alpha of degree d (bit d set in each of its 2^d
    slots).  Units and the parity of b_0 + b_1 are the same bit tests in
    both rings.  The lift clause of level m is b_0 + b_1 = 1 + pi mod
    pi^2 at m = 2, and above it the sum of b_alpha over deg alpha = m - 2
    equal to 2 mod pi^2 at m = 3 and to the type's `lift` tag beyond (T
    in F2[[T]], 0 in Z2): bits m - 2 and m - 1 of the sum of band m - 2,
    so m bits of each partial sum suffice.  The bands go with the call.
    """
    cls, k, B, top = type(c), c.precision, c.B, c._top
    w, width = c.packed
    bands = {d: band for d, band, _ in split_bands(w, k, width)}

    def lifts(m):
        if m == 2:
            return bool(cls.add(B[0], B[1]) & 2)
        s = fold(bands[m - 2], 1 << (m - 2), width, cls.add, tile((1 << m) - 1, 1 << (m - 3), width))
        return (s >> (m - 2)) & 3 == (2 if m == 3 else cls.lift)

    return (top, *clause_levels(k, top, (bool((B[0] ^ B[1]) & 1), bool(B[0] & 1)),
                                lambda d: bands[d] & (unit := tile(1 << d, 1 << d, width)) == unit, lifts))


# the van der Put names of the criteria, whose one body each is in dynamics
check_lipschitz_vdp, check_mp_vdp, check_ergodic_vdp = check_lipschitz, check_mp, check_ergodic
