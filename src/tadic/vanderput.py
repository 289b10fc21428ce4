"""Van der Put basis over F2[[T]] and Z2: expansion, evaluation, criteria.

A function on residues mod T^k (or 2^k) is written as f(x) = sum of
B_alpha * chi_alpha(x) over indices alpha below 2^k, where chi_alpha is the
indicator of the ball x = alpha mod T^{deg alpha + 1}.  Coefficients are
finite differences of f, so expansion and evaluation accumulate with the
ring's addition: XOR in F2[[T]], carrying addition in Z2.  The types carry
the ring as a tag (`Z2VdpCoefficients` is a `VdpCoefficients` tagged "Z2")
and every function here reads the ring off its argument.  The criteria
for 1-Lipschitz continuity, measure preservation and ergodicity per level
are the ones of every basis, dynamics' check_lipschitz, check_mp and
check_ergodic, exported here under their van der Put names.  What is van
der Put's own is `_scan`, their clauses on the scaled coefficients
b_alpha: one split of the packed bands per set, the `_scanned` memo, which
hands its unit and lift clauses to `clause_levels`; no band outlives the
scan.
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
    "RINGS",
    "Ring",
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

    `packed` is B packed by pack_residues, as a table's, not a field; nor
    is `_scanned`, the one band scan that every criterion reads.
    """

    ring, basis = "F2T", "vanderput"
    _fields, _bodies = ("precision", "B"), ("B",)

    def _check(self):
        object.__setattr__(self, "B", tuple(self.B))
        k = self.precision
        check_residues(k)
        if len(self.B) != 1 << k:
            raise ValueError("need exactly 2^%d coefficients" % k)
        object.__setattr__(self, "packed", pack_residues(k, self.B, "coefficient"))

    @functools.cached_property
    def _scanned(self):
        """_scan's (top, mp levels, raw ergodic levels), computed at most once per set; B is a tuple, so it cannot go stale."""
        return _scan(self)

    # one split of the bands serves all three criteria, so check_lipschitz reads top off the whole scan
    _top = property(lambda self: self._scanned[0])

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


class Ring(Record):
    """One coefficient ring: its tag, addition, tagged types, and lift target.

    `lift(m)` is the value mod pi^2 that the scaled band sum over
    deg alpha = m-2 must take for a single cycle to lift to level m >= 3.
    """

    _fields = ("name", "add", "sub", "table", "vdp", "lift")


RINGS = {
    r.name: r
    for r in (
        Ring("F2T", operator.xor, operator.xor, FunctionTable, VdpCoefficients, lambda m: 2),
        Ring("Z2", operator.add, operator.sub, Z2FunctionTable, Z2VdpCoefficients, lambda m: 2 if m == 3 else 0),
    )
}


def _sweep(r, ring, synthesize):
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
            w = ring.add(w, (w & ((1 << cut) - 1)) << cut) & full
    else:
        s = 0
        for d in range(1, k):
            cut = width << (d + 3)
            s |= (w & ((1 << cut) - 1)) << cut
        # 2^k in every slot: no Z2 difference borrows from the slot above
        w = ring.sub(w | tile(n, n, width), s) & full
    return (ring.table if synthesize else ring.vdp)._trusted(k, unpack(w, n, width), packed=(w, width))


def to_vdp(t):
    """Read coefficients off the table: values at 0 and 1, then top-bit differences."""
    return _sweep(t, RINGS[t.ring], synthesize=False)


def from_vdp(c, x):
    """Evaluate the expansion at x; nested balls leave at most k nonzero terms."""
    check_residues(c.precision, (x,), "point")
    add = RINGS[c.ring].add
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
    return _sweep(c, RINGS[c.ring], synthesize=True)


def restrict(c, prec):
    """Truncate the expansion to a lower precision."""
    mask = truncation_mask(c, prec)
    return type(c)(prec, tuple(v & mask for v in c.B[: 1 << prec]))


def _scan(c):
    """One split of c's packed bands: top, and the raw mp and ergodic levels of the criteria in dynamics.

    top is the highest level m through which the set is 1-Lipschitz,
    ord(B_alpha) >= min(deg alpha, m) for every alpha: k, or the least
    order below a band's floor, from the band's OR.  clause_levels reads
    the rest on the scaled coefficients b_alpha.  The mp start clause is
    b_0 + b_1 a unit, the ergodic one b_0 a unit; band d's unit clause is
    b_alpha a unit for every alpha of degree d (bit d set in each of its
    2^d slots).  Units and the parity of b_0 + b_1 are the same bit tests
    in both rings.  The lift clause of level m is b_0 + b_1 = 1 + pi mod
    pi^2 at m = 2, and above it the sum of b_alpha over deg alpha = m - 2
    equal to the ring's lift target mod pi^2 (T in F2[[T]]; 2 at m = 3 and
    0 beyond in Z2): bits m - 2 and m - 1 of the sum of band m - 2, so m
    bits of each partial sum suffice.  The bands go with the call.
    """
    ring, k, B = RINGS[c.ring], c.precision, c.B
    w, width = c.packed
    top, bands = k, {}
    for d, band, _ in split_bands(w, k, width):
        bands[d] = band
        low = fold(band, 1 << d, width, operator.or_) & ((1 << d) - 1)
        if low:
            top = min(top, order(low))

    def lifts(m):
        if m == 2:
            return bool(ring.add(B[0], B[1]) & 2)
        s = fold(bands[m - 2], 1 << (m - 2), width, ring.add, tile((1 << m) - 1, 1 << (m - 3), width))
        return (s >> (m - 2)) & 3 == ring.lift(m)

    return (top, *clause_levels(k, top, (bool((B[0] ^ B[1]) & 1), bool(B[0] & 1)),
                                lambda d: bands[d] & (unit := tile(1 << d, 1 << d, width)) == unit, lifts))


# the van der Put names of the criteria, whose one body each is in dynamics
check_lipschitz_vdp, check_mp_vdp, check_ergodic_vdp = check_lipschitz, check_mp, check_ergodic
