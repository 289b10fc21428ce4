"""Finite-model dynamics: function tables on F2[[T]]/T^k and Z/2^k and their oracles.

A transformation is stored as an explicit table of 2^k residues.  The
table type carries its ring as a tag: `Z2FunctionTable` is a
`FunctionTable` whose tag is "Z2".  Reduction mod T^m and mod 2^m are the
same bit mask on canonical values, so every check here serves both rings.
The sparse coefficient type shared by the Carlitz and Mahler bases lives
here too, with `clause_levels`, the one level recurrence of every
coefficient criterion.  A table is checked and packed into one int once,
when it is built: its `packed` attribute is pack's (int, slot width) in
slots of k + 1 bits, read by every whole-table kernel.  The checks are
exhaustive table oracles: compatibility in one O(2^k) pass; transitivity
from one bare walk from 0 kept at steps 2^j (a first return divides any
return time), read at every compatible level, other levels checked
alone; bijectivity from the top level down, a compatible level read off
that walk or a bijective level above it, other levels one set each; the
parity criterion that decides whether a single cycle lifts one level;
and orbit iteration.  Each table computes its compatibility levels and
walk once.
"""

import functools
import itertools
from types import MappingProxyType

from .gf2ps import (
    Record,
    check_residues,
    coeffs_document,
    order,
    pack_residues,
    parse_hex,
    read_coeffs_document,
    read_header,
    split_bands,
    tile,
    to_hex,
    unpack,
)

__all__ = [
    "FunctionTable",
    "LevelVerdicts",
    "TABLE_BUDGET",
    "Z2FunctionTable",
    "check_ergodic",
    "check_lipschitz",
    "check_mp",
    "is_bijective_mod",
    "is_compatible",
    "is_transitive_mod",
    "orbit",
    "parity_lift",
    "trajectory",
]


# Largest precision k of a 2^k-entry table that a file may hold or imply
# (table, van der Put, steering bits) or a command may build.
TABLE_BUDGET = 24
# Largest precision of a sparse Carlitz or Mahler file: its cost is poly(k).
_SPARSE_BUDGET = 1024


class LevelVerdicts(Record):
    """Per-modulus verdicts: entry m-1 is the verdict at modulus T^m.

    Entries are True, False, or None when the property cannot be decided
    at the working precision.  The overall verdict is the three-valued
    conjunction: False dominates, then None, else True.
    """

    _fields = ("levels",)

    @classmethod
    def below_precision(cls, raw):
        """Verdicts from per-level clause results whose top level reads past the precision.

        True is reported only below the precision: the top level stays None
        unless its clauses already fail.
        """
        *below, top = raw
        return cls((*below, None if top else False))

    def level(self, m):
        if not 1 <= m <= len(self.levels):
            raise ValueError("level must be between 1 and %d" % len(self.levels))
        return self.levels[m - 1]

    @property
    def precision(self):
        return len(self.levels)

    @property
    def overall(self):
        if any(v is False for v in self.levels):
            return False
        if any(v is None for v in self.levels):
            return None
        return True

    def all_determined_true(self):
        """True when no level is False and at least one level is decided."""
        det = [v for v in self.levels if v is not None]
        return bool(det) and all(det)

    def json_dict(self):
        return {str(m): v for m, v in enumerate(self.levels, start=1)}


class FunctionTable(Record):
    """Transformation of F2[[T]]/T^k as a table: entry m is f(residue m).

    `packed` is the table packed by pack_residues, not a field; nor are
    `_compatible` and `_checkpoints`, computed on first use by an oracle.
    """

    ring = "F2T"
    _fields, _bodies = ("precision", "table"), ("table",)

    def _check(self):
        object.__setattr__(self, "table", tuple(self.table))
        k = self.precision
        check_residues(k)
        if len(self.table) != 1 << k:
            raise ValueError("table must have exactly 2^%d entries" % k)
        object.__setattr__(self, "packed", pack_residues(k, self.table, "table entry"))

    @functools.cached_property
    def _compatible(self):
        """The levels of is_compatible, by one pass over the packed bands."""
        w, width = self.packed
        out, seen, slot = [True], 0, width << 3
        for d, band, lower in split_bands(w, self.precision, width):
            x, cut = band ^ lower, slot << d
            while cut > slot:
                cut >>= 1
                x = x >> cut | x & ((1 << cut) - 1)
            seen |= x
            out.append(not seen & ((1 << d) - 1))
        return tuple(reversed(out))

    @functools.cached_property
    def _checkpoints(self):
        """f^(2^j)(0) for j = 0..k: one bare walk from 0 of 2^k steps, kept at the powers of two."""
        values, x, out = self.table, 0, []
        for n in (1, *(1 << j for j in range(self.precision))):
            for _ in itertools.repeat(None, n):
                x = values[x]
            out.append(x)
        return tuple(out)

    def json_dict(self):
        return {
            "ring": self.ring,
            "precision": self.precision,
            "table": [to_hex(v) for v in self.table],
        }

    @classmethod
    def from_json_dict(cls, obj):
        k = read_header(obj, most=TABLE_BUDGET, ring=cls.ring)
        table = obj.get("table")
        if not isinstance(table, list):
            raise ValueError("table must be a JSON list, got %s" % type(table).__name__)
        return cls(k, tuple(parse_hex(v) for v in table))


class Z2FunctionTable(FunctionTable):
    """Values of f on all residues mod 2^k, canonically indexed."""

    ring = "Z2"


def clause_levels(k, top, start, band, lift):
    """The raw mp and ergodic levels of a coefficient criterion: the one level recurrence of every basis.

    Level 1 needs top >= 1 (1-Lipschitz mod pi) and the start clauses,
    start = (mp, ergodic).  Level m adds m <= top and the unit clause
    band(m - 1) of degree band m - 1, and for ergodicity the lift clause
    lift(m).  A level needs the one below it, so a clause is read only
    while its level can still hold.
    """
    mp = top >= 1 and start[0]
    ergodic = mp and start[1]
    levels = [(mp, ergodic)]
    for m in range(2, k + 1):
        mp = mp and m <= top and band(m - 1)
        ergodic = ergodic and mp and lift(m)
        levels.append((mp, ergodic))
    return tuple(zip(*levels))


def check_lipschitz(c):
    """True iff the coefficient set c, in any basis, is 1-Lipschitz through level k: its floor's top is k."""
    return c._top == c.precision


def check_mp(c):
    """Measure preservation per level, in any basis: the mp levels of c's scan, all decided, on any set.

    Level m matches a table compatible at every level j <= m and bijective
    mod pi^m; a set off its floor gets False from level top + 1 on.
    """
    return LevelVerdicts(c._scanned[1])


def check_ergodic(c):
    """Single-cycle criterion per level, in any basis, three-valued: the raw ergodic levels of c's scan.

    True at level m < k matches a table compatible at every level j <= m
    and transitive mod pi^m; level k stays None unless a clause fails.
    """
    return LevelVerdicts.below_precision(c._scanned[2])


class SparseCoefficients(Record):
    """Sparse coefficients a_n mod T^k or 2^k; missing indices are zero.

    `a` is a read-only view of the nonzero values, so a set cannot change
    under its memos; it hashes by its items and pickles as a plain dict.
    Subclasses set the `ring` and `basis` tags that their JSON carries and
    the `lift` tag, the digit m - 1 of a_{2^(m-1)-1} that level m's lift
    clause asks for.  `_floor` and `_scanned`, the scans that the criteria
    read, are no fields.
    """

    ring = basis = lift = None
    _fields, _bodies = ("precision", "a"), ("a",)

    def _check(self):
        k = self.precision
        a = {int(n): int(v) for n, v in self.a.items()}
        check_residues(k, a.values(), "coefficient")
        if a and min(a) < 0:
            raise ValueError("index must be non-negative")
        object.__setattr__(self, "a", MappingProxyType({n: v for n, v in a.items() if v}))

    def __hash__(self):
        return hash((type(self), self.precision, frozenset(self.a.items())))

    def __reduce__(self):
        return type(self), (self.precision, dict(self.a))

    def coeff(self, n):
        return self.a.get(n, 0)

    @functools.cached_property
    def _floor(self):
        """(top, the stored a_n ORed by bit length): the one pass over them, all that check_lipschitz reads.

        top is k, or the least order of an a_n below its floor
        ord(a_n) >= floor(log2 n); as a_n < 2^k, past the precision the
        floor refutes any stored a_n.
        """
        k, ors = self.precision, {}
        for n, v in self.a.items():
            b = n.bit_length()
            ors[b] = ors.get(b, 0) | v
        return min([k, *(order(off) for b, v in ors.items() if b > 1 and (off := v & ((1 << (b - 1)) - 1)))]), ors

    _top = property(lambda self: self._floor[0])

    @functools.cached_property
    def _scanned(self):
        """(top, raw mp levels, raw ergodic levels), read off the floor pass's ORs by clause_levels.

        Band d's unit clause is ord(a_n) >= d + 1 for 2^d <= n < 2^(d+1),
        mp starts from a_1 odd and ergodicity from a_0 odd, and level m's
        lift clause asks digit m - 1 of a_{2^(m-1)-1} to be the `lift` tag.
        """
        (top, ors), a = self._floor, self.a
        return (top, *clause_levels(self.precision, top, (bool(a.get(1, 0) & 1), bool(a.get(0, 0) & 1)),
                                    lambda d: not ors.get(d + 1, 0) & ((2 << d) - 1),
                                    lambda m: (a.get((1 << (m - 1)) - 1, 0) >> (m - 1)) & 1 == self.lift))

    def json_dict(self):
        return coeffs_document(self, sorted(self.a.items()))

    @classmethod
    def from_json_dict(cls, obj):
        return cls(*read_coeffs_document(cls, obj, _SPARSE_BUDGET))


def truncation_mask(c, prec):
    """The mask that truncates c's values mod pi^prec, for a precision 1..c.precision."""
    if not 1 <= prec <= c.precision:
        raise ValueError("precision must be between 1 and %d" % c.precision)
    return (1 << prec) - 1


def restrict_sparse(c, prec):
    """Truncate sparse coefficients to a lower precision."""
    mask = truncation_mask(c, prec)
    return type(c)(prec, {n: v & mask for n, v in c.a.items()})


def is_compatible(t):
    """Level m true iff x == y mod T^m always forces f(x) == f(y) mod T^m.

    Equivalently ord(f(x) - f(x - 2^deg x)) >= m for deg x >= m: stripping top bits walks x down to x mod T^m,
    and a difference has the order of the XOR in both rings.  So suffix ORs of the XOR bands decide it in O(2^k):
    with the table packed in one int, a band is XORed with the block below it and ORed into one slot by halving.
    """
    return LevelVerdicts(t._compatible)


def _first_return_at_top(p, m):
    """True iff the walk mod T^m with checkpoints p first returns at step 2^m: it divides 2^m, not 2^(m-1)."""
    mask = (1 << m) - 1
    return p[m] & mask == 0 < p[m - 1] & mask


def is_bijective_mod(t):
    """Level m true iff x -> f(x) mod T^m permutes the 2^m residues.

    Levels run from k down.  A compatible level m holds with no set when a
    higher level holds, since f(x) mod T^m depends on x mod T^m alone, so
    the first 2^m values reach every residue the first 2^j did; or when
    the walk from 0 first returns at step 2^m, since one 2^m-cycle visits
    every residue.  Any other level is the set of its first 2^m values: the
    table at level k, below it the first 2^m packed slots cut to m bits.
    """
    (w, width), p, k = t.packed, t._checkpoints, t.precision
    out, onto = [], False
    for m in range(k, 0, -1):
        n = 1 << m
        ok = t._compatible[m - 1] and (onto or _first_return_at_top(p, m)) or len(set(
            t.table if m == k else unpack(w & tile(n - 1, n, width), n, width))) == n
        onto = onto or ok
        out.append(ok)
    return LevelVerdicts(tuple(reversed(out)))


def _single_cycle(values, m):
    """True iff the walk from 0 under x -> f(x) mod T^m first returns to 0 at step 2^m, the last one walked."""
    mask, x = (1 << m) - 1, 0
    for step in range(1, mask + 2):
        x = values[x] & mask
        if not x:
            break
    return not x and step == mask + 1


def is_transitive_mod(t):
    """Level m true iff iterating from 0 mod T^m visits all 2^m residues.

    One bare walk from 0 under f, 2^k steps, keeps the points at steps 2^j for j = 0..k.  At a compatible
    level m (level k is one) the level-m walk is this walk mod T^m, by induction on the step, so the level
    holds iff it first returns at step 2^m, which two checkpoints decide.  Other levels walk their own.
    """
    p = t._checkpoints
    return LevelVerdicts(tuple(_first_return_at_top(p, m) if ok else _single_cycle(t.table, m)
                               for m, ok in enumerate(t._compatible, start=1)))


def parity_lift(t, n):
    """Parity test deciding whether a single cycle mod T^n lifts to T^{n+1}.

    Requires a table that is compatible and measure preserving at the
    levels involved; the transitivity hypothesis is validated here, the
    others are trusted.  Returns True iff the number of points of degree
    below n (zero included) whose image has T^n coefficient 1 is odd,
    which holds iff f is transitive mod T^{n+1}.
    """
    if n < 1:
        raise ValueError("precondition: n must be at least 1")
    if t.precision < n + 1:
        raise ValueError("precondition: need precision at least n+1")
    if not _single_cycle(t.table, n):
        raise ValueError("precondition: not transitive mod T^%d" % n)
    w, width = t.packed
    # bit n of the first 2^n slots, counted at once
    return bool(((w >> n) & tile(1, 1 << n, width)).bit_count() & 1)


def trajectory(t, x0):
    """x0, f(x0), f(f(x0)), ... as an endless iterator of ints; x0 is checked at once."""
    check_residues(t.precision, (x0,), "point")
    values = t.table

    def walk(x):
        while True:
            yield x
            x = values[x]

    return walk(x0)


def orbit(t, x0, steps):
    """The first `steps` points of the trajectory of x0 under the table."""
    return list(itertools.islice(trajectory(t, x0), steps))
