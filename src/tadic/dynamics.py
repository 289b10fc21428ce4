"""Finite-model dynamics: function tables on F2[[T]]/T^k and Z/2^k, coefficient sets, and their oracles.

A transformation is stored as an explicit table of 2^k residues.  The
table type is its ring's one row, in `TABLES`: `Z2FunctionTable` is a
`FunctionTable` tagged "Z2" whose `add` and `sub` carry instead of XOR.
Reduction mod T^m and mod 2^m are one bit mask, so every check serves both rings.
`Coefficients`, the one coefficient record (basis and kernels as tags,
clauses as a method, body packed or a map, each type filed in `FORMATS`),
lives here too, with one scan of band data per body, memoised once per set
whichever criterion asks first, `restrict`, and `clause_levels`, the one
level recurrence of every coefficient criterion.  `check_budget` refuses a
table past `TABLE_BUDGET` from its precision alone.
A table is checked and packed into one int once, when it is built: `packed`, pack's (int, slot width) in slots of k + 1
bits, is read by every kernel, and `table` unpacked on first read.  The
checks are exhaustive table oracles: compatibility in one O(2^k) pass;
transitivity from one bare walk from 0 kept at steps 2^j (a first return
divides any return time), read at every compatible level, other levels
checked alone; bijectivity from the top level down, a compatible level
read off that walk or a bijective level above it, other levels one set
each; the parity criterion that decides whether a single cycle lifts one
level; and orbit iteration.  Each table computes its compatibility
levels and walk once.
"""

import functools
import itertools
import math
import operator
from collections.abc import Mapping
from types import MappingProxyType

from .gf2ps import (
    Record,
    check_integer,
    check_residues,
    fold,
    order,
    pack,
    pack_residues,
    parse_hex,
    read_header,
    read_indexed,
    split_bands,
    tile,
    to_hex,
    unpack,
)

__all__ = [
    "FORMATS",
    "FunctionTable",
    "LevelVerdicts",
    "TABLES",
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
    "restrict",
    "trajectory",
]


# Largest precision k of a 2^k-entry table that a file may hold or imply
# (table, van der Put, steering bits) or a command may build.
TABLE_BUDGET = 24
# Largest precision of a Carlitz or Mahler file: its cost is poly(k) in the stored indices.
_SPARSE_BUDGET = 1024
# (ring, basis) -> the coefficient type that declares those tags, filed when its module is imported
FORMATS = {}


def check_budget(k):
    """Refuse a table of precision k past the table budget, before anything of its size is allocated."""
    if k > TABLE_BUDGET:
        raise ValueError("precision %d needs a table of 2^%d entries, over the budget of 2^%d" % (k, k, TABLE_BUDGET))


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
        m = check_integer(m, 1, len(self.levels), "level must be between 1 and %d" % len(self.levels))
        return self.levels[m - 1]

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


class PackedRecord(Record):
    """A record of precision k whose body is 2^k residues, checked once and kept as pack_residues' pair `packed`.

    Subclasses derive the body by `functools.cached_property(_unpacked)`; equality and hash read (precision,
    packed), one pair per body at k + 1 bits a slot, and repr takes the body's size from the precision.
    """

    def _check(self):
        values = tuple(getattr(self, self._bodies[0]))
        k = check_residues(self.precision)
        if len(values) != 1 << k:
            raise ValueError(self._wrong_size % k)
        self.__dict__.update({"precision": k, self._bodies[0]: values, "packed": pack_residues(k, values, self._entry)})

    def _unpacked(self):
        return unpack(self.packed[0], 1 << self.precision, self.packed[1])

    def _key(self):
        return self.precision, self.packed

    def _entries(self, body):
        return 1 << self.precision


class FunctionTable(PackedRecord):
    """Transformation of F2[[T]]/T^k as a table: entry m is f(residue m).

    `table` is unpacked on first read; `_compatible` and `_checkpoints`, memos of the oracles, are no fields.
    """

    ring, add, sub = "F2T", operator.xor, operator.xor
    _fields, _bodies = ("precision", "table"), ("table",)
    _wrong_size, _entry = "table must have exactly 2^%d entries", "table entry"
    table = functools.cached_property(PackedRecord._unpacked)

    @functools.cached_property
    def _compatible(self):
        """The levels of is_compatible, by one pass over the packed bands."""
        w, width = self.packed
        out, seen = [True], 0
        for d, band, lower in split_bands(w, self.precision, width):
            seen |= fold(band ^ lower, 1 << d, width, operator.or_)
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
    """Values of f on all residues mod 2^k, canonically indexed, with the carrying `add` and `sub`."""

    ring, add, sub = "Z2", operator.add, operator.sub


TABLES = {t.ring: t for t in (FunctionTable, Z2FunctionTable)}  # ring -> its table type, which adds


class _RingTable:
    """A coefficient type's `table_type`, its ring's row of TABLES: read off the ring, so no type declares one."""

    def __get__(self, obj, owner):
        return TABLES[owner.ring]


def clause_levels(k, top, start, unit, lift):
    """The raw mp and ergodic levels of a coefficient criterion: the one level recurrence of every basis.

    Level 1 needs top >= 1 (1-Lipschitz mod pi) and the start clauses,
    start = (mp, ergodic).  Level m adds m <= top and the unit clause
    unit(m - 1) of degree band m - 1, and for ergodicity the lift clause
    lift(m).  A level needs the one below it, so a clause is read only
    while its level can still hold.
    """
    mp = top >= 1 and start[0]
    ergodic = mp and start[1]
    levels = [(mp, ergodic)]
    for m in range(2, k + 1):
        mp = mp and m <= top and unit(m - 1)
        ergodic = ergodic and mp and lift(m)
        levels.append((mp, ergodic))
    return tuple(zip(*levels))


def check_lipschitz(c):
    """True iff the coefficient set c, in any basis, is 1-Lipschitz through level k: its scan's floor top is k."""
    return c._scanned[0] == c.precision


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


class Coefficients(PackedRecord):
    """Coefficients c_n mod pi^k, n >= 0, in one basis; missing indices are zero.

    The basis is class tags: `ring`, `basis`, `lift` (the digit the lift clauses
    ask), `cap` (a file's largest precision) and `residue_index` (an index is a
    residue mod pi^k); `table_type`, which adds, is the ring's row of TABLES.
    Its start, unit and lift clauses are one method, `clauses`, read off the
    scan's band data; the floor ord(c_n) >= floor(log2 n) is every basis's.
    The kernels are tags too: `expand` (table -> set, or None), `evaluate`
    ((set, x) -> value) and `synthesize` (set -> table).  A subclass that
    declares `ring` or `basis` itself is filed in FORMATS, and one whose
    (ring, basis) is filed already is refused.  The body is `packed`
    (kernels, 2^k values given) or `a`, a read-only map of the nonzero
    values (files, a mapping given, truncations).  A set keeps its body and
    scans it; `a` and `B`, the 2^k values, are kept once read, `packed` of
    a map is built anew.  Equality goes by (precision,
    nonzero items), hash by the precision and slots 0 and 1, pickle and
    repr by the body.
    """

    ring = basis = lift = expand = evaluate = synthesize = None
    table_type, cap, residue_index = _RingTable(), _SPARSE_BUDGET, False
    _fields, _bodies = ("precision", "a"), ("B", "a")
    _wrong_size, _entry = "need exactly 2^%d coefficients", "coefficient"

    def __init_subclass__(cls):
        if {"ring", "basis"} & vars(cls).keys():
            if FORMATS.setdefault((cls.ring, cls.basis), cls) is not cls:
                raise TypeError("%s/%s is %s's format" % (cls.ring, cls.basis, FORMATS[cls.ring, cls.basis].__name__))

    def _check(self):
        k, body = self.precision, self.__dict__.pop("a")
        if not isinstance(body, Mapping):
            self.__dict__["B"] = body
            return super()._check()
        k = check_residues(k)
        try:
            a = {operator.index(n): operator.index(v) for n, v in body.items()}
        except TypeError:
            raise ValueError("coefficient indices and values must be integers") from None
        if a and (min(a) < 0 or self.residue_index and max(a) >> k):
            raise ValueError("coefficient index out of range for precision %d" % k)
        check_residues(k, a.values(), "coefficient")
        self.__dict__.update(precision=k, a=MappingProxyType({n: v for n, v in a.items() if v}))

    _sparse = property(lambda self: "packed" not in self.__dict__)

    @property
    def packed(self):
        """pack's (int, slot width) of the 2^k values: the packed body, or a new pack of the map's."""
        return self.__dict__.get("packed") or pack(self._spread(), self.precision + 1)

    @functools.cached_property
    def a(self):
        """The read-only map of the nonzero values, read off a packed body."""
        values = self._unpacked()
        return MappingProxyType(dict(itertools.compress(enumerate(values), values)))

    @functools.cached_property
    def B(self):
        """The 2^k values c_0, ..., c_(2^k - 1) as a tuple."""
        return tuple(self._spread()) if self._sparse else self._unpacked()

    def _spread(self):
        """The map's values in a list of 2^k slots; an index from 2^k up vanishes at every canonical point."""
        check_budget(self.precision)
        size = 1 << self.precision
        values = [0] * size
        for n, v in self.a.items():
            if n < size:
                values[n] = v
        return values

    def _slot_reader(self):
        """The reader of single values off the held body, n -> c_n: a map lookup, or a cut of the packed int to slot n."""
        if self._sparse:
            get = self.a.get
            return lambda n: get(n, 0)
        (w, width), mask = self.packed, (1 << self.precision) - 1
        return lambda n: (w & mask << (n * width << 3)) >> (n * width << 3)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # two packed bodies compare as their ints, in O(2^k) bytes with no map built
        held = (self.packed, other.packed) if not (self._sparse or other._sparse) else (self.a, other.a)
        return self.precision == other.precision and held[0] == held[1]

    def __hash__(self):
        # equal sets agree on every slot, so two slots read off either body will do
        return hash((type(self), self.precision, *map(self._slot_reader(), (0, 1))))

    def _values(self):
        return self.precision, dict(self.a) if self._sparse else self.B

    def __repr__(self):
        body = ("a", len(self.a)) if self._sparse else ("B", 1 << self.precision)
        return "%s(precision=%d, %s=<%d entries>)" % (type(self).__name__, self.precision, *body)

    @functools.cached_property
    def _scanned(self):
        """(top, raw mp levels, raw ergodic levels): the floor off the scan's band ORs, then the basis's clauses."""
        k = self.precision
        ors, band = (_map_scan if self._sparse else _packed_scan)(self)
        # the floor's top: the least order of a band d's OR below bit d, or k
        top = min([k, *(order(low) for d, v in ors.items() if (low := v & ((1 << d) - 1)))])
        return (top, *clause_levels(k, top, *self.clauses(ors, band)))

    def clauses(self, ors, band):
        """The start pair, unit(d) and lift(m) that clause_levels takes, off the scan's (ors, band): Carlitz's and Mahler's.

        mp starts from c_1 odd and ergodicity from c_0 odd; unit(d) asks no bit d in band d's OR (ord(c_n) > d), and
        lift(m) digit m - 1 of c_(2^(m-1)-1) equal to `lift`.  Single values come off the held body; band is unread.
        """
        slot = self._slot_reader()
        return ((bool(slot(1) & 1), bool(slot(0) & 1)), lambda d: not ors.get(d, 0) >> d & 1,
                lambda m: slot((1 << (m - 1)) - 1) >> (m - 1) & 1 == self.lift)

    def json_dict(self):
        return {"ring": self.ring, "basis": self.basis, "precision": self.precision,
                "coeffs": {str(n): to_hex(v) for n, v in sorted(self.a.items())}}

    @classmethod
    def from_json_dict(cls, obj):
        return cls(read_header(obj, most=cls.cap, ring=cls.ring, basis=cls.basis), read_indexed(obj, "coeffs", parse_hex))


def _packed_scan(c):
    """The scan of a packed body: (ors, band) off one split of the bands d = 1..k-1.

    ors maps each band holding a value to the OR of its slots, and band(d) is the split's band d: its 2^d slots
    shifted down to slot 0, at the body's slot width.
    """
    (w, width), k = c.packed, c.precision
    split = {d: band for d, band, _ in split_bands(w, k, width)}
    return {d: v for d, band in split.items() if (v := fold(band, 1 << d, width, operator.or_))}, split.__getitem__


def _map_scan(c):
    """The scan of a map body: (ors, band) as _packed_scan's, from one pass ORing the values by index length.

    A band from k up holds only indices that vanish at every canonical point, and its OR is kept too.  band(d)
    packs band d's 2^d entries on demand at k + 1 bits a slot, a missing one read as 0.
    """
    k, get, ors = c.precision, c.a.get, {}
    for n, v in c.a.items():
        b = n.bit_length()
        ors[b] = ors.get(b, 0) | v

    def band(d):
        return pack([get(n, 0) for n in range(1 << d, 2 << d)], k + 1)[0]

    return {b - 1: v for b, v in ors.items() if b > 1}, band


def restrict(c, prec):
    """The set mod pi^prec, for a precision 1..c.precision, as a map; a van der Put set drops its indices from 2^prec up."""
    prec = check_integer(prec, 1, c.precision, "precision must be between 1 and %d" % c.precision)
    mask = (1 << prec) - 1
    return type(c)(prec, {n: v & mask for n, v in c.a.items() if not (c.residue_index and n >> prec)})


def is_compatible(t):
    """Level m true iff x == y mod T^m always forces f(x) == f(y) mod T^m.

    Equivalently ord(f(x) - f(x - 2^deg x)) >= m for deg x >= m: stripping top bits walks x down to x mod T^m,
    and a difference has the order of the XOR in both rings.  So suffix ORs of the XOR bands decide it in O(2^k):
    with the table packed in one int, a band is XORed with the block below it and ORed into one slot by halving.
    """
    return LevelVerdicts(t._compatible)


def _full_first_return(p, m):
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
        ok = t._compatible[m - 1] and (onto or _full_first_return(p, m)) or len(set(
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
    return LevelVerdicts(tuple(_full_first_return(p, m) if ok else _single_cycle(t.table, m)
                               for m, ok in enumerate(t._compatible, start=1)))


def parity_lift(t, n):
    """Parity test deciding whether a single cycle mod T^n lifts to T^{n+1}.

    Requires a table that is compatible and measure preserving at the
    levels involved; the transitivity hypothesis is validated here, the
    others are trusted.  Returns True iff the number of points of degree
    below n (zero included) whose image has T^n coefficient 1 is odd,
    which holds iff f is transitive mod T^{n+1}.
    """
    check_integer(n, 1, math.inf, "precondition: n must be at least 1")
    check_integer(n, 1, t.precision - 1, "precondition: need precision at least n+1")
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
