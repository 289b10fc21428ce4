"""Finite-model dynamics: function tables on F2[[T]]/T^k and Z/2^k and their oracles.

A transformation is stored as an explicit table of 2^k residues.  The
table type carries its ring as a tag: `Z2FunctionTable` is a
`FunctionTable` whose tag is "Z2".  Reduction mod T^m and mod 2^m are the
same bit mask on canonical values, so every check here serves both rings.
The sparse coefficient type shared by the Carlitz and Mahler bases lives
here too.  A table is checked and packed into one int once, when it is
built: its `packed` attribute is pack's (int, slot width) in slots of
k + 1 bits, read by every whole-table kernel.  The checks are exhaustive
table oracles: compatibility in one O(2^k) pass; bijectivity from one set
of the values and transitivity from one walk from 0, read at every
compatible level, other levels checked alone; the parity criterion that
decides whether a single cycle lifts one level; and orbit iteration.
"""

import itertools

from .gf2ps import (
    Record,
    check_residues,
    coeffs_document,
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
    "is_bijective_mod",
    "is_compatible",
    "is_transitive_mod",
    "orbit",
    "parity_lift",
    "single_cycle_levels",
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

    `packed` is the table packed by pack_residues, not a field.
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


class SparseCoefficients(Record):
    """Sparse coefficients a_n mod T^k or 2^k; missing indices are zero.

    Subclasses set only the `ring` and `basis` tags that their JSON carries.
    """

    ring = basis = None
    _fields, _bodies = ("precision", "a"), ("a",)

    def _check(self):
        k = self.precision
        a = {int(n): int(v) for n, v in self.a.items()}
        check_residues(k, a.values(), "coefficient")
        if a and min(a) < 0:
            raise ValueError("index must be non-negative")
        object.__setattr__(self, "a", {n: v for n, v in a.items() if v})

    def coeff(self, n):
        return self.a.get(n, 0)

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
    w, width = t.packed
    out, seen, slot = [True], 0, width << 3
    for d, band, lower in split_bands(w, t.precision, width):
        x, cut = band ^ lower, slot << d
        while cut > slot:
            cut >>= 1
            x = x >> cut | x & ((1 << cut) - 1)
        seen |= x
        out.append(not seen & ((1 << d) - 1))
    return LevelVerdicts(tuple(reversed(out)))


def is_bijective_mod(t):
    """Level m true iff x -> f(x) mod T^m permutes the 2^m residues.

    Level k is the size of the set of the values.  When f is onto, every
    compatible level m < k holds too: f(x) mod T^m depends on x mod T^m
    alone, so the first 2^m values reach every residue.  Any other level is
    the set of the first 2^m slots of the packed table, cut to m bits.
    """
    w, width = t.packed
    onto = len(set(t.table)) == len(t.table)
    known = is_compatible(t).levels if onto else (False,) * t.precision
    out = [known[m - 1] or len(set(unpack(w & tile((1 << m) - 1, 1 << m, width), 1 << m, width))) == 1 << m
           for m in range(1, t.precision)]
    return LevelVerdicts((*out, onto))


def _single_cycle(values, m):
    """True iff the walk from 0 under x -> f(x) mod T^m first returns to 0 at step 2^m, the last one walked."""
    mask, x = (1 << m) - 1, 0
    for step in range(1, mask + 2):
        x = values[x] & mask
        if not x:
            break
    return not x and step == mask + 1


def single_cycle_levels(values, precision):
    """Per-level single-cycle walk shared by both rings.

    Reduction mod 2^m and mod T^m are the same bit mask on canonical
    values, so one audited walk serves the series and the 2-adic side.
    """
    return LevelVerdicts(tuple(_single_cycle(values, m) for m in range(1, precision + 1)))


def is_transitive_mod(t):
    """Level m true iff iterating from 0 mod T^m visits all 2^m residues.

    One walk from 0 under f, at most 2^k steps, notes the first step with x == 0 mod T^m for each m.  At a
    compatible level m (level k is one) the level-m walk is this walk mod T^m, by induction on the step, so
    the level holds iff that step is 2^m.  Other levels walk their own.
    """
    values, k = t.table, t.precision
    # first[m - 1]: the first step with x == 0 mod T^m; hit[x]: x == 0 mod T^(n + 1), n = len(first)
    first, hit, x = [], [True, False] * (1 << (k - 1)), 0
    for step in range(1, (1 << k) + 1):
        x = values[x]
        if hit[x]:
            if not x:
                break
            while not x & ((2 << len(first)) - 1):
                first.append(step)
                hit[1 << len(first)::2 << len(first)] = [False] * (1 << (k - 1 - len(first)))
    # after an exact return to 0, a return at every level left, the walk repeats
    first += [0 if x else step] * (k - len(first))
    return LevelVerdicts(tuple(first[m - 1] == 1 << m if ok else _single_cycle(values, m)
                               for m, ok in enumerate(is_compatible(t).levels, start=1)))


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
