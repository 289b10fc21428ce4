"""Polynomial and truncated power series arithmetic over F2, and the hex codec.

Values are Python ints used as bit vectors: bit i holds the coefficient
of T^i.  An exact element of F2[T] is any such int, with products but no
division; a Residue pairs a value reduced mod T^k with its precision k.
The encoding makes the digit-for-digit correspondence with 2-adic
integers the identity on bit patterns, and it is the encoding used by
every file format and hex flag.
So one residue rule (`check_residues`, and `read_header` and
`read_indexed` for files) serves both rings, and one codec pair writes and
reads every coefficient file; `Z2Residue` is a `Residue` tagged "Z2",
which the XOR arithmetic refuses.
"""

from __future__ import annotations

import math
import re

__all__ = [
    "Record",
    "Residue",
    "Z2Residue",
    "add",
    "check_residues",
    "clmul",
    "clmul_trunc",
    "coeffs_document",
    "degree",
    "invert_unit",
    "mul",
    "order",
    "parse_hex",
    "read_coeffs_document",
    "read_header",
    "read_indexed",
    "to_hex",
    "trunc",
]


def degree(a):
    """Degree in T of an exact polynomial; -inf for the zero polynomial."""
    return a.bit_length() - 1 if a else -math.inf


def order(a):
    """Index of the lowest set bit (the T-adic valuation); inf for 0."""
    return (a & -a).bit_length() - 1 if a else math.inf


def trunc(a, k):
    """Reduce a bit vector mod T^k."""
    return a & ((1 << k) - 1)


def clmul(a, b):
    """Carry-less (XOR accumulate) product of two bit vectors."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        acc ^= b << ((a & -a).bit_length() - 1)
        a &= a - 1
    return acc


def clmul_trunc(a, b, k):
    """Carry-less product reduced mod T^k; depends only on inputs mod T^k."""
    m = (1 << k) - 1
    return clmul(a & m, b & m) & m


def _inv_unit(a, k):
    # Newton iteration in characteristic 2: the error term squares each step.
    x = 1
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        m = (1 << prec) - 1
        e = (clmul(a & m, x) & m) ^ 1
        x ^= clmul(x, e) & m
    return x


def check_residues(k, values=(), what="value"):
    """The residue rule: k is a positive integer and each of the sized `values` lies in 0..2^k - 1."""
    if k < 1:
        raise ValueError("precision must be a positive integer")
    if values and (min(values) < 0 or max(values) >> k):
        raise ValueError("%s out of range for precision %d" % (what, k))


def read_header(obj, key="precision", most=None, **tags):
    """The `key` field of a JSON document as a JSON integer (no bool, float or string), at most `most`.

    The document's tags (ring=..., basis=...) are checked first; the value types check the rest.
    """
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object, got %s" % type(obj).__name__)
    for name, want in tags.items():
        if obj.get(name) != want:
            raise ValueError("expected %s %s, got %r" % (name, want, obj.get(name)))
    value = obj.get(key)
    if type(value) is not int:
        raise ValueError("%s must be a JSON integer, got %r" % (key, value))
    if most is not None and value > most:
        raise ValueError("%s %d is over the limit of %d" % (key, value, most))
    return value


def read_indexed(obj, key, parse):
    """The `key` body of a JSON document as {index: parse(value)}; an absent body reads as empty.

    The body must be a JSON object whose keys are canonical decimal indices
    (ASCII digits, no sign, space or leading zero), so each index has one key.
    """
    body = obj.get(key, {})
    if not isinstance(body, dict):
        raise ValueError("%s must be a JSON object, got %s" % (key, type(body).__name__))
    out = {}
    for n, v in body.items():
        if not (n.isascii() and n.isdigit() and str(int(n)) == n):
            raise ValueError("%s key %r is not a canonical decimal index" % (key, n))
        out[int(n)] = parse(v)
    return out


def coeffs_document(c, items):
    """The coefficient-file document of c: its ring and basis tags, precision, and hex values of (index, value) items."""
    return {"ring": c.ring, "basis": c.basis, "precision": c.precision,
            "coeffs": {str(n): to_hex(v) for n, v in items}}


def read_coeffs_document(cls, obj, most):
    """Precision (at most `most`) and {index: value} of a coefficient-file document tagged as cls."""
    k = read_header(obj, most=most, ring=cls.ring, basis=cls.basis)
    return k, read_indexed(obj, "coeffs", parse_hex)


class Record:
    """Frozen value record, the base of every value type: positional `_fields`, checked by `_check`.

    Records compare and hash by exact class and fields, refuse assignment,
    pickle and copy by their fields, and show only the size of `_bodies`.
    """

    __slots__ = ()
    _fields = _bodies = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError("%s takes the fields %s" % (type(self).__name__, ", ".join(self._fields)))
        for name, v in zip(self._fields, values):
            object.__setattr__(self, name, v)
        self._check()

    def _check(self):
        """Validate the fields; a check may normalise one through object.__setattr__."""

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((type(self), self._values()))

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot change %r of a frozen %s" % (name, type(self).__name__))

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        shown = ("%s=<%d entries>" % (n, len(v)) if n in self._bodies else "%s=%r" % (n, v)
                 for n, v in zip(self._fields, self._values()))
        return "%s(%s)" % (type(self).__name__, ", ".join(shown))


class Residue(Record):
    """Element of F2[[T]]/T^k: a value below 2^k plus its precision k."""

    __slots__ = _fields = ("value", "precision")
    ring = "F2T"

    def _check(self):
        check_residues(self.precision, (self.value,))

    @property
    def hex(self):
        return to_hex(self.value)

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


class Z2Residue(Residue):
    """An integer mod 2^k: the digits of a Residue, without its F2[[T]] arithmetic."""

    ring = "Z2"


def _unwrap(x):
    """Bits and precision of an F2T residue, or (x, None) for an exact polynomial."""
    if not isinstance(x, Residue):
        return x, None
    if x.ring != "F2T":
        raise TypeError("%s residues have no F2[[T]] arithmetic" % x.ring)
    return x.value, x.precision


def add(a, b):
    """Sum in characteristic 2 (bitwise XOR); kinds and precisions must match."""
    (a, ka), (b, kb) = _unwrap(a), _unwrap(b)
    if (ka is None) != (kb is None):
        raise TypeError("cannot mix Residue and exact polynomial operands")
    if ka != kb:
        raise ValueError("precision mismatch")
    return a ^ b if ka is None else Residue(a ^ b, ka)


def mul(a, b, prec=None):
    """Carry-less product truncated to k bits, returned as a Residue."""
    (a, ka), (b, kb) = _unwrap(a), _unwrap(b)
    ks = {k for k in (ka, kb, prec) if k is not None}
    if len(ks) > 1:
        raise ValueError("precision mismatch")
    if not ks:
        raise ValueError("precision required for exact operands")
    k = ks.pop()
    return Residue(clmul_trunc(a, b, k), k)


def invert_unit(a, prec=None):
    """Inverse of a unit mod T^k; input must have constant coefficient 1."""
    bits, k = _unwrap(a)
    if prec is not None and k not in (None, prec):
        raise ValueError("precision mismatch")
    n = prec if k is None else k
    if n is None:
        raise ValueError("precision required for exact operands")
    if not bits & 1:
        raise ValueError("not a unit")
    inv = _inv_unit(trunc(bits, n), n)
    return inv if k is None else Residue(inv, k)


def to_hex(v):
    """Hex encoding of the canonical integer of a bit vector (lowercase, 0x prefixed)."""
    return hex(v)


# A value has one spelling: ASCII hex digits after an optional 0x or 0X.
# int(s, 16) alone also takes signs, spaces, underscores and non-ASCII digits.
_HEX = re.compile(r"(0[xX])?[0-9a-fA-F]+")


def parse_hex(s):
    """Parse a hex string (case-insensitive, 0x prefix optional) to a bit vector."""
    if not isinstance(s, str):
        raise ValueError("expected a hex string, got %s" % type(s).__name__)
    if not _HEX.fullmatch(s):
        raise ValueError("%r is not a hex value: ASCII hex digits after an optional 0x" % s)
    return int(s, 16)
