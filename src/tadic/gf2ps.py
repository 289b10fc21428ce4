"""Polynomial and truncated power series arithmetic over F2, and the hex codec.

Values are Python ints used as bit vectors: bit i holds the coefficient
of T^i.  An exact element of F2[T] is any such int, with products but no
division, and a residue mod T^k is an int in 0..2^k - 1.  The encoding
makes the digit-for-digit correspondence with 2-adic integers the
identity on bit patterns, and it is the encoding used by every file
format and hex flag.  So a point of either ring is a plain int, one
residue rule (`check_residues` for points and coefficient maps,
`pack_residues` for 2^k slots, and `read_header` and `read_indexed` for
files) serves both rings.  A whole
table runs as one int too: `pack` puts value i in slot i, a power of two
bytes wide, little-endian on every host, so the table transforms and band
criteria are a few big-int operations per band; `unpack` gives the values
back, `split_bands` cuts a table at its degree bands, `tile` builds a
per-slot mask and `fold` combines the slots of one band.
"""

import math
import re
import struct

__all__ = [
    "Record",
    "check_residues",
    "clmul",
    "clmul_trunc",
    "fold",
    "order",
    "pack",
    "pack_residues",
    "parse_hex",
    "read_header",
    "read_indexed",
    "split_bands",
    "tile",
    "to_hex",
    "trunc",
    "unpack",
]


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


# struct codes of a little-endian slot of 1, 2, 4 or 8 bytes
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def pack(values, bits):
    """The values, each below 2^bits, as one int with value i in slot i: (int, slot width in bytes).

    A slot is the least power of two bytes, up to 8, that holds `bits`
    bits.  The layout is little-endian in the bytes and in the int, so it
    does not depend on the host's byte order.
    """
    width = 1 << max((bits - 1).bit_length() - 3, 0)
    return int.from_bytes(struct.pack("<%d%s" % (len(values), _SLOT_CODES[width]), *values), "little"), width


def unpack(w, n, width):
    """The n slots of `width` bytes of a packed int, as a tuple of ints: the inverse of pack."""
    return struct.unpack("<%d%s" % (n, _SLOT_CODES[width]), w.to_bytes(n * width, "little"))


def tile(v, n, width):
    """The int with v in each of n slots of `width` bytes: a per-slot mask, built by bytes repetition."""
    return int.from_bytes(v.to_bytes(width, "little") * n, "little")


def split_bands(w, k, width):
    """The bands of 2^k slots packed in w, top first: (d, band, lower) for d = k-1 down to 1.

    Band d is the 2^d slots from slot 2^d, and lower the 2^d slots below
    it; both are shifted down to slot 0.
    """
    for d in range(k - 1, 0, -1):
        cut = width << (d + 3)
        lower = w & ((1 << cut) - 1)
        yield d, w >> cut, lower
        w = lower


def fold(w, n, width, op):
    """The n slots of w (n a power of two) combined into slot 0 by halving: op of the upper and lower half.

    A carry out of a slot is not cut: the caller picks slots wide enough,
    or reads only bits that such carries cannot reach.
    """
    while n > 1:
        n >>= 1
        cut = width * n << 3
        w = op(w >> cut, w & ((1 << cut) - 1))
    return w


def check_residues(k, values=(), what="value"):
    """The residue rule: k is a positive integer and each of the sized `values` lies in 0..2^k - 1."""
    if not hasattr(k, "__index__") or k < 1:
        raise ValueError("precision must be a positive integer")
    if values and (min(values) < 0 or max(values) >> k):
        raise ValueError("%s out of range for precision %d" % (what, k))


def pack_residues(k, values, what="value"):
    """The residue rule for the 2^k values of a table, at a checked precision k: the values packed in slots of k + 1 bits.

    Returns pack's (int, slot width).  A value the slot cannot hold (negative,
    too wide, not an integer) fails the packing; one AND then finds any
    value of 2^k or more.
    """
    bad = ValueError("%s out of range for precision %d" % (what, k))
    try:
        w, width = pack(values, k + 1)
    except struct.error:
        raise bad from None
    # the bits from k up in every slot
    if w & tile((1 << (width << 3)) - (1 << k), len(values), width):
        raise bad
    return w, width


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
    (ASCII digits, no sign, space or leading zero), so each index has one key,
    and no longer than int() reads from a string.  An offending key is shown
    cut to 40 characters, so the error stays one short line.
    """
    body = obj.get(key, {})
    if not isinstance(body, dict):
        raise ValueError("%s must be a JSON object, got %s" % (key, type(body).__name__))
    out = {}
    for n, v in body.items():
        try:
            canonical = n.isascii() and n.isdigit() and str(int(n)) == n
        except ValueError:  # more digits than the int-string conversion limit
            canonical = False
        if not canonical:
            raise ValueError("%s key %.40r is not a canonical decimal index" % (key, n))
        out[int(n)] = parse(v)
    return out


class Record:
    """Frozen value record, the base of every value type: positional `_fields`, checked by `_check`.

    Records compare and hash by exact class and `_key` (by default the fields), refuse
    assignment, pickle and copy by their fields, and show only the size of `_bodies`.
    """

    __slots__ = ()
    _fields = _bodies = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError("%s takes the fields %s" % (type(self).__name__, ", ".join(self._fields)))
        self.__dict__.update(zip(self._fields, values))
        self._check()

    @classmethod
    def _trusted(cls, *values, **attrs):
        """A kernel's record: checked fields (a body may be left out when `packed` is given), attributes, no `_check`."""
        self = object.__new__(cls)
        self.__dict__.update(zip(cls._fields, values), **attrs)
        if len(values) > len(cls._fields) or not all(
                n in self.__dict__ or n in cls._bodies and "packed" in attrs for n in cls._fields):
            raise TypeError("%s._trusted takes the fields %s" % (cls.__name__, ", ".join(cls._fields)))
        return self

    def _check(self):
        """Validate the fields; a check may normalise one through object.__setattr__."""

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    _key = _values

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((type(self), self._key()))

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot change %r of a frozen %s" % (name, type(self).__name__))

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()

    def _entries(self, body):
        return len(getattr(self, body))

    def __repr__(self):
        shown = ("%s=<%d entries>" % (n, self._entries(n)) if n in self._bodies else "%s=%r" % (n, getattr(self, n))
                 for n in self._fields)
        return "%s(%s)" % (type(self).__name__, ", ".join(shown))


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
