"""Constructive generator of single-cycle tables over F2[[T]].

Free bits a(k,j) steer a doubling recurrence: start from the swap 0,1 and
at each level k add a(k,j)*T^k to x_j, then append the lifted half
x_{j+2^k} = x_j + T^k.  The resulting sequence enumerates all residues
mod T^{n+1} and its successor map is transitive at every level.  The
recurrence runs on the whole sequence packed into one int, a few big-int
operations per level.
"""

import itertools
import random

from .dynamics import TABLE_BUDGET, FunctionTable, check_budget
from .gf2ps import Record, pack, read_header, read_indexed, tile, unpack

__all__ = ["CycleData", "gen_cycle", "random_data"]


class CycleData(Record):
    """Steering bits a(k,j) for 1 <= k <= n, 0 <= j < 2^k."""

    _fields, _bodies = ("n", "bits"), ("bits",)

    def _check(self):
        object.__setattr__(self, "bits", tuple(tuple(level) for level in self.bits))
        if self.n < 0:
            raise ValueError("depth must be non-negative")
        if len(self.bits) != self.n:
            raise ValueError("need one bit level per depth 1..%d" % self.n)
        for k, level in enumerate(self.bits, start=1):
            if len(level) != 1 << k:
                raise ValueError("level %d needs exactly 2^%d bits" % (k, k))
        if not set().union(*self.bits) <= {0, 1}:
            raise ValueError("steering bits must be 0 or 1")

    def json_dict(self):
        return {
            "n": self.n,
            "levels": {str(k): "".join(map(str, level)) for k, level in enumerate(self.bits, start=1)},
        }

    @classmethod
    def from_json_dict(cls, obj):
        # the generated table has precision n + 1
        n = read_header(obj, "n", TABLE_BUDGET - 1)
        levels = read_indexed(obj, "levels", _bits)
        if levels.keys() != set(range(1, n + 1)):
            raise ValueError("levels must be keyed exactly 1..%d" % n)
        return cls(n, tuple(levels[k] for k in range(1, n + 1)))


def _bits(s):
    """One level of steering bits from its JSON string of 0s and 1s."""
    if not isinstance(s, str) or s.strip("01"):
        raise ValueError("a level must be a string of 0s and 1s")
    return tuple(map(int, s))


def gen_cycle(d):
    """Run the recurrence; return the sequence and its successor table.

    x_j sits in slot j of one int, slots of n + 1 bits or wider.  Level k
    XORs its steering bits, packed one to a slot, in at bit k, then appends
    the first 2^k slots with bit k flipped, 2^k slots up.
    """
    bits = d.n + 1
    check_budget(bits)
    w, width = pack((0, 1), bits)
    for k, level in enumerate(d.bits, start=1):
        half = 1 << k
        w ^= pack(level, bits)[0] << k
        w |= (w ^ tile(half, half, width)) << (width * half << 3)
    xs = unpack(w, 1 << bits, width)
    del w  # the packed sequence goes before the table packs its successors
    # bits of 0 and 1 keep every entry below 2^bits, so the table skips its range check
    if max(xs) >> bits:
        raise ValueError("steering bits must be 0 or 1")
    # the last entry's successor is the first; the loop sets every other one
    succ = [xs[0]] * len(xs)
    for x, y in zip(xs, itertools.islice(xs, 1, None)):
        succ[x] = y
    succ = tuple(succ)
    return xs, FunctionTable._trusted(bits, succ, packed=pack(succ, bits + 1))


# the ASCII digits 0 and 1 as the bytes 0 and 1
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def random_data(seed, n):
    """Deterministic steering bits from a seed, for a table of precision n + 1 within the budget."""
    if n < 0:
        raise ValueError("depth must be non-negative")
    check_budget(n + 1)
    rng = random.Random(seed)
    bits = []
    for k in range(1, n + 1):
        # bit j of the word is character j of its reversed 2^k-digit binary string
        word = rng.getrandbits(1 << k)
        bits.append(tuple(format(word, "0%db" % (1 << k))[::-1].encode().translate(_DIGITS)))
    # translate of binary digits gives bits of 0 and 1 only, so the record skips its check
    return CycleData._trusted(n, tuple(bits))
