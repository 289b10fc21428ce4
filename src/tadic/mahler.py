"""The Mahler (binomial) basis on Z2, f(x) = sum of a_i * C(x, i) mod 2^k: its coefficient set, evaluator and table.

A set is dynamics' one coefficient record with Z2's addition and lift tag
0, so its criteria are Anashin's clauses read by the scan; the basis has
no expansion yet.  Neither path builds a binomial C(x, i).  A point takes
each C(x, i) mod 2^k in poly(k) from Kummer's carry count and the odd
parts of three factorials (Granville, "Arithmetic properties of binomial
coefficients I", 1997).  The table is a Horner scheme of running sums on
the table packed in one int, one prefix sum by doubling (k shifted
whole-table additions) per index up to L, and one O(2^k) column of
products per stored index above L.
"""

from itertools import accumulate, repeat
from operator import add, lshift, mul, sub

from .dynamics import Coefficients, Z2FunctionTable, check_budget
from .gf2ps import check_residues, pack, tile

__all__ = [
    "MahlerCoefficients",
    "mahler_eval",
    "mahler_table",
]


# per precision k, entry e is G_e(t) = prod of 2^e t + j over odd j < 2^e,
# as coefficients mod 2^k (entry 0 is unused); _block extends a copy and
# stores it whole, so two callers extending at once cannot interleave
_BLOCKS = {}


def _block(k, e):
    """G_e mod 2^k, from G_1(t) = 2t + 1 by doubling: G_{e+1}(t) = G_e(2t) * G_e(2t + 1).

    The t^j coefficient of G_e is divisible by 2^(e j), so G_e keeps its
    terms with e j < k only, and at most its true degree 2^(e-1).
    """
    ladder = _BLOCKS.get(k, ())
    if len(ladder) > e:
        return ladder[e]
    mask = (1 << k) - 1
    ladder = list(ladder or (None, [1, 2 & mask]))
    while len(ladder) <= e:
        n = len(ladder)
        p = ladder[-1]
        # q(s) = p(s + 1) by repeated synthetic division, so G_n(t) = (p q)(2t)
        q = list(p)
        for i in range(len(q) - 1):
            for j in range(len(q) - 2, i - 1, -1):
                q[j] += q[j + 1]
        deg = min((k - 1) // n, 1 << (n - 1))
        pq = [0] * (deg + 1)
        for a, pa in enumerate(p[:deg + 1]):
            for b, qb in enumerate(q[:deg + 1 - a]):
                pq[a + b] += pa * qb
        ladder.append([(v << j) & mask for j, v in enumerate(pq)])
    _BLOCKS[k] = ladder
    return ladder[e]


def _odd_factorial(n, k):
    """The odd part of n! mod 2^k: the product of D(n >> j) over j >= 0, D(N) the product of the odd numbers up to N.

    D(N) takes one dyadic block per set bit e of N + 1: the block
    [2^e t, 2^e (t + 1)), with t the bits of N + 1 above e shifted down by
    e, whose odd numbers multiply to G_e(t).  A point is below 2^k, so e
    never passes k.
    """
    mask = (1 << k) - 1
    acc = 1
    while n:
        top = n + 1
        for e in range(1, top.bit_length()):
            if top >> e & 1:
                t = (top >> (e + 1) << 1) & mask
                g = 0
                for v in reversed(_block(k, e)):
                    g = (g * t + v) & mask
                acc = acc * g & mask
        n >>= 1
    return acc


def mahler_eval(c, x):
    """Sum of a_i * C(x, i) mod 2^k over the stored i <= x, in poly(k) per index.

    The 2-part of C(x, i) is 2^v with v Kummer's carry count
    popcount(i) + popcount(x - i) - popcount(x); a term with v >= k is
    zero, and otherwise the odd parts of the factorials are divided
    mod 2^(k - v).
    """
    k = c.precision
    check_residues(k, (x,), "point")
    odd_x = _odd_factorial(x, k)
    acc = 0
    for i, v in c.a.items():
        if i > x or not v:
            continue
        carries = i.bit_count() + (x - i).bit_count() - x.bit_count()
        if carries < k:
            m = 1 << (k - carries)
            acc += v * (odd_x * pow(_odd_factorial(i, k) * _odd_factorial(x - i, k), -1, m) % m << carries)
    return acc & ((1 << k) - 1)


def _binomial_columns(terms, k):
    """The sum of a * C(x, i) over the (i, a) in terms, for every x below 2^k, unmasked: one column per index.

    C(x, i) = 2^v F(x) / (F(i) F(x - i)) mod 2^k, with F(n) the odd part
    of n! and v Kummer's carry count.  From the least index `low` on, F and
    the inverses of F below 2^k - low are running products of odd parts,
    so a column is one pass of products and shifts, and indices near 2^k
    cost little.
    """
    size = 1 << k
    mask = size - 1

    def times_odd_part(u, t):
        return u * (t >> ((t & -t).bit_length() - 1)) & mask

    low = min(i for i, _ in terms)
    fact = list(accumulate(range(low + 1, size), times_odd_part, initial=_odd_factorial(low, k)))
    # one inversion at the top, then down: 1/F(y - 1) = odd(y) / F(y)
    top = size - low - 1
    inv = list(accumulate(range(top, 0, -1), times_odd_part, initial=pow(_odd_factorial(top, k), -1, size)))[::-1]
    col = [0] * size
    for i, a in terms:
        # v = popcount(i) + popcount(x - i) - popcount(x) for x from i up
        carries = map(sub, map(add, map(int.bit_count, range(size - i)), repeat(i.bit_count())),
                      map(int.bit_count, range(i, size)))
        odd = map(mul, map(mul, fact[i - low:], inv), repeat(a * pow(_odd_factorial(i, k), -1, size)))
        col[i:] = map(add, col[i:], map(lshift, odd, carries))
    return col


# in packed prefix sums over the table: the cost of one column of its own, and of
# the factorial tables that the columns share (timeit, k = 10 to 14; at k = 16,
# where a slot grows to 4 bytes, about 7 and 14)
_COLUMN_PASSES, _FACTORIAL_PASSES = 20, 24


def mahler_table(c):
    """The full table by Horner over the stored indices: g_L = a_L, g_i(x) = a_i + sum of g_{i+1}(y) over y < x, f = g_0.

    By the hockey-stick identity g_i(x) = sum of a_j * C(x, j - i) over
    j >= i, so one running sum per index from L down to 0 covers the
    indices up to L.  The table sits packed in slots of k + 1 bits, so a
    running sum is a prefix sum by doubling, w + (w shifted up 2^j slots)
    cut to k bits per slot for j < k, then one slot up with a_i added in
    every slot: O(k) whole-table operations per index.  A stored index
    above L takes a column of its own, O(2^k) products, masked and added
    packed; L is the stored index that makes the sum of both costs least,
    so dense low indices run as sums and a few high ones as columns.
    """
    k = c.precision
    check_budget(k)
    size = 1 << k
    mask = size - 1
    stored = sorted((i for i in c.a if i < size), reverse=True) + [-1]
    # the top n stored indices take columns, the rest running sums from L = stored[n]
    n = min(range(len(stored)), key=lambda n: stored[n] + 1 + (n and _FACTORIAL_PASSES + _COLUMN_PASSES * n))
    w, width = pack((), k + 1)  # 0, and the slot width
    slot, full, ones = width << 3, tile(mask, size, width), tile(1, size, width)
    for i in range(stored[n], -1, -1):
        for j in range(k):
            w = (w + (w << (slot << j))) & full
        w = ((w << slot) + c.a.get(i, 0) * ones) & full
    if n:
        columns = _binomial_columns([(i, c.a[i]) for i in stored[:n]], k)
        w = (w + pack([v & mask for v in columns], k + 1)[0]) & full
    return Z2FunctionTable._trusted(k, packed=(w, width))


class MahlerCoefficients(Coefficients):
    """Binomial-basis coefficients a_i mod 2^k; missing indices are zero; the lift clauses want 0 digits.

    So the scan reads Anashin's clauses, each modulus capped at 2^k: mp iff
    a_1 is odd and ord(a_i) >= floor(log2 i) + 1 for i >= 2, 1-Lipschitz
    with floor(log2 i) in place of floor(log2 i) + 1.
    """

    ring, basis, add, lift = "Z2", "mahler", add, 0
    evaluate, synthesize = staticmethod(mahler_eval), staticmethod(mahler_table)
