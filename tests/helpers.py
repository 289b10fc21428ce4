"""Shared builders, exact oracles and steered samplers for the test suite.

The exact algebra lives here, not in the library: the Carlitz constants
[i], L_i, D_i and factorial Pi(n), the polynomials e_d, E_i, G_n, G'_n
and H_n over F2[T], Lucas binomials mod 2, F2[T] long division, degree
and Newton unit inversion, the T-adic absolute value, the van der Put
ball indicator chi and scaled coefficient b_alpha, and Mahler sums of
exact integer binomials.  They
are the slow references that the library's truncated transforms and
criteria are checked against, together with the definitions that the library's
one-pass kernels replace: the Carlitz butterfly with one product per pair of
points, table compatibility with one scan per level,
the van der Put floor, unit and lift clauses read one coefficient at a
time and again with one reduce per degree band, the sparse floor and
Carlitz clauses index by index, the Mahler single-cycle test one stored
index at a time, the van der Put
transform pair with one map per band, steering bits read off a
random word one shift at a time, the cycle recurrence one entry at a
time, bijectivity with one set per level, and transitivity as walks with
a hand-kept step counter.  `compose` and `invert` build new maps from
tables, for the relations that predict a verdict with no oracle.  The
coefficient criteria answer on every set, so `compatible_through` gives
their table oracle: compatible at every level up to m, and bijective or
transitive mod T^m.

Uniform random tables almost never pass the deeper criteria, so the
bridge tests mix uniform samples with samplers steered to satisfy each
criterion by construction; both verdict directions get exercised at
every level.
"""

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from tadic.carlitz import CarlitzCoefficients, carlitz_table
from tadic.cyclegen import CycleData
from tadic.dynamics import FunctionTable, LevelVerdicts
from tadic.gf2ps import check_residues, clmul, clmul_trunc, order, trunc
from tadic.vanderput import VdpCoefficients
from tadic.z2compare import MahlerCoefficients, Z2FunctionTable, Z2VdpCoefficients


def pdivmod(a, b):
    """Quotient and remainder of polynomial long division in F2[T]."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    q = 0
    width = b.bit_length()
    while a.bit_length() >= width:
        sh = a.bit_length() - width
        q |= 1 << sh
        a ^= b << sh
    return q, a


def exact_div(a, b):
    """Exact division in F2[T]; raises when b does not divide a."""
    q, r = pdivmod(a, b)
    if r:
        raise ValueError("inexact division")
    return q


def degree(a):
    """Degree in T of an exact polynomial; -inf for the zero polynomial."""
    return a.bit_length() - 1 if a else -math.inf


def invert_unit(a, prec):
    """Inverse of a unit mod T^prec; a must have constant coefficient 1.

    Newton iteration in characteristic 2: the error term squares each step.
    """
    if not a & 1:
        raise ValueError("not a unit")
    x = 1
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        m = (1 << k) - 1
        e = (clmul(a & m, x) & m) ^ 1
        x ^= clmul(x, e) & m
    return x


def ord_abs(a):
    """T-adic valuation and absolute value, with |T| = 1/2; (inf, 0) for zero."""
    o = order(a)
    if o is math.inf:
        return math.inf, Fraction(0)
    return o, Fraction(1, 1 << o)


@dataclass(frozen=True)
class CarlitzConstants:
    """The level-i constants: bracket [i], product L_i, factorial block D_i."""

    i: int
    bracket: int
    L: int
    D: int


def _bracket(i):
    """[i] = T^(2^i) + T; zero at i = 0."""
    return (1 << (1 << i)) ^ 2


def constants(i):
    """Compute [i], L_i, D_i iteratively from level 0."""
    if i < 0:
        raise ValueError("level must be non-negative")
    L = D = 1
    for j in range(1, i + 1):
        br = _bracket(j)
        L = clmul(br, L)
        D = clmul(br, clmul(D, D))
    return CarlitzConstants(i, _bracket(i), L, D)


def carlitz_factorial(n):
    """Pi(n) = product of D_j over the set binary digits of n."""
    res = D = 1
    j = 0
    while n:
        if j:
            br = _bracket(j)
            D = clmul(br, clmul(D, D))
        if n & 1:
            res = clmul(res, D)
        n >>= 1
        j += 1
    return res


def binom_mod2(m, j):
    """Binomial coefficient mod 2: 1 iff j is a submask of m."""
    return 0 if j & ~m else 1


def _product(vals):
    """Balanced product so intermediate factors stay comparable in size."""
    while len(vals) > 1:
        nxt = [clmul(vals[i], vals[i + 1]) for i in range(0, len(vals) - 1, 2)]
        if len(vals) & 1:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def eval_e(d, x):
    """Defining product e_d(x) over all polynomials of degree below d."""
    return _product([x ^ a for a in range(1 << d)])


def eval_E(i, x):
    """E_i(x) = e_i(x)/D_i; vanishes whenever deg x < i."""
    if x < (1 << i):
        return 0
    return exact_div(eval_e(i, x), constants(i).D)


def eval_G(n, x):
    """G_n(x): product of E_i(x) over the set digits of n."""
    res = 1
    i = 0
    while n:
        if n & 1:
            f = eval_E(i, x)
            if not f:
                return 0
            res = clmul(res, f)
        n >>= 1
        i += 1
    return res


def eval_Gprime(n, x):
    """G'_n(x): product of E_i(x) + 1 over the set digits of n."""
    res = 1
    i = 0
    while n and res:
        if n & 1:
            res = clmul(res, eval_E(i, x) ^ 1)
        n >>= 1
        i += 1
    return res


def eval_H(n, x):
    """H_n(x) = L_nu(n+1) * G_{n+1}(x) / x, an exact polynomial."""
    if x == 0:
        raise ValueError("H undefined at 0")
    if n == 0:
        return 1
    nu = ((n + 1) & -(n + 1)).bit_length() - 1
    return exact_div(clmul(constants(nu).L, eval_G(n + 1, x)), x)


def chi(alpha, x, prec=None):
    """Indicator of the ball around alpha: x == alpha mod T^{deg alpha + 1}.

    For alpha = 0 the ball is x == 0 mod T.  A given precision must
    exceed deg alpha.
    """
    d = max(alpha.bit_length() - 1, 0)
    if prec is not None and prec <= d:
        raise ValueError("insufficient precision for deg alpha = %d" % d)
    return 1 if not (x ^ alpha) & ((2 << d) - 1) else 0


def scaled_vdp(c, m):
    """Scaled coefficient b_alpha = B_alpha / pi^{deg alpha} (pi = T or 2); raises when pi^{deg alpha} does not divide B_alpha."""
    v = c.B[m]
    d = m.bit_length() - 1
    if d <= 0:
        return v
    if v & ((1 << d) - 1):
        raise ValueError("pi^%d does not divide B_%d" % (d, m))
    return v >> d


def exact_mahler_eval(c, x):
    """Sum of a_i * C(x, i) with exact integer binomials, mod 2^k: the oracle of mahler_eval."""
    check_residues(c.precision, (x,), "point")
    acc = sum(v * math.comb(x, i) for i, v in c.a.items() if i <= x)
    return acc & ((1 << c.precision) - 1)


def exact_mahler_table(c):
    """The table one column of exact binomials per stored index, summed and masked once: the oracle of mahler_table."""
    size = 1 << c.precision
    acc = [0] * size
    for i, v in c.a.items():
        # zero below i; an index from 2^k up gives an empty column
        acc[i:] = map(operator.add, acc[i:], (math.comb(x, i) * v for x in range(i, size)))
    return Z2FunctionTable(c.precision, tuple(a & (size - 1) for a in acc))


def brute_compatible(t):
    """Compatibility by its definition: level m scans every x for f(x) == f(x mod T^m) mod T^m."""
    values = t.table
    out = []
    for m in range(1, t.precision + 1):
        mask = (1 << m) - 1
        out.append(all(not (v ^ values[x & mask]) & mask for x, v in enumerate(values)))
    return LevelVerdicts(tuple(out))


def compatible_through(t, verdicts):
    """The table oracle of a criterion: level m holds iff t is compatible at every level j <= m and `verdicts` holds at m.

    With `is_bijective_mod(t)` it is the measure-preservation verdict, and
    with `is_transitive_mod(t)` the single-cycle one (which the criteria
    leave undecided at the top level when it holds).
    """
    ok, out = True, []
    for comp, v in zip(brute_compatible(t).levels, verdicts.levels):
        ok = ok and comp
        out.append(ok and v)
    return LevelVerdicts(tuple(out))


def brute_floor(c, m):
    """The Lipschitz floor of level m, one coefficient at a time: ord(B_alpha) >= min(deg alpha, m) for every alpha."""
    return all(order(v) >= min(max(a.bit_length() - 1, 0), m) for a, v in enumerate(c.B))


def brute_mp_vdp(c):
    """Measure preservation per level, one floor and unit test per coefficient.

    Level m holds iff every B_alpha clears the floor of level m, b_0 + b_1
    is odd and b_alpha is odd for every alpha of degree below m.
    """
    B = c.B
    ok = brute_floor(c, 1) and bool((B[0] ^ B[1]) & 1)
    out = [ok]
    for d in range(1, c.precision):
        ok = ok and brute_floor(c, d + 1) and all((B[a] >> d) & 1 for a in range(1 << d, 2 << d))
        out.append(ok)
    return LevelVerdicts(tuple(out))


def brute_ergodic_vdp(c):
    """Single-cycle criterion per level from the scaled coefficients b_alpha, summed one at a time.

    Level 1: b_0 odd and b_0 + b_1 odd.  Level 2 adds b_0 + b_1 = 1 + pi
    mod pi^2, and each level m >= 3 the sum of b_alpha over deg alpha = m-2
    equal to T mod T^2 in F2[[T]], and to 2 (m = 3) or 0 mod 4 in Z2; every
    level also needs the floor and the units of `brute_mp_vdp`.  The top
    level is undecided unless a clause fails.
    """
    z2 = c.ring == "Z2"
    add = operator.add if z2 else operator.xor
    B = c.B
    ok = bool(B[0] & 1)
    raw = []
    for m, mp in enumerate(brute_mp_vdp(c).levels, start=1):
        if m == 1:
            lifts = True
        elif m == 2:
            lifts = add(B[0], B[1]) & 3 == 3
        else:
            d = m - 2
            s = 0
            for a in range(1 << d, 2 << d):
                s = add(s, B[a] >> d)
            lifts = s & 3 == (2 if not z2 or m == 3 else 0)
        ok = ok and mp and lifts
        raw.append(ok)
    *below, top = raw
    return LevelVerdicts((*below, None if top else False))


def sweep_by_bands(src, k, op, synthesize):
    """The van der Put transform pair with one map per degree band: the oracle of the packed sweep.

    Expansion (op = sub) is B_m = f(m) - f(m - 2^{deg m}); synthesis
    (op = add) is f(m) = B_m + f(m - 2^{deg m}), with band d reading the
    output built so far.  The result is reduced mod pi^k.
    """
    out = list(src[:2])
    for d in range(1, k):
        lo = 1 << d
        out += map(op, src[lo : 2 * lo], (out if synthesize else src)[:lo])
    mask = (1 << k) - 1
    return tuple(v & mask for v in out)


def band_scans(c):
    """The van der Put criteria with one reduce per degree band: (top, measure-preservation verdicts, single-cycle verdicts).

    The oracle of the packed band criteria: top is the level through
    which c is 1-Lipschitz (the least order below a band's floor, from its
    OR), band d is all units iff its AND has bit d, and the lift sum of
    level m >= 3 reduces band m-2 with the ring's addition.
    """
    k = c.precision
    z2 = c.ring == "Z2"
    add = operator.add if z2 else operator.xor
    B = c.B
    top = k
    for d in range(1, k):
        lo = 1 << d
        low = functools.reduce(operator.or_, B[lo : 2 * lo]) & (lo - 1)
        if low:
            top = min(top, (low & -low).bit_length() - 1)
    ok = top >= 1 and bool((B[0] ^ B[1]) & 1)
    mp = [ok]
    for d in range(1, k):
        ok = ok and d < top and bool(functools.reduce(operator.and_, B[1 << d : 2 << d]) >> d & 1)
        mp.append(ok)
    ok, raw = bool(B[0] & 1), []
    for m, level in enumerate(mp, start=1):
        if m == 1:
            lifts = True
        elif m == 2:
            lifts = bool(add(B[0], B[1]) & 2)
        else:
            s = functools.reduce(add, B[1 << (m - 2) : 1 << (m - 1)])
            lifts = (s >> (m - 2)) & 3 == (2 if not z2 or m == 3 else 0)
        ok = ok and level and lifts
        raw.append(ok)
    return top, LevelVerdicts(tuple(mp)), LevelVerdicts.below_precision(raw)


def sparse_floor(c, m):
    """The Lipschitz floor of level m in a sparse basis, one stored coefficient at a time: ord(a_n) >= min(floor(log2 n), m)."""
    return all(order(v) >= min(max(n.bit_length() - 1, 0), m) for n, v in c.a.items())


def ergodic_by_band_scan(c):
    """The Carlitz single-cycle levels with every band scanned index by index: the oracle of the sparse scan.

    Level 1 needs the floor and a_0, a_1 odd; level m adds the floor of
    level m, ord(a_n) >= m for every n with floor(log2 n) = m-1, and the
    T^{m-1} digit of a_{2^{m-1}-1} set.  The top level is undecided
    unless a clause fails.
    """
    k = c.precision
    ok = sparse_floor(c, 1) and bool(c.a.get(0, 0) & 1) and bool(c.a.get(1, 0) & 1)
    raw = [ok]
    for m in range(2, k + 1):
        ok = ok and sparse_floor(c, m)
        ok = ok and all(not c.a.get(n, 0) & ((1 << m) - 1) for n in range(1 << (m - 1), 1 << m))
        ok = ok and bool(c.a.get((1 << (m - 1)) - 1, 0) >> (m - 1) & 1)
        raw.append(ok)
    return tuple(v if (v is False or m < k) else None for m, v in enumerate(raw, start=1))


def mahler_ergodic_by_indices(c):
    """Anashin's Mahler single-cycle test one stored index at a time: the oracle of check_ergodic_mahler_z2.

    a_0 odd, a_1 = 1 mod 4, and ord(a_i) >= floor(log2(i + 1)) + 1 for
    i >= 2, each modulus capped at 2^k; an index from 2^k up must vanish.
    """
    k = c.precision
    if not c.a.get(0, 0) & 1:
        return False
    if c.a.get(1, 0) % min(4, 1 << k) != 1:
        return False
    for i, v in c.a.items():
        if i < 2:
            continue
        w = min((i + 1).bit_length(), k)
        if v & ((1 << w) - 1):
            return False
    return True


def steered_sparse(rng, cls, k, keep=1.0):
    """A sparse set below 2^k passing every clause of cls's criteria, then broken at 0 to 2 random clauses.

    Built: a_0 and a_1 odd with the T (or 2) digit of a_1 the class's lift
    tag, every other a_n above T^(floor(log2 n) + 1), and a_{2^j-1} with
    digit j the lift tag.  Each index from 2 up is kept with chance `keep`.
    A break pushes a coefficient off its floor, onto it (a unit clause),
    flips a lift digit, or flips a low digit of a_0 or a_1.
    """
    a = {0: 1 | (rng.getrandbits(k) << 1), 1: 1 | (cls.lift << 1) | (rng.getrandbits(k) << 2)}
    for n in range(2, 1 << k):
        if rng.random() < keep:
            d = n.bit_length() - 1
            if (n + 1) & n:
                a[n] = rng.getrandbits(k) << (d + 1)
            else:
                a[n] = (cls.lift << (d + 1)) | (rng.getrandbits(k) << (d + 2))
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        how = rng.randrange(4)
        if how == 3 or k < 2:
            n = rng.randrange(2)
            a[n] = a[n] ^ (1 << rng.randrange(min(2, k)))
            continue
        n = rng.randrange(2, 1 << k) if how < 2 else (1 << rng.randrange(1, k)) - 1
        d = n.bit_length() - 1
        bit = rng.randrange(d) if how == 0 else d + how - 1  # below the floor, on it, or the lift digit
        a[n] = a.get(n, 0) ^ (1 << bit)
    return cls(k, {n: v & ((1 << k) - 1) for n, v in a.items()})


def reference_coefficients(k):
    """The pinned ergodic set: a_0 = 1, a_1 = 1+T, a_{2^n-1} = T^n below T^k."""
    a = {0: 1, 1: 3}
    for n in range(2, k):
        a[(1 << n) - 1] = 1 << n
    return CarlitzCoefficients(k, a)


def reference_table(k):
    """Full table of the reference set at precision k."""
    return carlitz_table(reference_coefficients(k))


@functools.lru_cache(maxsize=None)
def _dual_rows(k):
    # row n holds G'_{2^k-1-n}(alpha) mod T^k for every canonical alpha
    full = (1 << k) - 1
    return tuple(tuple(trunc(eval_Gprime(full ^ n, alpha), k) for alpha in range(1 << k)) for n in range(1 << k))


def dual_basis_coefficients(t):
    """Oracle for to_carlitz: a_n = sum over alpha of G'_{2^k-1-n}(alpha) f(alpha) mod T^k.

    Built on the exact eval_Gprime, so it costs 4^k products after the
    rows; keep k small.
    """
    k = t.precision
    a = {}
    for n, row in enumerate(_dual_rows(k)):
        acc = 0
        for g, v in zip(row, t.table):
            acc ^= clmul_trunc(g, v, k)
        a[n] = acc
    return CarlitzCoefficients(k, a)


def _shift_by_products(v, lo, c, k):
    """Apply the Kronecker product of the shifts [[1, c_i], [0, 1]] to v[lo : lo + 2^len(c)], one product per pair."""
    for i, ci in enumerate(c):
        b = 1 << i
        for base in range(lo, lo + (1 << len(c)), 2 * b):
            for n in range(base + b, base + 2 * b):
                v[n - b] ^= clmul_trunc(ci, v[n], k)


def butterfly_by_products(values, k, synthesize):
    """The Carlitz transform pair one truncated product at a time: the oracle of the packed butterfly.

    Level j splits blocks of 2h points, h = 2^j, on the top digit; its
    shift has c_i = E_i(T^j) mod T^k from the exact E_i.  Synthesis
    (coefficients to table) runs hi <- shift_c(lo + hi) from the top level
    down; expansion runs hi <- lo + shift_c(hi) from the bottom level up.
    """
    v = list(values)
    levels = [(1 << j, [trunc(eval_E(i, 1 << j), k) for i in range(j)]) for j in range(k)]
    for h, c in reversed(levels) if synthesize else levels:
        for s in range(0, 1 << k, 2 * h):
            if not synthesize:
                _shift_by_products(v, s + h, c, k)
            for t in range(s, s + h):
                v[t + h] ^= v[t]
            if synthesize:
                _shift_by_products(v, s + h, c, k)
    return v


def digit_masks_by_bytes(k, size):
    """The butterfly's masks built byte by byte: the oracle of the masks it derives by shifts.

    The tile of the low k bits of 2^k slots of `size` bytes, and per digit i
    those bits of only the slots whose index has digit i set: runs of 2^i
    slots, 2^i apart, from slot 2^i.
    """
    mask = ((1 << k) - 1).to_bytes(size, "little")
    digit = [int.from_bytes((bytes(size << i) + mask * (1 << i)) * (1 << (k - 1 - i)), "little") for i in range(k)]
    return int.from_bytes(mask * (1 << k), "little"), digit


def dense_lipschitz_carlitz(rng, k):
    """A 1-Lipschitz set storing every index below 2^k: a_n random above its floor T^floor(log2 n)."""
    a = {}
    for n in range(1 << k):
        w = max(n.bit_length() - 1, 0)
        a[n] = rng.getrandbits(k - w) << w
    return CarlitzCoefficients(k, a)


# spellings that int(s, 16) reads but that are not hex values: a non-ASCII
# digit, spaces, underscores, a trailing newline and a sign
NON_CANONICAL_HEX = ("\u0663", " 0x1_0 ", "0X_f", "f\n", "+f")

# the reference table at k=4, pinned by hand from the coefficient sum
REFERENCE_TABLE_K4 = (0x1, 0x2, 0xF, 0x8, 0xD, 0x6, 0x3, 0x4,
                      0x9, 0xA, 0x7, 0x0, 0x5, 0xE, 0xB, 0xC)


def random_table(rng, k):
    return FunctionTable(k, tuple(rng.randrange(1 << k) for _ in range(1 << k)))


def random_z2_table(rng, k):
    return Z2FunctionTable(k, tuple(rng.randrange(1 << k) for _ in range(1 << k)))


def _unit(rng, width):
    # an odd value of the given bit width
    return 1 | (rng.getrandbits(width - 1) << 1) if width > 1 else 1


def random_lipschitz_vdp(rng, k):
    """Uniform over sets with ord(B_alpha) >= deg alpha (random b_alpha)."""
    B = [rng.getrandbits(k), rng.getrandbits(k)]
    for m in range(2, 1 << k):
        d = m.bit_length() - 1
        B.append(rng.getrandbits(k - d) << d)
    return VdpCoefficients(k, tuple(B))


def random_mp_vdp(rng, k):
    """Lipschitz sets whose b_0 + b_1 and every b_alpha are units."""
    B0 = rng.getrandbits(k)
    B = [B0, B0 ^ 1 ^ (rng.getrandbits(k - 1) << 1)]
    for m in range(2, 1 << k):
        d = m.bit_length() - 1
        B.append(_unit(rng, k - d) << d)
    return VdpCoefficients(k, tuple(B))


def random_ergodic_vdp(rng, k):
    """Sets passing every single-cycle clause checkable below precision k."""
    if k < 2:
        raise ValueError("need k >= 2")
    B = [0] * (1 << k)
    B[0] = 1 | (rng.getrandbits(k - 1) << 1)
    B[1] = B[0] ^ 3 ^ ((rng.getrandbits(k - 2) << 2) if k > 2 else 0)
    for d in range(1, k):
        lo = 1 << d
        for a in range(lo, 2 * lo):
            B[a] = _unit(rng, k - d) << d
        if d <= k - 2:
            s = 0
            for a in range(lo, 2 * lo):
                s ^= B[a]
            # bit d of the band XOR is clear already (even count of units);
            # force bit d+1 so the scaled sum is T mod T^2
            if not (s >> (d + 1)) & 1:
                B[lo] ^= 1 << (d + 1)
    return VdpCoefficients(k, tuple(B))


def break_floor(rng, c, flips=1):
    """Push `flips` random coefficients of nonzero degree off their floor: each gets a bit below its degree."""
    k = c.precision
    B = list(c.B)
    for _ in range(flips):
        m = rng.randrange(2, 1 << k)
        B[m] |= 1 << rng.randrange(m.bit_length() - 1)
    return type(c)(k, tuple(B))


def corrupt_vdp(rng, c):
    """Flip one coefficient bit above the divisibility floor."""
    k = c.precision
    B = list(c.B)
    m = rng.randrange(1 << k)
    d = max(m.bit_length() - 1, 0)
    B[m] ^= 1 << rng.randrange(d, k)
    return VdpCoefficients(k, tuple(B))


def all_lipschitz_vdp(k):
    """Every Lipschitz coefficient set at precision k, exhaustively."""
    shifts = [0, 0] + [m.bit_length() - 1 for m in range(2, 1 << k)]
    axes = [range(1 << (k - d)) for d in shifts]
    for combo in itertools.product(*axes):
        yield VdpCoefficients(k, tuple(v << d for v, d in zip(combo, shifts)))


def random_z2_compatible(rng, k):
    """Uniform over sets with 2^{floor(log2 m)} dividing B_m."""
    B = [rng.getrandbits(k), rng.getrandbits(k)]
    for m in range(2, 1 << k):
        w = m.bit_length() - 1
        B.append(rng.getrandbits(k - w) << w)
    return Z2VdpCoefficients(k, tuple(B))


def random_z2_ergodic(rng, k):
    """Compatible sets passing every 2-adic single-cycle clause below k."""
    if k < 2:
        raise ValueError("need k >= 2")
    mask = (1 << k) - 1
    B = [0] * (1 << k)
    B[0] = 1 | (rng.getrandbits(k - 1) << 1)
    B[1] = (3 - B[0] + ((rng.getrandbits(k - 2) << 2) if k > 2 else 0)) & mask
    for w in range(1, k):
        lo = 1 << w
        width = k - w
        bs = [_unit(rng, width) for _ in range(lo)]
        if w <= k - 2:
            want = 2 if w == 1 else 0
            # the band holds 2^w odd values, so the defect is even and
            # adding it to one scaled coefficient keeps everything odd
            delta = (want - sum(bs)) % 4
            bs[0] = (bs[0] + delta) % (1 << width)
        for j, b in enumerate(bs):
            B[lo + j] = b << w
    return Z2VdpCoefficients(k, tuple(B))


def corrupt_z2(rng, c):
    """Add one 2-power above the divisibility floor to one coefficient."""
    k = c.precision
    mask = (1 << k) - 1
    B = list(c.B)
    m = rng.randrange(1 << k)
    w = max(m.bit_length() - 1, 0)
    B[m] = (B[m] + (1 << rng.randrange(w, k))) & mask
    return Z2VdpCoefficients(k, tuple(B))


def random_mahler(rng, k, nmax):
    return MahlerCoefficients(k, {i: rng.getrandbits(k) for i in range(nmax + 1)})


def random_mahler_ergodic(rng, k, nmax):
    """Sets with odd a_0, a_1 = 1 mod 4, and the fast 2-power decay."""
    mask = (1 << k) - 1
    a = {0: rng.getrandbits(k) | 1, 1: ((rng.getrandbits(k) & ~3) | 1) & mask}
    for i in range(2, nmax + 1):
        w = min((i + 1).bit_length(), k)
        a[i] = (rng.getrandbits(k) >> w) << w
    return MahlerCoefficients(k, a)


def perturbed_reference(rng, k, extras=3):
    """Random sets keeping the reference chain a_{2^j-1} = T^j mod T^{j+1}."""
    a = {0: 1 | (rng.getrandbits(k - 1) << 1)}
    a[1] = 3 ^ ((rng.getrandbits(k - 2) << 2) if k > 2 else 0)
    for j in range(2, k):
        hi = (rng.getrandbits(k - j - 1) << (j + 1)) if j + 1 < k else 0
        a[(1 << j) - 1] = (1 << j) | hi
    for _ in range(extras):
        n = rng.randrange(2, 1 << k)
        if (n + 1) & n == 0:
            continue  # keep the chain indices as built
        bound = n.bit_length() - 1
        if bound + 1 < k:
            a[n] = rng.getrandbits(k - bound - 1) << (bound + 1)
    return CarlitzCoefficients(k, a)


def gen_cycle_by_entries(d):
    """cyclegen.gen_cycle one sequence entry at a time: the oracle of the packed recurrence."""
    xs = [0, 1]
    for k in range(1, d.n + 1):
        level = d.bits[k - 1]
        bit = 1 << k
        for j in range(bit):
            if level[j]:
                xs[j] ^= bit
        for j in range(bit):
            xs.append(xs[j] ^ bit)
    size = 1 << (d.n + 1)
    succ = [0] * size
    for j in range(size):
        succ[xs[j]] = xs[(j + 1) % size]
    return tuple(xs), FunctionTable(d.n + 1, tuple(succ))


def bijective_by_sets(t):
    """is_bijective_mod with one set of masked values per level: the oracle of the packed levels."""
    values = t.table
    out = []
    for m in range(1, t.precision + 1):
        size = 1 << m
        mask = size - 1
        out.append(len({v & mask for v in values[:size]}) == size)
    return LevelVerdicts(tuple(out))


def transitive_by_walks(values, precision):
    """single_cycle_levels with a hand-kept step counter: the walk from 0 must first return at step 2^m."""
    out = []
    for m in range(1, precision + 1):
        need = 1 << m
        mask = need - 1
        x = values[0] & mask
        steps = 1
        while x and steps < need:
            x = values[x] & mask
            steps += 1
        out.append(x == 0 and steps == need)
    return LevelVerdicts(tuple(out))


def random_data_by_shifts(seed, n):
    """The steering bits of cyclegen.random_data, bit j of each level's word read as (word >> j) & 1."""
    rng = random.Random(seed)
    bits = []
    for k in range(1, n + 1):
        word = rng.getrandbits(1 << k)
        bits.append(tuple((word >> j) & 1 for j in range(1 << k)))
    return CycleData(n, tuple(bits))


def compose(t, u):
    """The table of x -> t(u(x)), in t's type and precision: the product of two maps of one ring."""
    return type(t)(t.precision, tuple(map(t.table.__getitem__, u.table)))


def invert(t):
    """The table of the inverse of a bijective table, in its type and precision."""
    inverse = [0] * len(t.table)
    for x, y in enumerate(t.table):
        inverse[y] = x
    return type(t)(t.precision, tuple(inverse))
