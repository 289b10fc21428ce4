"""Carlitz basis machinery over F2[T] at r=2.

Constants [i], L_i, D_i and the factorial Pi(n); the polynomials e_d, E_i,
G_n, G'_n, H_n; Lucas binomials; coefficient extraction from a function
table and evaluation back; Lipschitz and single-cycle criteria read off
the coefficients.  The eval_* functions are exact over F2[T].  The
transform pair and point evaluation work mod T^k with the recurrence
E_i = (E_{i-1}^2 + E_{i-1}) / [i]: its division by T costs one digit per
level, so E_0 carries k - 1 guard digits and every E_i, i < k, comes out
exact mod T^k.  Both directions of the transform are one top-digit
butterfly over the canonical points, O(k^2 2^k) truncated products.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import FunctionTable, LevelVerdicts, SparseCoefficients, restrict_sparse, unwrap_point
from .gf2ps import clmul, clmul_trunc, exact_div, trunc

__all__ = [
    "CarlitzCoefficients",
    "CarlitzConstants",
    "DigitData",
    "binom_mod2",
    "carlitz_factorial",
    "carlitz_table",
    "check_ergodic_carlitz",
    "check_lipschitz_carlitz",
    "constants",
    "digit_data",
    "eval_E",
    "eval_G",
    "eval_Gprime",
    "eval_H",
    "eval_e",
    "from_carlitz",
    "restrict",
    "to_carlitz",
    "undetermined_lipschitz_indices",
]


@dataclass(frozen=True)
class CarlitzConstants:
    """The level-i constants: bracket [i], product L_i, factorial block D_i."""

    i: int
    bracket: int
    L: int
    D: int


@dataclass(frozen=True)
class DigitData:
    """Binary digit bookkeeping for an index n."""

    n: int
    digits: tuple
    nu: int
    l: int


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


def digit_data(n):
    """Digits, 2-adic valuation, and top digit value of n."""
    if n < 0:
        raise ValueError("index must be non-negative")
    if n == 0:
        return DigitData(0, (), 0, 0)
    digits = tuple((n >> i) & 1 for i in range(n.bit_length()))
    nu = (n & -n).bit_length() - 1
    return DigitData(n, digits, nu, 1 << (n.bit_length() - 1))


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


class CarlitzCoefficients(SparseCoefficients):
    """Sparse coefficients a_n mod T^k; missing indices are zero."""

    ring, basis = "F2T", "carlitz"


def _E_values(x, k):
    """E_0(x), ..., E_{k-1}(x) mod T^k at one point, by the Carlitz recurrence.

    E_i = (E_{i-1}^2 + E_{i-1}) / [i] with [i] = T (1 + T^(2^i - 1)).  The
    division by T is a shift that costs one digit, so E_0 = x starts with
    k - 1 guard digits and E_i is exact mod T^(2k-1-i); the unit is
    inverted as the geometric series of T^(2^i - 1).  E_i vanishes once
    2^i > x, so the recurrence stops at the degree of x.
    """
    p = 2 * k - 1
    e = trunc(x, p)
    out = [trunc(e, k)]
    for i in range(1, min(k, x.bit_length())):
        e = trunc(clmul(e, e) ^ e, p) >> 1
        p -= 1
        step = (1 << i) - 1
        if step < p:
            e = clmul_trunc(e, sum(1 << j for j in range(0, p, step)), p)
        out.append(trunc(e, k))
    return out + [0] * (k - len(out))


def _shift(v, lo, c, k):
    """Apply the Kronecker product of the shifts [[1, c_i], [0, 1]] to v[lo : lo + 2^len(c)]."""
    for i, ci in enumerate(c):
        if not ci:
            continue
        b = 1 << i
        for base in range(lo, lo + (1 << len(c)), 2 * b):
            for n in range(base + b, base + 2 * b):
                if v[n]:
                    v[n - b] ^= clmul_trunc(ci, v[n], k)


def _butterfly(v, k, synthesize):
    """Coefficients to table (synthesize) or table to coefficients, in place.

    A level splits blocks of 2h points, h = 2^j, on the top digit: on the
    upper half x + T^j (deg x < j) linearity gives E_i(x) + c_i for i < j,
    c_i = E_i(T^j), and E_j = 1.  Per block, synthesis is
    hi <- shift_c(lo + hi) from the top level down; expansion undoes it,
    hi <- lo + shift_c(hi) from the bottom level up, since each shift is
    its own inverse in characteristic 2.
    """
    levels = [(1 << j, _E_values(1 << j, k)[:j]) for j in range(k)]
    for h, c in reversed(levels) if synthesize else levels:
        for s in range(0, 1 << k, 2 * h):
            if not synthesize:
                _shift(v, s + h, c, k)
            for t in range(s, s + h):
                v[t + h] ^= v[t]
            if synthesize:
                _shift(v, s + h, c, k)
    return v


def to_carlitz(t):
    """Extract a_n mod T^k for n < 2^k from the full table."""
    k = t.precision
    a = _butterfly(list(t.table), k, synthesize=False)
    return CarlitzCoefficients(k, dict(enumerate(a)))


def from_carlitz(c, x):
    """Evaluate sum of a_n G_n at a canonical point, mod T^k, without a table.

    Indices n >= 2^k contribute 0 at canonical points and are skipped.
    """
    x, wrap = unwrap_point(x, c.precision)
    k = c.precision
    E = _E_values(x, k)
    acc = 0
    for n, v in c.a.items():
        if n >> k:
            continue
        while n and v:
            low = n & -n
            v = clmul_trunc(v, E[low.bit_length() - 1], k)
            n ^= low
        acc ^= v
    return wrap(acc)


def carlitz_table(c):
    """Synthesize the full table of the expansion at its own precision."""
    k = c.precision
    v = [c.coeff(n) for n in range(1 << k)]
    return FunctionTable(k, tuple(_butterfly(v, k, synthesize=True)))


restrict = restrict_sparse


def _off_floor(c):
    """The stored indices n > 1 with ord(a_n) < floor(log2 n), in storage order."""
    # a_n < 2^k, so past the precision the floor refutes any nonzero a_n
    return (n for n, v in c.a.items() if n > 1 and v & ((1 << (n.bit_length() - 1)) - 1))


def check_lipschitz_carlitz(c):
    """True iff every readable a_n clears ord(a_n) >= floor(log2 n).

    Indices with floor(log2 n) >= k can only be refuted, never confirmed,
    at precision k; undetermined_lipschitz_indices lists the survivors.
    """
    return next(_off_floor(c), None) is None


def undetermined_lipschitz_indices(c):
    """Stored indices whose Lipschitz bound sits beyond the precision."""
    k = c.precision
    return tuple(sorted(n for n, v in c.a.items() if n >= (1 << k) and not trunc(v, k)))


def check_ergodic_carlitz(c):
    """Single-cycle criterion per level, three-valued.

    Level 1 needs a_0 and a_1 odd.  Level m adds ord(a_n) >= m across the
    band floor(log2 n) = m-1 and a lift clause pinning the next coefficient
    of the chain a_{2^j - 1}: the T^{m-1} digit of a_{2^{m-1}-1} (the T
    digit of a_1 at m = 2).  True is only reported below the precision;
    level k stays undecided unless a clause fails outright.  Each clause
    reads only stored indices, so the cost is linear in the set.
    """
    n = min(_off_floor(c), default=None)
    if n is not None:
        raise ValueError("coefficients are not 1-Lipschitz: T^%d does not divide a_%d" % (n.bit_length() - 1, n))
    k = c.precision
    # one pass over the stored indices: band m fails when some a_n with
    # floor(log2 n) = m-1 has a digit below T^m
    bad_bands = {n.bit_length() for n, v in c.a.items() if v & ((1 << n.bit_length()) - 1)}
    ok = bool(c.coeff(0) & 1) and bool(c.coeff(1) & 1)
    raw = [ok]
    for m in range(2, k + 1):
        ok = ok and m not in bad_bands and bool(c.coeff((1 << (m - 1)) - 1) >> (m - 1) & 1)
        raw.append(ok)
    levels = [v if (v is False or m <= k - 1) else None for m, v in enumerate(raw, start=1)]
    return LevelVerdicts(tuple(levels))
