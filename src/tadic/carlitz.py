"""Carlitz basis machinery over F2[T] at r=2.

Constants [i], L_i, D_i and the factorial Pi(n); the polynomials e_d, E_i,
G_n, G'_n, H_n; Lucas binomials; coefficient extraction from a function
table and evaluation back; Lipschitz and single-cycle criteria read off
the coefficients.  All basis values are computed exactly over F2[T] and
reduced mod T^k only at the end, so the divisions by D_i never lose bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import FunctionTable, LevelVerdicts, SparseCoefficients, restrict_sparse, unwrap_point
from .gf2ps import clmul, clmul_trunc, exact_div, trunc

__all__ = [
    "CarlitzCoefficients",
    "CarlitzConstants",
    "CarlitzContext",
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


class CarlitzContext:
    """Reduced basis values for every canonical point at one precision.

    Level i holds E_i mod T^k indexed by the high bits x >> i; the defining
    product over a full degree-below-i block absorbs the low bits, so each
    level is half the previous one and stays exact until the division.
    """

    def __init__(self, precision):
        if precision < 1:
            raise ValueError("precision must be a positive integer")
        self.precision = precision
        k = precision
        levels = []
        exact = list(range(1 << k))
        D = 1
        for i in range(k):
            levels.append([trunc(exact_div(e, D), k) for e in exact])
            if i + 1 < k:
                exact = [clmul(exact[2 * h], exact[2 * h + 1]) for h in range(len(exact) >> 1)]
                br = _bracket(i + 1)
                D = clmul(br, clmul(D, D))
        self._levels = levels
        self._gp_rows = {}
        self._g_rows = {}
        self._g_memo = {}

    def E_trunc(self, i, x):
        """E_i at the canonical point x, mod T^k."""
        return self._levels[i][x >> i]

    def G_trunc(self, n, x):
        """G_n at the canonical point x, mod T^k."""
        key = (n, x)
        got = self._g_memo.get(key)
        if got is not None:
            return got
        k = self.precision
        res = 1
        m, i = n, 0
        while m and res:
            if m & 1:
                if i >= k:
                    res = 0
                    break
                f = self._levels[i][x >> i]
                res = clmul_trunc(res, f, k) if f else 0
            m >>= 1
            i += 1
        self._g_memo[key] = res
        return res

    def gprime_row(self, x):
        """G'_s(x) mod T^k for every s below twice the top bit of x."""
        row = self._gp_rows.get(x)
        if row is None:
            k = self.precision
            vals = [1]
            for i in range(x.bit_length()):
                f = self._levels[i][x >> i] ^ 1
                vals += [clmul_trunc(v, f, k) for v in vals]
            row = self._gp_rows[x] = tuple(vals)
        return row

    def g_row(self, x):
        """G_s(x) mod T^k for every s below twice the top bit of x."""
        row = self._g_rows.get(x)
        if row is None:
            k = self.precision
            vals = [1]
            for i in range(x.bit_length()):
                f = self._levels[i][x >> i]
                vals += [clmul_trunc(v, f, k) for v in vals]
            row = self._g_rows[x] = tuple(vals)
        return row


class CarlitzCoefficients(SparseCoefficients):
    """Sparse coefficients a_n mod T^k; missing indices are zero."""

    ring, basis = "F2T", "carlitz"


def _mask_of(alpha):
    """Index mask for G'_s(alpha): s only matters up to twice the top bit."""
    return (2 << (alpha.bit_length() - 1)) - 1 if alpha else 0


def to_carlitz(t, ctx=None):
    """Extract a_n mod T^k for n < 2^k from the full table."""
    k = t.precision
    if ctx is None:
        ctx = CarlitzContext(k)
    elif ctx.precision != k:
        raise ValueError("context precision mismatch")
    values = t.table
    full = (1 << k) - 1
    rows = [ctx.gprime_row(alpha) for alpha in range(1 << k)]
    masks = [_mask_of(alpha) for alpha in range(1 << k)]
    a = {}
    for n in range(1 << k):
        s = full ^ n
        acc = 0
        for alpha in range(1 << k):
            fv = values[alpha]
            if fv:
                g = rows[alpha][s & masks[alpha]]
                if g:
                    acc ^= clmul_trunc(g, fv, k)
        if acc:
            a[n] = acc
    return CarlitzCoefficients(k, a)


def from_carlitz(c, x, ctx=None):
    """Evaluate sum of a_n G_n at a canonical point, mod T^k."""
    x, wrap = unwrap_point(x, c.precision)
    k = c.precision
    if ctx is None:
        ctx = CarlitzContext(k)
    elif ctx.precision != k:
        raise ValueError("context precision mismatch")
    acc = 0
    for n, v in c.a.items():
        g = ctx.G_trunc(n, x)
        if g:
            acc ^= clmul_trunc(g, v, k)
    return wrap(acc)


def carlitz_table(c, ctx=None):
    """Synthesize the full table of the expansion at its own precision."""
    k = c.precision
    if ctx is None:
        ctx = CarlitzContext(k)
    elif ctx.precision != k:
        raise ValueError("context precision mismatch")
    items = sorted(c.a.items())
    if len(items) <= max(2 * k, 4) or k > 9:
        return FunctionTable(k, tuple(from_carlitz(c, x, ctx) for x in range(1 << k)))
    # dense sets: one shared G row per point beats per-index digit products
    out = []
    for x in range(1 << k):
        row = ctx.g_row(x)
        bound = len(row)
        acc = 0
        for n, v in items:
            if n < bound:
                g = row[n]
                if g:
                    acc ^= clmul_trunc(g, v, k)
        out.append(acc)
    return FunctionTable(k, tuple(out))


restrict = restrict_sparse


def check_lipschitz_carlitz(c):
    """True iff every readable a_n clears ord(a_n) >= floor(log2 n).

    Indices with floor(log2 n) >= k can only be refuted, never confirmed,
    at precision k; undetermined_lipschitz_indices lists the survivors.
    """
    k = c.precision
    for n, v in c.a.items():
        if n < 2:
            continue
        bound = n.bit_length() - 1
        if bound < k:
            if v & ((1 << bound) - 1):
                return False
        elif v:
            return False
    return True


def undetermined_lipschitz_indices(c):
    """Stored indices whose Lipschitz bound sits beyond the precision."""
    k = c.precision
    return tuple(sorted(n for n, v in c.a.items() if n >= (1 << k) and not trunc(v, k)))


def check_ergodic_carlitz(c):
    """Single-cycle criterion per level, three-valued.

    Level 1 needs a_0 and a_1 odd.  Level m adds ord(a_n) >= m across the
    band floor(log2 n) = m-1 and a lift clause pinning the next coefficient
    of the chain a_{2^j - 1}: the T digit of a_1 for m = 2, the T^{m-1}
    digit of a_{2^{m-1}-1} beyond.  True is only reported below the
    precision; level k stays undecided unless a clause fails outright.
    """
    if not check_lipschitz_carlitz(c):
        raise ValueError("coefficients are not 1-Lipschitz")
    k = c.precision
    ok = bool(c.coeff(0) & 1) and bool(c.coeff(1) & 1)
    raw = [ok]
    for m in range(2, k + 1):
        band_mask = (1 << m) - 1
        ok = ok and all(not c.a.get(n, 0) & band_mask for n in range(1 << (m - 1), 1 << m))
        if m == 2:
            ok = ok and bool(c.coeff(1) & 2)
        else:
            ok = ok and bool(c.coeff((1 << (m - 1)) - 1) >> (m - 1) & 1)
        raw.append(ok)
    levels = [v if (v is False or m <= k - 1) else None for m, v in enumerate(raw, start=1)]
    return LevelVerdicts(tuple(levels))
