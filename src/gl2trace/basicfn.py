"""Dual-group representations, symmetric-power traces, basic-function
coefficients, and local L-factors as exact rational functions in t.

The generating identity driving everything here: for a representation r
with weight monomials w_1..w_d and a parameter pair (alpha, beta),

    sum_n  h_n(w(alpha, beta)) t^n  =  prod_i (1 - w_i(alpha, beta) t)^-1,

where h_n is the complete homogeneous symmetric function.  The left side
is reached through Hecke elements and spherical traces, the right side
by expanding the rational function; their exact agreement is the
module's central invariant.

A truncated series is a plain list of its t^0 .. t^N coefficients.  Every
series coefficient and every RationalFn coefficient is a LaurentQ, over
Q or, where a value is not real, over Q(i).  The two sides of the
identity therefore compare with ==.
"""

import re as _re

from .hecke import LocalField, SymLaurent, inverse_satake, spherical_trace
from .rings import LaurentQ, QiNumber


class RepSpec:
    """Sym^k(std) tensor det^m of the dual GL(2)."""

    __slots__ = ("k", "m")

    def __init__(self, k, m=0):
        if not (isinstance(k, int) and k >= 0 and isinstance(m, int)):
            raise ValueError("Sym^k tensor det^m wants integers k >= 0 and m, "
                             "got k = %r, m = %r" % (k, m))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)

    def __setattr__(self, *_):
        raise AttributeError("RepSpec is immutable")

    @classmethod
    def parse(cls, name):
        s = name.strip().lower().replace(" ", "")
        s = s.replace("^", "").replace("(std)", "").replace("*", "x").replace("@", "x")
        m = 0
        if "det" in s:
            head, _, tail = s.partition("det")
            head = head.rstrip("x")
            if not _re.fullmatch(r"([-+]?\d+)?", tail):
                raise ValueError("unknown representation %r" % name)
            m = int(tail) if tail else 1
            s = head if head else "triv"
        if s in ("std", ""):
            return cls(1, m)
        if s in ("triv", "trivial", "1"):
            return cls(0, m)
        mt = _re.fullmatch(r"sym(\d+)", s)
        if mt:
            return cls(int(mt.group(1)), m)
        raise ValueError("unknown representation %r" % name)

    def __eq__(self, other):
        return isinstance(other, RepSpec) and (self.k, self.m) == (other.k, other.m)

    def __hash__(self):
        return hash((self.k, self.m))

    def __repr__(self):
        if self.k == 1 and self.m == 0:
            return "std"
        base = "sym%d" % self.k if self.k != 1 else "std"
        if self.m == 0:
            return base
        return "%s*det%s" % (base, self.m if self.m != 1 else "")


STD = RepSpec(1, 0)


def rep_weights(r):
    " weight exponent pairs (e1, e2) of r(diag(Y1, Y2)), with multiplicity "
    return [(r.k - i + r.m, i + r.m) for i in range(r.k + 1)]


def symn_trace(r, n):
    """Complete homogeneous symmetric function h_n on the weights of r,
    as a symmetric Laurent polynomial with integer coefficients.

    With weights Y1^(k-i+m) Y2^(i+m), i = 0..k, the coefficient of
    Y1^(n(k+m)-s) Y2^(nm+s) counts the partitions of s into at most n
    parts of size at most k: the t^s coefficient of the Gaussian binomial
    [n+k choose k]_t = prod_{j=1..k} (1 - t^(n+j)) / (1 - t^j)."""
    if n < 0:
        raise ValueError("n = %s is negative: the series starts at n = 0" % n)
    c = [1]
    for j in range(1, r.k + 1):
        c += [0] * (n + j)
        for s in range(len(c) - 1, n + j - 1, -1):   # times 1 - t^(n+j)
            c[s] -= c[s - n - j]
        for s in range(j, len(c)):                   # over 1 - t^j, exactly
            c[s] += c[s - j]
        del c[n * j + 1:]
    if c != c[::-1]:
        raise RuntimeError("weight multiset is not Weyl-stable")
    e1, e2 = n * (r.k + r.m), n * r.m
    return SymLaurent({(e1 - s, e2 + s): c[s] for s in range(n * r.k // 2 + 1)}, None)


def basic_coeff(r, n, field):
    """n-th coefficient of the basic function: the exact inverse
    transform of symn_trace(r, n).  Supported on determinant
    valuation n*(k+2m)."""
    return inverse_satake(symn_trace(r, n), field)


# -- series and rational functions --------------------------------------


def _poly_text(coeffs):
    return " ".join("%d:%s" % (k, c.compact()) for k, c in enumerate(coeffs) if c)


class RationalFn:
    """Ratio of polynomials in t, denominator normalized to constant
    term 1; coefficients are LaurentQ, and int, Fraction or QiNumber
    ones are wrapped on the way in."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num = [c if isinstance(c, LaurentQ) else LaurentQ(c) for c in num]
        den = [c if isinstance(c, LaurentQ) else LaurentQ(c) for c in den]
        while len(num) > 1 and not num[-1]:
            num.pop()
        while len(den) > 1 and not den[-1]:
            den.pop()
        if not any(den):
            raise ZeroDivisionError("zero denominator")
        c0 = den[0]
        if not c0:
            raise ValueError("denominator must be a unit at t = 0")
        if c0 != 1:
            inv = c0.inverse()
            num = [c * inv for c in num]
            den = [c * inv for c in den]
        self.num = num
        self.den = den

    def series(self, order):
        " the coefficients of t^0 .. t^order, a list of LaurentQ "
        out = []
        for n in range(order + 1):
            c = self.num[n] if n < len(self.num) else LaurentQ(0)
            for j in range(1, min(n, len(self.den) - 1) + 1):
                c = c - self.den[j] * out[n - j]
            out.append(c)
        return out

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        # cross-multiplied coefficient comparison
        a = _poly_mul(self.num, other.den)
        b = _poly_mul(other.num, self.den)
        la, lb = len(a), len(b)
        a += [0] * (lb - la)
        b += [0] * (la - lb)
        return all(x == y for x, y in zip(a, b))

    def __str__(self):
        return "(%s) / (%s)" % (_poly_str(self.num), _poly_str(self.den))

    __repr__ = __str__

    def to_text(self):
        return "num: %s\nden: %s\n" % (_poly_text(self.num), _poly_text(self.den))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _poly_str(p):
    parts = []
    for k, c in enumerate(p):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            tk = "t" if k == 1 else "t^%d" % k
            parts.append("%s*%s" % (c, tk) if c != 1 else tk)
    return " + ".join(parts) if parts else "0"


def local_l_factor(r, c):
    """L-factor of the parameter c in representation r:
    1 / prod over weights (1 - alpha^e1 beta^e2 t), exact."""
    den = [QiNumber(1)]
    for (e1, e2) in rep_weights(r):
        w = c.alpha ** e1 * c.beta ** e2
        den = _poly_mul(den, [QiNumber(1), -w])
    return RationalFn([1], den)


def _trace_value(h, c):
    " spherical trace at c: v-free, so kept as a LaurentQ with no q "
    val = spherical_trace(h, c)
    if not val.v_free:
        raise RuntimeError("trace of a basic-function coefficient kept a v-part")
    return LaurentQ(val.a)


def trace_series(r, c, N, field):
    " traces at c of the basic-function coefficients, t^0 .. t^N "
    return [_trace_value(basic_coeff(r, n, field), c) for n in range(N + 1)]


def truncated_basic_identity(r, c, N, field=None):
    """Two independent series whose agreement is the trace = L-factor
    identity: (traces of basic-function coefficients, L-factor
    expansion), both to order N."""
    if N < 0:
        raise ValueError("N = %s is negative: a series order is >= 0" % N)
    if field is None:
        field = LocalField(2)
    return trace_series(r, c, N, field), local_l_factor(r, c).series(N)
