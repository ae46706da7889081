"""Dual-group representations, symmetric-power traces, basic-function
coefficients, and local L-factors as exact rational functions in t.

The generating identity driving everything here: for a representation r
with weight monomials w_1..w_d and a parameter pair (alpha, beta),

    sum_n  h_n(w(alpha, beta)) t^n  =  prod_i (1 - w_i(alpha, beta) t)^-1,

where h_n is the complete homogeneous symmetric function.  The left side
is reached through Hecke elements and spherical traces, the right side
by expanding the rational function; their exact agreement is the
module's central invariant.
"""

import re as _re
from fractions import Fraction

from .hecke import HeckeElement, LocalField, SymLaurent, inverse_satake, spherical_trace
from .rings import LaurentQ, QiNumber, QiV


class RepSpec:
    """Sym^k(std) tensor det^m of the dual GL(2)."""

    __slots__ = ("k", "m")

    def __init__(self, k, m=0):
        assert isinstance(k, int) and k >= 0 and isinstance(m, int)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)

    def __setattr__(self, *_):
        raise AttributeError("RepSpec is immutable")

    @property
    def dim(self):
        return self.k + 1

    @classmethod
    def parse(cls, name):
        s = name.strip().lower().replace(" ", "")
        s = s.replace("^", "").replace("(std)", "").replace("*", "x").replace("@", "x")
        m = 0
        if "det" in s:
            head, _, tail = s.partition("det")
            head = head.rstrip("x")
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
    as a symmetric Laurent polynomial with integer coefficients."""
    if n < 0:
        raise ValueError("n = %s is negative: the series starts at n = 0" % n)
    table = [dict() for _ in range(n + 1)]
    table[0][(0, 0)] = 1
    for (e1, e2) in rep_weights(r):
        new = [dict() for _ in range(n + 1)]
        for j in range(n + 1):
            acc = new[j]
            for s in range(j + 1):
                p = j - s
                for (a, b), c in table[s].items():
                    k = (a + e1 * p, b + e2 * p)
                    acc[k] = acc.get(k, 0) + c
        table = new
    full = table[n]
    out = {}
    for (a, b), c in full.items():
        if a < b:
            continue
        if a > b:
            assert full.get((b, a)) == c, "weight multiset is not Weyl-stable"
        out[(a, b)] = c
    return SymLaurent(out, None)


def basic_coeff(r, n, field):
    """n-th coefficient of the basic function: the exact inverse
    transform of symn_trace(r, n).  Supported on determinant
    valuation n*(k+2m)."""
    tr = symn_trace(r, n)
    lifted = SymLaurent({k: LaurentQ(c.a, c.b, field.q) for k, c in tr.coeffs.items()}, field.q)
    return inverse_satake(lifted, field)


# -- series and rational functions --------------------------------------


def _is_exact(c):
    return isinstance(c, (LaurentQ, QiNumber, Fraction, int))


def _coeff_token(c):
    if isinstance(c, LaurentQ):
        return c.compact()
    if isinstance(c, QiNumber):
        return str(c).replace(" ", "")
    if isinstance(c, (int, Fraction)):
        return str(Fraction(c))
    return repr(c)


def parse_qi(token):
    " Gaussian rational from 'a', 'b*i', 'a+b*i', 'a-b*i' "
    t = token.replace(" ", "")
    if not t.endswith("*i") and t != "i" and not t.endswith("-i") and not t.endswith("+i"):
        return QiNumber(Fraction(t), 0)
    if t == "i":
        return QiNumber(0, 1)
    body = t[:-2] if t.endswith("*i") else t[:-1] + "1"
    # split real part from imaginary coefficient at the last top-level sign
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/*":
            re_part, im_part = body[:pos], body[pos:]
            if im_part in ("+", "-"):
                im_part += "1"
            return QiNumber(Fraction(re_part), Fraction(im_part))
    return QiNumber(0, Fraction(body if body not in ("+", "-") else body + "1"))


def _parse_coeff(token, q=None):
    if "i" in token:
        return parse_qi(token)
    if "," in token:
        return LaurentQ.from_compact(token, q)
    return LaurentQ(Fraction(token), 0, None)


def _poly_text(coeffs):
    return " ".join("%d:%s" % (k, _coeff_token(c)) for k, c in enumerate(coeffs) if _nz(c))


def _parse_poly(text, q=None):
    out = {}
    for tok in text.split():
        k, _, c = tok.partition(":")
        out[int(k)] = _parse_coeff(c, q)
    if not out:
        return [LaurentQ(0)]
    deg = max(out)
    return [out.get(k, LaurentQ(0)) for k in range(deg + 1)]


def _nz(c):
    try:
        return bool(c)
    except TypeError:
        return c != 0


def _to_complex(c):
    if isinstance(c, LaurentQ):
        return complex(c.to_float())
    return complex(c)


def _as_fraction(c):
    " underlying rational, or None when the value is not plain rational "
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    if isinstance(c, LaurentQ) and c.v_free:
        return c.a
    if isinstance(c, QiNumber) and c.im == 0:
        return c.re
    return None


def value_eq(a, b):
    " exact equality across the coefficient rings used by series "
    if type(a) is type(b):
        return a == b
    fa, fb = _as_fraction(a), _as_fraction(b)
    if fa is not None and fb is not None:
        return fa == fb
    r = a == b
    return r is True


class RationalSeries:
    """Truncated power series in t with exact coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        assert order >= 0 and len(coeffs) == order + 1
        self.coeffs = coeffs
        self.order = order

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        return all(value_eq(a, b) for a, b in zip(self.coeffs, other.coeffs))

    def __str__(self):
        return " + ".join("(%s)*t^%d" % (c, k) for k, c in enumerate(self.coeffs)) \
            + " + O(t^%d)" % (self.order + 1)

    __repr__ = __str__

    def to_text(self):
        return "order %d\nseries: %s\n" % (
            self.order,
            " ".join("%d:%s" % (k, _coeff_token(c)) for k, c in enumerate(self.coeffs)))

    @classmethod
    def from_text(cls, text, q=None):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        order = int(lines[0].split()[1])
        body = lines[1].split(":", 1)[1]
        poly = _parse_poly(body, q)
        poly += [LaurentQ(0)] * (order + 1 - len(poly))
        return cls(poly[:order + 1], order)


class RationalFn:
    """Ratio of polynomials in t, denominator normalized to constant
    term 1; coefficients exact (or complex in numeric mode)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num, den = list(num), list(den)
        while len(num) > 1 and not _nz(num[-1]):
            num.pop()
        while len(den) > 1 and not _nz(den[-1]):
            den.pop()
        if not any(_nz(c) for c in den):
            raise ZeroDivisionError("zero denominator")
        c0 = den[0]
        if not _nz(c0):
            raise ValueError("denominator must be a unit at t = 0")
        if c0 != 1:
            if hasattr(c0, "inverse"):
                inv = c0.inverse()
            elif isinstance(c0, (int, Fraction)):
                inv = Fraction(1) / c0
            else:
                inv = 1.0 / c0
            num = [c * inv for c in num]
            den = [c * inv for c in den]
        self.num = num
        self.den = den

    def degree(self):
        return (len(self.num) - 1, len(self.den) - 1)

    def series(self, order):
        " expand to a RationalSeries of the given truncation order "
        out = []
        for n in range(order + 1):
            c = self.num[n] if n < len(self.num) else 0
            for j in range(1, min(n, len(self.den) - 1) + 1):
                c = c - self.den[j] * out[n - j]
            out.append(c)
        return RationalSeries(out, order)

    def evaluate(self, t):
        num = 0j
        for c in reversed(self.num):
            num = num * t + _to_complex(c)
        den = 0j
        for c in reversed(self.den):
            den = den * t + _to_complex(c)
        return num / den

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

    @classmethod
    def from_text(cls, text, q=None):
        num = den = None
        for ln in text.splitlines():
            ln = ln.strip()
            if ln.startswith("num:"):
                num = _parse_poly(ln[4:], q)
            elif ln.startswith("den:"):
                den = _parse_poly(ln[4:], q)
        if num is None or den is None:
            raise ValueError("rational function text needs num: and den: lines")
        return cls(num, den)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not _nz(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _poly_str(p):
    parts = []
    for k, c in enumerate(p):
        if not _nz(c):
            continue
        if k == 0:
            parts.append(str(c))
        else:
            tk = "t" if k == 1 else "t^%d" % k
            parts.append("%s*%s" % (c, tk) if c != 1 else tk)
    return " + ".join(parts) if parts else "0"


def local_l_factor(r, c):
    """L-factor of the parameter c in representation r:
    1 / prod over weights (1 - alpha^e1 beta^e2 t), exact when c is."""
    if c.exact:
        den = [QiNumber(1)]
        for (e1, e2) in rep_weights(r):
            w = c.alpha ** e1 * c.beta ** e2
            den = _poly_mul(den, [QiNumber(1), -w])
        if all(x.im == 0 for x in den):
            den = [LaurentQ(x.re) for x in den]
        return RationalFn([LaurentQ(1)] if isinstance(den[0], LaurentQ) else [QiNumber(1)], den)
    den = [1 + 0j]
    for (e1, e2) in rep_weights(r):
        w = c.alpha ** e1 * c.beta ** e2
        den = _poly_mul(den, [1 + 0j, -w])
    return RationalFn([1 + 0j], den)


def _trace_value(h, c):
    " spherical trace reduced to the smallest exact ring that holds it "
    val = spherical_trace(h, c)
    if isinstance(val, QiV):
        assert val.v_free, "trace of a basic-function coefficient kept a v-part"
        qi = val.as_qi()
        if qi.im == 0:
            return LaurentQ(qi.re)
        return qi
    return val


def truncated_basic_identity(r, c, N, field=None):
    """Two independent series whose agreement is the trace = L-factor
    identity: (traces of basic-function coefficients, L-factor
    expansion), both to order N."""
    assert N >= 0
    if field is None:
        field = LocalField(2)
    lhs = RationalSeries([_trace_value(basic_coeff(r, n, field), c) for n in range(N + 1)], N)
    rhs = local_l_factor(r, c).series(N)
    return lhs, rhs
