"""Spherical Hecke algebra of GL(2) over a nonarchimedean local field.

Elements are finitely supported bi-K-invariant functions, stored by
double-coset coefficients: the key (a, b) with a >= b labels the coset
K.diag(p^a, p^b).K.  All measures are normalized so vol(K) = 1 and
vol(O) = 1 for the additive Haar measure.

The transform to symmetric Laurent polynomials in the dual-torus
coordinates Y1, Y2 and its inverse are exact; half-integral powers of
the residue cardinality live in the LaurentQ coefficient ring (v^2 = q).

satake_transform, inverse_satake and the exact SymLaurent.evaluate sum
integers: the coefficients over one common denominator, divided once per
output value, so they are exact.  The tests keep ring-arithmetic oracles.
"""

import math
from fractions import Fraction

from .rings import LaurentQ, QiNumber

INF = None  # valuation of zero


class LocalField:
    """Residue cardinality and uniformizer bookkeeping."""

    __slots__ = ("q",)

    def __init__(self, q):
        if not isinstance(q, int) or q < 2:
            raise ValueError("residue cardinality q = %r is not an integer >= 2" % (q,))
        self.q = q

    def v(self, k=1):
        return LaurentQ.v_power(k, self.q)

    def one(self):
        return LaurentQ(1, 0, self.q)

    def __eq__(self, other):
        return isinstance(other, LocalField) and other.q == self.q

    def __hash__(self):
        return hash(("LocalField", self.q))

    def __repr__(self):
        return "LocalField(q=%d)" % self.q


def _check_key(key):
    a, b = key
    assert isinstance(a, int) and isinstance(b, int)
    if a < b:
        raise ValueError("cocharacter pair must be dominant: %s" % (key,))
    return a, b


def coset_decomposition(field, key):
    """Canonical upper-triangular representatives x with
    K.diag(p^a, p^b).K = disjoint union of x.K.

    Representatives are [[p^i, u], [0, p^j]] with i + j = a + b,
    u running over residues mod p^i whose valuation keeps the
    elementary-divisor type equal to (a, b); entries are Fractions
    when b < 0.
    """
    a, b = _check_key(key)
    q = field.q
    m = a - b
    scale = Fraction(q) ** b
    reps = []
    if m == 0:
        return [((scale, Fraction(0)), (Fraction(0), scale))]
    for i in range(m + 1):
        j = m - i
        if i == 0:
            us = [0]
        elif i < m:
            us = [u for u in range(1, q ** i) if u % q != 0]
        else:
            us = list(range(q ** m))
        pi, pj = Fraction(q) ** i, Fraction(q) ** j
        for u in us:
            reps.append(((pi * scale, u * scale), (Fraction(0), pj * scale)))
    return reps


def coset_degree(field, key):
    " number of right cosets in the double coset; equals len(coset_decomposition) "
    a, b = _check_key(key)
    m = a - b
    if m == 0:
        return 1
    return field.q ** (m - 1) * (field.q + 1)


def _coset_classes(q, m):
    """Right-coset representatives of K.diag(p^m, 1).K (m >= 0) grouped by
    the data that Smith-form bookkeeping sees: (i, val u, multiplicity)
    with the rep shape [[p^i, u], [0, p^(m-i)]].  val u = INF for u = 0."""
    if m == 0:
        return [(0, INF, 1)]
    classes = [(0, INF, 1)]
    for i in range(1, m):
        classes.append((i, 0, q ** i - q ** (i - 1)))
    classes.append((m, INF, 1))
    for w in range(m):
        classes.append((m, w, q ** (m - w) - q ** (m - w - 1)))
    return classes


class HeckeElement:
    """Finitely supported bi-K-invariant function, by coset coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=None):
        self.field = field
        clean = {}
        for key, c in (coeffs or {}).items():
            key = _check_key(key)
            if isinstance(c, (int, Fraction)):
                c = LaurentQ(c, 0, field.q)
            assert isinstance(c, LaurentQ)
            if c.q is not None and c.q != field.q:
                raise ValueError("coefficient q mismatch")
            if c:
                clean[key] = LaurentQ(c.a, c.b, field.q)
        self.coeffs = clean

    @classmethod
    def char(cls, field, key, coeff=1):
        return cls(field, {key: coeff})

    @classmethod
    def unit(cls, field):
        return cls.char(field, (0, 0))

    def support(self):
        return sorted(self.coeffs)

    def __getitem__(self, key):
        return self.coeffs.get(_check_key(key), LaurentQ(0, 0, self.field.q))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, HeckeElement)
                and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, tuple(sorted((k, v) for k, v in self.coeffs.items()))))

    def __add__(self, other):
        assert isinstance(other, HeckeElement) and other.field == self.field
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, LaurentQ(0, 0, self.field.q)) + c
        return HeckeElement(self.field, out)

    def __neg__(self):
        return HeckeElement(self.field, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return HeckeElement(self.field, {k: v * c for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return convolve(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for key in self.support():
            parts.append("(%s)*char%s" % (self.coeffs[key], key))
        return " + ".join(parts)

    __repr__ = __str__

    # -- serialization --------------------------------------------------

    def to_text(self):
        lines = ["q %d kmin 0" % self.field.q]
        for (a, b) in self.support():
            c = self.coeffs[(a, b)]
            if c.b:
                lines.append("%d %d %s %s" % (a, b, c.a, c.b))
            else:
                lines.append("%d %d %s" % (a, b, c.a))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """A 'q Q kmin K' header, then one 'a b c_K c_(K+1) ...' line per
        coset with coefficient sum of c_k v^k; a bad line raises
        ValueError naming its line number."""
        field, coeffs = None, {}
        for num, ln in enumerate(text.splitlines(), 1):
            toks = ln.split()
            if not toks:
                continue
            try:
                if field is None:
                    if len(toks) != 4 or toks[0] != "q" or toks[2] != "kmin":
                        raise ValueError("bad header: want 'q Q kmin K'")
                    field, kmin = LocalField(int(toks[1])), int(toks[3])
                    continue
                if len(toks) < 3:
                    raise ValueError("bad coset line: want 'a b c ...'")
                key = _check_key((int(toks[0]), int(toks[1])))
                if key in coeffs:
                    raise ValueError("duplicate coset %s" % (key,))
                powers = {kmin + k: _coefficient(t)
                          for k, t in enumerate(toks[2:])}
                coeffs[key] = LaurentQ.from_powers(powers, field.q)
            except ValueError as e:
                raise ValueError("line %d %r: %s" % (num, ln.strip(), e)) from None
        if field is None:
            raise ValueError("empty Hecke element file")
        return cls(field, coeffs)


def _coefficient(tok):
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError("coefficient %s has denominator 0" % tok) from None


def convolve(h1, h2):
    """Exact convolution with vol(K) = 1, via coset classes.

    (f*g)(z) = sum over right-coset representatives x of the double
    cosets in supp f of f(x) g(x^-1 z); only the Smith type of x^-1 z
    matters, so representatives are processed in valuation classes.
    """
    if h1.field != h2.field:
        raise ValueError("mismatched base fields")
    field = h1.field
    q = field.q
    out = {}
    for (a1, b1), c1 in h1.coeffs.items():
        m1 = a1 - b1
        classes = _coset_classes(q, m1)
        for (a2, b2), c2 in h2.coeffs.items():
            c = c1 * c2
            dd = a1 + b1 + a2 + b2
            lo = b1 + b2
            hi = a1 + a2
            for bz in range(lo, (dd + 1) // 2 + (dd % 2 == 0)):
                az = dd - bz
                if az < bz or az > hi:
                    continue
                n = 0
                for i, w, count in classes:
                    j = m1 - i
                    # Smith valuations of x^-1 z for x in the class,
                    # z = diag(p^az, p^bz), both shifted back by b1
                    terms = [az - b1 - i, bz - b1 - j]
                    if w is not INF:
                        terms.append(w + bz - b1 - m1)
                    if min(terms) == b2:
                        n += count
                if n:
                    key = (az, bz)
                    out[key] = out.get(key, LaurentQ(0, 0, q)) + c * n
    return HeckeElement(field, out)


def _integer_parts(coeffs):
    " common denominator D of a + b*v coefficients; per key (a*D, b*D) "
    den = 1
    for c in coeffs.values():
        den = math.lcm(den, c.a.denominator, c.b.denominator)
    return den, {k: (c.a.numerator * (den // c.a.denominator),
                     c.b.numerator * (den // c.b.denominator))
                 for k, c in coeffs.items()}


def _gaussian_integer(y):
    " a Gaussian rational as (z, d): y = z/d, z = (re, im) integers, d > 0 "
    d = math.lcm(y.re.denominator, y.im.denominator)
    return (y.re.numerator * (d // y.re.denominator),
            y.im.numerator * (d // y.im.denominator)), d


def _power_table(z, d, e):
    " [z^k d^(e-k) for k = 0..e], Gaussian integers as (re, im) "
    out, r, i = [], 1, 0
    for k in range(e + 1):
        f = d ** (e - k)
        out.append((r * f, i * f))
        r, i = r * z[0] - i * z[1], r * z[1] + i * z[0]
    return out


class SymLaurent:
    """Symmetric Laurent polynomial in Y1, Y2 with LaurentQ coefficients.

    Stored on canonical keys (i, j) with i >= j; a key with i > j stands
    for c*(Y1^i Y2^j + Y1^j Y2^i)."""

    __slots__ = ("coeffs", "q")

    def __init__(self, coeffs=None, q=None):
        clean = {}
        for (i, j), c in (coeffs or {}).items():
            assert i >= j
            if isinstance(c, (int, Fraction)):
                c = LaurentQ(c, 0, q)
            if c.q is not None:
                if q is None:
                    q = c.q
                elif q != c.q:
                    raise ValueError("coefficient q mismatch")
            if c:
                clean[(i, j)] = c
        self.coeffs = clean
        self.q = q

    @classmethod
    def one(cls, q=None):
        return cls({(0, 0): 1}, q)

    def support(self):
        return sorted(self.coeffs)

    def __getitem__(self, key):
        i, j = key
        if i < j:
            i, j = j, i
        return self.coeffs.get((i, j), LaurentQ(0, 0, self.q))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, SymLaurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        assert isinstance(other, SymLaurent)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return SymLaurent(out, self.q if self.q is not None else other.q)

    def __neg__(self):
        return SymLaurent({k: -c for k, c in self.coeffs.items()}, self.q)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return SymLaurent({k: v * c for k, v in self.coeffs.items()}, self.q)

    def __mul__(self, other):
        """Product on canonical keys, one coefficient product per pair.
        (Y1^i1 Y2^j1 + sym)(Y1^i2 Y2^j2 + sym) has the canonical term
        (i1+i2, j1+j2) and, when both factors are off the diagonal, the
        cross term (i1+j2, j1+i2) up to order, which lands twice on a
        diagonal key."""
        if not isinstance(other, SymLaurent):
            return self.scale(other)
        q = self.q if self.q is not None else other.q
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                c = c1 * c2
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c
                if i1 != j1 and i2 != j2:
                    a, b = i1 + j2, j1 + i2
                    if a == b:
                        c = c + c
                    k = (a, b) if a >= b else (b, a)
                    out[k] = out.get(k, 0) + c
        return SymLaurent(out, q)

    __rmul__ = scale

    def evaluate(self, y1, y2):
        """Substitute Y1 = y1, Y2 = y2 and v = +sqrt(q).  Gaussian
        rationals (QiNumber; nonzero if an exponent is negative) give an
        exact LaurentQ over Q(i): with y = z/d, z a Gaussian integer,
        each monomial is (y1 y2)^lo times a Gaussian integer over
        d1^e d2^e (lo the least exponent, e the span), so the sum is
        integral over one common denominator, divided once.  Complex
        numbers give a complex, from one power table per variable."""
        lo = min((j for (_, j) in self.coeffs), default=0)
        hi = max((i for (i, _) in self.coeffs), default=0)
        if isinstance(y1, QiNumber):
            return self._evaluate_exact(y1, y2, lo, hi)
        p1, p2 = [y1 ** lo], [y2 ** lo]
        for _ in range(hi - lo):
            p1.append(p1[-1] * y1)
            p2.append(p2[-1] * y2)
        rat = irr = 0
        for (i, j), c in self.coeffs.items():
            term = p1[i - lo] * p2[j - lo]
            if i != j:
                term = term + p1[j - lo] * p2[i - lo]
            rat = c.a * term + rat
            if c.b:
                irr = c.b * term + irr
        return complex(rat + irr * self.q ** 0.5 if irr else rat)

    def _evaluate_exact(self, y1, y2, lo, hi):
        (z1, d1), (z2, d2) = _gaussian_integer(y1), _gaussian_integer(y2)
        e = hi - lo
        t1, t2 = _power_table(z1, d1, e), _power_table(z2, d2, e)
        den, parts = _integer_parts(self.coeffs)
        rr = ri = vr = vi = 0   # rational and v-parts, real and imaginary
        for (i, j), (ca, cb) in parts.items():
            i, j = i - lo, j - lo
            (a1, b1), (a2, b2) = t1[i], t2[j]
            tr, ti = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            if i != j:
                (a1, b1), (a2, b2) = t1[j], t2[i]
                tr, ti = tr + a1 * a2 - b1 * b2, ti + a1 * b2 + b1 * a2
            rr, ri = rr + ca * tr, ri + ca * ti
            vr, vi = vr + cb * tr, vi + cb * ti
        # (y1 y2)^lo = (z1 z2)^lo / (d1 d2)^lo = w / m, w Gaussian, m > 0
        zr, zi = z1[0] * z2[0] - z1[1] * z2[1], z1[0] * z2[1] + z1[1] * z2[0]
        d = d1 * d2
        if lo >= 0:
            (wr, wi), m = _power_table((zr, zi), 1, lo)[-1], d ** lo
        else:   # (z/d)^-k = (d conj(z))^k / |z|^(2k)
            (wr, wi) = _power_table((d * zr, -d * zi), 1, -lo)[-1]
            m = (zr * zr + zi * zi) ** -lo
        n = m * den * d1 ** e * d2 ** e
        a = QiNumber(Fraction(wr * rr - wi * ri, n), Fraction(wr * ri + wi * rr, n))
        b = QiNumber(Fraction(wr * vr - wi * vi, n), Fraction(wr * vi + wi * vr, n))
        return LaurentQ(a, b, self.q)

    def __str__(self):
        if not self.coeffs:
            return "0"

        def mono(i, j):
            fs = []
            if i:
                fs.append("Y1" if i == 1 else "Y1^%d" % i)
            if j:
                fs.append("Y2" if j == 1 else "Y2^%d" % j)
            return "*".join(fs) if fs else "1"

        parts = []
        for (i, j) in sorted(self.coeffs, key=lambda k: (-(k[0] + k[1]), -(k[0] - k[1]))):
            c = self.coeffs[(i, j)]
            if i == j:
                body = mono(i, j)
            else:
                body = "(%s + %s)" % (mono(i, j), mono(j, i))
            cs = str(c)
            if cs == "1" and body != "1":
                parts.append(body)
            elif body == "1":
                parts.append(cs)
            elif "+" in cs or cs.count("-") > (1 if cs.startswith("-") else 0):
                parts.append("(%s)*%s" % (cs, body))
            else:
                parts.append("%s*%s" % (cs, body))
        return " + ".join(parts)

    __repr__ = __str__

    def to_text(self):
        q = self.q
        lines = ["q %s kmin 0" % (q if q is not None else 0)]
        for (i, j) in self.support():
            c = self.coeffs[(i, j)]
            if c.b:
                lines.append("%d %d %s %s" % (i, j, c.a, c.b))
            else:
                lines.append("%d %d %s" % (i, j, c.a))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = lines[0].split()
        if len(head) != 4 or head[0] != "q" or head[2] != "kmin":
            raise ValueError("bad header: %r" % lines[0])
        q, kmin = int(head[1]), int(head[3])
        q = q if q else None
        coeffs = {}
        for ln in lines[1:]:
            toks = ln.split()
            key = (int(toks[0]), int(toks[1]))
            powers = {kmin + k: Fraction(t) for k, t in enumerate(toks[2:])}
            coeffs[key] = LaurentQ.from_powers(powers, q) if q else LaurentQ(powers.get(0, Fraction(0)))
        return cls(coeffs, q)


def n_integral(h, m1, m2):
    """Exact unipotent integral of h against the torus point
    diag(p^m1, p^m2) (times units): integral over x in F of
    h([[p^m1, p^m1 x], [0, p^m2]]) with vol(O) = 1."""
    q = h.field.q
    mn = min(m1, m2)
    # d1 < mn <= m1, so every weight below is a power of q in Z
    total = LaurentQ(0, 0, q)
    c = h.coeffs.get((m1 + m2 - mn, mn))
    if c is not None:
        total = total + c * q ** (m1 - mn)
    if h.coeffs:
        minb = min(b for (_, b) in h.coeffs)
        for d1 in range(minb, mn):
            c = h.coeffs.get((m1 + m2 - d1, d1))
            if c is not None:
                total = total + c * ((q - 1) * q ** (m1 - d1 - 1))
    return total


def satake_transform(h):
    """S(h) = sum over m1 >= m2 of delta^(1/2) * (N-integral of h at
    diag(p^m1, p^m2)) * Y1^m1 Y2^m2, exact for every h and q.  With
    s = m1 + m2 that value is v^(m1-m2) [c_{m1,m2} + (q-1) T(m2)], where
    T(m2) = sum_{d<m2} c_{s-d,d} q^(m2-d-1) = q T(m2-1) + c_{m2-1}: one
    running sum down each diagonal, on the coefficients' integer parts
    over one common denominator, divided once per key."""
    q = h.field.q
    den, parts = _integer_parts(h.coeffs)
    diagonals = {}
    for (a, b), ab in parts.items():
        diagonals.setdefault(a + b, {})[b] = ab
    out = {}
    for s, column in diagonals.items():
        ta = tb = 0
        for m2 in range(min(column), s // 2 + 1):
            ca, cb = column.get(m2, (0, 0))
            xa, xb = ca + (q - 1) * ta, cb + (q - 1) * tb
            if xa or xb:
                j, odd = divmod(s - 2 * m2, 2)
                if odd:   # v^(2j+1) (xa + xb v) = q^j (q xb + xa v)
                    xa, xb = q * xb, xa
                w = q ** j
                out[(s - m2, m2)] = LaurentQ(Fraction(xa * w, den),
                                             Fraction(xb * w, den), q)
            ta, tb = q * ta + ca, q * tb + cb
    return SymLaurent(out, q)


def inverse_satake(poly, field=None):
    """Exact preimage under the transform, by Macdonald's formula (Gross,
    On the Satake isomorphism): with Schur polynomials s (s_{b-1,b} = 0),
    S(1_{a,b}) = v^(a-b) (s_{a,b} - q^-1 s_{a-1,b+1}) for a > b and
    S(1_{a,a}) = s_{a,a}, which telescopes to
    s_{a,b} = v^-(a-b) * sum over k = 0..(a-b)//2 of S(1_{a-k,b+k}).
    Monomial coefficients c give s_{a,b} the coefficient c_{a,b} - c_{a+1,b-1},
    so each key takes a running sum down its diagonal a + b = const.
    Valid when the polynomial's q, if set, is the field's.  Below the top
    key (a0, s - a0) the sum is v^(s-2a0) * sum (c_a' - c_a'+1) q^(a0-a'),
    integral over one common denominator and divided once per key."""
    if field is None:
        if poly.q is None:
            raise ValueError("need a base field: polynomial carries no q")
        field = LocalField(poly.q)
    q = field.q
    if poly.q is not None and poly.q != q:
        raise ValueError("mixed residue cardinalities %s and %s" % (poly.q, q))
    den, parts = _integer_parts(poly.coeffs)
    top = {}
    for (a, b) in parts:
        top[a + b] = max(top.get(a + b, a), a)
    coeffs = {}
    for s, a_top in top.items():
        m = 2 * a_top - s
        n = den * q ** ((m + 1) // 2)
        wa = wb = pa = pb = 0
        p = 1   # q^(a_top - a)
        for a in range(a_top, (s - 1) // 2, -1):
            ca, cb = parts.get((a, s - a), (0, 0))
            wa, wb = wa + (ca - pa) * p, wb + (cb - pb) * p
            pa, pb, p = ca, cb, p * q
            if wa or wb:
                xa, xb = (q * wb, wa) if m % 2 else (wa, wb)
                coeffs[(a, s - a)] = LaurentQ(Fraction(xa, n), Fraction(xb, n), q)
    return HeckeElement(field, coeffs)


class SatakeParameter:
    """Frobenius-Hecke parameter pair (alpha, beta).

    Exact mode stores Gaussian rationals (unit-circle points come from
    Pythagorean triples); numeric mode stores complex doubles."""

    __slots__ = ("alpha", "beta", "exact")

    def __init__(self, alpha, beta):
        exact = isinstance(alpha, QiNumber) and isinstance(beta, QiNumber)
        if not exact:
            alpha, beta = complex(alpha), complex(beta)
        self.alpha = alpha
        self.beta = beta
        self.exact = exact

    @classmethod
    def from_triple(cls, m, n, conj_pair=True):
        " unit-circle parameter from the Pythagorean triple generated by (m, n) "
        assert m > n > 0
        c = m * m + n * n
        alpha = QiNumber(Fraction(m * m - n * n, c), Fraction(2 * m * n, c))
        beta = alpha.conj() if conj_pair else alpha
        return cls(alpha, beta)

    @classmethod
    def trivial(cls):
        return cls(QiNumber(1), QiNumber(1))

    def is_unitary(self, tol=1e-10):
        if self.exact:
            return self.alpha.abs2() == 1 and self.beta.abs2() == 1
        return (abs(abs(self.alpha) - 1) < tol and abs(abs(self.beta) - 1) < tol)

    def __repr__(self):
        return "SatakeParameter(%s, %s)" % (self.alpha, self.beta)


def spherical_trace(h, satp):
    """Evaluate the transform of h at (alpha, beta), v = +sqrt(q).

    Exact parameters give a LaurentQ over Q(i); numeric parameters give
    complex."""
    return satake_transform(h).evaluate(satp.alpha, satp.beta)
