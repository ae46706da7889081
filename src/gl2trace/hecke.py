"""Spherical Hecke algebra of GL(2) over a nonarchimedean local field.

Elements are finitely supported bi-K-invariant functions, stored by
double-coset coefficients: the key (a, b) with a >= b labels the coset
K.diag(p^a, p^b).K.  All measures are normalized so vol(K) = 1 and
vol(O) = 1 for the additive Haar measure.

The transform to symmetric Laurent polynomials in the dual-torus
coordinates Y1, Y2 and its inverse are exact; half-integral powers of
the residue cardinality live in the LaurentQ coefficient ring (v^2 = q).

convolve, SymLaurent.__mul__, satake_transform, inverse_satake and
SymLaurent.evaluate sum integers: the coefficients over one common
denominator, divided once per output value, so they are exact.  They
take coefficients in Q[v] and raise TypeError on Q(i).  The tests keep
ring-arithmetic oracles.

convolve takes its integer structure constants for 1_(m1,0) * 1_(m2,0)
from Macdonald's closed form, one short list per key pair; a double
coset's translate by a central element has the same coset counts, so
those cover every key.  The tests keep the coset-class count it
replaced.  The Satake transform and the symmetric product have integer
cores (_satake_parts, _product_parts) under their LaurentQ wrappers, and
convolve checks its own product on them: S(h1 * h2) = S(h1) S(h2) on the
integer tables it has just built, both over den1 * den2, raising
HomomorphismError on a mismatch.

There is one product per object and no other arithmetic: convolve for
Hecke elements, SymLaurent * SymLaurent for transforms.
"""

import math
from fractions import Fraction

from .rings import LaurentQ, QiNumber, rational

class LocalField:
    """Residue cardinality and uniformizer bookkeeping."""

    __slots__ = ("q",)

    def __init__(self, q):
        if not isinstance(q, int) or q < 2:
            raise ValueError("residue cardinality q = %r is not an integer >= 2" % (q,))
        self.q = q

    def __eq__(self, other):
        return isinstance(other, LocalField) and other.q == self.q

    def __hash__(self):
        return hash(("LocalField", self.q))

    def __repr__(self):
        return "LocalField(q=%d)" % self.q


def _check_key(key):
    a, b = key
    if not (isinstance(a, int) and isinstance(b, int)):
        raise TypeError("cocharacter pair %s is not a pair of integers" % (key,))
    if a < b:
        raise ValueError("cocharacter pair must be dominant: %s" % (key,))
    return a, b


def coset_degree(field, key):
    " number of right cosets x.K in the double coset K.diag(p^a, p^b).K "
    a, b = _check_key(key)
    m = a - b
    if m == 0:
        return 1
    return field.q ** (m - 1) * (field.q + 1)


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
            if not isinstance(c, LaurentQ):
                raise TypeError("coefficient %r at %s is not an int, "
                                "Fraction or LaurentQ" % (c, key))
            if c.q is not None and c.q != field.q:
                raise ValueError("coefficient q mismatch")
            if c:
                clean[key] = c if c.q is not None else LaurentQ(c.a, c.b, field.q)
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

    def __eq__(self, other):
        return (isinstance(other, HeckeElement)
                and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, tuple(sorted((k, v) for k, v in self.coeffs.items()))))

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
        return _table_text(self.field.q, self.coeffs)

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


def _table_text(q, coeffs):
    """the text form HeckeElement.from_text reads: a 'q Q kmin 0' header,
    then 'a b c_0' or 'a b c_0 c_1' for c_0 + c_1 v on each key, sorted"""
    lines = ["q %d kmin 0" % q]
    for (a, b) in sorted(coeffs):
        c = coeffs[(a, b)]
        if c.b:
            lines.append("%d %d %s %s" % (a, b, c.a, c.b))
        else:
            lines.append("%d %d %s" % (a, b, c.a))
    return "\n".join(lines) + "\n"


def _coefficient(tok):
    try:
        return rational(tok)
    except ZeroDivisionError:
        raise ValueError("coefficient %s has denominator 0" % tok) from None


class HomomorphismError(RuntimeError):
    " a product of convolve whose transform is not the product of transforms "


def convolve(h1, h2):
    """Exact convolution with vol(K) = 1, via structure constants.

    1_(a1,b1) * 1_(a2,b2) is 1_(m1,0) * 1_(m2,0) translated by the
    central element diag(p^(b1+b2), p^(b1+b2)), where m = a - b: the
    coset count that puts n on the output key (m1+m2-s, s) puts the same
    n on (a1+a2-s, b1+b2+s).  So each key pair reads the closed-form
    counts for (m1, m2) and adds its integer coefficient product times n
    to an integer pair per output key, divided once at the end.

    Before it divides, it checks the Satake homomorphism
    S(h1 * h2) = S(h1) S(h2) on those integer tables: both sides lie
    over den1 * den2, so they compare with ==, and a mismatch raises
    HomomorphismError.
    """
    if h1.field != h2.field:
        raise ValueError("mismatched base fields %s and %s"
                         % (h1.field, h2.field))
    field = h1.field
    q = field.q
    den1, parts1 = _integer_parts(h1.coeffs, "Hecke convolutions")
    den2, parts2 = _integer_parts(h2.coeffs, "Hecke convolutions")
    acc = {}
    for (a1, b1), (x1, y1) in parts1.items():
        for (a2, b2), (x2, y2) in parts2.items():
            # (x1 + y1 v)(x2 + y2 v) with v^2 = q
            ca, cb = x1 * x2 + q * y1 * y2, x1 * y2 + y1 * x2
            a, b = a1 + a2, b1 + b2
            for s, n in _structure_constants(q, a1 - b1, a2 - b2):
                key = (a - s, b + s)
                sa, sb = acc.get(key, (0, 0))
                acc[key] = (sa + ca * n, sb + cb * n)
    acc = {k: ab for k, ab in acc.items() if ab != (0, 0)}
    want = _product_parts(q, _satake_parts(q, parts1), _satake_parts(q, parts2))
    if _satake_parts(q, acc) != {k: ab for k, ab in want.items() if ab != (0, 0)}:
        raise HomomorphismError("transform of the product differs from the "
                                "product of transforms")
    den = den1 * den2
    return HeckeElement(field, {k: LaurentQ(Fraction(a, den), Fraction(b, den), q)
                                for k, (a, b) in acc.items()})


def _structure_constants(q, m1, m2):
    """[(s, n)]: 1_(m1,0) * 1_(m2,0) = sum of n * 1_(m1+m2-s, s) over
    0 <= s <= m = min(m1, m2), in closed form (Macdonald, Spherical
    functions on a group of p-adic type, 1971): n = 1 at s = 0,
    (q - 1) q^(s-1) for 0 < s < m, and at s = m > 0 either q^m when
    m1 != m2 or (q + 1) q^(m-1) when m1 = m2, which for m = 1 is
    T_p^2 = T_(p^2) + (q + 1) R_p."""
    m = min(m1, m2)
    if not m:
        return [(0, 1)]
    out = [(0, 1)] + [(s, (q - 1) * q ** (s - 1)) for s in range(1, m)]
    out.append((m, q ** m if m1 != m2 else (q + 1) * q ** (m - 1)))
    return out


def _integer_parts(coeffs, kernel):
    """common denominator D of a + b*v coefficients; per key (a*D, b*D).
    `kernel` names the caller in the TypeError a Q(i) coefficient raises."""
    den = 1
    try:
        for c in coeffs.values():
            den = math.lcm(den, c.a.denominator, c.b.denominator)
    except AttributeError:   # a QiNumber part has no denominator
        raise TypeError("%s take coefficients in Q[v], not Q(i)[v]: got %s"
                        % (kernel, c)) from None
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


def _product_parts(q, parts1, parts2):
    """Product of two tables {(i, j): (a, b)} of integer parts a + b v on
    canonical keys, one coefficient product per pair, over the product
    of their denominators.  (Y1^i1 Y2^j1 + sym)(Y1^i2 Y2^j2 + sym) has
    the canonical term (i1+i2, j1+j2) and, when both factors are off the
    diagonal, the cross term (i1+j2, j1+i2) up to order, which lands
    twice on a diagonal key.  Keys that cancel stay, as (0, 0)."""
    acc = {}
    for (i1, j1), (x1, y1) in parts1.items():
        for (i2, j2), (x2, y2) in parts2.items():
            ca, cb = x1 * x2 + q * y1 * y2, x1 * y2 + y1 * x2
            k = (i1 + i2, j1 + j2)
            sa, sb = acc.get(k, (0, 0))
            acc[k] = (sa + ca, sb + cb)
            if i1 != j1 and i2 != j2:
                a, b = i1 + j2, j1 + i2
                if a == b:
                    ca, cb = ca + ca, cb + cb
                k = (a, b) if a >= b else (b, a)
                sa, sb = acc.get(k, (0, 0))
                acc[k] = (sa + ca, sb + cb)
    return acc


class SymLaurent:
    """Symmetric Laurent polynomial in Y1, Y2 with LaurentQ coefficients.

    Stored on canonical keys (i, j) with i >= j; a key with i > j stands
    for c*(Y1^i Y2^j + Y1^j Y2^i)."""

    __slots__ = ("coeffs", "q")

    def __init__(self, coeffs=None, q=None):
        clean = {}
        for (i, j), c in (coeffs or {}).items():
            if i < j:
                raise ValueError("key (%s, %s) is not canonical: want i >= j"
                                 % (i, j))
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

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, SymLaurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __mul__(self, other):
        """Product on canonical keys (_product_parts on integer parts),
        divided once by the product of the two denominators."""
        if not isinstance(other, SymLaurent):
            raise TypeError("cannot multiply a SymLaurent by %s"
                            % type(other).__name__)
        q = self.q if self.q is not None else other.q
        den1, parts1 = _integer_parts(self.coeffs, "SymLaurent products")
        den2, parts2 = _integer_parts(other.coeffs, "SymLaurent products")
        acc = _product_parts(q or 0, parts1, parts2)   # no q, no v-parts
        den = den1 * den2
        return SymLaurent({k: LaurentQ(Fraction(a, den), Fraction(b, den), q)
                           for k, (a, b) in acc.items() if a or b}, q)

    def evaluate(self, y1, y2):
        """Substitute Y1 = y1, Y2 = y2 and v = +sqrt(q) for Gaussian
        rationals y1, y2 (QiNumber; nonzero if an exponent is negative),
        giving an exact LaurentQ over Q(i).  With y = z/d, z a Gaussian
        integer, each monomial is (y1 y2)^lo times a Gaussian integer over
        d1^e d2^e (lo the least exponent, e the span), so the sum is
        integral over one common denominator, divided once."""
        lo = min((j for (_, j) in self.coeffs), default=0)
        hi = max((i for (i, _) in self.coeffs), default=0)
        (z1, d1), (z2, d2) = _gaussian_integer(y1), _gaussian_integer(y2)
        e = hi - lo
        t1, t2 = _power_table(z1, d1, e), _power_table(z2, d2, e)
        den, parts = _integer_parts(self.coeffs, "exact evaluations")
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
        return _table_text(self.q or 0, self.coeffs)


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
    diag(p^m1, p^m2)) * Y1^m1 Y2^m2, exact for every h and q."""
    q = h.field.q
    den, parts = _integer_parts(h.coeffs, "Satake transforms")
    return SymLaurent({k: LaurentQ(Fraction(a, den), Fraction(b, den), q)
                       for k, (a, b) in _satake_parts(q, parts).items()}, q)


def _satake_parts(q, parts):
    """S on integer parts, over the same denominator.  With s = m1 + m2
    the value at (m1, m2) is v^(m1-m2) [c_{m1,m2} + (q-1) T(m2)], where
    T(m2) = sum_{d<m2} c_{s-d,d} q^(m2-d-1) = q T(m2-1) + c_{m2-1}: one
    running sum down each diagonal.  Only nonzero values are kept."""
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
                out[(s - m2, m2)] = (xa * w, xb * w)
            ta, tb = q * ta + ca, q * tb + cb
    return out


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
    den, parts = _integer_parts(poly.coeffs, "inverse Satake transforms")
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
    """Frobenius-Hecke parameter pair (alpha, beta) of Gaussian rationals;
    unit-circle points come from Pythagorean triples."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        if not (isinstance(alpha, QiNumber) and isinstance(beta, QiNumber)):
            raise ValueError("Satake parameters are Gaussian rationals "
                             "(QiNumber), got %r and %r" % (alpha, beta))
        self.alpha = alpha
        self.beta = beta

    @classmethod
    def from_triple(cls, m, n):
        " unit-circle parameter from the Pythagorean triple generated by (m, n) "
        if not m > n > 0:
            raise ValueError("a Pythagorean triple wants m > n > 0, got "
                             "m = %s, n = %s" % (m, n))
        c = m * m + n * n
        alpha = QiNumber(Fraction(m * m - n * n, c), Fraction(2 * m * n, c))
        return cls(alpha, alpha.conj())

    def __repr__(self):
        return "SatakeParameter(%s, %s)" % (self.alpha, self.beta)


def spherical_trace(h, satp):
    """Evaluate the transform of h at (alpha, beta), v = +sqrt(q): a
    LaurentQ over Q(i)."""
    return satake_transform(h).evaluate(satp.alpha, satp.beta)
