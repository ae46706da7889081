"""Unweighted orbital integrals at split classes, the Phi transform,
orbital zeta series, and exact rational reconstruction.

The normalized orbital integral of a spherical h at a regular split
gamma = diag(t1, t2) collapses, after Iwasawa reduction, to

    f_G(gamma) = delta^(1/2)(gamma) * integral over N of h(gamma n) dn,

which the unipotent-integral casework evaluates exactly; the tree
oracle recomputes it by brute-force summation over explicit matrices
so the two paths stay independent.
"""

import warnings
from fractions import Fraction

from .basicfn import RationalFn, basic_coeff
from .chargroup import is_prime
from .hecke import n_integral
from .rings import LaurentQ

_INF = 10 ** 9


def _vint(n, p):
    " p-adic valuation of an integer; _INF for 0 "
    if n == 0:
        return _INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _valp(x, p):
    x = Fraction(x)
    if x == 0:
        return _INF
    return _vint(x.numerator, p) - _vint(x.denominator, p)


class SplitClass:
    """Split torus class diag(t1, t2), described by the valuations m1, m2
    and the valuation d of t1 - t2 (the only data the integrals see).

    Explicit rational t1, t2 are kept when available; they are required
    by the brute-force tree oracle and need a prime residue cardinality
    to make rational valuations meaningful."""

    __slots__ = ("field", "m1", "m2", "d", "t1", "t2")

    def __init__(self, field, t1, t2):
        if not is_prime(field.q):
            raise ValueError("rational class data needs a prime residue "
                             "cardinality, got q = %d" % field.q)
        t1, t2 = Fraction(t1), Fraction(t2)
        if not t1 or not t2:
            raise ValueError("split class diag(%s, %s) needs nonzero "
                             "entries" % (t1, t2))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2", t2)
        object.__setattr__(self, "m1", _valp(t1, field.q))
        object.__setattr__(self, "m2", _valp(t2, field.q))
        object.__setattr__(self, "d", _valp(t1 - t2, field.q))

    def __setattr__(self, *_):
        raise AttributeError("SplitClass is immutable")

    @classmethod
    def from_data(cls, field, m1, m2, d=None):
        " build from (m1, m2, d); d defaults to the minimal realizable value "
        q = field.q
        if m1 != m2:
            want = min(m1, m2)
            if d is None:
                d = want
            if d != want:
                raise ValueError("distinct valuations force d = min(m1, m2)")
        else:
            least = m1 + (1 if q == 2 else 0)
            if d is None:
                d = least
            if d == _INF or d is _INF:
                return cls.singular(field, m1)
            if d < least:
                raise ValueError("d = %s not realizable at q = %s" % (d, q))
        obj = object.__new__(cls)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "m1", m1)
        object.__setattr__(obj, "m2", m2)
        object.__setattr__(obj, "d", d)
        if is_prime(q):
            t1 = Fraction(q) ** m1
            if m1 != m2:
                t2 = Fraction(q) ** m2
            elif d == m1:
                t2 = -t1 if q != 2 else None
            else:
                t2 = t1 * (1 - Fraction(q) ** (d - m1))
        else:
            t1 = t2 = None
        object.__setattr__(obj, "t1", t1)
        object.__setattr__(obj, "t2", t2)
        return obj

    @classmethod
    def singular(cls, field, m=0):
        " the central class diag(p^m, p^m) "
        obj = object.__new__(cls)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "m1", m)
        object.__setattr__(obj, "m2", m)
        object.__setattr__(obj, "d", _INF)
        t = Fraction(field.q) ** m if is_prime(field.q) else None
        object.__setattr__(obj, "t1", t)
        object.__setattr__(obj, "t2", t)
        return obj

    @property
    def regular(self):
        return self.d < _INF

    def h_value(self):
        " H(gamma) = |t1/t2| as an exact rational "
        return Fraction(self.field.q) ** (self.m2 - self.m1)

    def disc_half(self):
        " |D(gamma)|^(1/2) in LaurentQ "
        assert self.regular
        return LaurentQ.v_power(self.m1 + self.m2 - 2 * self.d, self.field.q)

    def __repr__(self):
        if not self.regular:
            return "SplitClass(singular, m=%d, q=%d)" % (self.m1, self.field.q)
        return "SplitClass(m1=%d, m2=%d, d=%d, q=%d)" % (self.m1, self.m2, self.d, self.field.q)


def split_orbital(h, gamma):
    """Normalized orbital integral f_G(gamma), exact.

    Depends only on (m1, m2) through the unipotent integral; the
    discriminant factor cancels against the measure of the tree."""
    if not isinstance(gamma, SplitClass):
        raise TypeError("need a SplitClass")
    if not gamma.regular:
        raise ValueError("orbital integral undefined at a singular class")
    if h.field != gamma.field:
        raise ValueError("mismatched base fields")
    q = h.field.q
    return LaurentQ.v_power(gamma.m2 - gamma.m1, q) * n_integral(h, gamma.m1, gamma.m2)


def tree_orbital_oracle(h, gamma, depth):
    """Brute-force orbital integral: |D|^(1/2) times the sum of h over
    explicit matrices diag-plus-shear, one per unipotent coset with
    denominator exponent at most depth.  Warns when the truncation has
    not stabilized.

    The representatives are [[t1, (t1 - t2) j/q^depth], [0, t2]] for
    j < q^depth.  v(t1), v(t2) and v(t1 t2) are read once; each
    representative's corner entry has valuation v(n j) - v(d) - depth,
    where t1 - t2 = n/d, read from the integer n*j.  The least of the
    three entry valuations gives its double coset, and h is summed over
    the count of representatives in each coset."""
    if depth < 0:
        raise ValueError("tree depth = %d is negative: it counts denominator "
                         "exponents >= 0" % depth)
    if not gamma.regular:
        raise ValueError("orbital integral undefined at a singular class")
    if gamma.t1 is None:
        raise ValueError("the tree oracle needs explicit rational entries, "
                         "and q = %d is not a prime" % gamma.field.q)
    q = h.field.q
    t1, t2 = gamma.t1, gamma.t2
    diff = t1 - t2
    diag = min(_valp(t1, q), _valp(t2, q))
    dv = _valp(t1 * t2, q)
    num, shift = diff.numerator, _vint(diff.denominator, q) + depth
    counts = {}
    for j in range(q ** depth):
        d1 = min(diag, _vint(num * j, q) - shift)
        counts[d1] = counts.get(d1, 0) + 1
    total = LaurentQ(0, 0, q)
    for d1, n in counts.items():
        c = h.coeffs.get((dv - d1, d1))
        if c is not None:
            total = total + c * n
    if h.coeffs:
        minb = min(b for (_, b) in h.coeffs)
        deep = min(gamma.m1, gamma.m2, gamma.d - depth - 1)
        tail = any((gamma.m1 + gamma.m2 - e, e) in h.coeffs
                   for e in range(minb, min(deep, min(gamma.m1, gamma.m2)) + 1))
        if tail:
            warnings.warn("tree truncation at depth %d has not stabilized" % depth)
    return gamma.disc_half() * total


def phi_transform(h, a):
    """Phi(a) = H(a) * integral over N of h(a n) dn; defined at singular
    a as well, where the unipotent integral is still finite."""
    if not isinstance(a, SplitClass):
        raise TypeError("need a SplitClass")
    if h.field != a.field:
        raise ValueError("mismatched base fields")
    return n_integral(h, a.m1, a.m2) * a.h_value()


def measure_phi_exponent(h, a):
    """Solve phi = H^x * f_G for x on a class with H != 1; returns the
    measured exponent as a Fraction, or None when the data cannot
    determine it (H = 1 or vanishing orbital)."""
    if a.m1 == a.m2:
        return None
    f = split_orbital(h, a)
    if not f:
        return None
    phi = phi_transform(h, a)
    ratio = phi * f.inverse()
    # expect a pure power of v: ratio = v^k
    if ratio.a and ratio.b:
        return None
    q = a.field.q
    if ratio.b:
        c, k = ratio.b, 1
    else:
        c, k = ratio.a, 0
    while c.numerator % q == 0:
        c, k = c / q, k + 2
    while c.denominator % q == 0:
        c, k = c * q, k - 2
    if c != 1:
        return None
    return Fraction(k, 2 * (a.m2 - a.m1))


def orbital_zeta(gamma, r, N):
    """Coefficients f_G(basic_coeff(r, n), gamma) of t^n, n = 0 .. N."""
    if N < 0:
        raise ValueError("N = %s is negative: a series order is >= 0" % N)
    if not gamma.regular:
        raise ValueError("zeta series needs a regular class")
    field = gamma.field
    return [split_orbital(basic_coeff(r, n, field), gamma) for n in range(N + 1)]


def rational_reconstruct(series, degN, degD):
    """Exact rational fit num/den with deg num <= degN, deg den <= degD
    to the series coefficients c_0 .. c_order, given as a list.

    Fits on the first degN + degD + 1 coefficients and certifies on all
    remaining ones (at least as many again, enforced).  Returns a
    RationalFn, or None when no exact fit exists at these degrees.
    Underdetermined but consistent fitting systems take the particular
    solution with free unknowns set to zero; only inconsistency or a
    failed certification is a failure.
    """
    if degN < 0 or degD < 0:
        raise ValueError("fit degrees (%d, %d) include a negative degree"
                         % (degN, degD))
    c = list(series)
    window = degN + degD + 1
    if len(c) < 2 * window:
        raise ValueError(
            "series order %d too small: need %d coefficients to fit and certify"
            % (len(c) - 1, 2 * window))

    def cc(n):
        return c[n] if 0 <= n < len(c) else LaurentQ(0)

    den = _solve_denominator(cc, degN, degD)
    if den is None:
        return None
    num = []
    for n in range(degN + 1):
        s = cc(n) * den[0]
        for j in range(1, min(n, degD) + 1):
            s = s + den[j] * cc(n - j)
        num.append(s)
    fn = RationalFn(num, den)
    if fn.series(len(c) - 1) != c:
        return None
    return fn


def _solve_denominator(cc, degN, degD):
    " Gaussian elimination for den coefficients q_1..q_degD, q_0 = 1 "
    if degD == 0:
        return [LaurentQ(1)]
    rows = []
    for r in range(degD):
        n = degN + 1 + r
        rows.append([cc(n - j) for j in range(1, degD + 1)] + [-cc(n)])
    m, w = degD, degD + 1
    piv_of_col = [None] * degD
    rank = 0
    for col in range(degD):
        piv = None
        for r in range(rank, m):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        piv_of_col[col] = rank
        rank += 1
    for r in range(rank, m):
        if rows[r][w - 1]:
            return None  # inconsistent: no exact fit
    sol = [LaurentQ(0)] * degD
    for col in range(degD):
        r = piv_of_col[col]
        if r is not None:
            sol[col] = rows[r][w - 1]
    return [LaurentQ(1)] + sol
