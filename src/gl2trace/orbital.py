"""Unweighted orbital integrals at split classes, the Phi transform,
orbital zeta series, and exact rational reconstruction.

A regular split class gamma = diag(t1, t2) enters every integral here
only through its valuation triple: m1 = v(t1), m2 = v(t2) and
d = v(t1 - t2).  The normalized orbital integral of a spherical h
collapses, after Iwasawa reduction, to

    f_G(gamma) = delta^(1/2)(gamma) * integral over N of h(gamma n) dn,

which the unipotent-integral casework evaluates exactly; the tree
oracle recomputes it by brute-force summation over explicit matrices,
whose entries it builds from the triple.  It reads each
representative's own valuation off a sieve and never the closed-form
coset counts (q - 1) q^k that n_integral sums, so the two paths stay
independent.
"""

import warnings
from collections import Counter
from fractions import Fraction

from .basicfn import RationalFn, basic_coeff
from .chargroup import is_prime
from .hecke import n_integral
from .rings import LaurentQ, valuation


class SplitClass:
    """Regular split torus class, described by the valuations m1, m2 of
    its entries and the valuation d of their difference (the only data
    the integrals see).  d defaults to the least value the class
    realizes: min(m1, m2), or m1 + 1 for m1 = m2 at q = 2."""

    __slots__ = ("field", "m1", "m2", "d")

    def __init__(self, field, m1, m2, d=None):
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
            if d < least:
                raise ValueError("d = %s not realizable at q = %s" % (d, q))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "m2", m2)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *_):
        raise AttributeError("SplitClass is immutable")

    def h_value(self):
        " H(gamma) = |t1/t2| as an exact rational "
        return Fraction(self.field.q) ** (self.m2 - self.m1)

    def disc_half(self):
        " |D(gamma)|^(1/2) in LaurentQ "
        return LaurentQ.v_power(self.m1 + self.m2 - 2 * self.d, self.field.q)

    def __repr__(self):
        return "SplitClass(m1=%d, m2=%d, d=%d, q=%d)" % (self.m1, self.m2, self.d, self.field.q)


def split_orbital(h, gamma):
    """Normalized orbital integral f_G(gamma), exact.

    Depends only on (m1, m2) through the unipotent integral; the
    discriminant factor cancels against the measure of the tree."""
    if not isinstance(gamma, SplitClass):
        raise TypeError("need a SplitClass")
    if h.field != gamma.field:
        raise ValueError("mismatched base fields")
    q = h.field.q
    return LaurentQ.v_power(gamma.m2 - gamma.m1, q) * n_integral(h, gamma.m1, gamma.m2)


def _entries(gamma):
    """rational t1, t2 with valuations m1, m2 and v(t1 - t2) = d: powers
    of q, and for m1 = m2 the entries q^m1 and -q^m1 (d = m1, q odd) or
    q^m1 (1 - q^(d - m1)) (d > m1)"""
    q = gamma.field.q
    t1 = Fraction(q) ** gamma.m1
    if gamma.m1 != gamma.m2:
        return t1, Fraction(q) ** gamma.m2
    if gamma.d == gamma.m1:
        return t1, -t1
    return t1, t1 * (1 - Fraction(q) ** (gamma.d - gamma.m1))


def tree_orbital_oracle(h, gamma, depth):
    """Brute-force orbital integral: |D|^(1/2) times the sum of h over
    explicit matrices diag-plus-shear, one per unipotent coset with
    denominator exponent at most depth.  Warns when the truncation has
    not stabilized.

    The representatives are [[t1, (t1 - t2) j/q^depth], [0, t2]] for
    j < q^depth, with t1, t2 built from the class's valuation triple.
    v(t1), v(t2), v(t1 t2) and v(t1 - t2) are read once; each
    representative's corner entry has valuation v(t1 - t2) + v(j) - depth,
    with v(j) from _valuation_counts (infinite for j = 0).  The least of
    the three entry valuations gives its double coset, and h is summed
    over the count of representatives in each coset."""
    if depth < 0:
        raise ValueError("tree depth = %d is negative: it counts denominator "
                         "exponents >= 0" % depth)
    q = h.field.q
    if not is_prime(q):
        raise ValueError("the tree oracle needs explicit rational entries, "
                         "and q = %d is not a prime" % q)
    t1, t2 = _entries(gamma)
    diag = min(valuation(t1, q)[0], valuation(t2, q)[0])
    dv = valuation(t1 * t2, q)[0]
    corner = valuation(t1 - t2, q)[0] - depth
    counts = Counter({diag: 1})   # j = 0
    for vj, n in _valuation_counts(q, q ** depth).items():
        counts[min(diag, corner + vj)] += n
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


SIEVE_BLOCK = 1 << 16   # integers per block of _valuation_counts


def _valuation_counts(q, end):
    """Counter of v(j), the exponent of q in j, over 0 < j < end, from
    blocks of at most SIEVE_BLOCK integers, so memory stays bounded."""
    counts = Counter()
    for start in range(1, end, SIEVE_BLOCK):
        counts.update(_sieve(q, start, min(SIEVE_BLOCK, end - start)))
    return counts


def _sieve(q, start, size):
    """v(j) for start <= j < start + size (start > 0), one byte each: the
    multiples of q, q^2, ... are marked 1, 2, ... by slice assignment,
    so every j gets its own valuation."""
    vals = bytearray(size)
    k, qk = 1, q
    while qk < start + size:
        first = -start % qk
        vals[first::qk] = bytearray((k,)) * len(range(first, size, qk))
        k, qk = k + 1, qk * q
    return vals


def phi_transform(h, a):
    """Phi(a) = H(a) * integral over N of h(a n) dn."""
    if not isinstance(a, SplitClass):
        raise TypeError("need a SplitClass")
    if h.field != a.field:
        raise ValueError("mismatched base fields")
    return n_integral(h, a.m1, a.m2) * a.h_value()


def measure_phi_exponent(a, phi, f):
    """Solve phi = H^x * f for x on the class a with H != 1, given
    phi = Phi(a) and f = f_G(a) of one h; returns the measured exponent
    as a Fraction, or None when the data cannot determine it (H = 1 or
    vanishing orbital)."""
    if a.m1 == a.m2 or not f:
        return None
    ratio = phi * f.inverse()
    # expect a pure power of v: ratio = v^k
    if ratio.a and ratio.b:
        return None
    j, c = valuation(ratio.b or ratio.a, a.field.q)
    if c != 1:
        return None
    return Fraction(2 * j + (1 if ratio.b else 0), 2 * (a.m2 - a.m1))


def orbital_zeta(gamma, r, N):
    """Coefficients f_G(basic_coeff(r, n), gamma) of t^n, n = 0 .. N."""
    if N < 0:
        raise ValueError("N = %s is negative: a series order is >= 0" % N)
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
