"""Finite abelian Fourier analysis and the quadratic idele class model.

Two layers.  The abstract layer: finite abelian groups as tuples of
cyclic orders, characters valued in exact cyclotomics, Fourier sums,
and the finite Poisson identity; there an element or a character is an
exponent tuple, a group function is its list of values in elements()
order, and a subgroup is a list of generators.  A pairing of one fixed
tuple with every element, in elements() order, is built axis by axis as
an outer sum (_linear_residues): the zeta exponents of a character for a
Fourier sum, and the pairings of a generator with every character for an
annihilator.  Function values are read by rings.rational, which returns
what Fraction(str) returns without its regular expression.

The arithmetic layer: the group D_S = prod over v in S of Q_v^x /
squares, modulo the diagonal S-units H_S.  Its characters are the
annihilator of H_S under the Hilbert pairing.  Each is the quadratic
character of a fundamental discriminant d supported in S and is held as
the int d.  Hilbert reciprocity names them: every c in <-1, p in S>
when 2 is in S, otherwise exactly those with c = 1 mod 4.
"""

import itertools
import math
from fractions import Fraction
from operator import contains, not_, or_

from .rings import rational, valuation

INF_PLACE = "inf"


# -- exact cyclotomics --------------------------------------------------

_CYCLO_CACHE = {}


def cyclotomic_poly(L):
    " coefficients of the L-th cyclotomic polynomial, ascending, exact "
    if L in _CYCLO_CACHE:
        return _CYCLO_CACHE[L]
    poly = [-1] + [0] * (L - 1) + [1]   # x^L - 1
    for d in range(1, L):
        if L % d:
            continue
        phi_d = cyclotomic_poly(d)
        poly = _poly_divexact(poly, phi_d)
    _CYCLO_CACHE[L] = poly
    return poly


def _poly_divexact(num, den):
    num = list(num)
    dd = len(den) - 1
    if den[dd] != 1:
        raise RuntimeError("cyclotomic divisors are monic")
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num[:dd]):
        raise RuntimeError("inexact cyclotomic division")
    return out


class CycloNumber:
    """Element of Q(zeta_L), reduced mod the L-th cyclotomic polynomial."""

    __slots__ = ("L", "coeffs")

    def __init__(self, L, coeffs):
        " coeffs: iterable over the power basis 1..zeta^(phi(L)-1), already reduced "
        deg = len(cyclotomic_poly(L)) - 1
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != deg:
            raise ValueError("an element of Q(zeta_%d) takes %d coefficients, got %d"
                             % (L, deg, len(coeffs)))
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("CycloNumber is immutable")

    @classmethod
    def from_buckets(cls, L, buckets, scale=1):
        """scale * (sum of buckets[e] * zeta^e) for a list of L integers
        indexed by exponent: one integer reduction, one rescaling"""
        return cls(L, (c * scale for c in _cyclo_reduce(L, buckets)))

    @classmethod
    def rational(cls, L, c):
        deg = len(cyclotomic_poly(L)) - 1
        return cls(L, (Fraction(c),) + (Fraction(0),) * (deg - 1))

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.L != self.L:
                raise ValueError("mixed cyclotomic levels %d and %d" % (self.L, other.L))
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNumber.rational(self.L, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNumber(self.L, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
        return CycloNumber(self.L, _cyclo_reduce(self.L, out))

    __rmul__ = __mul__

    @property
    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.L, self.coeffs))

    def __repr__(self):
        if self.is_rational:
            return str(self.coeffs[0])
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append("%s*z%d^%d" % (c, self.L, k) if k else str(c))
        return " + ".join(terms)


def _cyclo_reduce(L, poly):
    """poly mod the L-th cyclotomic polynomial, padded to its degree; exact
    over any coefficient type, and integer coefficients stay integers"""
    phi = cyclotomic_poly(L)
    deg = len(phi) - 1
    # phi is monic: x^deg = -(the lower terms), and most of them are 0
    lower = [(j - deg, a) for j, a in enumerate(phi[:deg]) if a]
    work = list(poly)
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            for j, a in lower:
                work[k + j] -= c * a
    return tuple(work[:deg]) + (0,) * (deg - len(work))


# -- finite abelian groups ---------------------------------------------


class FiniteAbelianGroup:
    """Product of cyclic groups; elements are exponent tuples."""

    __slots__ = ("orders", "_exponent")

    def __init__(self, orders):
        orders = tuple(int(n) for n in orders)
        for n in orders:
            if n < 1:
                raise ValueError("cyclic order %d is not >= 1" % n)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "_exponent", math.lcm(*orders))

    def __setattr__(self, *_):
        raise AttributeError("FiniteAbelianGroup is immutable")

    @property
    def order(self):
        out = 1
        for n in self.orders:
            out *= n
        return out

    @property
    def exponent(self):
        return self._exponent

    def identity(self):
        return (0,) * len(self.orders)

    def elements(self):
        return itertools.product(*(range(n) for n in self.orders))

    def index(self, g):
        " the position of g in elements() order "
        i = 0
        for a, n in zip(g, self.orders):
            i = i * n + a
        return i

    def add(self, g1, g2):
        return tuple((a + b) % n for a, b, n in zip(g1, g2, self.orders))

    def contains(self, g):
        return (len(g) == len(self.orders)
                and all(0 <= a < n for a, n in zip(g, self.orders)))

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and other.orders == self.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return "FiniteAbelianGroup%s" % (self.orders,)


def _first_missing(orders, values):
    """the first element, in elements() order, that values lacks, for
    values short of the group order: an odometer walk that builds no axis,
    so it stops within len(values) + 1 steps however large the group"""
    g = [0] * len(orders)
    while tuple(g) in values:
        i = len(g) - 1
        while g[i] == orders[i] - 1:
            g[i] = 0
            i -= 1
        g[i] += 1
    return tuple(g)


def _integer_values(group, f):
    """(D, values times D as ints, in element order), D the least common
    denominator of the values: one division per distinct denominator"""
    if len(f) != group.order:
        raise ValueError("%d values for a group of order %d" % (len(f), group.order))
    vals = [_rational(v) for v in f]
    dens = {v.denominator for v in vals}
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    return den, [v.numerator * scale[v.denominator] for v in vals]


def _rational(v):
    if isinstance(v, (int, Fraction)):
        return v
    raise TypeError("fourier needs rational function values, got %r" % (v,))


def _linear_residues(orders, coeffs, L):
    """[sum of c_i x_i mod L for x in elements() order] for the cyclic
    orders n_i and coefficients c_i: an outer sum, built axis by axis"""
    out = [0]
    for c, n in zip(coeffs, orders):
        steps = [k * c for k in range(n)]
        out = [(e + s) % L for e in out for s in steps]
    return out


def _add_character(buckets, ints, group, exps):
    """buckets[e] += ints[g] wherever conj(psi(g)) = zeta_L^e, for the
    character psi with exponents exps; ints in element order"""
    L = group.exponent
    expo = _linear_residues(group.orders,
                            [-a * (L // n) for a, n in zip(exps, group.orders)], L)
    for e, v in zip(expo, ints):
        buckets[e] += v


def fourier(group, f, exps):
    """F(psi) = sum over g of f(g) * conj(psi(g)), exact, for f a list of
    rational values in group.elements() order and psi the character with
    exponent tuple exps, psi(g) = zeta_L^(sum of a_i g_i L/n_i).  The
    values, scaled to integers, accumulate in zeta-exponent buckets, and
    one integer reduction mod the cyclotomic polynomial follows."""
    if not group.contains(exps):
        raise ValueError("character exponents %s are not an element of the group %s"
                         % (tuple(exps), group.orders))
    den, ints = _integer_values(group, f)
    buckets = [0] * group.exponent
    _add_character(buckets, ints, group, exps)
    return CycloNumber.from_buckets(group.exponent, buckets, Fraction(1, den))


def subgroup_generated(group, gens):
    " closure of a generator list; elements as a sorted tuple "
    seen = {group.identity()}
    frontier = [group.identity()]
    gens = [tuple(g) for g in gens]
    for g in gens:
        if not group.contains(g):
            raise ValueError("generator %s is not an element of the group %s"
                             % (",".join(map(str, g)), group.orders))
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.add(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return tuple(sorted(seen))


def annihilator(group, gens):
    """exponent tuples of the characters trivial on the subgroup that gens
    generate, in element order: a character is trivial there exactly
    when it is trivial on each generator.  For each generator h, the
    pairings <a, h> = sum of a_i h_i L/n_i mod L of all characters a come
    as one list in element order (_linear_residues); a character is kept
    where every generator's list reads 0."""
    L = group.exponent
    hits = [0] * group.order
    for h in gens:
        pairing = _linear_residues(group.orders,
                                   [x * (L // n) for x, n in zip(h, group.orders)], L)
        hits = list(map(or_, hits, pairing))
    return list(itertools.compress(group.elements(), map(not_, hits)))


def poisson_check(group, gens, f):
    """Finite Poisson summation for f, a list of values in
    group.elements() order, and H the subgroup that gens generate:
    returns the two sides (sum of f over H, |H|/|G| times the sum of
    fourier(f) over the annihilator of H); they agree as exact cyclotomic
    numbers.  Both sides work on the values scaled to integers over one
    common denominator D.  The sum over H adds the integer numerators of
    the values on H and divides by D once.  Fourier is linear, so the
    buckets of every annihilator character go into one integer list,
    reduced and rescaled once."""
    H = subgroup_generated(group, gens)
    L = group.exponent
    on_h = [_rational(f[group.index(h)]) for h in H]   # a bad value on H is named first
    den, ints = _integer_values(group, f)
    lhs = Fraction(sum(v.numerator * (den // v.denominator) for v in on_h), den)
    buckets = [0] * L
    for exps in annihilator(group, gens):
        _add_character(buckets, ints, group, exps)
    rhs = CycloNumber.from_buckets(L, buckets, Fraction(len(H), den * group.order))
    return CycloNumber.rational(L, lhs), rhs


# -- arithmetic symbols -------------------------------------------------


def legendre(a, p):
    " quadratic residue symbol mod an odd prime "
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _square_class_int(x):
    " numerator * denominator of a nonzero rational x: in its square class "
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    n = x.numerator * x.denominator
    if not n:
        raise ValueError("expected a nonzero rational, got %s" % x)
    return n


def hilbert_symbol(a, b, place):
    """Hilbert symbol (a, b)_v over Q; place is 'inf' or a prime.  a and
    b are nonzero ints or Fractions, or any value Fraction() accepts,
    such as the string '3/5'; a zero argument raises ValueError."""
    ai, bi = _square_class_int(a), _square_class_int(b)
    if place == INF_PLACE:
        return -1 if ai < 0 and bi < 0 else 1
    p = place
    alpha, u = valuation(ai, p)     # u keeps the sign of a
    beta, w = valuation(bi, p)
    if p == 2:
        eps_u = ((u - 1) // 2) % 2
        eps_w = ((w - 1) // 2) % 2
        om_u = ((u * u - 1) // 8) % 2
        om_w = ((w * w - 1) // 8) % 2
        e = (eps_u * eps_w + alpha * om_w + beta * om_u) % 2
        return -1 if e else 1
    s = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        s = -s
    if beta % 2 and legendre(u % p, p) == -1:
        s = -s
    if alpha % 2 and legendre(w % p, p) == -1:
        s = -s
    return s


# -- the S-class group D_S ----------------------------------------------


def is_prime(n):
    " trial division "
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _places_key(v):
    return (-1, 0) if v == INF_PLACE else (0, v)


def normalize_places(S):
    " canonical place list: 'inf' first, then primes ascending "
    out = []
    for v in S:
        try:
            out.append(INF_PLACE if v in (INF_PLACE, "oo", "real", 0) else int(v))
        except ValueError:
            raise ValueError("place %r is neither %s nor an integer"
                             % (v, INF_PLACE)) from None
    out = sorted(set(out), key=_places_key)
    if not out or out[0] != INF_PLACE:
        raise ValueError("place set %s lacks the archimedean place %s"
                         % (",".join(map(str, out)), INF_PLACE))
    for p in out[1:]:
        if not is_prime(p):
            raise ValueError("place %d is not a prime" % p)
    return out


def _unit_bits_2(u):
    " F2 coordinates of an odd integer's class in Z_2-units mod squares "
    u %= 8
    return ((1 if u in (3, 7) else 0), (1 if u in (3, 5) else 0))


def local_square_class(t, place):
    " F2 coordinate tuple of t in Q_v^x / (Q_v^x)^2 "
    n = _square_class_int(t)
    if place == INF_PLACE:
        return (1 if n < 0 else 0,)
    p = place
    val, u = valuation(n, p)
    if p == 2:
        b1, b2 = _unit_bits_2(u)
        return (val % 2, b1, b2)
    return (val % 2, 0 if legendre(u % p, p) == 1 else 1)


def _bit_labels(places):
    out = []
    for v in places:
        if v == INF_PLACE:
            out.append((v, "sign"))
        elif v == 2:
            out.extend([(2, "val"), (2, "u7"), (2, "u5")])
        else:
            out.extend([(v, "val"), (v, "nonres")])
    return out


class SClassGroup:
    """Finite model of the quadratic idele class quotient at level S.

    Ambient space: the F2 vector space G_S = prod over v in S of
    Q_v^x/(Q_v^x)^2, with labeled coordinates.  H_S is the span of the
    diagonal images of -1 and the finite primes of S; the quotient D_S
    is presented on the free coordinates left by eliminating H_S (the
    echelon_rows, one per pivot column, reduce an ambient vector to its
    class).  Its dual, quad_chars, is the annihilator of H_S under the
    Hilbert pairing: the functionals x -> prod over v of (c, x_v)_v, for
    c in <-1, p in S>, that vanish on H_S, each held as its discriminant
    d (c, or 4c when c is not 1 mod 4), by |d| with d > 0 first: by
    reciprocity, every c when 2 is in S, else the c = 1 mod 4.  The
    group is self.group, on the ambient bits bit_labels[i], i in free_idx."""

    def __init__(self, S):
        self.places = normalize_places(S)
        self.bit_labels = _bit_labels(self.places)
        self.nbits = len(self.bit_labels)
        self.hgens = [self.diagonal_vector(u) for u in [-1] + self.places[1:]]
        self._echelon()
        free = [i for i in range(self.nbits) if i not in self.pivot_cols]
        self.free_idx = free
        self.group = FiniteAbelianGroup((2,) * len(free))
        self._build_dual()

    # ambient vectors ---------------------------------------------------

    def diagonal_vector(self, t):
        " full diagonal image of an S-unit t: unit parts included at every place "
        t = Fraction(t)
        n = abs(t.numerator * t.denominator)
        for p in self.places[1:]:
            n = valuation(n, p)[1]
        if n != 1:
            raise ValueError("%s is not an S-unit for S = %s" % (t, self.places))
        return tuple(b for v in self.places for b in local_square_class(t, v))

    # quotient ----------------------------------------------------------

    def _echelon(self):
        rows = [list(v) for v in self.hgens]
        pivots = {}
        r = 0
        for col in range(self.nbits):
            sel = None
            for i in range(r, len(rows)):
                if rows[i][col]:
                    sel = i
                    break
            if sel is None:
                continue
            rows[r], rows[sel] = rows[sel], rows[r]
            for i in range(len(rows)):
                if i != r and rows[i][col]:
                    rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[r])]
            pivots[col] = r
            r += 1
        self.echelon_rows = rows[:r]
        self.pivot_cols = pivots

    # dual --------------------------------------------------------------

    def _build_dual(self):
        """Keep the c in <-1, p in S> that vanish on H_S.  By reciprocity,
        prod over v in S of (c, u)_v, for an S-unit u, is the product over
        v outside S, where c and u are units: 1 at odd v, and (-1)^(e(c)e(u))
        at 2, e(x) = (x - 1)/2 mod 2.  So every c is kept when 2 is in S,
        and otherwise, as u = -1 has e = 1, exactly the c = 1 mod 4."""
        units = [-1] + self.places[1:]
        chars = []
        for mask in itertools.product((0, 1), repeat=len(units)):
            c = math.prod(itertools.compress(units, mask))
            if c % 4 == 1 or 2 in self.places:
                chars.append(c if c % 4 == 1 else 4 * c)
        chars.sort(key=lambda d: (abs(d), d < 0))
        self.quad_chars = chars
        if len(chars) != self.group.order:
            raise RuntimeError("dual size %d does not match group order %d"
                               % (len(chars), self.group.order))

    def __repr__(self):
        return "SClassGroup(S=%s, D=(Z/2)^%d)" % (self.places, len(self.free_idx))


def class_group_mod_squares(S):
    " labeled finite model of the quadratic idele class group at level S "
    return SClassGroup(S)


# -- text formats -------------------------------------------------------


def parse_group_function(text):
    """(group, values in group.elements() order) from a 'group n1 n2 ...'
    header plus 'f e1,e2,... value' lines.  ValueError names a bad line by
    number, or else the first missing element, found with no walk over the
    group.  One pass: each line is split once, an element's coordinates
    are checked against the cyclic orders (no element set is built), and
    each distinct value token is read by rings.rational once per call."""
    group = None
    values = {}
    read = {}   # value token -> its Fraction, for this call only
    for num, ln in enumerate(text.splitlines(), 1):
        toks = ln.split()
        if not toks or toks[0][0] == "#":
            continue
        try:
            if toks[0] == "f" and len(toks) == 3:
                if group is None:
                    raise ValueError("the group line must come first")
                elem = tuple(map(int, toks[1].split(",")))
                if len(elem) != len(axes) or not all(map(contains, axes, elem)):
                    raise ValueError("element %s is not in the group %s"
                                     % (toks[1], group.orders))
                if elem in values:
                    raise ValueError("duplicate element %s" % toks[1])
                v = read.get(toks[2])
                if v is None:
                    v = read[toks[2]] = rational(toks[2])
                values[elem] = v
            elif toks[0] == "group":
                if group is not None:
                    raise ValueError("a second group line")
                group = FiniteAbelianGroup(int(x) for x in toks[1:])
                axes = [range(n) for n in group.orders]
            else:
                raise ValueError("want 'group n1 n2 ...' or 'f e1,e2,... value'")
        except ZeroDivisionError:
            raise ValueError("line %d %r: value %s has denominator 0"
                             % (num, ln.strip(), toks[2])) from None
        except ValueError as e:
            raise ValueError("line %d %r: %s" % (num, ln.strip(), e)) from None
    if group is None:
        raise ValueError("missing group line")
    if len(values) < group.order:   # checked before any walk over the group
        raise ValueError("function not total: missing %s"
                         % (_first_missing(group.orders, values),))
    return group, [values[g] for g in group.elements()]
