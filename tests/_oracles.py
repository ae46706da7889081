"""Code that only tests use: earlier implementations kept as oracles for
the kernels that replaced them (the coset-class count behind Hecke
structure constants, the tree oracle's loop over representatives),
samplers, the character and S-class group evaluations that no
subcommand calls, Hecke elements summed from terms, the trivial Satake
parameter, damaged Hecke structure constants for the convolve
self-check, the residual and one-dimensional sums computed character by
character, and the Eichler-Selberg trace formula as a second path to
tau.  As in gl2trace.chargroup, a character is its exponent tuple, a
group function is the list of its values in group.elements() order, and
a subgroup is given by a list of generators."""

import math
import warnings
from fractions import Fraction

from gl2trace.assembly import NormalizationConstants
from gl2trace.chargroup import (CycloNumber, FiniteAbelianGroup, _add_character,
                                _cyclo_reduce, annihilator, hilbert_symbol,
                                legendre, subgroup_generated)
from gl2trace.chargroup import is_prime
from gl2trace.hecke import (HeckeElement, SatakeParameter, _structure_constants,
                            coset_degree)
from gl2trace.orbital import _entries
from gl2trace.rings import LaurentQ, QiNumber, valuation


# -- characters and cyclotomics ---------------------------------------------


def zeta(L, k=1):
    " zeta_L^k "
    buckets = [0] * L
    buckets[k % L] = 1
    return CycloNumber.from_buckets(L, buckets)


def zeta_exponent(group, exps, g):
    """e with psi(g) = zeta_L^e, L the group exponent, for the character
    psi with exponents exps: e = sum of a_i g_i L/n_i mod L"""
    L = group.exponent
    return sum(a * x * (L // n) for a, x, n in zip(exps, g, group.orders)) % L


def character_value(group, exps, g):
    " psi(g) for the character psi with exponents exps "
    return zeta(group.exponent, zeta_exponent(group, exps, g))


def conj(z):
    " complex conjugation zeta -> zeta^(-1) of a CycloNumber "
    poly = [Fraction(0)] * z.L
    for k, c in enumerate(z.coeffs):
        poly[(-k) % z.L] += c
    return CycloNumber(z.L, _cyclo_reduce(z.L, poly))


# -- group functions and the Poisson check --------------------------------


def parse_group_function_oracle(text):
    """The group-function reader as it was before the one-pass reader:
    each line stripped and split, elements checked by group.contains,
    one Fraction(str) per value line, and totality checked by walking
    every element of the group."""
    group = None
    values = {}
    for num, ln in enumerate(text.splitlines(), 1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        toks = ln.split()
        try:
            if toks[0] == "group":
                if group is not None:
                    raise ValueError("a second group line")
                group = FiniteAbelianGroup(int(x) for x in toks[1:])
            elif toks[0] == "f" and len(toks) == 3:
                if group is None:
                    raise ValueError("the group line must come first")
                elem = tuple(int(x) for x in toks[1].split(","))
                if not group.contains(elem):
                    raise ValueError("element %s is not in the group %s"
                                     % (toks[1], group.orders))
                if elem in values:
                    raise ValueError("duplicate element %s" % toks[1])
                values[elem] = Fraction(toks[2])
            else:
                raise ValueError("want 'group n1 n2 ...' or 'f e1,e2,... value'")
        except ZeroDivisionError:
            raise ValueError("line %d %r: value %s has denominator 0"
                             % (num, ln, toks[2])) from None
        except ValueError as e:
            raise ValueError("line %d %r: %s" % (num, ln, e)) from None
    if group is None:
        raise ValueError("missing group line")
    for g in group.elements():
        if g not in values:
            raise ValueError("function not total: missing %s" % (g,))
    return group, [values[g] for g in group.elements()]


def _to_fraction(v):
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    raise TypeError("fourier needs rational function values, got %r" % (v,))


def fraction_poisson_check(group, gens, f):
    """poisson_check as it was before the integer H-sum, for the subgroup H
    that gens generate: the sum over H is |H| Fraction additions, every
    value is rebuilt as a Fraction, and the dual side divides once per
    value."""
    H = subgroup_generated(group, gens)
    value = dict(zip(group.elements(), f))
    L = group.exponent
    lhs = Fraction(0)
    for h in H:
        lhs += _to_fraction(value[h])
    vals = [_to_fraction(v) for v in f]
    den = math.lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (den // v.denominator) for v in vals]
    buckets = [0] * L
    for exps in annihilator(group, gens):
        _add_character(buckets, ints, group, exps)
    rhs = CycloNumber.from_buckets(L, buckets, Fraction(len(H), den * group.order))
    return CycloNumber.rational(L, lhs), rhs


def sample_poisson_triple(rng, max_order=1024, max_work=1 << 16):
    """Random (group, subgroup generators, list of rational values) with
    |G| <= max_order and the Fourier workload |G|^2/|H| capped; biased
    toward small cyclic orders so exponents stay tame."""
    while True:
        k = rng.randint(1, 4)
        orders = []
        for _ in range(k):
            orders.append(rng.choice([2, 2, 2, 3, 3, 4, 4, 5, 6, 8, 9, 12, 16]))
        g = FiniteAbelianGroup(orders)
        if g.order > max_order:
            continue
        ngen = rng.randint(0, 2)
        gens = [tuple(rng.randrange(n) for n in g.orders) for _ in range(ngen)]
        h = subgroup_generated(g, gens)
        if g.order * g.order // len(h) > max_work:
            continue
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in g.elements()]
        return g, gens, f


def format_group_function(group, f):
    " the text that parse_group_function reads back "
    lines = ["group " + " ".join(str(n) for n in group.orders)]
    for g, v in zip(group.elements(), f):
        lines.append("f %s %s" % (",".join(str(x) for x in g), v))
    return "\n".join(lines) + "\n"


# -- the S-class group ------------------------------------------------------


def section_vector(sgroup, t):
    """Section into the ambient space: the diagonal image with the unit
    bits cleared, so the sign at the archimedean place and p^(val) at
    finite places remain."""
    return tuple(b if kind in ("sign", "val") else 0
                 for b, (_, kind) in zip(sgroup.diagonal_vector(t),
                                         sgroup.bit_labels))


def reduce_vector(sgroup, vec):
    " quotient class of an ambient vector, as an exponent tuple "
    v = list(vec)
    for col, r in sgroup.pivot_cols.items():
        if v[col]:
            v = [(x + y) % 2 for x, y in zip(v, sgroup.echelon_rows[r])]
    if any(v[c] for c in sgroup.pivot_cols):
        raise AssertionError("a pivot bit survived the reduction")
    return tuple(v[i] for i in sgroup.free_idx)


def project(sgroup, t):
    " class of the section of an S-unit t in D_S "
    return reduce_vector(sgroup, section_vector(sgroup, t))


def unit_part(d):
    """the squarefree c with d = c or 4c: the sign of d times the primes
    of odd valuation in d, found by trial division"""
    c, n, p = (-1 if d < 0 else 1), abs(d), 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        c *= p if e % 2 else 1
        p += 1
    return c


def _basis_rep(label):
    " a rational idele component generating the labeled ambient bit "
    v, kind = label
    if kind == "sign":
        return -1
    if kind == "val":
        return v
    if kind == "u7":
        return 7
    if kind == "u5":
        return 5
    # smallest quadratic nonresidue mod v
    for n in range(2, v):
        if legendre(n, v) == -1:
            return n
    raise AssertionError("no nonresidue found")


def char_table(sgroup, d):
    """the F2 exponent of chi_d's Hilbert pairing with each ambient bit of
    sgroup: bit i reads 1 where (c, r_i)_v = -1, for c the unit part of d
    and r_i the rational that generates bit i at its place v"""
    c = unit_part(d)
    return [1 if hilbert_symbol(c, _basis_rep(lbl), lbl[0]) == -1 else 0
            for lbl in sgroup.bit_labels]


def on_element(sgroup, d, g):
    " value of chi_d on an abstract D_S element (exponent tuple), +1 or -1 "
    table = char_table(sgroup, d)
    e = 0
    for x, i in zip(g, sgroup.free_idx):
        if x:
            e ^= table[i]
    return -1 if e else 1


def on_vector(sgroup, d, vec):
    " value of chi_d on an ambient bit vector of sgroup "
    e = 0
    for x, t in zip(vec, char_table(sgroup, d)):
        if x:
            e ^= t
    return -1 if e else 1


def kronecker(a, n):
    " Kronecker symbol (a/n), full integer extension "
    if n == 0:
        return 1 if a in (1, -1) else 0
    out = 1
    if n < 0:
        n = -n
        if a < 0:
            out = -out
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            out = -out
    while True:
        a %= n
        if n == 1:
            return out
        if a == 0:
            return 0
        t = 0
        while a % 2 == 0:
            a //= 2
            t += 1
        if t % 2 and n % 8 in (3, 5):
            out = -out
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a, n = n, a
    # not reached


def quad_char_eval(d, t):
    " Kronecker symbol (d/t), extended multiplicatively to rationals "
    t = Fraction(t)
    if not t:
        raise ValueError("character value at t = 0: t must be nonzero")
    return kronecker(d, t.numerator) * kronecker(d, t.denominator)


# -- Hecke structure constants and the tree oracle -------------------------


def _coset_classes(q, m):
    """Right-coset representatives of K.diag(p^m, 1).K (m >= 0) grouped by
    the data that Smith-form bookkeeping sees: (i, val u, multiplicity)
    with the rep shape [[p^i, u], [0, p^(m-i)]].  val u = None for u = 0."""
    if m == 0:
        return [(0, None, 1)]
    classes = [(0, None, 1)]
    for i in range(1, m):
        classes.append((i, 0, q ** i - q ** (i - 1)))
    classes.append((m, None, 1))
    for w in range(m):
        classes.append((m, w, q ** (m - w) - q ** (m - w - 1)))
    return classes


def class_count_constants(q, m1, m2):
    """hecke._structure_constants as it was before the closed form:
    (f*g)(z) sums f(x) g(x^-1 z) over right-coset representatives x of
    the double coset of diag(p^m1, 1), counted in valuation classes, and
    z = diag(p^(m1+m2-s), p^s) gets the classes where the least Smith
    valuation of x^-1 z is 0."""
    classes = _coset_classes(q, m1)
    out = []
    for s in range(min(m1, m2) + 1):
        n = 0
        for i, w, count in classes:
            terms = [m1 + m2 - s - i, s - m1 + i]
            if w is not None:
                terms.append(w + s - m1)
            if min(terms) == 0:
                n += count
        if n:
            out.append((s, n))
    return out


DAMAGES = ("a count changed", "an entry added", "an entry dropped")


def damaged_constants(which):
    """hecke._structure_constants with damage number `which` of DAMAGES,
    for the convolve self-check: the s = 0 count raised by one, an entry
    (-1, 1) added (its key (m1 + m2 + 1, -1) is dominant, and no true
    count reaches it), or the last entry dropped"""
    def constants(q, m1, m2):
        out = _structure_constants(q, m1, m2)
        if which == 0:
            return [(0, out[0][1] + 1)] + out[1:]
        if which == 1:
            return out + [(-1, 1)]
        return out[:-1]
    return constants


def loop_tree_orbital_oracle(h, gamma, depth):
    """orbital.tree_orbital_oracle as it was before the valuation sieve:
    one rings.valuation of the integer n*j per representative j, counted
    into a dict by double coset, and the same stabilization warning."""
    if depth < 0:
        raise ValueError("tree depth = %d is negative: it counts denominator "
                         "exponents >= 0" % depth)
    q = h.field.q
    if not is_prime(q):
        raise ValueError("the tree oracle needs explicit rational entries, "
                         "and q = %d is not a prime" % q)
    t1, t2 = _entries(gamma)
    diff = t1 - t2
    diag = min(valuation(t1, q)[0], valuation(t2, q)[0])
    dv = valuation(t1 * t2, q)[0]
    num, shift = diff.numerator, valuation(diff.denominator, q)[0] + depth
    counts = {}
    for j in range(q ** depth):
        d1 = min(diag, valuation(num * j, q)[0] - shift)
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


# -- Hecke elements and Satake parameters ----------------------------------


def hecke_sum(field, terms):
    " the Hecke element sum of c * 1_key over the pairs (key, c) of terms "
    coeffs = {}
    for key, c in terms:
        coeffs[key] = coeffs.get(key, 0) + c
    return HeckeElement(field, coeffs)


def trivial_parameter():
    " the Satake parameter (1, 1) "
    return SatakeParameter(QiNumber(1), QiNumber(1))


# -- assembly ---------------------------------------------------------------


def residual_breakdown_oracle(f, symbol=hilbert_symbol):
    """assembly.residual_breakdown as it was before the per-unit tables:
    psi_d(t) is the product over v in S of symbol(c, t, v) for the unit
    part c of d, one Hilbert symbol per character, torus point and place"""
    sg = f.class_group()
    out = []
    for d in sg.quad_chars:
        s = Fraction(0)
        for t, _, pv in f.torus_rows():
            psi = 1
            for v in sg.places:
                psi *= symbol(unit_part(d), t, v)
            s += pv * psi
        out.append((d, -Fraction(1, 4) * s / sg.group.order))
    return out


def one_dim_spectral_oracle(f, constants=None):
    """assembly.one_dim_spectral as the sum over every character of D_S,
    the reference for its trivial-character shortcut: per character and
    place, 0 where p divides d, else the coset-degree sum of h weighted
    by kronecker(d, p) at odd det valuation; chi_d is -1 on the archimedean sign class when d < 0"""
    c = constants or NormalizationConstants()
    mp_, mm = f.phi_profile.mass(1), f.phi_profile.mass(-1)
    total = Fraction(0)
    for d in f.class_group().quad_chars:
        term = Fraction(1)
        for p in f.finite_places:
            if d % p == 0:
                term = Fraction(0)
                break
            h = f.local(p)
            term *= sum(h[key].as_fraction() * coset_degree(h.field, key)
                        * (kronecker(d, p) if sum(key) % 2 else 1)
                        for key in h.support())
        if term:
            total += term * (mp_ + (1 if d > 0 else -1) * mm)
    return total / c.vol_gbar


def format_pieces(pieces):
    " the text that assembly.parse_pieces reads back "
    return ";".join("%s:%s:%s" % (lo, hi, ",".join(str(c) for c in coeffs))
                    for lo, hi, coeffs in pieces)


# -- the tau kernel ---------------------------------------------------------


def byte_slot_bytes(c):
    " least w with 2 m S < 2^(8w-1) for the truncated square of c "
    m = max(map(abs, c))
    s = sum(map(abs, c[:(len(c) + 1) // 2]))
    return (2 * m * s).bit_length() // 8 + 1


def _byte_offsets(off, w, n):
    " n slots of w bytes, each holding off "
    return int.from_bytes(off.to_bytes(w, "little") * n, "little")


def byte_square_truncated(c, chunk=256):
    """The truncated squaring as it was before decimal slots: slots of w
    bytes in one Python int, offsets 2^(8w-1), and the low half of the
    square from lo^2 + 2 B^h (lo hi mod B^(n-h)) with Karatsuba products.
    Empties c once it is packed."""
    n = len(c)
    h = (n + 1) // 2
    w = byte_slot_bytes(c)
    off = 1 << (8 * w - 1)
    buf = bytearray(w * n)
    for i in range(0, n, chunk):
        buf[w * i:w * (i + chunk)] = b"".join(
            [(v + off).to_bytes(w, "little") for v in c[i:i + chunk]])
    c.clear()
    lo = int.from_bytes(buf[:w * h], "little") - _byte_offsets(off, w, h)
    hi = int.from_bytes(buf[w * h:], "little") - _byte_offsets(off, w, n - h)
    del buf
    cross = (lo * hi) & ((1 << (8 * w * (n - h))) - 1)      # lo hi mod B^(n-h)
    sq = lo * lo + (cross << (8 * w * h + 1)) + _byte_offsets(off, w, n)
    del lo, hi, cross
    buf = (sq & ((1 << (8 * w * n)) - 1)).to_bytes(w * n, "little")
    del sq
    return [int.from_bytes(buf[i:i + w], "little") - off
            for i in range(0, w * n, w)]


# -- the Eichler-Selberg trace formula at level one -------------------------


def hurwitz_class_numbers(bound):
    """[H(0), ..., H(bound)]: H(N) counts the SL2(Z)-classes of positive
    definite forms a x^2 + b xy + c y^2 with b^2 - 4ac = -N, the classes
    of a(x^2 + y^2) weighted 1/2 and of a(x^2 + xy + y^2) weighted 1/3,
    with H(0) = -1/12 and H(N) = 0 for N = 1, 2 mod 4.  One sweep over
    the reduced forms |b| <= a <= c (b >= 0 when |b| = a or a = c)."""
    sixths = [0] * (bound + 1)
    a = 1
    while 3 * a * a <= bound:
        for b in range(-a + 1, a + 1):
            c = a if b >= 0 else a + 1
            while 4 * a * c - b * b <= bound:
                if a == c == b:
                    sixths[4 * a * c - b * b] += 2
                elif a == c and b == 0:
                    sixths[4 * a * c - b * b] += 3
                else:
                    sixths[4 * a * c - b * b] += 6
                c += 1
        a += 1
    h = [Fraction(v, 6) for v in sixths]
    h[0] = Fraction(-1, 12)
    return h


def eichler_selberg_trace(k, n, h):
    """tr T_n on S_k(SL2(Z)) for even k >= 2, from the geometric side:

        -1/2 sum_{t^2 <= 4n} P_k(t, n) H(4n - t^2)
        - 1/2 sum_{dd' = n} min(d, d')^(k-1) + [k = 2] sigma(n),

    with P_k(t, n) = u_(k-1), u_0 = 0, u_1 = 1, u_j = t u_(j-1) - n u_(j-2),
    and h = hurwitz_class_numbers(N) for some N >= 4n."""
    elliptic = Fraction(0)
    t = 0
    while t * t <= 4 * n:
        u0, u1 = 0, 1
        for _ in range(k - 2):
            u0, u1 = u1, t * u1 - n * u0
        # P_k is even in t for even k, so t and -t count alike
        elliptic += (1 if t == 0 else 2) * u1 * h[4 * n - t * t]
        t += 1
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    hyperbolic = sum(min(d, n // d) ** (k - 1) for d in divisors)
    trace = -elliptic / 2 - Fraction(hyperbolic, 2)
    if k == 2:
        trace += sum(divisors)
    return trace
