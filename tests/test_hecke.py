"""Hecke algebra tests against a brute-force matrix oracle.

The oracle works with explicit 2x2 matrices over Fractions and decides
everything by p-adic valuations: membership in K, Smith type of a coset,
and convolution values counted rep by rep.  Nothing here shares code
with the class-based counting in the package.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import gl2trace
from gl2trace import hecke
from gl2trace.hecke import (HeckeElement, HomomorphismError, LocalField,
                            SatakeParameter, SymLaurent, _structure_constants,
                            convolve, coset_degree, inverse_satake, n_integral,
                            satake_transform, spherical_trace)
from gl2trace.rings import LaurentQ, QiNumber

from _oracles import (DAMAGES, _coset_classes, class_count_constants,
                      damaged_constants, trivial_parameter)

INF = 10 ** 9


def valp(x, p):
    x = Fraction(x)
    if x == 0:
        return INF
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def mat_mul(x, y):
    return ((x[0][0] * y[0][0] + x[0][1] * y[1][0],
             x[0][0] * y[0][1] + x[0][1] * y[1][1]),
            (x[1][0] * y[0][0] + x[1][1] * y[1][0],
             x[1][0] * y[0][1] + x[1][1] * y[1][1]))


def mat_inv(x):
    d = x[0][0] * x[1][1] - x[0][1] * x[1][0]
    assert d != 0
    return ((x[1][1] / d, -x[0][1] / d), (-x[1][0] / d, x[0][0] / d))


def in_K(x, p):
    " integral with unit determinant "
    if any(valp(e, p) < 0 for row in x for e in row):
        return False
    return valp(x[0][0] * x[1][1] - x[0][1] * x[1][0], p) == 0


def smith_type(x, p):
    " elementary-divisor exponents as a dominant pair (a, b) "
    d1 = min(valp(e, p) for row in x for e in row)
    det = x[0][0] * x[1][1] - x[0][1] * x[1][0]
    assert det != 0
    return (valp(det, p) - d1, d1)


def random_unit(rng, p):
    while True:
        x = ((rng.randrange(-3 * p, 3 * p), rng.randrange(-3 * p, 3 * p)),
             (rng.randrange(-3 * p, 3 * p), rng.randrange(-3 * p, 3 * p)))
        det = x[0][0] * x[1][1] - x[0][1] * x[1][0]
        if det != 0 and valp(det, p) == 0:
            return ((Fraction(x[0][0]), Fraction(x[0][1])),
                    (Fraction(x[1][0]), Fraction(x[1][1])))


def coset_decomposition(field, key):
    """Canonical upper-triangular representatives x with
    K.diag(p^a, p^b).K = disjoint union of x.K, the reference for
    coset_degree.

    Representatives are [[p^i, u], [0, p^j]] with i + j = a + b,
    u running over residues mod p^i whose valuation keeps the
    elementary-divisor type equal to (a, b); entries are Fractions
    when b < 0.
    """
    a, b = key
    q = field.q
    m = a - b
    scale = Fraction(q) ** b
    if m == 0:
        return [((scale, Fraction(0)), (Fraction(0), scale))]
    reps = []
    for i in range(m + 1):
        if i == 0:
            us = [0]
        elif i < m:
            us = [u for u in range(1, q ** i) if u % q != 0]
        else:
            us = range(q ** m)
        pi, pj = Fraction(q) ** i, Fraction(q) ** (m - i)
        for u in us:
            reps.append(((pi * scale, u * scale), (Fraction(0), pj * scale)))
    return reps


CASES = [(2, (1, 0)), (2, (2, 0)), (2, (2, 1)), (2, (3, 0)),
         (3, (1, 0)), (3, (2, 0)), (3, (1, -1)), (5, (1, 0))]


@pytest.mark.parametrize("q,key", CASES)
def test_coset_reps_count_and_type(q, key):
    field = LocalField(q)
    reps = coset_decomposition(field, key)
    m = key[0] - key[1]
    expected = 1 if m == 0 else q ** (m - 1) * (q + 1)
    assert len(reps) == expected == coset_degree(field, key)
    for r in reps:
        assert r[1][0] == 0
        assert smith_type(r, q) == key


@pytest.mark.parametrize("q,key", CASES)
def test_coset_reps_disjoint(q, key):
    field = LocalField(q)
    reps = coset_decomposition(field, key)
    for i, r1 in enumerate(reps):
        inv = mat_inv(r1)
        for r2 in reps[i + 1:]:
            assert not in_K(mat_mul(inv, r2), q)


@pytest.mark.parametrize("q,key", [(2, (1, 0)), (2, (2, 0)), (3, (1, 0)),
                                   (3, (2, 1)), (2, (1, -1))])
def test_coset_reps_cover(q, key):
    " random K diag K points land in exactly one right coset "
    rng = random.Random(1000 + 7 * q + key[0])
    field = LocalField(q)
    reps = coset_decomposition(field, key)
    diag = ((Fraction(q) ** key[0], Fraction(0)), (Fraction(0), Fraction(q) ** key[1]))
    for _ in range(25):
        g = mat_mul(mat_mul(random_unit(rng, q), diag), random_unit(rng, q))
        hits = sum(1 for r in reps if in_K(mat_mul(mat_inv(r), g), q))
        assert hits == 1


def oracle_convolve(field, key1, key2):
    " (char1 * char2)(z) counted over explicit matrix representatives "
    q = field.q
    reps = coset_decomposition(field, key1)
    dd = sum(key1) + sum(key2)
    out = {}
    for bz in range(key1[1] + key2[1], dd // 2 + 1):
        az = dd - bz
        z = ((Fraction(q) ** az, Fraction(0)), (Fraction(0), Fraction(q) ** bz))
        n = sum(1 for r in reps if smith_type(mat_mul(mat_inv(r), z), q) == key2)
        if n:
            out[(az, bz)] = n
    return out


@pytest.mark.parametrize("q,key1,key2", [
    (2, (1, 0), (1, 0)),
    (2, (2, 0), (1, 0)),
    (2, (1, 0), (2, 0)),
    (2, (1, 0), (1, -1)),
    (2, (2, 1), (1, 0)),
    (3, (1, 0), (1, 0)),
    (3, (1, 0), (2, 1)),
    (3, (2, 0), (1, 0)),
    (5, (1, 0), (1, 0)),
    # a - b up to 4 and shifted or negative b, in both orders: the
    # translation by diag(p^(b1+b2), p^(b1+b2)) that convolve's table of
    # structure constants relies on, against explicit matrices
    (2, (3, 1), (2, -1)),
    (3, (3, 1), (2, -1)),
    (3, (2, -1), (3, 1)),
    (2, (2, -2), (3, 0)),
    (3, (2, -2), (3, 0)),
    (2, (3, 0), (3, 0)),
    (3, (3, 0), (3, 0)),
    (3, (0, -3), (1, 1)),
    (2, (1, 1), (3, 0)),
])
def test_convolution_matches_matrix_oracle(q, key1, key2):
    field = LocalField(q)
    got = convolve(HeckeElement.char(field, key1), HeckeElement.char(field, key2))
    want = oracle_convolve(field, key1, key2)
    assert {k: c for k, c in got.coeffs.items()} == \
        {k: LaurentQ(n, 0, q) for k, n in want.items()}


def loop_convolve(h1, h2):
    """The coset-class count of convolve with LaurentQ arithmetic per
    term: each key pair adds c1*c2*n to a LaurentQ per output key."""
    q = h1.field.q
    out = {}
    for (a1, b1), c1 in h1.coeffs.items():
        m1 = a1 - b1
        classes = _coset_classes(q, m1)
        for (a2, b2), c2 in h2.coeffs.items():
            c = c1 * c2
            dd = a1 + b1 + a2 + b2
            for bz in range(b1 + b2, (dd + 1) // 2 + (dd % 2 == 0)):
                az = dd - bz
                if az < bz or az > a1 + a2:
                    continue
                n = 0
                for i, w, count in classes:
                    terms = [az - b1 - i, bz - b1 - (m1 - i)]
                    if w is not None:   # val u, None for u = 0
                        terms.append(w + bz - b1 - m1)
                    if min(terms) == b2:
                        n += count
                if n:
                    key = (az, bz)
                    out[key] = out.get(key, LaurentQ(0, 0, q)) + c * n
    return HeckeElement(h1.field, out)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_convolve_matches_loop_oracle(q):
    """Integer accumulation against the LaurentQ loop: random elements
    with v-parts and negative keys, the empty element, and a sum that
    cancels to 0 on one key"""
    rng = random.Random(1300 + q)
    field = LocalField(q)
    hs = [random_hecke(rng, field) for _ in range(12)] + [HeckeElement(field)]
    for h1 in hs:
        for h2 in hs[::3]:
            assert convolve(h1, h2) == loop_convolve(h1, h2)
    # (T_p - (q+1) 1_(1,1)) * (T_p + 1): T_p*T_p puts q + 1 on (1, 1),
    # and -(q+1) 1_(1,1) * 1 takes it off again
    h1 = HeckeElement(field, {(1, 0): 1, (1, 1): -(q + 1)})
    h2 = HeckeElement(field, {(1, 0): 1, (0, 0): 1})
    want = {(2, 0): 1, (1, 0): 1, (2, 1): -(q + 1)}
    assert convolve(h1, h2) == loop_convolve(h1, h2) == HeckeElement(field, want)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25])
def test_structure_constants_match_class_count(q):
    """Macdonald's closed form against the coset-class count it replaced,
    entry for entry, for every pair of key differences up to 12"""
    for m1 in range(13):
        for m2 in range(13):
            assert _structure_constants(q, m1, m2) == \
                class_count_constants(q, m1, m2), (m1, m2)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_tp_squared_identity(q):
    field = LocalField(q)
    tp = HeckeElement.char(field, (1, 0))
    want = HeckeElement(field, {(2, 0): 1, (1, 1): q + 1})
    assert convolve(tp, tp) == want


def test_unit_element():
    field = LocalField(3)
    one = HeckeElement.unit(field)
    h = HeckeElement(field, {(2, 0): Fraction(3, 2), (1, -1): LaurentQ(1, 2, 3)})
    assert convolve(one, h) == h
    assert convolve(h, one) == h


@pytest.mark.parametrize("q", [2, 3])
def test_convolution_commutes(q):
    rng = random.Random(40 + q)
    field = LocalField(q)
    keys = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (1, -1)]
    for _ in range(6):
        f = HeckeElement(field, {k: rng.randrange(-3, 4) for k in rng.sample(keys, 3)})
        g = HeckeElement(field, {k: rng.randrange(-3, 4) for k in rng.sample(keys, 3)})
        assert convolve(f, g) == convolve(g, f)


def test_convolution_associates():
    field = LocalField(2)
    f = HeckeElement(field, {(1, 0): 1, (0, 0): 2})
    g = HeckeElement(field, {(1, 1): 1, (1, 0): -1})
    h = HeckeElement(field, {(2, 0): 1})
    assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


# -- transform ----------------------------------------------------------


def test_satake_frozen_values():
    field = LocalField(2)
    v = LaurentQ.v_power(1, 2)
    s = satake_transform(HeckeElement.char(field, (1, 0)))
    assert s == SymLaurent({(1, 0): v}, 2)
    assert satake_transform(HeckeElement.unit(field)) == SymLaurent({(0, 0): 1}, 2)
    assert satake_transform(HeckeElement.char(field, (1, 1))) == SymLaurent({(1, 1): 1}, 2)
    s20 = satake_transform(HeckeElement.char(field, (2, 0)))
    assert s20 == SymLaurent({(2, 0): 2, (1, 1): 1}, 2)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_satake_is_multiplicative(q):
    rng = random.Random(90 + q)
    field = LocalField(q)
    keys = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (1, -1), (3, 1)]
    for _ in range(8):
        f = HeckeElement(field, {k: Fraction(rng.randrange(-4, 5), rng.choice([1, 2]))
                                 for k in rng.sample(keys, 3)})
        g = HeckeElement(field, {k: rng.randrange(-4, 5) for k in rng.sample(keys, 3)})
        assert satake_transform(convolve(f, g)) == satake_transform(f) * satake_transform(g)


def constants_convolve(h1, h2, constants):
    """the product that the structure constants `constants` give, in
    LaurentQ arithmetic and unchecked"""
    out = {}
    for (a1, b1), c1 in h1.coeffs.items():
        for (a2, b2), c2 in h2.coeffs.items():
            for s, n in constants(h1.field.q, a1 - b1, a2 - b2):
                key = (a1 + a2 - s, b1 + b2 + s)
                out[key] = out.get(key, 0) + c1 * c2 * n
    return HeckeElement(h1.field, out)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_integer_self_check_matches_transforms(q, monkeypatch):
    """convolve's integer self-check says what comparing S(prod) with
    S(h1) * S(h2) as SymLaurents says: the true structure constants pass,
    and each damaged table, whose product has another transform, raises
    HomomorphismError, an internal fault and so a RuntimeError"""
    assert issubclass(HomomorphismError, RuntimeError)
    rng = random.Random(2000 + q)
    field = LocalField(q)
    for _ in range(10):
        h1, h2 = random_hecke(rng, field), random_hecke(rng, field)
        want = satake_transform(h1) * satake_transform(h2)
        assert satake_transform(convolve(h1, h2)) == want
        for which, damage in enumerate(DAMAGES):
            constants = damaged_constants(which)
            bad = constants_convolve(h1, h2, constants)
            assert satake_transform(bad) != want, damage
            with monkeypatch.context() as patch:
                patch.setattr(hecke, "_structure_constants", constants)
                with pytest.raises(HomomorphismError, match="transform of the "
                                   "product differs from the product of transforms"):
                    convolve(h1, h2)


def naive_evaluate(poly, y1, y2):
    """Substitute Y1 = y1, Y2 = y2 monomial by monomial, with fresh
    powers; Gaussian rationals give a LaurentQ over Q(i)."""
    total = 0
    for (i, j), c in poly.coeffs.items():
        term = y1 ** i * y2 ** j
        if i != j:
            term = term + y1 ** j * y2 ** i
        total = c * term + total
    return total


def n_integral_transform(h):
    """The transform point by point: one N-integral per torus point
    (m1, m2), m1 >= m2, on a diagonal of the support, times
    delta^(1/2) = v^(m2 - m1), all in LaurentQ arithmetic."""
    q = h.field.q
    pairs = set()
    for (a, b) in h.coeffs:
        for m1 in range(b, a + 1):
            m2 = a + b - m1
            if m1 >= m2:
                pairs.add((m1, m2))
    out = {}
    for (m1, m2) in pairs:
        val = LaurentQ.v_power(m2 - m1, q) * n_integral(h, m1, m2)
        if val:
            out[(m1, m2)] = val
    return SymLaurent(out, q)


def add_scaled(p1, p2, c):
    " p1 + c * p2, coefficient by coefficient "
    out = dict(p1.coeffs)
    for k, x in p2.coeffs.items():
        out[k] = out.get(k, 0) + c * x
    return SymLaurent(out, p1.q if p1.q is not None else p2.q)


def dominance_inverse(poly, field):
    """The transform inverted by triangularity in dominance order: peel
    off the leading monomial with one forward transform per step."""
    q = field.q
    rest = SymLaurent(dict(poly.coeffs), q)
    coeffs = {}
    while rest:
        i, j = max(rest.coeffs, key=lambda k: (k[0] - k[1], k[0] + k[1]))
        c = rest.coeffs[(i, j)] * LaurentQ.v_power(j - i, q)
        coeffs[(i, j)] = c
        rest = add_scaled(rest, n_integral_transform(HeckeElement.char(field, (i, j))), -c)
    return HeckeElement(field, coeffs)


def schur(a, b, q):
    " s_{a,b} = sum of Y1^(a-k) Y2^(b+k) over k = 0..a-b; zero when a = b - 1 "
    return SymLaurent({(a - k, b + k): 1 for k in range((a - b) // 2 + 1)}, q)


def random_symlaurent(rng, q):
    " up to six monomials with v-parts, b in -3..3 and a - b in 0..6 "
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        b = rng.randint(-3, 3)
        coeffs[(b + rng.randint(0, 6), b)] = LaurentQ(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)), q)
    return SymLaurent(coeffs, q)


def naive_product(p1, p2):
    """Expand both factors over both orderings of every key, multiply
    monomial by monomial and keep the keys with i >= j."""
    def full(p):
        out = {}
        for (i, j), c in p.coeffs.items():
            out[(i, j)] = out[(j, i)] = c
        return out
    prod = {}
    for (i1, j1), c1 in full(p1).items():
        for (i2, j2), c2 in full(p2).items():
            k = (i1 + i2, j1 + j2)
            prod[k] = prod.get(k, 0) + c1 * c2
    return SymLaurent({k: c for k, c in prod.items() if k[0] >= k[1]},
                      p1.q if p1.q is not None else p2.q)


def random_hecke(rng, field):
    " up to eight cosets with keys in -4..5 and rational and v-parts "
    coeffs = {}
    for _ in range(rng.randint(1, 8)):
        b = rng.randint(-4, 5)
        coeffs[(rng.randint(b, 5), b)] = LaurentQ(
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)) * rng.randint(0, 1),
            field.q)
    return HeckeElement(field, coeffs)


def transform_cases(q):
    """Random elements, then edge cases: the zero element, single cosets
    of every shape, one long diagonal, every diagonal through a box."""
    rng = random.Random(4000 + q)
    field = LocalField(q)
    hs = [random_hecke(rng, field) for _ in range(30)]
    hs.append(HeckeElement(field))
    hs += [HeckeElement.char(field, k, LaurentQ(Fraction(2, 3), -1, q))
           for k in [(0, 0), (5, -4), (-4, -4), (1, -4), (5, 5), (3, 2)]]
    hs.append(HeckeElement(field, {(5 - k, -4 + k): k - 3 for k in range(5)}))
    hs.append(HeckeElement(field, {(a, b): LaurentQ(a, b, q)
                                   for a in range(-4, 6) for b in range(-4, a + 1)
                                   if (a * 7 + b) % 3}))
    return field, hs


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_satake_matches_n_integral_oracle(q):
    " 30 random elements per q and the edge cases, with == "
    field, hs = transform_cases(q)
    for h in hs:
        got = satake_transform(h)
        assert got == n_integral_transform(h) and got.q == q
    assert satake_transform(HeckeElement(field)).coeffs == {}


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_inverse_satake_matches_dominance_oracle_on_transforms(q):
    " the same inputs: their transforms, and their coefficients as polynomials "
    field, hs = transform_cases(q)
    for h in hs:
        assert inverse_satake(n_integral_transform(h), field) == h
        poly = SymLaurent(dict(h.coeffs), q)
        assert inverse_satake(poly) == dominance_inverse(poly, field)


def test_inverse_satake_rejects_other_q():
    with pytest.raises(ValueError, match="mixed residue cardinalities 3 and 2"):
        inverse_satake(SymLaurent({(1, 0): 1}, 3), LocalField(2))


EXACT_POINTS = [
    (QiNumber(1), QiNumber(1)),
    (QiNumber(Fraction(3, 5), Fraction(4, 5)), QiNumber(Fraction(3, 5), Fraction(-4, 5))),
    (QiNumber(Fraction(5, 13), Fraction(12, 13)), QiNumber(Fraction(5, 13), Fraction(12, 13))),
    (QiNumber(Fraction(1, 2), 2), QiNumber(-3, Fraction(1, 3))),
    (QiNumber(0, Fraction(-2, 3)), QiNumber(Fraction(7, 4))),
    (QiNumber(-6, 0), QiNumber(Fraction(-1, 9), Fraction(5, 6))),
]


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_exact_evaluate_matches_naive(q):
    """Conjugate and non-conjugate pairs, negative, mixed and positive
    exponents, v-parts, and the zero polynomial, with =="""
    rng = random.Random(600 + q)
    polys = [random_symlaurent(rng, q) for _ in range(20)]
    polys.append(SymLaurent({(3, 1): LaurentQ(2, Fraction(-1, 2), q), (2, 2): 5}, q))
    polys.append(SymLaurent({(-1, -3): LaurentQ(0, 3, q)}, q))
    for poly in polys:
        for y1, y2 in EXACT_POINTS:
            got = poly.evaluate(y1, y2)
            assert isinstance(got, LaurentQ) and got.q == q
            assert got == naive_evaluate(poly, y1, y2)
    for y1, y2 in EXACT_POINTS:
        assert SymLaurent({}, q).evaluate(y1, y2) == LaurentQ(0, 0, q)


def test_exact_evaluate_needs_nonzero_parameters_for_negative_exponents():
    poly = SymLaurent({(0, -1): 1}, 3)
    with pytest.raises(ZeroDivisionError):
        poly.evaluate(QiNumber(0), QiNumber(1))
    assert SymLaurent({(2, 0): 1}, 3).evaluate(QiNumber(0), QiNumber(0, 1)) == LaurentQ(-1, 0, 3)


@pytest.mark.parametrize("q", [2, 3, 5, 7, None])
def test_symlaurent_product_matches_naive(q):
    """diagonal keys, negative exponents, v-parts, q = None constants,
    empty factors and a sum that cancels to 0 on one key"""
    rng = random.Random(900 + (q or 0))
    for _ in range(40):
        if q is None:
            p1, p2 = (SymLaurent({(rng.randint(-2, 4), rng.randint(-4, -2)):
                                  Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                  for _ in range(rng.randint(0, 4))})
                      for _ in range(2))
        else:
            p1, p2 = random_symlaurent(rng, q), random_symlaurent(rng, q)
        assert p1 * p2 == naive_product(p1, p2) == p2 * p1
    one = SymLaurent({(0, 0): 1})
    assert (one * one).coeffs == {(0, 0): LaurentQ(1)}
    # (Y1 + Y2)^2 = (Y1^2 + Y2^2) + 2 Y1 Y2: the cross term lands twice
    y = SymLaurent({(1, 0): 1})
    assert y * y == SymLaurent({(2, 0): 1, (1, 1): 2})
    d = SymLaurent({(1, 1): LaurentQ(0, 1, 3), (0, -2): LaurentQ(2, -1, 3)}, 3)
    assert d * SymLaurent({(0, 0): 1}, 3) == d == one * d
    zero = SymLaurent({}, q)
    assert (zero * d).coeffs == (d * zero).coeffs == {}
    # (Y1 + Y2 - 2 Y1 Y2)(Y1 + Y2 + 1): the cross term's 2 Y1 Y2 cancels
    p1 = SymLaurent({(1, 0): 1, (1, 1): -2}, q)
    p2 = SymLaurent({(1, 0): 1, (0, 0): 1}, q)
    want = SymLaurent({(2, 0): 1, (1, 0): 1, (2, 1): -2}, q)
    assert p1 * p2 == naive_product(p1, p2) == want


def test_symlaurent_product_rejects_gaussian_coefficients():
    " the product reads integer parts, so its domain is Q[v] "
    gauss = SymLaurent({(1, 0): LaurentQ(QiNumber(1, 1), 0, 3)}, 3)
    plain = SymLaurent({(1, 0): LaurentQ(1, 1, 3)}, 3)
    for p1, p2 in ((gauss, plain), (plain, gauss)):
        with pytest.raises(TypeError, match=r"SymLaurent products take "
                           r"coefficients in Q\[v\], not Q\(i\)\[v\]: got \(1\+1\*i\)"):
            p1 * p2
    h = HeckeElement(LocalField(3), {(1, 0): LaurentQ(QiNumber(0, 2), 0, 3)})
    with pytest.raises(TypeError, match="Hecke convolutions take"):
        convolve(h, h)


@pytest.mark.parametrize("q,key", CASES)
def test_degree_character(q, key):
    " the transform evaluated at Y = (v, 1/v) counts cosets "
    field = LocalField(q)
    s = satake_transform(HeckeElement.char(field, key))
    v = LaurentQ.v_power(1, q)
    val = naive_evaluate(s, v, v.inverse())
    assert val == LaurentQ(coset_degree(field, key), 0, q)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_macdonald_formula(q):
    " S(1_{a,b}) = v^(a-b) (s_{a,b} - q^-1 s_{a-1,b+1}), S(1_{a,a}) = s_{a,a} "
    field = LocalField(q)
    for b in (-2, 0, 1):
        for m in range(7):
            want = schur(b + m, b, q)
            if m:
                want = add_scaled(want, schur(b + m - 1, b + 1, q), -Fraction(1, q))
                want = add_scaled(SymLaurent({}, q), want, LaurentQ.v_power(m, q))
            assert satake_transform(HeckeElement.char(field, (b + m, b))) == want


@pytest.mark.parametrize("q", [2, 3, 5])
def test_inverse_satake_roundtrip(q):
    rng = random.Random(7 * q)
    field = LocalField(q)
    keys = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (1, -1), (3, 0)]
    for _ in range(6):
        h = HeckeElement(field, {k: Fraction(rng.randrange(-5, 6), rng.choice([1, 3]))
                                 for k in rng.sample(keys, 4)})
        assert inverse_satake(satake_transform(h)) == h


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_inverse_satake_matches_dominance_oracle(q):
    rng = random.Random(500 + q)
    field = LocalField(q)
    for _ in range(25):
        poly = random_symlaurent(rng, q)
        assert inverse_satake(poly) == dominance_inverse(poly, field)


def test_inverse_satake_monomial():
    # Y1 + Y2 pulls back to v^-1 * char(1, 0)
    got = inverse_satake(SymLaurent({(1, 0): 1}, 3))
    want = HeckeElement(LocalField(3), {(1, 0): LaurentQ(0, Fraction(1, 3), 3)})
    assert got == want


def test_inverse_satake_needs_field():
    with pytest.raises(ValueError):
        inverse_satake(SymLaurent({(1, 0): 1}))


# -- traces -------------------------------------------------------------


def test_spherical_trace_exact():
    field = LocalField(2)
    tp = HeckeElement.char(field, (1, 0))
    tr = spherical_trace(tp, trivial_parameter())
    assert tr == LaurentQ(QiNumber(0), QiNumber(2), 2)

    sp = SatakeParameter.from_triple(2, 1)
    assert sp.alpha.abs2() == sp.beta.abs2() == 1
    assert sp.alpha == QiNumber(Fraction(3, 5), Fraction(4, 5))
    tr2 = spherical_trace(tp, sp)
    assert tr2 == LaurentQ(QiNumber(0), QiNumber(Fraction(6, 5)), 2)

    assert spherical_trace(HeckeElement.unit(field), sp) == LaurentQ(QiNumber(1), QiNumber(0), 2)


@pytest.mark.parametrize("q", [2, 3, 7])
def test_spherical_trace_matches_naive(q):
    " exact traces against per-monomial powers "
    rng = random.Random(300 + q)
    field = LocalField(q)
    alpha = SatakeParameter.from_triple(3, 2).alpha
    params = [trivial_parameter(), SatakeParameter.from_triple(2, 1),
              SatakeParameter(alpha, alpha),
              SatakeParameter(QiNumber(Fraction(1, 2), 2), QiNumber(-3, Fraction(1, 3)))]
    hs = [inverse_satake(random_symlaurent(rng, q)) for _ in range(6)]
    hs.append(HeckeElement(field, {(1, -2): LaurentQ(1, 1, q), (-1, -1): 3}))
    for h in hs:
        s = satake_transform(h)
        for sp in params:
            got = spherical_trace(h, sp)
            assert got == naive_evaluate(s, sp.alpha, sp.beta)
    zero = HeckeElement(field)
    for sp in params:
        assert spherical_trace(zero, sp) == LaurentQ(0, 0, q)


def test_trace_is_linear_and_multiplicative():
    field = LocalField(5)
    sp = SatakeParameter.from_triple(3, 2)
    f = HeckeElement(field, {(1, 0): 2, (1, 1): Fraction(1, 2)})
    g = HeckeElement(field, {(2, 0): 1, (0, 0): -1})
    lhs = spherical_trace(convolve(f, g), sp)
    rhs = spherical_trace(f, sp) * spherical_trace(g, sp)
    assert lhs == rhs


# -- text round trips ---------------------------------------------------


def test_hecke_text_roundtrip():
    field = LocalField(3)
    h = HeckeElement(field, {(2, 0): Fraction(3, 2), (1, -1): LaurentQ(1, Fraction(-2, 7), 3),
                             (0, 0): -1})
    text = h.to_text()
    assert text.splitlines()[0] == "q 3 kmin 0"
    assert HeckeElement.from_text(text) == h


def test_hecke_text_kmin_shift():
    # a reader must accept any kmin and reduce
    h = HeckeElement.from_text("q 2 kmin -2\n1 0 4 0 0 6\n")
    # 4*v^-2 + 6*v = 2 + 6v at q = 2
    assert h == HeckeElement(LocalField(2), {(1, 0): LaurentQ(2, 6, 2)})


def test_symlaurent_str():
    field = LocalField(2)
    s = satake_transform(HeckeElement.char(field, (1, 0)))
    assert str(s) == "v*(Y1 + Y2)"


@pytest.mark.parametrize("q", [1, 0, -3, 2.0, "3"])
def test_bad_q_named(q):
    with pytest.raises(ValueError, match="q = %r" % (q,)):
        LocalField(q)
    with pytest.raises(ValueError, match="q = %r" % (q,)):
        LaurentQ(1, 1, q)


def test_bad_header_rejected():
    with pytest.raises(ValueError, match="q = 1 "):
        HeckeElement.from_text("q 1 kmin 0\n1 0 1\n")
    with pytest.raises(ValueError):
        HeckeElement.from_text("p 3 kmin 0\n1 0 1\n")
    with pytest.raises(ValueError):
        HeckeElement.from_text("")


def test_hecke_checks_survive_optimize():
    " named TypeErrors and ValueErrors, not asserts, so python -O keeps them "
    code = ("from gl2trace.hecke import HeckeElement, LocalField, SymLaurent, convolve\n"
            "f2, f3 = LocalField(2), LocalField(3)\n"
            "for call in (lambda: HeckeElement(f2, {(1.0, 0): 1}),\n"
            "             lambda: HeckeElement(f2, {(1, 0): 0.5}),\n"
            "             lambda: HeckeElement(f2, {(0, 1): 1}),\n"
            "             lambda: convolve(HeckeElement.unit(f2), HeckeElement.unit(f3)),\n"
            "             lambda: SymLaurent({(0, 0): 1}, 2) * 1):\n"
            "    try:\n"
            "        call()\n"
            "    except (TypeError, ValueError) as e:\n"
            "        print(type(e).__name__, e)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(gl2trace.__file__)))
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable] + flags + ["-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "TypeError cocharacter pair (1.0, 0) is not a pair of integers",
            "TypeError coefficient 0.5 at (1, 0) is not an int, Fraction or LaurentQ",
            "ValueError cocharacter pair must be dominant: (0, 1)",
            "ValueError mismatched base fields LocalField(q=2) and LocalField(q=3)",
            "TypeError cannot multiply a SymLaurent by int"], flags


def test_hecke_element_keeps_coefficients_with_its_q():
    """a coefficient whose q is the field's is kept as it is; one with no
    q is rebuilt over the field, and a zero one is dropped"""
    f3 = LocalField(3)
    c = LaurentQ(Fraction(1, 2), 3, 3)
    h = HeckeElement(f3, {(1, 0): c, (2, 0): LaurentQ(5), (3, 0): LaurentQ(0, 0, 3)})
    assert h.coeffs[(1, 0)] is c
    assert h.coeffs[(2, 0)] == LaurentQ(5, 0, 3) and h.coeffs[(2, 0)].q == 3
    assert h.support() == [(1, 0), (2, 0)]
    assert HeckeElement(f3, {(0, 0): 7}).coeffs[(0, 0)].q == 3
    with pytest.raises(ValueError, match="coefficient q mismatch"):
        HeckeElement(f3, {(1, 0): LaurentQ(1, 1, 5)})
    with pytest.raises(ValueError, match="coefficient q mismatch"):
        HeckeElement(f3, {(1, 0): LaurentQ(0, 0, 5)})
    with pytest.raises(TypeError, match="is not an int, Fraction or LaurentQ"):
        HeckeElement(f3, {(1, 0): 0.5})
