"""Orbital integrals against the tree oracle; Phi relation; zeta fits."""

import ast
import os
import random
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import pytest

from gl2trace.basicfn import STD, RepSpec
from gl2trace.chargroup import is_prime
from gl2trace.hecke import HeckeElement, LocalField
from gl2trace.orbital import (SIEVE_BLOCK, SplitClass, _entries, _valuation_counts,
                              measure_phi_exponent, orbital_zeta, phi_transform,
                              rational_reconstruct, split_orbital, tree_orbital_oracle)
from gl2trace.rings import LaurentQ, valuation

from _oracles import loop_tree_orbital_oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INF = 10 ** 9


def valp(x, p):
    x = Fraction(x)
    if x == 0:
        return INF
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def class_of_entries(field, t1, t2):
    """The split class diag(t1, t2) of explicit rational entries, by the
    valuations of t1, t2 and t1 - t2; a prime q makes them meaningful"""
    if not is_prime(field.q):
        raise ValueError("rational class data needs a prime residue "
                         "cardinality, got q = %d" % field.q)
    t1, t2 = Fraction(t1), Fraction(t2)
    if not t1 or not t2:
        raise ValueError("split class diag(%s, %s) needs nonzero "
                         "entries" % (t1, t2))
    if t1 == t2:
        raise ValueError("diag(%s, %s) is central: d = v(t1 - t2) is "
                         "infinite" % (t1, t2))
    q = field.q
    return SplitClass(field, valp(t1, q), valp(t2, q), valp(t1 - t2, q))


def other_entries(gamma):
    """explicit t1, t2 with the valuation triple of gamma, other than the
    ones the tree oracle builds: (q+1) q^m1 and -q^m2 when m1 != m2, and
    for m1 = m2 = m, q^m and 2 q^m (d = m, q odd) or q^m (1 + q^(d-m))"""
    q, m1, m2, d = gamma.field.q, gamma.m1, gamma.m2, gamma.d
    t1 = Fraction(q) ** m1
    if m1 != m2:
        return (q + 1) * t1, -Fraction(q) ** m2
    if d == m1:
        return t1, 2 * t1
    return t1, t1 * (1 + Fraction(q) ** (d - m1))


def matrix_cosets(q, t1, t2, depth):
    """The double coset (v(det) - d1, d1) of each explicit representative
    [[t1, (t1 - t2) j/q^depth], [0, t2]], j < q^depth, with d1 the least
    valuation of its Fraction entries."""
    denom = Fraction(q) ** depth
    dv = valp(t1 * t2, q)
    keys = []
    for j in range(q ** depth):
        m = ((t1, (t1 - t2) * Fraction(j) / denom), (Fraction(0), t2))
        d1 = min(valp(m[0][0], q), valp(m[0][1], q), valp(m[1][1], q))
        keys.append((dv - d1, d1))
    return keys


def matrix_tree_oracle(h, gamma, depth, cosets):
    """The tree oracle on explicit matrices: one LaurentQ sum per
    representative over matrix_cosets(q, t1, t2, depth), and the same
    stabilization warning."""
    total = LaurentQ(0, 0, h.field.q)
    for key in cosets:
        c = h.coeffs.get(key)
        if c is not None:
            total = total + c
    if h.coeffs:
        minb = min(b for (_, b) in h.coeffs)
        deep = min(gamma.m1, gamma.m2, gamma.d - depth - 1)
        if any((gamma.m1 + gamma.m2 - e, e) in h.coeffs
               for e in range(minb, min(deep, min(gamma.m1, gamma.m2)) + 1)):
            warnings.warn("tree truncation at depth %d has not stabilized" % depth)
    return gamma.disc_half() * total


def test_split_class_from_rationals():
    field = LocalField(3)
    g = class_of_entries(field, Fraction(3), Fraction(1, 3))
    assert (g.m1, g.m2, g.d) == (1, -1, -1)
    assert g.h_value() == Fraction(1, 9)
    assert g.disc_half() == LaurentQ.v_power(0 - 2 * (-1), 3)


def test_split_class_rejects_bad_input():
    with pytest.raises(ValueError, match="got q = 4"):
        class_of_entries(LocalField(4), 1, 2)
    with pytest.raises(ValueError, match=r"diag\(0, 3\) needs nonzero"):
        class_of_entries(LocalField(3), 0, 3)
    with pytest.raises(ValueError, match="is central"):
        class_of_entries(LocalField(3), 9, 9)
    with pytest.raises(ValueError, match="q = 4 is not a prime"):
        tree_orbital_oracle(HeckeElement.unit(LocalField(4)),
                            SplitClass(LocalField(4), 1, 0), 2)


def test_split_class_from_data():
    field = LocalField(2)
    g = SplitClass(field, 1, 0)
    assert g.d == 0
    g2 = SplitClass(field, 0, 0)
    assert g2.d == 1  # 2-adic units differ by an even amount
    g3 = SplitClass(LocalField(3), 0, 0)
    assert g3.d == 0
    g4 = SplitClass(LocalField(3), 1, 1, d=3)
    assert _entries(g4) == (3, 3 * (1 - 9))
    with pytest.raises(ValueError):
        SplitClass(field, 1, 0, d=1)
    with pytest.raises(ValueError):
        SplitClass(field, 0, 0, d=0)
    # the tree oracle's entries realize each class's triple
    for q in (2, 3, 5):
        for m1, m2, d in [(1, 0, None), (0, 2, None), (-1, -1, None),
                          (1, 1, 4), (0, 0, 1)]:
            g = SplitClass(LocalField(q), m1, m2, d)
            same = class_of_entries(g.field, *_entries(g))
            assert (same.m1, same.m2, same.d) == (g.m1, g.m2, g.d)


def test_split_orbital_frozen():
    field = LocalField(2)
    char_k = HeckeElement.unit(field)
    tp = HeckeElement.char(field, (1, 0))
    u_class = SplitClass(field, 0, 0)        # diag(1, u)
    p_class = SplitClass(field, 1, 0)        # diag(p, 1)
    assert split_orbital(char_k, u_class) == LaurentQ(1, 0, 2)
    assert split_orbital(tp, p_class) == LaurentQ(0, 1, 2)
    assert split_orbital(char_k, p_class) == LaurentQ(0, 0, 2)


def test_split_orbital_d_independent():
    field = LocalField(3)
    char_k = HeckeElement.unit(field)
    for d in (0, 1, 3):
        g = SplitClass(field, 0, 0, d=d)
        assert split_orbital(char_k, g) == 1


GRID_H = [
    lambda f: HeckeElement.unit(f),
    lambda f: HeckeElement.char(f, (1, 0)),
    lambda f: HeckeElement.char(f, (2, 0)),
    lambda f: HeckeElement(f, {(1, 1): 1, (1, 0): Fraction(1, 2), (2, 0): 3}),
    lambda f: HeckeElement(f, {(1, -1): 1, (0, 0): 2}),
]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("hi", range(len(GRID_H)))
def test_oracle_equivalence(q, hi):
    field = LocalField(q)
    h = GRID_H[hi](field)
    radius = max(max(abs(a), abs(b)) for (a, b) in h.support())
    classes = [SplitClass(field, 1, 0),
               SplitClass(field, 0, 0),
               SplitClass(field, 2, 0),
               SplitClass(field, 0, 0, d=2 if q != 2 else 3),
               SplitClass(field, 1, -1),
               SplitClass(field, 1, 1, d=1 if q != 2 else 2)]
    for g in classes:
        depth = g.d + radius + 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tree_orbital_oracle(h, g, depth)
        assert got == split_orbital(h, g), (g, h)


# (m1, m2, d) as orbital --gamma m1,m2 [--d d] takes them
GAMMA_DATA = [(1, 0, None), (2, 0, None), (2, 1, None), (1, -1, None),
              (0, 1, None), (0, 0, 1), (0, 0, 2), (1, 1, 2), (1, 1, 3),
              (-1, 0, None), (0, 0, None), (1, 1, None)]


def oracle_classes(field):
    """every class above, with d given and with d defaulted, once each:
    a defaulted d builds the same triple as the d it defaults to"""
    seen = {}
    for m1, m2, d in GAMMA_DATA:
        for d_arg in (d, min(m1, m2) if m1 != m2 else d):
            try:
                g = SplitClass(field, m1, m2, d_arg)
            except ValueError:   # q = 2 realizes no d = m1 when m1 = m2
                assert field.q == 2 and d_arg == m1 == m2
                continue
            seen[(g.m1, g.m2, g.d)] = g
    return list(seen.values())


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_tree_oracle_matches_matrix_oracle(q):
    """Integer valuations of the entries the oracle builds against explicit
    matrices on other entries with the same triple, at every depth with
    q^depth <= 3000, on a dense element with v-parts and negative keys,
    on the unit and on the empty element; equal values and warnings"""
    rng = random.Random(1700 + q)
    field = LocalField(q)
    dense = HeckeElement(field, {
        (a, b): LaurentQ(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 4)), q)
        for b in range(-3, 4) for a in range(b, 4)})
    hs = [dense, HeckeElement.unit(field), HeckeElement(field)]
    depth_top = 0
    while q ** (depth_top + 1) <= 3000:
        depth_top += 1
    for g in oracle_classes(field):
        t1, t2 = other_entries(g)
        same = class_of_entries(field, t1, t2)
        assert (same.m1, same.m2, same.d) == (g.m1, g.m2, g.d)
        for depth in range(depth_top + 1):
            cosets = matrix_cosets(q, t1, t2, depth)
            for h in hs:
                with warnings.catch_warnings(record=True) as got_w:
                    warnings.simplefilter("always")
                    got = tree_orbital_oracle(h, g, depth)
                with warnings.catch_warnings(record=True) as want_w:
                    warnings.simplefilter("always")
                    want = matrix_tree_oracle(h, g, depth, cosets)
                assert got == want and str(got) == str(want), (g, depth, h)
                assert ([str(w.message) for w in got_w]
                        == [str(w.message) for w in want_w]), (g, depth, h)


def recorded(oracle, h, g, depth):
    " (value, warning messages) of one oracle call "
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = oracle(h, g, depth)
    return value, [str(w.message) for w in caught]


def test_gamma_data_covers_the_benchmark_classes():
    " every (m1, m2, d) shape of the benchmark's orbital jobs is in GAMMA_DATA "
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    shapes = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and [t.id for t in node.targets] == ["ORBITAL_CLASSES"]]
    assert len(shapes) == 1 and set(shapes[0]) <= set(GAMMA_DATA)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_sieved_tree_oracle_matches_loop_oracle(q):
    """The valuation sieve against the loop over representatives it
    replaced, on every class of GAMMA_DATA, at every depth with
    q^depth <= 5000, for random elements with v-parts and negative keys,
    the unit and the empty element: equal values, printed forms and
    warnings, so the warning fires on exactly the same inputs"""
    rng = random.Random(2300 + q)
    field = LocalField(q)
    keys = [(a, b) for b in range(-2, 3) for a in range(b, 3)]
    hs = [HeckeElement(field, {
        key: LaurentQ(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 4)) * rng.randint(0, 1), q)
        for key in rng.sample(keys, rng.randint(1, 5))}) for _ in range(4)]
    hs += [HeckeElement.unit(field), HeckeElement(field)]
    warned = 0
    for g in oracle_classes(field):
        depth = 0
        while q ** depth <= 5000:
            for h in hs:
                got, got_w = recorded(tree_orbital_oracle, h, g, depth)
                want, want_w = recorded(loop_tree_orbital_oracle, h, g, depth)
                assert got == want and str(got) == str(want), (g, depth, h)
                assert got_w == want_w, (g, depth, h)
                warned += bool(got_w)
            depth += 1
    assert warned   # the comparison covers inputs that warn


@pytest.mark.parametrize("q, depth", [(2, 17), (3, 11)])
def test_sieved_tree_oracle_across_blocks(q, depth):
    " more than one sieve block: the same value as the loop oracle "
    assert q ** depth > SIEVE_BLOCK
    field = LocalField(q)
    h = HeckeElement(field, {(1, 0): LaurentQ(2, Fraction(1, 3), q), (0, 0): 1,
                             (2, -1): Fraction(-5, 2)})
    for g in (SplitClass(field, 1, 0), SplitClass(field, 0, -1),
              SplitClass(field, 1, 1, d=3)):
        assert recorded(tree_orbital_oracle, h, g, depth) \
            == recorded(loop_tree_orbital_oracle, h, g, depth), g


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_valuation_counts_at_block_edges(q):
    " the sieve counts v(j) over 0 < j < end like one valuation per j "
    ends = [0, 1, 2, q, q * q + 1, SIEVE_BLOCK, SIEVE_BLOCK + 1, SIEVE_BLOCK + 2,
            2 * SIEVE_BLOCK + q]
    want, j = Counter(), 1
    for end in ends:
        while j < end:
            want[valuation(j, q)[0]] += 1
            j += 1
        assert _valuation_counts(q, end) == want, end


def test_tree_oracle_memory_stays_within_a_block():
    """At q = 2, depth 18 the oracle sieves 2^18 representatives in four
    blocks; its peak traced memory stays under one block's worth, a byte
    per integer of the block and the marking slice of half as many, not
    the 2^18 bytes of one sieve over all of them"""
    field = LocalField(2)
    h = HeckeElement(field, {(1, 0): 1, (0, 0): 3})
    tracemalloc.start()
    try:
        tree_orbital_oracle(h, SplitClass(field, 1, 0), 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * SIEVE_BLOCK < 2 ** 18


def test_oracle_warns_when_shallow():
    field = LocalField(3)
    g = SplitClass(field, 0, 0, d=2)
    with pytest.warns(UserWarning):
        tree_orbital_oracle(HeckeElement.unit(field), g, 1)


def test_oracle_depth0_off_support():
    field = LocalField(2)
    g = SplitClass(field, 1, 0)
    assert tree_orbital_oracle(HeckeElement.unit(field), g, 0) == 0


def test_phi_frozen():
    field = LocalField(5)
    assert phi_transform(HeckeElement.unit(field), SplitClass(field, 0, 0)) == 1
    tp = HeckeElement.char(field, (1, 0))
    assert phi_transform(tp, SplitClass(field, 1, 0)) == 1


@pytest.mark.parametrize("q", [2, 3, 5])
def test_phi_relation_half_exponent(q):
    " phi = H^(1/2) f_G exactly; the measured exponent is 1/2, not 1 "
    field = LocalField(q)
    hs = [HeckeElement.unit(field), HeckeElement.char(field, (1, 0)),
          HeckeElement.char(field, (2, 0))]
    classes = [SplitClass(field, m1, m2)
               for m1, m2 in [(1, 0), (2, 0), (2, 1), (3, 0), (1, -1), (2, -1)]]
    classes += [SplitClass(field, 0, 0, d=d) for d in range(3 if q == 2 else 0, 4)]
    measured = set()
    for h in hs:
        for g in classes:
            f = split_orbital(h, g)
            half = LaurentQ.v_power(g.m2 - g.m1, q)
            assert phi_transform(h, g) == half * f
            x = measure_phi_exponent(g, phi_transform(h, g), f)
            if x is not None:
                measured.add(x)
                if g.m1 != g.m2:
                    assert phi_transform(h, g) != g.h_value() * f
    assert measured == {Fraction(1, 2)}


def test_vanishing_off_determinant():
    field = LocalField(3)
    h = HeckeElement(field, {(2, 1): 1, (1, 1): 4})  # det valuations 3 and 2
    for m1, m2 in [(1, 0), (0, 0), (2, -1)]:
        assert split_orbital(h, SplitClass(field, m1, m2)) == 0


def test_orbital_zeta_shapes():
    field = LocalField(2)
    u_class = SplitClass(field, 0, 0)
    z = orbital_zeta(u_class, STD, 2)
    assert z[0] == 1 and z[1] == 0 and z[2] == 0

    p_class = SplitClass(field, 1, 0)
    z2 = orbital_zeta(p_class, STD, 4)
    assert len(z2) == 5
    assert z2[0] == 0 and z2[1] == 1
    assert all(not z2[n] for n in (2, 3, 4))
    # constant term is always the unit-element orbital
    z3 = orbital_zeta(p_class, RepSpec(2, 0), 0)
    assert z3[0] == split_orbital(HeckeElement.unit(field), p_class)


def test_orbital_zeta_single_valuation_support():
    " coefficients live only at n with n*(k+2m) = det valuation "
    field = LocalField(3)
    g = SplitClass(field, 1, 1, d=1)
    z = orbital_zeta(g, STD, 5)
    assert [bool(c) for c in z] == [False, False, True, False, False, False]
    assert z[2] == 1


def test_reconstruct_known_rational():
    # 1/(1-t)^2
    s = [LaurentQ(n + 1) for n in range(12)]
    fn = rational_reconstruct(s, 0, 2)
    assert fn is not None
    assert fn.num == [LaurentQ(1)]
    assert fn.den == [LaurentQ(1), LaurentQ(-2), LaurentQ(1)]


def test_reconstruct_with_v_coefficients():
    v = LaurentQ(0, 1, 2)
    s = [v ** n for n in range(10)]
    fn = rational_reconstruct(s, 0, 1)
    assert fn is not None
    assert fn.den == [LaurentQ(1), -v]


def test_reconstruct_factorials_fail():
    vals = [1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880]
    s = [LaurentQ(x) for x in vals]
    assert rational_reconstruct(s, 1, 2) is None


def test_reconstruct_insufficient_order():
    s = [LaurentQ(1)] * 6
    with pytest.raises(ValueError):
        rational_reconstruct(s, 1, 2)


def test_reconstruct_underdetermined_consistent():
    " a single-monomial series fits with excess denominator degree "
    s = [LaurentQ(0), LaurentQ(3)] + [LaurentQ(0)] * 10
    fn = rational_reconstruct(s, 1, 3)
    assert fn is not None
    assert fn.series(11) == s


def test_zeta_self_certification():
    field = LocalField(2)
    g = SplitClass(field, 1, 0)
    z = orbital_zeta(g, STD, 24)
    fn = rational_reconstruct(z, 1, 3)
    assert fn is not None
    assert fn.series(24) == z
