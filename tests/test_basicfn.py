"""Representation traces, basic-function coefficients, L-factors."""

import itertools
import random
from fractions import Fraction

import pytest

from gl2trace.basicfn import (RationalFn, RationalSeries, RepSpec, STD,
                              basic_coeff, local_l_factor, parse_qi,
                              rep_weights, symn_trace,
                              truncated_basic_identity)
from gl2trace.hecke import HeckeElement, LocalField, SatakeParameter, satake_transform
from gl2trace.rings import LaurentQ, QiNumber


def brute_hn(weights, n):
    " h_n by direct multiset enumeration; the independent oracle "
    out = {}
    for combo in itertools.combinations_with_replacement(range(len(weights)), n):
        a = sum(weights[i][0] for i in combo)
        b = sum(weights[i][1] for i in combo)
        out[(a, b)] = out.get((a, b), 0) + 1
    return out


def test_rep_parse():
    assert RepSpec.parse("std") == RepSpec(1, 0)
    assert RepSpec.parse("Sym2") == RepSpec(2, 0)
    assert RepSpec.parse("sym^3") == RepSpec(3, 0)
    assert RepSpec.parse("std*det") == RepSpec(1, 1)
    assert RepSpec.parse("std@det") == RepSpec(1, 1)
    assert RepSpec.parse("sym2*det-1") == RepSpec(2, -1)
    with pytest.raises(ValueError):
        RepSpec.parse("so5")


def test_rep_weights_frozen():
    assert rep_weights(RepSpec(1, 0)) == [(1, 0), (0, 1)]
    assert rep_weights(RepSpec(2, 0)) == [(2, 0), (1, 1), (0, 2)]
    assert rep_weights(RepSpec(1, 1)) == [(2, 1), (1, 2)]
    assert RepSpec(3, 0).dim == 4


def test_symn_trace_frozen():
    assert symn_trace(STD, 0).coeffs == {(0, 0): LaurentQ(1)}
    assert symn_trace(STD, 2).coeffs == {(2, 0): LaurentQ(1), (1, 1): LaurentQ(1)}
    s = symn_trace(RepSpec(2, 0), 2)
    assert s.coeffs == {(4, 0): LaurentQ(1), (3, 1): LaurentQ(1), (2, 2): LaurentQ(2)}


@pytest.mark.parametrize("rep,n", [
    (RepSpec(1, 0), 5), (RepSpec(2, 0), 4), (RepSpec(3, 0), 3),
    (RepSpec(1, 1), 4), (RepSpec(2, -1), 3), (RepSpec(0, 2), 5),
])
def test_symn_trace_against_brute_force(rep, n):
    got = symn_trace(rep, n)
    want = brute_hn(rep_weights(rep), n)
    full = {}
    for (a, b), c in got.coeffs.items():
        full[(a, b)] = c
        if a != b:
            full[(b, a)] = c
    assert full == {k: LaurentQ(c) for k, c in want.items()}


def test_basic_coeff_frozen():
    field = LocalField(2)
    assert basic_coeff(STD, 0, field) == HeckeElement.unit(field)
    vinv = LaurentQ(0, Fraction(1, 2), 2)
    assert basic_coeff(STD, 1, field) == HeckeElement(field, {(1, 0): vinv})
    vinv2 = LaurentQ(Fraction(1, 2), 0, 2)
    assert basic_coeff(STD, 2, field) == HeckeElement(
        field, {(2, 0): vinv2, (1, 1): vinv2})


@pytest.mark.parametrize("rep,nmax", [(RepSpec(1, 0), 6), (RepSpec(2, 0), 4),
                                      (RepSpec(1, 1), 4), (RepSpec(3, 0), 3)])
def test_basic_coeff_support_valuation(rep, nmax):
    " support lies on determinant valuation exactly n*(k+2m) "
    field = LocalField(3)
    for n in range(nmax + 1):
        h = basic_coeff(rep, n, field)
        for (a, b) in h.support():
            assert a + b == n * (rep.k + 2 * rep.m)


@pytest.mark.parametrize("q", [2, 3])
def test_std_basic_coeff_positive_and_v_offset(q):
    """std coefficients are nonnegative, and carry the constant offset
    v^-n against the integral lattice-count element: v^n * basic_coeff
    has nonnegative integer coefficients (measured, not absorbed)."""
    field = LocalField(q)
    for n in range(7):
        h = basic_coeff(STD, n, field)
        assert h.support() == sorted((a, n - a) for a in range(n, (n - 1) // 2, -1))
        vn = LaurentQ.v_power(n, q)
        for c in h.coeffs.values():
            assert c.a >= 0 and c.b >= 0
            lifted = c * vn
            assert lifted.v_free
            assert lifted.a.denominator == 1 and lifted.a >= 0


def test_basic_coeff_trace_is_transform_value():
    # the round trip S(basic_coeff(r, n)) = symn_trace(r, n), coefficientwise
    field = LocalField(5)
    for rep in (STD, RepSpec(2, 0), RepSpec(1, 1)):
        for n in range(4):
            s = satake_transform(basic_coeff(rep, n, field))
            want = symn_trace(rep, n)
            assert sorted(s.coeffs) == sorted(want.coeffs)
            for k, c in want.coeffs.items():
                assert s.coeffs[k] == LaurentQ(c.a, 0, field.q)


def test_l_factor_frozen():
    lf = local_l_factor(STD, SatakeParameter.trivial())
    assert lf.num == [LaurentQ(1)]
    assert lf.den == [LaurentQ(1), LaurentQ(-2), LaurentQ(1)]

    sp = SatakeParameter.from_triple(2, 1)  # alpha = (3+4i)/5
    lf2 = local_l_factor(STD, sp)
    assert lf2.den == [LaurentQ(1), LaurentQ(Fraction(-6, 5)), LaurentQ(1)]

    lf3 = local_l_factor(RepSpec(2, 0), sp)
    # (1-t)(1 + 14/25 t + t^2)
    assert lf3.den == [LaurentQ(1), LaurentQ(Fraction(-11, 25)),
                       LaurentQ(Fraction(11, 25)), LaurentQ(-1)]


def test_l_factor_nonconjugate_parameter_is_gaussian():
    a = QiNumber(Fraction(3, 5), Fraction(4, 5))
    lf = local_l_factor(STD, SatakeParameter(a, a))
    assert isinstance(lf.den[1], QiNumber)
    assert lf.den[1] == QiNumber(Fraction(-6, 5), Fraction(-8, 5))
    assert lf.den[2] == a * a


def test_series_expansion():
    lf = RationalFn([LaurentQ(1)], [LaurentQ(1), LaurentQ(-2), LaurentQ(1)])
    s = lf.series(5)
    assert s.coeffs == [LaurentQ(n + 1) for n in range(6)]


def test_denominator_normalization():
    lf = RationalFn([Fraction(2)], [Fraction(2), Fraction(-2)])
    assert lf.den[0] == 1
    assert lf.num[0] == 1
    with pytest.raises(ValueError):
        RationalFn([Fraction(1)], [Fraction(0), Fraction(1)])
    with pytest.raises(ZeroDivisionError):
        RationalFn([Fraction(1)], [Fraction(0)])


def test_truncated_identity_trivial_param():
    lhs, rhs = truncated_basic_identity(STD, SatakeParameter.trivial(), 3)
    assert lhs == rhs
    assert [c.as_fraction() for c in rhs.coeffs] == [1, 2, 3, 4]


@pytest.mark.parametrize("rep", [STD, RepSpec(2, 0), RepSpec(3, 0), RepSpec(1, 1)])
@pytest.mark.parametrize("q", [2, 3])
def test_truncated_identity_exact(rep, q):
    sp = SatakeParameter.from_triple(3, 2)
    lhs, rhs = truncated_basic_identity(rep, sp, 6, LocalField(q))
    assert lhs == rhs


def test_truncated_identity_nonconjugate():
    a = QiNumber(Fraction(3, 5), Fraction(4, 5))
    lhs, rhs = truncated_basic_identity(STD, SatakeParameter(a, a), 5, LocalField(3))
    assert lhs == rhs


def test_truncated_identity_numeric():
    import cmath
    sp = SatakeParameter(cmath.exp(0.3j), cmath.exp(-0.3j))
    lhs, rhs = truncated_basic_identity(STD, sp, 8, LocalField(2))
    for a, b in zip(lhs.coeffs, rhs.coeffs):
        assert abs(complex(a) - complex(b)) < 1e-10


# -- text formats -------------------------------------------------------


def test_rational_fn_text_roundtrip():
    lf = local_l_factor(RepSpec(2, 0), SatakeParameter.from_triple(2, 1))
    text = lf.to_text()
    assert text.startswith("num: 0:1\nden: 0:1 1:-11/25")
    back = RationalFn.from_text(text)
    assert back == lf


def test_rational_fn_text_gaussian():
    a = QiNumber(Fraction(3, 5), Fraction(4, 5))
    lf = local_l_factor(STD, SatakeParameter(a, a))
    back = RationalFn.from_text(lf.to_text())
    assert all(value(x, y) for x, y in zip(back.den, lf.den)) or back == lf


def value(x, y):
    from gl2trace.basicfn import value_eq
    return value_eq(x, y)


def test_series_text_roundtrip():
    s = RationalSeries([LaurentQ(1), LaurentQ(0, 1, 2), LaurentQ(Fraction(3, 4))], 2)
    back = RationalSeries.from_text(s.to_text(), q=2)
    assert back == s


def test_parse_qi_forms():
    assert parse_qi("3/5+4/5*i") == QiNumber(Fraction(3, 5), Fraction(4, 5))
    assert parse_qi("-2*i") == QiNumber(0, -2)
    assert parse_qi("7") == QiNumber(7)
    assert parse_qi("1/2-1/3*i") == QiNumber(Fraction(1, 2), Fraction(-1, 3))
    assert parse_qi("i") == QiNumber(0, 1)


def evaluate_exact(fn, t):
    " a rational function at an exact rational t, by Horner's rule "
    t = Fraction(t)
    num = LaurentQ(0)
    for c in reversed(fn.num):
        num = num * t + c
    den = LaurentQ(0)
    for c in reversed(fn.den):
        den = den * t + c
    return num / den


def test_rational_fn_evaluate():
    lf = RationalFn([LaurentQ(1)], [LaurentQ(1), LaurentQ(-1)])
    assert abs(lf.evaluate(0.5) - 2.0) < 1e-14
    assert evaluate_exact(lf, Fraction(1, 3)) == LaurentQ(Fraction(3, 2))
