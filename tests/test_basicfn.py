"""Representation traces, basic-function coefficients, L-factors."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import gl2trace
from gl2trace.basicfn import (RationalFn, RepSpec, STD, basic_coeff,
                              local_l_factor, rep_weights, symn_trace,
                              truncated_basic_identity)
from gl2trace.hecke import HeckeElement, LocalField, SatakeParameter, satake_transform
from gl2trace.rings import LaurentQ, QiNumber

from _oracles import trivial_parameter


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
    assert len(rep_weights(RepSpec(3, 0))) == 4


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
    lf = local_l_factor(STD, trivial_parameter())
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
    assert isinstance(lf.den[1], LaurentQ) and isinstance(lf.den[1].a, QiNumber)
    assert lf.den[1] == LaurentQ(QiNumber(Fraction(-6, 5), Fraction(-8, 5)))
    assert lf.den[2] == LaurentQ(a * a)


def test_l_factor_gaussian_text():
    " no CLI job reaches a Gaussian L-factor, so its text is pinned here "
    a = QiNumber(Fraction(3, 5), Fraction(4, 5))
    assert local_l_factor(STD, SatakeParameter(a, a)).to_text() == (
        "num: 0:1\nden: 0:1 1:-6/5-8/5*i 2:-7/25+24/25*i\n")


def test_series_expansion():
    lf = RationalFn([LaurentQ(1)], [LaurentQ(1), LaurentQ(-2), LaurentQ(1)])
    assert lf.series(5) == [LaurentQ(n + 1) for n in range(6)]


def test_series_of_a_constant_pads_with_laurentq():
    s = RationalFn([1], [1]).series(3)
    assert s == [LaurentQ(1), LaurentQ(0), LaurentQ(0), LaurentQ(0)]
    assert all(type(c) is LaurentQ for c in s)


def test_denominator_normalization():
    lf = RationalFn([Fraction(2)], [Fraction(2), Fraction(-2)])
    assert lf.den[0] == 1
    assert lf.num[0] == 1
    with pytest.raises(ValueError):
        RationalFn([Fraction(1)], [Fraction(0), Fraction(1)])
    with pytest.raises(ZeroDivisionError):
        RationalFn([Fraction(1)], [Fraction(0)])


def test_truncated_identity_trivial_param():
    lhs, rhs = truncated_basic_identity(STD, trivial_parameter(), 3)
    assert lhs == rhs
    assert [c.as_fraction() for c in rhs] == [1, 2, 3, 4]


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


# -- text formats -------------------------------------------------------


def test_rational_fn_text_roundtrip():
    lf = local_l_factor(RepSpec(2, 0), SatakeParameter.from_triple(2, 1))
    text = lf.to_text()
    assert text.startswith("num: 0:1\nden: 0:1 1:-11/25")


def test_input_checks_survive_optimize():
    " named ValueErrors, not asserts, so python -O keeps them "
    code = ("from gl2trace.basicfn import RepSpec, STD, truncated_basic_identity\n"
            "from gl2trace.hecke import LocalField, SatakeParameter, SymLaurent\n"
            "from gl2trace.orbital import SplitClass, orbital_zeta\n"
            "gamma = SplitClass(LocalField(2), 1, 0)\n"
            "for call in (lambda: RepSpec(-1),\n"
            "             lambda: RepSpec(1, 0.5),\n"
            "             lambda: truncated_basic_identity(\n"
            "                 STD, SatakeParameter.from_triple(2, 1), -1),\n"
            "             lambda: orbital_zeta(gamma, STD, -2),\n"
            "             lambda: SymLaurent({(0, 1): 1}, 3),\n"
            "             lambda: SatakeParameter.from_triple(1, 2),\n"
            "             lambda: SatakeParameter(0.5, 2)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as e:\n"
            "        print(e)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(gl2trace.__file__)))
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable] + flags + ["-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "Sym^k tensor det^m wants integers k >= 0 and m, got k = -1, m = 0",
            "Sym^k tensor det^m wants integers k >= 0 and m, got k = 1, m = 0.5",
            "N = -1 is negative: a series order is >= 0",
            "N = -2 is negative: a series order is >= 0",
            "key (0, 1) is not canonical: want i >= j",
            "a Pythagorean triple wants m > n > 0, got m = 1, n = 2",
            "Satake parameters are Gaussian rationals (QiNumber), got 0.5 and 2",
        ], flags
