"""Coefficient-ring arithmetic against a naive dict-based model."""

import os
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import gl2trace
from gl2trace.rings import LaurentQ, QiNumber


# Independent model: {exponent: Fraction} Laurent dict, reduced to the
# (a, b) normal form only at comparison time.

def model_reduce(d, q):
    a = b = Fraction(0)
    for k, c in d.items():
        j, r = divmod(k, 2)
        if r == 0:
            a += c * Fraction(q) ** j
        else:
            b += c * Fraction(q) ** j
    return a, b


def model_mul(d1, d2):
    out = {}
    for k1, c1 in d1.items():
        for k2, c2 in d2.items():
            out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + c1 * c2
    return out


def model_add(d1, d2):
    out = dict(d1)
    for k, c in d2.items():
        out[k] = out.get(k, Fraction(0)) + c
    return out


small_fraction = st.fractions(min_value=-40, max_value=40, max_denominator=9)
laurent_dict = st.dictionaries(st.integers(-4, 4), small_fraction, max_size=4)


@given(laurent_dict, laurent_dict, st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=200)
def test_laurent_matches_model(d1, d2, q):
    x = LaurentQ.from_powers(d1, q)
    y = LaurentQ.from_powers(d2, q)
    s = x + y
    p = x * y
    assert (s.a, s.b) == model_reduce(model_add(d1, d2), q)
    assert (p.a, p.b) == model_reduce(model_mul(d1, d2), q)


@given(laurent_dict, st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=200)
def test_laurent_inverse(d, q):
    x = LaurentQ.from_powers(d, q)
    if not x:
        return
    assert x * x.inverse() == LaurentQ(1, 0, q)
    assert x ** 3 * x ** -3 == 1


def test_v_power_table():
    v = LaurentQ.v_power
    assert v(0, 3) == 1
    assert v(2, 3) == 3
    assert v(-2, 3) == Fraction(1, 3)
    assert v(1, 3) == LaurentQ(0, 1, 3)
    assert v(-1, 3) == LaurentQ(0, Fraction(1, 3), 3)
    assert v(1, 3) * v(1, 3) == 3
    assert v(3, 2) == LaurentQ(0, 2, 2)


def test_mixed_q_rejected():
    x = LaurentQ(0, 1, 2)
    y = LaurentQ(0, 1, 3)
    try:
        x * y
    except ValueError:
        pass
    else:
        raise AssertionError("expected mixed-q rejection")


def test_rational_constants_are_q_agnostic():
    half = LaurentQ(Fraction(1, 2))
    assert half + LaurentQ(0, 1, 5) == LaurentQ(Fraction(1, 2), 1, 5)
    assert half == Fraction(1, 2)
    assert (3 * half).as_fraction() == Fraction(3, 2)


def test_str_forms():
    assert str(LaurentQ(0, 1, 3)) == "v"
    assert str(LaurentQ(0, Fraction(1, 3), 3)) == "v^-1"
    assert str(LaurentQ(9, 0, 3)) == "v^4"
    assert str(LaurentQ(4, 0, 3)) == "4"
    assert str(LaurentQ(1, 1, 2)) == "1+v"
    assert str(LaurentQ(0, 0, 2)) == "0"
    assert str(LaurentQ(0, -2, 2)) == "-v^3"
    assert str(LaurentQ(9, QiNumber(Fraction(3, 5), -2), 3)) == "(3/5-2*i)*v+v^4"


def test_compact_roundtrip():
    for x in [LaurentQ(Fraction(3, 2), Fraction(-1, 4), 5), LaurentQ(7), LaurentQ(0, 1, 2)]:
        assert LaurentQ.from_compact(x.compact(), x.q) == x


gauss = st.builds(QiNumber, small_fraction, small_fraction)


@given(gauss, gauss, gauss)
@settings(max_examples=150)
def test_qi_field_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    if y:
        assert (x / y) * y == x
    assert (x * y).conj() == x.conj() * y.conj()


def test_qi_unit_circle():
    a = QiNumber(Fraction(3, 5), Fraction(4, 5))
    assert a.abs2() == 1
    assert a * a.conj() == 1
    assert a ** -1 == a.conj()


component = st.one_of(small_fraction, gauss)


@given(component, component, component, component, component, component,
       small_fraction, st.sampled_from([2, 3, 5]))
@settings(max_examples=100)
def test_laurent_over_qi_ring(a1, b1, a2, b2, a3, b3, r, q):
    x, y, z = LaurentQ(a1, b1, q), LaurentQ(a2, b2, q), LaurentQ(a3, b3, q)
    # v^2 = q in the product, checked against direct expansion
    p = x * y
    assert p == LaurentQ(a1 * a2 + b1 * b2 * q, a1 * b2 + b1 * a2, q)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert (x + y) * z == x * z + y * z
    assert x - x == 0 and x * 1 == x
    if x:
        assert x * x.inverse() == 1
    # a Gaussian component with zero imaginary part is stored as its Fraction
    g = LaurentQ(QiNumber(r, 0), QiNumber(r, 0), q)
    assert g == LaurentQ(r, r, q) and hash(g) == hash(LaurentQ(r, r, q))


def test_ring_checks_survive_optimize():
    " named exceptions, not asserts, so python -O keeps them "
    code = ("from gl2trace.rings import LaurentQ, QiNumber\n"
            "for call in (lambda: LaurentQ(2, 1, 3) ** 0.5,\n"
            "             lambda: QiNumber(1, 1) ** '2',\n"
            "             lambda: LaurentQ(1, 1, 2).as_fraction(),\n"
            "             lambda: LaurentQ(QiNumber(1, 2)).as_fraction()):\n"
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
            "TypeError exponent 0.5 is not an integer",
            "TypeError exponent '2' is not an integer",
            "ValueError value 1+v is not rational",
            "ValueError value (1+2*i) is not rational"], flags
