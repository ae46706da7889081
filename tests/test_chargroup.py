"""Finite Fourier analysis, arithmetic symbols, and the D_S model."""

import cmath
import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gl2trace
from gl2trace import chargroup
from gl2trace.chargroup import (CycloNumber, FiniteAbelianGroup,
                                annihilator, class_group_mod_squares, cyclotomic_poly,
                                fourier, hilbert_symbol, legendre,
                                parse_group_function, poisson_check,
                                subgroup_generated)

from _oracles import (character_value, conj, format_group_function,
                      fraction_poisson_check, kronecker, on_element, on_vector,
                      parse_group_function_oracle, project, quad_char_eval,
                      reduce_vector, sample_poisson_triple, section_vector,
                      unit_part, zeta, zeta_exponent)

INF = "inf"
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


def fourier_cyclo(group, f, psi):
    """naive oracle for fourier, also for cyclotomic values: one exact
    product f(g) * conj(psi(g)) per element, summed one at a time"""
    total = CycloNumber.rational(group.exponent, 0)
    for g, v in zip(group.elements(), f):
        total = total + v * conj(character_value(group, psi, g))
    return total


def naive_annihilator(group, H):
    " characters tested against every element of H "
    return [psi for psi in group.elements()
            if all(zeta_exponent(group, psi, h) == 0 for h in H)]


def mixed_function(rng, group):
    " rational values over assorted denominators, zeros included "
    dens = (1, 2, 3, 4, 5, 7, 9, 16, 25, 27)
    return [Fraction(rng.randint(-30, 30), rng.choice(dens)) for _ in group.elements()]


def as_complex(x):
    " a CycloNumber in floating point, under zeta_L -> exp(2 pi i / L) "
    z = 0j
    for k, c in enumerate(x.coeffs):
        z += float(c) * complex(math.cos(2 * math.pi * k / x.L),
                                math.sin(2 * math.pi * k / x.L))
    return z


def numeric_fourier(group, f, psi):
    " the character sum in floating point, by complex exponentials "
    L = group.exponent
    return sum(float(v) * cmath.exp(-2j * cmath.pi * zeta_exponent(group, psi, g) / L)
               for g, v in zip(group.elements(), f))


# -- cyclotomics --------------------------------------------------------


def test_cyclotomic_polys_frozen():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(2) == [1, 1]
    assert cyclotomic_poly(3) == [1, 1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(6) == [1, -1, 1]
    assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_product_identity():
    " prod over d | L of Phi_d = x^L - 1 "
    for L in (6, 8, 12, 30):
        prod = [1]
        for d in range(1, L + 1):
            if L % d == 0:
                phi = cyclotomic_poly(d)
                new = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        new[i + j] += a * b
                prod = new
        want = [-1] + [0] * (L - 1) + [1]
        assert prod == want


def test_cyclo_arithmetic():
    z = zeta(5)
    total = CycloNumber.rational(5, 1)
    for k in range(1, 5):
        total = total + zeta(5, k)
    assert total == 0  # 1 + z + z^2 + z^3 + z^4 = 0
    assert z * conj(z) == 1
    assert z * zeta(5, 4) == 1
    w = zeta(8)
    assert w * w == zeta(8, 2)
    assert abs(as_complex(w * w) - 1j) < 1e-12  # zeta_8^2 = i
    assert abs(as_complex(w) - cmath.exp(2j * cmath.pi / 8)) < 1e-12


def test_cyclo_numeric_agreement():
    rng = random.Random(5)
    for L in (3, 4, 6, 12):
        deg = len(cyclotomic_poly(L)) - 1
        a = CycloNumber(L, [rng.randint(-4, 4) for _ in range(deg)])
        b = CycloNumber(L, [rng.randint(-4, 4) for _ in range(deg)])
        assert abs(as_complex(a * b) - as_complex(a) * as_complex(b)) < 1e-9
        assert abs(as_complex(a + b) - (as_complex(a) + as_complex(b))) < 1e-9


# -- groups, characters, Poisson ---------------------------------------


def test_characters_count_and_multiplicativity():
    for orders in [(2,), (2, 2), (4,), (2, 3), (6, 4)]:
        g = FiniteAbelianGroup(orders)
        chars = list(g.elements())
        assert len(chars) == g.order
        rng = random.Random(11)
        for psi in chars[:6]:
            for _ in range(5):
                x = tuple(rng.randrange(n) for n in orders)
                y = tuple(rng.randrange(n) for n in orders)
                assert character_value(g, psi, g.add(x, y)) == \
                    character_value(g, psi, x) * character_value(g, psi, y)


def test_z4_has_faithful_character():
    g = FiniteAbelianGroup((4,))
    assert any(len({zeta_exponent(g, psi, (k,)) for k in range(4)}) == 4
               for psi in g.elements())


def test_fourier_basics():
    g = FiniteAbelianGroup((2, 3))
    ones = [1] * g.order
    chars = list(g.elements())
    assert fourier(g, ones, chars[0]) == g.order
    for psi in chars[1:]:
        assert fourier(g, ones, psi) == 0
    delta = [1 if e == g.identity() else 0 for e in g.elements()]
    for psi in chars:
        assert fourier(g, delta, psi) == 1


def test_fourier_double_is_reflection():
    g = FiniteAbelianGroup((3, 2))
    rng = random.Random(3)
    f = [Fraction(rng.randint(-5, 5)) for _ in g.elements()]
    fhat = [fourier(g, f, psi) for psi in g.elements()]
    for x in g.elements():
        # the double transform evaluated at the character indexed by x
        val = fourier_cyclo(g, fhat, x)
        minus_x = tuple((-a) % n for a, n in zip(x, g.orders))
        assert val == g.order * f[g.index(minus_x)]


# composite exponents L = 12, 18, 48 and 12 again over three factors
ORACLE_GROUPS = [(4, 3), (2, 9), (16, 3), (2, 6, 4)]


@pytest.mark.parametrize("orders", ORACLE_GROUPS)
def test_fourier_matches_oracle(orders):
    g = FiniteAbelianGroup(orders)
    rng = random.Random(sum(orders))
    zero = [0] * g.order
    f = mixed_function(rng, g)
    for psi in g.elements():
        assert fourier(g, zero, psi) == 0
        got = fourier(g, f, psi)
        assert got == fourier_cyclo(g, f, psi), psi
        assert abs(as_complex(got) - numeric_fourier(g, f, psi)) < 1e-9


def test_fourier_l720_matches_oracle():
    g = FiniteAbelianGroup((16, 9, 5))
    assert g.exponent == 720
    f = mixed_function(random.Random(720), g)
    faithful = (3, 2, 4)
    assert fourier(g, f, faithful) == fourier_cyclo(g, f, faithful)
    for psi in [(0, 0, 0), (8, 0, 0), (1, 3, 0), (5, 7, 1)]:
        assert abs(as_complex(fourier(g, f, psi)) - numeric_fourier(g, f, psi)) < 1e-8
    # H = G: the annihilator is the trivial character alone
    lhs, rhs = poisson_check(g, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], f)
    assert lhs == rhs == fourier_cyclo(g, f, (0, 0, 0))


@pytest.mark.parametrize("orders", ORACLE_GROUPS)
def test_poisson_matches_oracle(orders):
    " both sides against per-character oracle sums, for H = {0}, a proper H and H = G "
    g = FiniteAbelianGroup(orders)
    rng = random.Random(len(orders) * 100 + orders[0])
    unit = tuple(1 if i == 0 else 0 for i in range(len(orders)))
    subgroups = [[], [g.identity()], [g.add(unit, unit)], list(g.elements())]
    for f in (mixed_function(rng, g), [0] * g.order):
        value = dict(zip(g.elements(), f))
        for gens in subgroups:
            H = subgroup_generated(g, gens)
            lhs, rhs = poisson_check(g, gens, f)
            want = CycloNumber.rational(g.exponent, 0)
            for psi in naive_annihilator(g, H):
                want = want + fourier_cyclo(g, f, psi)
            assert rhs == want * Fraction(len(H), g.order)
            assert lhs == rhs == sum((value[h] for h in H), Fraction(0))


def test_annihilator_from_generators():
    """testing the generators alone finds the same characters: random
    generators, then no generator, the identity, dependent generators,
    and a group of exponent 720"""
    rng = random.Random(12)
    cases = []
    for orders in [(4, 6), (2, 2, 4), (3, 9), (8,)]:
        for _ in range(6):
            cases.append((orders, [tuple(rng.randrange(n) for n in orders)
                                   for _ in range(rng.randint(0, 2))]))
    cases += [((4, 6), []), ((4, 6), [(0, 0)]), ((2, 2, 4), [(0, 0, 0), (1, 0, 2)]),
              ((2, 2, 4), [(1, 0, 2), (0, 1, 2), (1, 1, 0)]), ((3, 9), [(1, 3), (2, 6)]),
              ((16, 9, 5), []), ((16, 9, 5), [(0, 0, 0)]),
              ((16, 9, 5), [(2, 3, 0), (4, 6, 0)]),
              ((16, 9, 5), [(4, 3, 1), (8, 6, 2), (12, 0, 3)])]
    for orders, gens in cases:
        g = FiniteAbelianGroup(orders)
        H = subgroup_generated(g, gens)
        assert annihilator(g, gens) == naive_annihilator(g, H), (orders, gens)
        assert len(annihilator(g, gens)) * len(H) == g.order


def test_poisson_frozen_z4():
    g = FiniteAbelianGroup((4,))
    f = [1, 0, 0, 0]
    lhs, rhs = poisson_check(g, [(0,), (2,)], f)
    assert lhs == 1 and rhs == 1
    # a value list of the wrong length is an error, not a shorter sum
    for short in (f[:2], f + [0]):
        message = "%d values for a group of order 4" % len(short)
        with pytest.raises(ValueError, match=message):
            poisson_check(g, [], short)
        with pytest.raises(ValueError, match=message):
            fourier(g, short, (1,))


def test_poisson_constant():
    g = FiniteAbelianGroup((2, 4))
    ones = [1] * g.order
    h = subgroup_generated(g, [(1, 2)])
    lhs, rhs = poisson_check(g, [(1, 2)], ones)
    assert lhs == len(h) and rhs == len(h)


def test_poisson_random_triples():
    rng = random.Random(77)
    for _ in range(40):
        g, h, f = sample_poisson_triple(rng, max_order=256, max_work=1 << 12)
        lhs, rhs = poisson_check(g, h, f)
        assert lhs == rhs


def test_group_function_total():
    with pytest.raises(ValueError):
        parse_group_function("group 2 2\nf 0,0 1\n")
    # the first missing element in element order is named, and the values
    # come back in element order whatever the order of the lines
    g = FiniteAbelianGroup((2, 3))
    lines = ["f %d,%d %d" % (a, b, 3 * a + b) for a, b in g.elements()]
    for drop in [(0, 0), (0, 2), (1, 0), (1, 2)]:
        text = "group 2 3\n" + "\n".join(
            ln for e, ln in zip(g.elements(), lines) if e != drop)
        with pytest.raises(ValueError) as err:
            parse_group_function(text)
        assert str(err.value) == "function not total: missing %s" % (drop,)
    text = "group 2 3\n" + "\n".join(reversed(lines))
    assert parse_group_function(text) == (g, list(range(6)))


def test_group_text_roundtrip():
    g = FiniteAbelianGroup((2, 3))
    rng = random.Random(9)
    f = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in g.elements()]
    assert parse_group_function(format_group_function(g, f)) == (g, f)


BAD_GROUP_FILES = [
    ("group 2\nf 0 1\nf 1 1/0\n", "line 3 'f 1 1/0': value 1/0 has denominator 0"),
    ("group 2\nf 0 1\nf 1 1\nf 5 1\n", "line 4 'f 5 1': element 5 is not in the group (2,)"),
    ("group 0\n", "line 1 'group 0': cyclic order 0 is not >= 1"),
    ("# no header\nf 0 1\n", "line 2 'f 0 1': the group line must come first"),
    ("# nothing\n", "missing group line"),
    ("group 2\nf 0\n", "line 2 'f 0': want"),
    ("group 2\nf 0,x 1\n", "line 2 'f 0,x 1': invalid literal"),
]


@pytest.mark.parametrize("text, message", BAD_GROUP_FILES)
def test_bad_group_function_named(text, message):
    with pytest.raises(ValueError) as err:
        parse_group_function(text)
    assert str(err.value).startswith(message)


def test_subgroup_generator_outside_group():
    g = FiniteAbelianGroup((2,))
    with pytest.raises(ValueError, match="generator 7 is not an element"):
        subgroup_generated(g, [(7,)])


# -- the one-pass reader, the incremental span and the integer H-sum ------
# against the code they replaced (tests/_oracles.py)

# every kind of value token: integers, signs, decimals, exponents, a zero
# denominator, a sign in the denominator, garbage and a non-ASCII digit
VALUE_TOKENS = ["3", "-3/7", "+2", "1.5", "1e2", "1/0", "3/-4", "x", "\u0663",
                "0", "-5/6"]
GOOD_TOKENS = ["3", "-3/7", "+2", "1.5", "1e2", "\u0663", "0", "-5/6", "7/4"]
LINE_EDITS = ["none", "value", "drop", "duplicate", "out of range", "arity",
              "second group", "comment", "blank"]


@st.composite
def small_orders(draw):
    " 1 to 4 cyclic factors of order 1..16, with |G| <= 64 "
    orders, size = [], 1
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, min(16, 64 // size)))
        orders.append(n)
        size *= n
    return tuple(orders)


def _elem_token(e):
    return ",".join(map(str, e))


@st.composite
def group_file(draw):
    """text of a group-function file, possibly out of element order and
    padded with whitespace, after at most one single-line edit"""
    orders = draw(small_orders())
    g = FiniteAbelianGroup(orders)
    lines = ["group " + " ".join(map(str, orders))]
    body = ["f %s %s" % (_elem_token(e), draw(st.sampled_from(GOOD_TOKENS)))
            for e in g.elements()]
    lines += draw(st.permutations(body))
    edit = draw(st.sampled_from(LINE_EDITS))
    i = draw(st.integers(0, len(lines)))
    at = min(i, len(lines) - 1)
    if edit == "value" and len(lines) > 1:
        at = max(at, 1)
        toks = lines[at].split()
        lines[at] = " ".join(toks[:2] + [draw(st.sampled_from(VALUE_TOKENS))])
    elif edit == "drop":
        del lines[at]
    elif edit == "duplicate":
        lines.insert(i, lines[at])
    elif edit == "out of range" and orders:
        e = [0] * len(orders)
        k = draw(st.integers(0, len(orders) - 1))
        e[k] = draw(st.sampled_from([orders[k], -1, orders[k] + 3]))
        lines.insert(i, "f %s 1" % _elem_token(e))
    elif edit == "arity":
        lines.insert(i, "f %s 1" % _elem_token([0] * (len(orders) + 1)))
    elif edit == "second group":
        lines.insert(max(i, 1), lines[0])
    elif edit == "comment":
        comment = draw(st.sampled_from(["# f %s 9", "#f %s 9", "#"]))
        lines.insert(i, comment.replace("%s", _elem_token([0] * len(orders))))
    elif edit == "blank":
        lines.insert(i, "")
    pads = ["", " ", "\t", "  "]
    lines = [draw(st.sampled_from(pads)) + ln + draw(st.sampled_from(pads))
             for ln in lines]
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _read_outcome(parse, text):
    try:
        group, f = parse(text)
    except ValueError as e:
        return "ValueError", str(e)
    assert all(type(v) is Fraction for v in f)
    return group.orders, f


@given(group_file())
@settings(max_examples=300, deadline=None)
def test_group_reader_matches_oracle(text):
    " equal (orders, values in element order), or the same error text "
    assert _read_outcome(parse_group_function, text) == \
        _read_outcome(parse_group_function_oracle, text)


def test_group_reader_value_tokens():
    " each token kind once, as Fraction(str) reads it, through both readers "
    for tok in VALUE_TOKENS:
        text = "group 2\nf 0 %s\nf 1 %s\n" % (tok, tok)
        got = _read_outcome(parse_group_function, text)
        assert got == _read_outcome(parse_group_function_oracle, text), tok
        try:
            want = Fraction(tok)
        except (ValueError, ZeroDivisionError):
            assert got[0] == "ValueError" and got[1].startswith("line 2 "), (tok, got)
        else:
            assert got == ((2,), [want, want]), tok


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return "ValueError", str(e)


@given(st.integers(0, 2 ** 32), st.sampled_from(["H", "gens", "empty", "G"]))
@settings(max_examples=60, deadline=None)
def test_poisson_check_matches_oracle(seed, which):
    " both sides equal, and print equal, to the Fraction-by-Fraction code "
    rng = random.Random(seed)
    g, gens, f = sample_poisson_triple(rng, max_order=128, max_work=1 << 11)
    spec = {"H": list(subgroup_generated(g, gens)), "empty": [],
            "G": list(g.elements()), "gens": gens}[which]
    got = _outcome(poisson_check, g, spec, f)
    want = _outcome(fraction_poisson_check, g, spec, f)
    assert got == want and str(got) == str(want)


def test_poisson_check_names_the_same_bad_value():
    " a non-rational value on H is named before one elsewhere, as before "
    g = FiniteAbelianGroup((4,))
    z = zeta(4)
    f = [1, z, 2 * z, 3]
    for spec in ([(2,)], []):
        with pytest.raises(TypeError) as got:
            poisson_check(g, spec, f)
        with pytest.raises(TypeError) as want:
            fraction_poisson_check(g, spec, f)
        assert str(got.value) == str(want.value)
        assert str(got.value) == ("fourier needs rational function values, got %r"
                                  % ((2 * z) if spec else z,))


def test_huge_group_file_exits_2(tmp_path):
    """a missing element of a group of order 10^9 or 10^12 is named at
    once, with no walk over the group; under RLIMIT_AS a regression that
    builds an axis fails with a MemoryError instead of taking the runner"""
    files = {"cyclic.fn": "group 1000000000\nf 0 1\nf 1 2\n",
             "product.fn": "group 1000000 1000000\nf 0,0 1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from gl2trace.cli import run\n"
            "sys.exit(run(['poisson', '--f', sys.argv[1]]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(gl2trace.__file__)))
    for name, missing in (("cyclic.fn", "(2,)"), ("product.fn", "(0, 1)")):
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / name)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: function not total: missing %s\n" % missing), name


# -- arithmetic symbols -------------------------------------------------


def test_legendre_and_kronecker():
    assert [legendre(a, 7) for a in range(1, 7)] == [1, 1, -1, 1, -1, -1]
    assert kronecker(-4, 3) == -1
    assert kronecker(8, 7) == 1
    assert kronecker(12, 3) == 0
    assert kronecker(5, -1) == 1 and kronecker(-5, -1) == -1
    # Jacobi composite bottom
    assert kronecker(2, 15) == kronecker(2, 3) * kronecker(2, 5)


def test_kronecker_vs_legendre_property():
    rng = random.Random(21)
    for p in (3, 5, 7, 11, 13):
        for _ in range(20):
            a = rng.randint(1, 200)
            if a % p == 0:
                continue
            assert kronecker(a, p) == legendre(a, p)


def test_hilbert_symbol_squares_and_symmetry():
    rng = random.Random(31)
    places = [INF, 2, 3, 5, 7]
    vals = [1, -1, 2, 3, 5, 6, -10, Fraction(1, 2), Fraction(-3, 5), 30]
    for _ in range(60):
        a = rng.choice(vals)
        b = rng.choice(vals)
        v = rng.choice(places)
        s = hilbert_symbol(a, b, v)
        assert s in (1, -1)
        assert hilbert_symbol(b, a, v) == s
        assert hilbert_symbol(a * 4, b, v) == s          # square invariance
        c = rng.choice(vals)
        assert hilbert_symbol(a, b * c, v) == s * hilbert_symbol(a, c, v)


def test_hilbert_product_formula():
    " global reciprocity: product over all relevant places is 1 "
    pairs = [(-1, -1), (2, 3), (-2, 15), (Fraction(3, 5), -7), (6, 10), (-1, 2)]
    for a, b in pairs:
        support = {INF, 2}
        for x in (a, b):
            n = abs(Fraction(x).numerator * Fraction(x).denominator)
            p = 2
            while p * p <= n:
                if n % p == 0:
                    support.add(p)
                    while n % p == 0:
                        n //= p
                p += 1
            if n > 1:
                support.add(n)
        prod = 1
        for v in support:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


def test_hilbert_known_values():
    assert hilbert_symbol(-1, -1, INF) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(2, 3, 2) == -1
    assert hilbert_symbol(3, 3, 3) == -1  # (3,3)_3 = (3,-1)_3... = legendre(-1,3) = -1
    assert hilbert_symbol(5, 2, 5) == -1  # 2 is a nonresidue mod 5


def fraction_hilbert_symbol(a, b, place):
    """oracle for hilbert_symbol: both arguments made Fractions first,
    then split into sign, p-adic valuation and unit"""
    a, b = Fraction(a), Fraction(b)
    ai = a.numerator * a.denominator
    bi = b.numerator * b.denominator
    if place == INF:
        return -1 if ai < 0 and bi < 0 else 1
    p = place
    sa = -1 if ai < 0 else 1
    sb = -1 if bi < 0 else 1
    alpha, u = split_val(abs(ai), p)
    beta, w = split_val(abs(bi), p)
    u *= sa
    w *= sb
    if p == 2:
        eps_u, eps_w = ((u - 1) // 2) % 2, ((w - 1) // 2) % 2
        om_u, om_w = ((u * u - 1) // 8) % 2, ((w * w - 1) // 8) % 2
        return -1 if (eps_u * eps_w + alpha * om_w + beta * om_u) % 2 else 1
    s = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        s = -s
    if beta % 2 and legendre(u % p, p) == -1:
        s = -s
    if alpha % 2 and legendre(w % p, p) == -1:
        s = -s
    return s


def split_val(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def test_hilbert_symbol_inputs_match_fraction_path():
    " ints and Fractions are read directly; other Fraction() inputs still work "
    vals = [1, -1, 2, -2, 3, -12, 50, -98, 7 * 11 * 13, True,
            Fraction(1, 2), Fraction(-3, 5), Fraction(49, 18), Fraction(-22, 75),
            "3/5", "-14", " 10/21 ", 0.75, -2.5, Decimal("-0.125"), Decimal(45)]
    for v in [INF, 2, 3, 5, 7, 11, 13]:
        for a in vals:
            for b in vals:
                assert hilbert_symbol(a, b, v) == fraction_hilbert_symbol(a, b, v), (a, b, v)


def test_hilbert_symbol_rejects_zero():
    for a, b in [(0, 3), (3, Fraction(0)), ("0/7", -1), (5, 0.0)]:
        for v in (INF, 2, 3):
            with pytest.raises(ValueError, match="nonzero rational, got 0"):
                hilbert_symbol(a, b, v)
    with pytest.raises(ValueError):
        hilbert_symbol("x", 3, 2)      # Fraction() rejects it, as before


def test_symbol_input_checks_survive_optimize():
    " named exceptions, not asserts, so python -O keeps them "
    code = ("from gl2trace.assembly import ArchProfile\n"
            "from gl2trace.chargroup import (class_group_mod_squares,\n"
            "    hilbert_symbol, local_square_class)\n"
            "from gl2trace.chargroup import (CycloNumber, FiniteAbelianGroup,\n"
            "    fourier)\n"
            "from _oracles import quad_char_eval, section_vector, zeta\n"
            "g = class_group_mod_squares(['inf', 2, 3])\n"
            "z4, z8 = zeta(4), zeta(8)\n"
            "for call in (lambda: hilbert_symbol(0, 3, 2),\n"
            "             lambda: hilbert_symbol(3, '0/5', 'inf'),\n"
            "             lambda: local_square_class(0, 3),\n"
            "             lambda: g.diagonal_vector(0),\n"
            "             lambda: section_vector(g, 0),\n"
            "             lambda: quad_char_eval(5, 0),\n"
            "             lambda: ArchProfile(pos=((-1, 1, [1]),)).value_at(0),\n"
            "             lambda: CycloNumber(4, [1]),\n"
            "             lambda: z4 + z8,\n"
            "             lambda: FiniteAbelianGroup((2, 0)),\n"
            "             lambda: fourier(FiniteAbelianGroup((2, 3)), [0] * 6, (1, 3)),\n"
            "             lambda: fourier(FiniteAbelianGroup((2,)), [0] * 2, (0, 0))):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as e:\n"
            "        print(e)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([
        os.path.dirname(os.path.dirname(gl2trace.__file__)), TESTS_DIR]))
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable] + flags + ["-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "expected a nonzero rational, got 0",
            "expected a nonzero rational, got 0",
            "expected a nonzero rational, got 0",
            "0 is not an S-unit for S = ['inf', 2, 3]",
            "0 is not an S-unit for S = ['inf', 2, 3]",
            "character value at t = 0: t must be nonzero",
            "profile value at t = 0: the profiles live on R^x",
            "an element of Q(zeta_4) takes 2 coefficients, got 1",
            "mixed cyclotomic levels 4 and 8",
            "cyclic order 0 is not >= 1",
            "character exponents (1, 3) are not an element of the group (2, 3)",
            "character exponents (0, 0) are not an element of the group (2,)"], flags


# -- the S-class group --------------------------------------------------


def test_class_group_infinity_only():
    g = class_group_mod_squares([INF])
    assert g.group.order == 1
    assert g.quad_chars == [1]


def test_class_group_inf_2():
    g = class_group_mod_squares([INF, 2])
    assert g.group.orders == (2, 2)
    assert sorted(g.quad_chars) == [-8, -4, 1, 8]


def test_class_group_inf_2_3():
    g = class_group_mod_squares([INF, 2, 3])
    assert g.group.orders == (2, 2, 2)
    assert g.quad_chars == [1, -3, -4, 8, -8, 12, 24, -24]   # by |d|, d > 0 first


def test_class_group_inf_2_3_5():
    g = class_group_mod_squares([INF, 2, 3, 5])
    assert g.group.order == 16
    assert len(set(g.quad_chars)) == 16


def test_place_normalization():
    g = class_group_mod_squares([3, "inf", 2])
    assert g.places == [INF, 2, 3]
    with pytest.raises(ValueError, match="archimedean place inf"):
        class_group_mod_squares([2, 3])
    with pytest.raises(ValueError, match="place 4 is not a prime"):
        class_group_mod_squares([INF, 4])
    with pytest.raises(ValueError, match="place 1 is not a prime"):
        class_group_mod_squares([INF, 1])


def project_to_D(t, sgroup):
    " class of the S-unit t in the quotient group "
    return project(sgroup, Fraction(t))


def diagonal_class(sgroup, t):
    " class of the full diagonal image (trivial by construction) "
    return reduce_vector(sgroup, sgroup.diagonal_vector(t))


def test_project_examples():
    g = class_group_mod_squares([INF, 2])
    assert project_to_D(1, g) == g.group.identity()
    # -1 touches only the sign coordinate; its class generates
    assert section_vector(g, Fraction(-1)) == (1, 0, 0, 0)
    minus = project_to_D(-1, g)
    assert minus == reduce_vector(g, (1, 0, 0, 0))
    assert minus != g.group.identity()
    # the uniformizer section (0,1,0,0) happens to coincide with the
    # full diagonal of 2 when S = {inf, 2}, so its class degenerates
    assert section_vector(g, Fraction(2)) == (0, 1, 0, 0)
    two = project_to_D(2, g)
    assert two == reduce_vector(g, (0, 1, 0, 0))
    assert two == g.group.identity()
    with pytest.raises(ValueError):
        project_to_D(Fraction(3), g)


def test_project_is_section_not_diagonal():
    " with 3 in S the unit part of 2 at 3 separates the two maps "
    g = class_group_mod_squares([INF, 2, 3])
    assert project_to_D(2, g) != g.group.identity()
    assert diagonal_class(g, 2) == g.group.identity()
    assert project_to_D(3, g) != g.group.identity()
    # project is a homomorphism on S-units
    for s, t in [(-1, 2), (2, 3), (-3, Fraction(1, 6))]:
        lhs = project_to_D(Fraction(s) * Fraction(t), g)
        rhs = g.group.add(project_to_D(s, g), project_to_D(t, g))
        assert lhs == rhs


def test_diagonal_classes_are_trivial():
    " full diagonal images of S-units land in H_S "
    for S in ([INF, 2], [INF, 2, 3], [INF, 2, 3, 5]):
        g = class_group_mod_squares(S)
        units = [-1] + [p for p in g.places[1:]]
        rationals = set()
        for mask in range(1 << len(units)):
            t = Fraction(1)
            for i, u in enumerate(units):
                if mask >> i & 1:
                    t *= u
            rationals.add(t)
            rationals.add(1 / t)
        for t in rationals:
            assert diagonal_class(g, t) == g.group.identity(), (S, t)


def test_quad_char_eval_frozen():
    assert quad_char_eval(1, 17) == 1
    assert quad_char_eval(-4, 3) == -1
    assert quad_char_eval(8, 7) == 1
    assert quad_char_eval(12, 3) == 0
    assert quad_char_eval(-4, Fraction(3, 5)) == \
        kronecker(-4, 3) * kronecker(-4, 5)


def test_compatibility_section_vs_kronecker():
    " psi_d(section class of t) = (d/t) for S-units t coprime to d "
    for S in ([INF, 2], [INF, 2, 3], [INF, 2, 3, 5], [INF, 2, 5]):
        g = class_group_mod_squares(S)
        finite = g.places[1:]
        units = []
        for mask in range(1, 1 << (len(finite) + 1)):
            t = Fraction(1)
            if mask & 1:
                t = -t
            for i, p in enumerate(finite):
                if mask >> (i + 1) & 1:
                    t *= p
            units.append(t)
            units.append(1 / t)
        for d in g.quad_chars:
            for t in units:
                n = abs(t.numerator * t.denominator)
                if math.gcd(n, abs(d)) != 1:
                    continue
                got = on_element(g, d, project(g, t))
                want = quad_char_eval(d, t)
                assert got == want, (S, d, t)


def hilbert_product(c, u, places):
    " the explicit reciprocity product: prod over v in S of (c, u)_v "
    prod = 1
    for v in places:
        prod *= hilbert_symbol(c, u, v)
    return prod


DUAL_PLACE_SETS = [[INF], [INF, 2], [INF, 3], [INF, 2, 3], [INF, 3, 5, 7],
                   [INF, 2, 5, 13, 17], [INF, 3, 5, 7, 11, 13, 17],
                   [INF, 2, 3, 5, 7, 11, 13]]


def test_quad_char_on_vector_respects_hilbert():
    """the dual is exactly the c in <-1, p in S> whose reciprocity
    product against -1 and every p in S is 1, and each character's
    table is the Hilbert pairing with its c"""
    for S in DUAL_PLACE_SETS:
        g = class_group_mod_squares(S)
        finite = g.places[1:]
        units = [-1] + finite
        kept = {unit_part(d) for d in g.quad_chars}
        for mask in range(1 << len(units)):
            c = 1
            for i, u in enumerate(units):
                if mask >> i & 1:
                    c *= u
            live = all(hilbert_product(c, u, g.places) == 1 for u in units)
            assert (c in kept) == live, (S, c)
        # without 2 in S, half of the candidates fail reciprocity
        assert len(kept) * (1 if 2 in finite else 2) == 1 << len(units), S
        points = units + [-math.prod(finite)]
        if finite:
            points.append(Fraction(finite[0], finite[-1]))
        for d in g.quad_chars:
            for t in points:
                prod = hilbert_product(unit_part(d), t, g.places)
                assert on_vector(g, d, g.diagonal_vector(t)) == prod == 1, (S, d, t)


def test_dual_calls_no_hilbert_symbol(monkeypatch):
    " reciprocity names the dual, so building it evaluates no symbol "
    calls = [0]
    real = chargroup.hilbert_symbol

    def counted(a, b, v):
        calls[0] += 1
        return real(a, b, v)

    monkeypatch.setattr(chargroup, "hilbert_symbol", counted)
    for S in DUAL_PLACE_SETS:
        chargroup.SClassGroup(S)
        assert calls[0] == 0, S


def hand_section_vector(g, t):
    " sign and valuations mod 2 read off t by hand, unit bits 0 "
    t = Fraction(t)
    bits = []
    for v in g.places:
        if v == INF:
            bits.append(1 if t < 0 else 0)
        else:
            val = 0
            n = abs(t.numerator * t.denominator)
            while n % v == 0:
                n //= v
                val += 1
            bits.extend([val % 2] + [0] * (2 if v == 2 else 1))
    return tuple(bits)


def test_section_vector_matches_hand_valuations():
    rng = random.Random(11)
    for S in DUAL_PLACE_SETS:
        g = class_group_mod_squares(S)
        for _ in range(40):
            t = Fraction(rng.choice((1, -1)))
            for p in g.places[1:]:
                t *= Fraction(p) ** rng.randint(-3, 3)
            assert section_vector(g, t) == hand_section_vector(g, t), (S, t)
            assert project(g, t) == reduce_vector(g, hand_section_vector(g, t))


def test_unramified_flags():
    """chi_d is ramified at p exactly where kronecker(d, p) = 0, which is
    where p divides d, for every character of every place set here"""
    assert kronecker(12, 3) == kronecker(12, 2) == kronecker(8, 2) == 0
    assert kronecker(12, 5) and kronecker(8, 3) and kronecker(-3, 2)
    for S in DUAL_PLACE_SETS:
        g = class_group_mod_squares(S)
        for d in g.quad_chars:
            assert unit_part(d) in (d, d // 4), (S, d)
            for p in g.places[1:]:
                assert (kronecker(d, p) == 0) == (d % p == 0), (S, d, p)
