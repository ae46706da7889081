"""Acceptance battery: twelve headline checks, one verdict line each.

Each check prints `criterion NN <name>: PASS/FAIL (...)` so the run
log doubles as the acceptance report.  Scales and tolerances are fixed
here and nowhere weakened; supporting unit tests carry the oracles.
"""

import random
import time
import warnings
from fractions import Fraction

from gl2trace.assembly import (ArchProfile, GlobalTestFunction,
                               cartan_discrepancy, numeric_verify,
                               residual_geometric, residual_spectral)
from gl2trace.basicfn import RepSpec, truncated_basic_identity
from gl2trace.chargroup import poisson_check
from gl2trace.hecke import (HeckeElement, LocalField, SatakeParameter,
                            convolve, inverse_satake, satake_transform)
from gl2trace.orbital import (SplitClass, measure_phi_exponent, orbital_zeta,
                              phi_transform, rational_reconstruct,
                              split_orbital, tree_orbital_oracle)
from gl2trace.rings import LaurentQ
from gl2trace.spectral import AdjointProxy, delta_qexpansion, mr_estimator

from _oracles import hecke_sum, sample_poisson_triple, trivial_parameter

INF = "inf"


def _verdict(num, name, ok, detail):
    print("criterion %02d %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL",
                                          detail))
    assert ok, "criterion %02d %s: %s" % (num, name, detail)


def _random_hecke(rng, field, emax=3, nkeys=3):
    terms = []
    for _ in range(rng.randint(1, nkeys)):
        b = rng.randint(-emax, emax)
        a = rng.randint(b, emax)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        terms.append(((a, b), c))
    return hecke_sum(field, terms)


def test_c01_satake_homomorphism():
    rng = random.Random(101)
    t0 = time.time()
    pairs = 0
    for q in (2, 3, 5, 7):
        field = LocalField(q)
        for _ in range(200):
            f = _random_hecke(rng, field)
            g = _random_hecke(rng, field)
            if satake_transform(convolve(f, g)) \
                    != satake_transform(f) * satake_transform(g):
                _verdict(1, "satake-homomorphism", False,
                         "counterexample q=%d f=%r g=%r" % (q, f, g))
            pairs += 1
    dt = time.time() - t0
    _verdict(1, "satake-homomorphism", dt < 60,
             "%d pairs, %.1fs" % (pairs, dt))


def test_c02_satake_round_trip():
    rng = random.Random(102)
    t0 = time.time()
    count = 0
    for q in (2, 3, 5, 7):
        field = LocalField(q)
        for _ in range(50):
            h = _random_hecke(rng, field)
            if inverse_satake(satake_transform(h), field) != h:
                _verdict(2, "satake-round-trip", False, "counterexample %r" % h)
            count += 1
    dt = time.time() - t0
    _verdict(2, "satake-round-trip", dt < 30, "%d elements, %.1fs" % (count, dt))


def test_c03_hecke_identity():
    for q in (2, 3, 5):
        field = LocalField(q)
        tp = HeckeElement.char(field, (1, 0))
        want = HeckeElement(field, {(2, 0): 1, (1, 1): q + 1})
        if convolve(tp, tp) != want:
            _verdict(3, "tp-squared", False, "q=%d" % q)
    _verdict(3, "tp-squared", True, "q in {2,3,5}, exact")


def test_c04_basic_function_identity():
    t0 = time.time()
    reps = [RepSpec.parse(s) for s in ("std", "sym2", "sym3", "std*det")]
    params = [trivial_parameter(), SatakeParameter.from_triple(2, 1),
              SatakeParameter.from_triple(3, 2)]
    for q in (2, 3):
        field = LocalField(q)
        for r in reps:
            for c in params:
                lhs, rhs = truncated_basic_identity(r, c, 12, field)
                if lhs != rhs:
                    _verdict(4, "trace-equals-l-factor", False,
                             "q=%d r=%r c=%r" % (q, r, c))
    dt = time.time() - t0
    _verdict(4, "trace-equals-l-factor", dt < 120,
             "4 reps x 3 parameters x q in {2,3}, N=12, %.1fs" % dt)


def _orbital_grid(field):
    q = field.q
    classes = [SplitClass(field, 1, 0),
               SplitClass(field, 2, 0),
               SplitClass(field, 2, 1),
               SplitClass(field, 1, -1),
               SplitClass(field, 0, 0),
               SplitClass(field, 0, 0, d=2 if q != 2 else 3),
               SplitClass(field, 1, 1, d=3)]
    return [g for g in classes if g.d <= 3]


def test_c05_phi_relation():
    measured = set()
    for q in (2, 3, 5):
        field = LocalField(q)
        hs = [HeckeElement.unit(field), HeckeElement.char(field, (1, 0)),
              HeckeElement.char(field, (2, 0))]
        for h in hs:
            for g in _orbital_grid(field):
                if phi_transform(h, g) \
                        != LaurentQ.v_power(g.m2 - g.m1, q) * split_orbital(h, g):
                    _verdict(5, "phi-half-exponent", False,
                             "q=%d class=%r" % (q, g))
                e = measure_phi_exponent(g, phi_transform(h, g),
                                         split_orbital(h, g))
                if e is not None:
                    measured.add(e)
    _verdict(5, "phi-half-exponent", measured == {Fraction(1, 2)},
             "measured exponent(s) %s, not 1" % sorted(map(str, measured)))


def test_c06_orbital_oracle_equivalence():
    checked = 0
    for q in (2, 3, 5):
        field = LocalField(q)
        hs = [HeckeElement.unit(field), HeckeElement.char(field, (1, 0)),
              HeckeElement.char(field, (2, 0))]
        for h in hs:
            radius = max(max(abs(a), abs(b)) for (a, b) in h.support())
            for g in _orbital_grid(field):
                depth = g.d + radius + 2
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = tree_orbital_oracle(h, g, depth)
                if got != split_orbital(h, g):
                    _verdict(6, "orbital-vs-tree", False,
                             "q=%d class=%r h=%r" % (q, g, h))
                checked += 1
    _verdict(6, "orbital-vs-tree", True, "%d cases, exact" % checked)


def test_c07_zeta_rationality():
    degn, degd = 3, 3
    order = degn + degd + 12  # 12 certified coefficients past the window
    for q in (2, 3):
        field = LocalField(q)
        classes = [SplitClass(field, 1, 0),
                   SplitClass(field, 0, 0, d=1),
                   SplitClass(field, 0, 0, d=2)]
        for g in classes:
            series = orbital_zeta(g, RepSpec(1), order)
            fn = rational_reconstruct(series, degn, degd)
            if fn is None:
                _verdict(7, "zeta-rationality", False,
                         "no degree-(%d,%d) fit at q=%d d=%d"
                         % (degn, degd, q, g.d))
    _verdict(7, "zeta-rationality", True,
             "q in {2,3}, d in {0,1,2}, 12 certified coefficients")


def test_c08_finite_poisson():
    rng = random.Random(108)
    t0 = time.time()
    for k in range(500):
        group, hgens, f = sample_poisson_triple(rng)
        lhs, rhs = poisson_check(group, hgens, f)
        if lhs != rhs:
            _verdict(8, "finite-poisson", False,
                     "triple %d: %s vs %s" % (k, lhs, rhs))
    _verdict(8, "finite-poisson", True,
             "500 triples, %.1fs" % (time.time() - t0))


def _residual_battery(rng, places):
    def profile():
        pieces = lambda: tuple(
            (k, k + 1, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))])
            for k in range(-2, 2))
        return ArchProfile(pos=pieces(), neg=pieces())
    hecke = {}
    for p in places[1:]:
        field = LocalField(p)
        terms = []
        for _ in range(rng.randint(1, 3)):
            b = rng.randint(-2, 2)
            a = rng.randint(b, 2)
            terms.append(((a, b), rng.randint(-5, 5)))
        hecke[p] = hecke_sum(field, terms)
    return GlobalTestFunction(places, hecke=hecke, f_profile=profile(),
                              phi_profile=profile())


def test_c09_residual_identity():
    rng = random.Random(109)
    t0 = time.time()
    count = 0
    for places in ([INF, 2], [INF, 2, 3]):
        for _ in range(12):
            f = _residual_battery(rng, places)
            if residual_spectral(f) != residual_geometric(f):
                _verdict(9, "residual-identity", False,
                         "S=%s function %d" % (places, count))
            count += 1
    dt = time.time() - t0
    _verdict(9, "residual-identity", dt < 60,
             "%d functions over two place sets, exact, %.1fs" % (count, dt))


def test_c10_intertwining_limit():
    errs = [abs(numeric_verify(s) + 1) for s in (1e-2, 1e-3, 1e-4)]
    ok = errs[-1] < 1e-3 and errs[0] > errs[1] > errs[2]
    _verdict(10, "intertwining-limit", ok,
             "errors %.2e > %.2e > %.2e" % tuple(errs))


def test_c11_estimator_trends():
    t0 = time.time()
    table = delta_qexpansion(10 ** 4)
    if table.ap(2) != -24:
        _verdict(11, "estimator-trends", False, "tau(2) = %d" % table.ap(2))
    n = 10 ** 4
    triv = mr_estimator(RepSpec(0), table, n)
    sym2 = mr_estimator(RepSpec(2), table, n)
    proxy = mr_estimator(AdjointProxy(), table, n) / triv
    dt = time.time() - t0
    ok = abs(sym2) < 0.3 and 0.6 < proxy < 1.4 and dt < 120
    _verdict(11, "estimator-trends", ok,
             "sym2 %.4f, proxy/trivial %.3f, %.1fs" % (sym2, proxy, dt))


def test_c12_cartan_report():
    for q in (2, 3, 5):
        field = LocalField(q)
        f = GlobalTestFunction([INF, q] if q != 2 else [INF, 2],
                               hecke={q: HeckeElement(field, {(1, 0): 1,
                                                              (0, 0): 1})})
        ratios = {key: r for _, key, _, _, r in cartan_discrepancy(f)}
        if ratios[(0, 0)] != 1 or ratios[(1, 0)] != Fraction(q + 1, 2):
            _verdict(12, "cartan-ratios", False, "q=%d got %s" % (q, ratios))
    _verdict(12, "cartan-ratios", True,
             "char_K ratio 1, T_p ratio (q+1)/2, q in {2,3,5}")
