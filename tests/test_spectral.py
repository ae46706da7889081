"""Eigenvalue tables, Satake normalization, Euler products, estimators."""

import math

import pytest

from gl2trace.basicfn import RepSpec, truncated_basic_identity
from gl2trace.kernels import tau_table
from gl2trace.spectral import (AdjointProxy, EigenTable, delta_qexpansion,
                               estimator_series, format_estimates,
                               load_eigentable, loads_eigentable,
                               mr_estimator, pairwise_sum, parse_weighting,
                               partial_euler, primes_below, residue_estimator,
                               satake_from_ap)

STD = RepSpec(1)
SYM2 = RepSpec(2)
TRIV = RepSpec(0)


def brute_tau(x):
    """tau(1..x) by multiplying out (1 - q^n)^24 term by term; slow and
    independent of the sparse-kernel route."""
    c = [0] * x
    c[0] = 1
    for n in range(1, x):
        for _ in range(24):
            for i in range(x - 1, n - 1, -1):
                c[i] -= c[i - n]
    return c


def sparse_tau(x):
    """tau(1..x) as the first x coefficients of (eta^3)^8, by eight
    sparse multiplications with the Jacobi series of eta^3."""
    if x < 1:
        return []
    terms = []
    k = 0
    while k * (k + 1) // 2 < x:
        terms.append((k * (k + 1) // 2, (2 * k + 1) * (-1) ** k))
        k += 1
    c = [0] * x
    c[0] = 1
    for _ in range(8):
        nxt = [0] * x
        for e, coef in terms:
            for i in range(x - e):
                if c[i]:
                    nxt[i + e] += coef * c[i]
        c = nxt
    return c


def smallest_prime_factor(n):
    p = 2
    while n % p:
        p += 1
    return p


# -- tau oracle ---------------------------------------------------------


def test_tau_against_brute_expansion():
    assert tau_table(60) == brute_tau(60)


@pytest.mark.parametrize("x", [1, 2, 3, 60, 61, 1000, 4097])
def test_tau_against_sparse_kernel(x):
    assert tau_table(x) == sparse_tau(x)


def test_tau_empty():
    assert tau_table(0) == []


def test_tau_deligne_and_multiplicativity():
    x = 5000
    tau = [None] + tau_table(x)                      # tau[n] = tau(n)
    for p in primes_below(x + 1):
        assert tau[p] ** 2 <= 4 * p ** 11, p
    for n in range(2, x + 1):
        p = smallest_prime_factor(n)
        pa = p
        while n % (pa * p) == 0:
            pa *= p
        m = n // pa
        assert tau[n] == tau[pa] * tau[m], n


def test_tau_known_values():
    t = tau_table(10)
    assert t[0] == 1 and t[1] == -24 and t[2] == 252
    assert t[6] == -16744  # tau(7)


def test_primes_below():
    assert primes_below(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_below(2) == []
    assert len(primes_below(10 ** 4)) == 1229


# -- tables -------------------------------------------------------------


def test_delta_table():
    t = delta_qexpansion(100)
    assert t.label == "Delta" and t.weight == 12 and t.level == 1
    assert t.ap(2) == -24 and t.ap(3) == 252 and t.ap(97) == tau_table(97)[96]
    assert t.primes(below=10) == [2, 3, 5, 7]
    with pytest.raises(ValueError):
        t.ap(101)
    for x in (1, 0):
        with pytest.raises(ValueError, match="x = %d" % x):
            delta_qexpansion(x)


def test_table_validation():
    with pytest.raises(ValueError):
        EigenTable("x", 12, {2: -24, 5: 1})          # 3 missing
    with pytest.raises(ValueError):
        EigenTable("x", 12, {2: -24, 3: 2.5}, bound=4)
    with pytest.raises(ValueError):
        EigenTable("x", 12, {2: -24, 3: 1, 4: 0}, bound=5)
    EigenTable("x", 12, {}, bound=2)                 # empty is well-formed


def test_csv_roundtrip(tmp_path):
    t = delta_qexpansion(50)
    path = tmp_path / "delta.csv"
    t.save(str(path))
    again = load_eigentable(str(path))
    assert again == t
    assert again.to_csv() == t.to_csv()


def test_csv_errors():
    with pytest.raises(ValueError):
        loads_eigentable("x,y\n2,-24")
    with pytest.raises(ValueError):
        loads_eigentable("p,ap\n2,-24\n2,-24")
    with pytest.raises(ValueError):
        loads_eigentable("p,ap\n2,minus")
    with pytest.raises(ValueError):
        loads_eigentable("p,ap\n2,-24\n5,4830")      # 3 missing


# -- Satake parameters --------------------------------------------------


def test_satake_symmetric_case():
    t = EigenTable("x", 12, {2: 0}, bound=3)
    c = satake_from_ap(t, 2)
    assert abs(c.alpha - 1j) < 1e-12 and abs(c.beta + 1j) < 1e-12
    assert c.ramanujan()


def test_satake_delta_p2():
    t = delta_qexpansion(10)
    c = satake_from_ap(t, 2)
    assert abs(c.trace() - (-24 / 2 ** 5.5)) < 1e-12
    assert abs(c.alpha * c.beta - 1) < 1e-12
    assert c.ramanujan()


def test_ramanujan_scan():
    t = delta_qexpansion(300)
    assert all(satake_from_ap(t, p).ramanujan() for p in t.primes())


# -- Euler products -----------------------------------------------------


def test_partial_euler_empty():
    t = delta_qexpansion(10)
    assert partial_euler(STD, t, 3, 1) == 1


def test_partial_euler_single_factor():
    t = delta_qexpansion(10)
    a = -24 / 2 ** 5.5
    tt = 2.0 ** -3
    expect = 1 / (1 - a * tt + tt * tt)
    assert abs(partial_euler(STD, t, 3, 2) - expect) < 1e-12


def test_partial_euler_matches_trace_series():
    " the trace side of the basic-function identity, summed at t = p^-s "
    t = delta_qexpansion(10)
    c = satake_from_ap(t, 2).parameter()
    lhs, _ = truncated_basic_identity(STD, c, 40)
    tt = 2.0 ** -3
    series = sum(complex(cf) * tt ** n for n, cf in enumerate(lhs.coeffs))
    assert abs(partial_euler(STD, t, 3, 2) - series) < 1e-10


def test_partial_euler_cauchy():
    t = delta_qexpansion(200)
    vals = [partial_euler(SYM2, t, 3, x) for x in (10, 40, 160)]
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])


# -- estimators ---------------------------------------------------------


def test_mr_trivial_ratio_exact():
    t = delta_qexpansion(500)
    ps = t.primes(below=400)
    baseline = pairwise_sum([math.log(p) for p in ps]) / len(ps)
    assert mr_estimator(TRIV, t, 400) == baseline


def test_proxy_decomposition():
    " |tr std|^2 = tr Sym^2 + 1 pointwise under Ramanujan "
    t = delta_qexpansion(300)
    proxy = mr_estimator(AdjointProxy(), t, 300)
    split = mr_estimator(SYM2, t, 300) + mr_estimator(TRIV, t, 300)
    assert abs(proxy - split) < 1e-9


def test_mr_grid_beyond_table():
    t = delta_qexpansion(100)
    assert mr_estimator(TRIV, t, 101) == mr_estimator(TRIV, t, 100)
    with pytest.raises(ValueError, match="n = 102 exceeds the table bound 101"):
        mr_estimator(TRIV, t, 102)


def test_parse_weighting():
    assert isinstance(parse_weighting("proxy"), AdjointProxy)
    assert parse_weighting("sym2") == SYM2
    assert parse_weighting("std") == STD
    assert parse_weighting("trivial") == TRIV
    with pytest.raises(ValueError):
        parse_weighting("spin7")


def test_estimator_series_csv():
    t = delta_qexpansion(200)
    rows = estimator_series(TRIV, t, [50, 100, 200])
    text = format_estimates(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "N,estimate"
    assert len(lines) == 4
    n, est = lines[1].split(",")
    assert int(n) == 50 and float(est) == rows[0][1]


def test_residue_estimator():
    t = delta_qexpansion(2000)
    rows = residue_estimator(TRIV, t, [1.5, 1.25])
    assert [s for s, _ in rows] == [1.5, 1.25]
    assert all(est > 0 for _, est in rows)
    proxy_rows = residue_estimator(AdjointProxy(), t, [1.5])
    assert proxy_rows[0][1] > 0
    with pytest.raises(ValueError):
        residue_estimator(TRIV, EigenTable("x", 12, {}, bound=2), [1.5])


def test_pairwise_sum():
    assert pairwise_sum([]) == 0.0
    assert pairwise_sum([1.5]) == 1.5
    xs = [0.1 * k for k in range(11)]
    assert abs(pairwise_sum(xs) - 5.5) < 1e-12
