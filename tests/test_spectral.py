"""Eigenvalue tables, Satake normalization, estimators."""

import decimal
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import gl2trace
from gl2trace import kernels
from gl2trace.basicfn import RepSpec, rep_weights
from gl2trace.kernels import tau_table
from gl2trace.spectral import (AdjointProxy, EigenTable, delta_qexpansion, estimator_series,
                               format_estimates, mr_estimator, pairwise_sum,
                               parse_weighting, primes_below, satake_from_ap)

from _oracles import (byte_slot_bytes, byte_square_truncated,
                      eichler_selberg_trace, hurwitz_class_numbers)

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


def eta3_series(x):
    " first x coefficients of eta^3, from the Jacobi expansion "
    c = [0] * x
    k = 0
    while k * (k + 1) // 2 < x:
        c[k * (k + 1) // 2] = (2 * k + 1) * (-1) ** k
        k += 1
    return c


def kronecker_square(c):
    """First len(c) coefficients of the square of c by one full Kronecker
    squaring, with slots of (n*m*m).bit_length() + 2 bits (n terms, m the
    largest |coefficient|): each coefficient is a sum of at most n
    products of size at most m^2."""
    n = len(c)
    m = max(abs(v) for v in c)
    w = ((n * m * m).bit_length() + 2 + 7) // 8
    off = 1 << (8 * w - 1)
    offsets = int.from_bytes(off.to_bytes(w, "little") * n, "little")
    packed = b"".join((v + off).to_bytes(w, "little") for v in c)
    a = int.from_bytes(packed, "little") - offsets
    low = (a * a + offsets) & ((1 << (8 * w * n)) - 1)
    buf = low.to_bytes(w * n, "little")
    return [int.from_bytes(buf[i:i + w], "little") - off
            for i in range(0, w * n, w)]


def square_truncated(c):
    """The kernel's pack, square and read on a list: the first len(c)
    coefficients of the square of c.  Empties c as it is packed."""
    n = len(c)
    d = kernels._slot_digits(c)
    digits = kernels._square(kernels._pack(c, d), d, n)
    return kernels._read(digits, d, range(n))


def kronecker_tau(x):
    " tau(1..x) by three full Kronecker squarings of eta^3 "
    if x < 1:
        return []
    c = eta3_series(x)
    for _ in range(3):
        c = kronecker_square(c)
    return c


def width_steps(c, slot_width=kernels._slot_digits):
    """Every x <= len(c) at which the slot width for squaring c[:x]
    grows.  m and S only grow with x, so the width does too, and
    bisection finds each step."""
    def width(x):
        return slot_width(c[:x])
    steps = []
    x = 1
    while width(x) < width(len(c)):
        a, b = x, len(c)                     # width(a) < width(b)
        while b - a > 1:
            mid = (a + b) // 2
            if width(mid) > width(x):
                b = mid
            else:
                a = mid
        steps.append(b)
        x = b
    return steps


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


def test_tau_against_sparse_kernel_every_small_x():
    " both parities of n and the tiny cases, where h = n - h or n = 1 "
    full = sparse_tau(150)
    for x in range(1, 151):
        assert tau_table(x) == full[:x], x


def test_tau_at_every_slot_width_step():
    """Against the full-square oracle on both sides of every x <= 5000
    where the eta^6 or the eta^12 stage changes its slot width."""
    top = 5000
    eta6 = kronecker_square(eta3_series(top))
    assert kernels._eta6(top) == eta6
    eta12 = kronecker_square(eta6)
    xs = set()
    for c in (eta6, eta12):
        steps = width_steps(c)
        assert len(steps) >= 4
        for x in steps:
            xs.update((x - 1, x))
    for x in sorted(xs):
        assert tau_table(x) == kronecker_tau(x), x


def test_square_matches_byte_slot_oracle():
    """The digit-slot squaring against the byte-slot squaring it
    replaced, on both sides of every x <= 3000 where either one changes
    its slot width for the eta^6 or the eta^12 stage."""
    top = 3000
    eta6 = kernels._eta6(top)
    eta12 = kronecker_square(eta6)
    for c in (eta6, eta12):
        xs = set()
        for slot_width in (kernels._slot_digits, byte_slot_bytes):
            for x in width_steps(c, slot_width):
                xs.update((x - 1, x))
        for x in sorted(xs):
            assert (square_truncated(c[:x])
                    == byte_square_truncated(c[:x])), x


def test_square_at_the_slot_bound():
    """All-equal and alternating series of even length n reach the
    2 m S bound exactly (|d_(n-1)| = n m^2), so the top slot is filled
    as far as the width allows.  m runs across every byte boundary and
    every power of ten, and to both sides of each m where 8 m S, with
    S = m ceil(n/2), crosses a power of ten, so that the digit width
    steps."""
    for n in range(1, 13):
        ms = {2 ** j + d for j in range(48) for d in (-1, 0)}
        ms |= {10 ** j + d for j in range(15) for d in (-1, 0)}
        for j in range(1, 30):
            edge = math.isqrt((10 ** j - 1) // (8 * ((n + 1) // 2)))
            ms |= {edge, edge + 1}
        for m in sorted(ms):
            for sign in (1, -1):
                c = [m * sign ** i for i in range(n)]
                want = [sum(c[i] * c[k - i] for i in range(k + 1))
                        for k in range(n)]
                arg = list(c)
                assert square_truncated(arg) == want, (n, m, sign)
                assert arg == []
                assert byte_square_truncated(list(c)) == want, (n, m, sign)


def test_square_with_a_zero_low_half():
    """S = 0 when the low half of c vanishes, so the truncated square is
    0; the max(S, 1) in the slot width still makes room for the upper
    half's inputs, which a bound on 2 m S alone would not."""
    for n in range(2, 9):
        for m in (1, 4, 5, 9, 10, 99, 10 ** 6, 10 ** 20):
            for sign in (1, -1):
                c = [0] * ((n + 1) // 2) + [sign * m] * (n // 2)
                assert square_truncated(c) == [0] * n, (n, m, sign)


def test_slot_widths_at_10k():
    """The 8 m S bound gives slots of 14 and 26 digits; the byte-slot
    kernel's 2 m S < 2^(8w-1) gave 6 and 11 bytes (and n m^2, 7 and 12)."""
    x = 10 ** 4
    eta6 = kernels._eta6(x)
    eta12 = kronecker_square(eta6)
    assert [kernels._slot_digits(c) for c in (eta6, eta12)] == [14, 26]
    assert [byte_slot_bytes(c) for c in (eta6, eta12)] == [6, 11]


def test_packed_width_matches_the_decoded_list():
    """The second width, taken from the eta^12 digits the first square
    leaves, equals _slot_digits of the eta^12 list they decode to, on
    both sides of every x <= 5000 where either stage changes width."""
    top = 5000
    eta6 = kernels._eta6(top)
    eta12 = kronecker_square(eta6)
    xs = set()
    for c in (eta6, eta12):
        for x in width_steps(c):
            xs.update((x - 1, x))
    for x in sorted(xs):
        d = kernels._slot_digits(eta6[:x])
        digits = kernels._square(kernels._pack(eta6[:x], d), d, x)
        want = kernels._slot_digits(eta12[:x])
        assert kernels._packed_slot_digits(digits, d) == want, x
        assert want >= d, x


def test_offsets_by_doubling():
    """The repunit built by doubling, times the offset, against its digit
    string, for every n <= 300 and d <= 30 and at the widths of x = 10^4."""
    dns = [(d, n) for d in range(1, 31) for n in range(1, 301)]
    for d, n in dns + [(14, 10 ** 4), (26, 10 ** 4)]:
        got = kernels._offsets(d, n, 5 * 10 ** (d - 1))
        want = kernels._EXACT.create_decimal(("5" + "0" * (d - 1)) * n)
        assert str(got) == str(want), (d, n)


def test_square_raises_when_the_context_would_round(monkeypatch):
    """A context whose precision holds the packed series but not its
    square must raise, not return a rounded table: the traps make any
    rounding an error."""
    c = kernels._eta6(500)
    digits = kernels._slot_digits(c) * len(c)
    assert all(kernels._EXACT.traps[s] for s in (
        decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
        decimal.Overflow))
    for prec in (digits, digits // 2):
        monkeypatch.setattr(kernels, "_EXACT", kernels._EXACT.copy())
        kernels._EXACT.prec = prec
        with pytest.raises((decimal.Rounded, decimal.Inexact)):
            square_truncated(list(c))


def test_second_square_raises_when_the_context_would_round(monkeypatch):
    """A precision that holds the eta^12 product, and the eta^12 digits
    packed at the second width, but not the eta^24 product: tau_table
    raises instead of returning a table."""
    x = 500
    c = kernels._eta6(x)
    d = kernels._slot_digits(c)
    w = kernels._slot_digits(kronecker_square(list(c)))
    prec = 2 * d * x                        # |a| < 10^(d x) for eta^6
    assert w * x <= prec < 2 * w * (x - 1)  # the eta^24 square has more
    monkeypatch.setattr(kernels, "_EXACT", kernels._EXACT.copy())
    kernels._EXACT.prec = prec
    assert square_truncated(list(c)) == kronecker_square(list(c))
    with pytest.raises((decimal.Rounded, decimal.Inexact)):
        tau_table(x)


@pytest.mark.parametrize("read", ["table", "primes"])
def test_tau_kernel_memory(read):
    """traced peak of tau_table(10^4), whole or read at the primes, the
    returned list and the kernel's copy of the primes included"""
    x = 10 ** 4
    ns = None if read == "table" else primes_below(x + 1)
    tracemalloc.start()
    try:
        tau = tau_table(x, ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tau) == (x if ns is None else 1229)
    assert peak <= 10 ** 6, peak


def test_tau_matches_eichler_selberg():
    """tau(n) = tr T_n on S_12 from the geometric side of the trace
    formula (class numbers and divisor sums, no big-int products), for
    every n <= 300."""
    h = hurwitz_class_numbers(4 * 300)
    tau = tau_table(300)
    assert [eichler_selberg_trace(12, n, h) for n in range(1, 301)] == tau


def test_eichler_selberg_vanishes_where_s_k_is_zero():
    """S_k = 0 for k = 2, 4, 6, 8, 10 and 14, so the geometric side is 0
    for every n < 100.  At k = 2 this is the Kronecker-Hurwitz relation
    sum_t H(4n - t^2) = 2 sigma(n) - sum_{d | n} min(d, n/d)."""
    h = hurwitz_class_numbers(4 * 99)
    assert h[:13] == [Fraction(-1, 12), 0, 0, Fraction(1, 3), Fraction(1, 2),
                      0, 0, 1, 1, 0, 0, 1, Fraction(4, 3)]
    for k in (2, 4, 6, 8, 10, 14):
        for n in range(1, 100):
            assert eichler_selberg_trace(k, n, h) == 0, (k, n)


def test_tau_empty():
    assert tau_table(0) == []
    assert tau_table(0, []) == tau_table(30, []) == []


def test_tau_read_at_ns():
    " values in the order of ns, duplicates included "
    full = tau_table(30)
    ns = [7, 2, 7, 30, 1, 29, 2]
    assert tau_table(30, ns) == [full[n - 1] for n in ns]
    assert tau_table(30, range(1, 31)) == full
    assert tau_table(30, iter(ns)) == tau_table(30, ns)


@pytest.mark.parametrize("n", [0, -1, 31])
def test_tau_read_outside_the_table(n):
    " a slot outside 1..x would read empty or a neighbour; it raises "
    with pytest.raises(ValueError, match=r"tau\(%d\) is outside tau_table\(30\)"
                       % n):
        tau_table(30, [2, n, 3])


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
    assert [p for p in t.primes() if p < 10] == [2, 3, 5, 7]
    with pytest.raises(ValueError):
        t.ap(101)
    for x in (1, 0):
        with pytest.raises(ValueError, match="x = %d" % x):
            delta_qexpansion(x)


def test_delta_reads_the_prime_slots():
    """delta_qexpansion reads only the prime slots of the last square; it
    equals the full table at the primes on both sides of every x <= 5000
    where the eta^12 stage changes its slot width, and at x = 2, 3, 10^4."""
    eta12 = kronecker_square(kernels._eta6(5000))
    xs = {2, 3, 10 ** 4}
    for x in width_steps(eta12):
        xs.update((x - 1, x))
    for x in sorted(xs - {1}):
        full = tau_table(x)
        want = {p: full[p - 1] for p in primes_below(x + 1)}
        assert delta_qexpansion(x).ap_map == want, x


def test_table_validation():
    with pytest.raises(ValueError):
        EigenTable("x", 12, {2: -24, 5: 1})          # 3 missing
    with pytest.raises(ValueError):
        EigenTable("x", 12, {2: -24, 3: 2.5}, bound=4)
    with pytest.raises(ValueError):
        EigenTable("x", 12, {2: -24, 3: 1, 4: 0}, bound=5)
    EigenTable("x", 12, {}, bound=2)                 # empty is well-formed


# -- Satake parameters --------------------------------------------------


def on_unit_circle(alpha, beta, tol=1e-10):
    " |alpha| = |beta| = 1: the Ramanujan bound at p "
    return abs(abs(alpha) - 1) < tol and abs(abs(beta) - 1) < tol


def test_satake_symmetric_case():
    t = EigenTable("x", 12, {2: 0}, bound=3)
    alpha, beta = satake_from_ap(t, 2)
    assert abs(alpha - 1j) < 1e-12 and abs(beta + 1j) < 1e-12
    assert on_unit_circle(alpha, beta)


def test_satake_delta_p2():
    t = delta_qexpansion(10)
    alpha, beta = satake_from_ap(t, 2)
    assert abs(alpha + beta - (-24 / 2 ** 5.5)) < 1e-12
    assert abs(alpha * beta - 1) < 1e-12
    assert on_unit_circle(alpha, beta)


def test_ramanujan_scan():
    t = delta_qexpansion(300)
    assert all(on_unit_circle(*satake_from_ap(t, p)) for p in t.primes())


# -- estimators ---------------------------------------------------------


def test_mr_trivial_ratio_exact():
    t = delta_qexpansion(500)
    ps = [p for p in t.primes() if p < 400]
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


def trace_of(r, alpha, beta):
    " tr r(diag(alpha, beta)), listing r's weights at every call "
    if isinstance(r, RepSpec):
        return sum(alpha ** e1 * beta ** e2 for e1, e2 in rep_weights(r))
    return r.trace(alpha, beta)


def reference_mr(r, table, n):
    " the per-n estimator loop: one prime list and one term list per n "
    if n > table.bound:
        raise ValueError("n = %s exceeds the table bound %d"
                         % (n, table.bound))
    ps = [p for p in table.primes() if p < n]
    if not ps:
        raise ValueError("no primes below %s in the table" % n)
    terms = []
    for p in ps:
        alpha, beta = satake_from_ap(table, p)
        terms.append(math.log(p) * complex(trace_of(r, alpha, beta)).real)
    return pairwise_sum(terms) / len(ps)


@pytest.mark.parametrize("name", ["std", "sym2", "proxy"])
def test_estimator_series_matches_per_n_loop(name):
    r = parse_weighting(name)
    t = delta_qexpansion(1000)
    grid = [1001, 3, 500, 40, 500, 1000, 4, 3, 997, 998]
    rows = estimator_series(r, t, grid)
    assert rows == [(n, reference_mr(r, t, n)) for n in grid]
    assert [mr_estimator(r, t, n) for n in grid] == [est for _, est in rows]
    assert estimator_series(r, t, []) == []
    for bad, value in [([50, 2, 1002], "no primes below 2"),
                       ([50, 1002, 2], "n = 1002 exceeds")]:
        with pytest.raises(ValueError, match=value):
            estimator_series(r, t, bad)


def test_spectral_checks_survive_optimize():
    " named ValueErrors, not asserts, so python -O keeps them "
    code = ("from gl2trace.basicfn import RepSpec\n"
            "from gl2trace.spectral import (EigenTable, delta_qexpansion,\n"
            "                               estimator_series)\n"
            "t = delta_qexpansion(100)\n"
            "for call in (lambda: EigenTable('x', 0, {}, bound=2),\n"
            "             lambda: EigenTable('x', 1.5, {}, bound=2),\n"
            "             lambda: estimator_series(RepSpec(0), t,\n"
            "                                      [50, 102])):\n"
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
            "weight = 0 is not a positive integer",
            "weight = 1.5 is not a positive integer",
            "n = 102 exceeds the table bound 101"], flags


def test_pairwise_sum():
    assert pairwise_sum([]) == 0.0
    assert pairwise_sum([1.5]) == 1.5
    xs = [0.1 * k for k in range(11)]
    assert abs(pairwise_sum(xs) - 5.5) < 1e-12
