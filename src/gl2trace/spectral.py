"""Hecke eigenvalue tables, unitary Satake parameters, partial Euler
products, and the two pole-order estimators.

Everything here is numeric by design: the eigenvalue data is exact, the
unitary normalization a_p / p^((k-1)/2) is not, so the module works in
complex doubles and reports trends rather than asserting limits.
"""

import bisect
import cmath
import math

from .basicfn import RepSpec, local_l_factor, rep_weights
from .hecke import SatakeParameter
from .kernels import tau_table


def primes_below(n):
    if n <= 2:
        return []
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(n) if sieve[p]]


class EigenTable:
    """Hecke eigenvalues of a level-1 form: prime -> integer a_p for
    every prime below the bound."""

    def __init__(self, label, weight, ap, bound=None):
        if not isinstance(weight, int) or weight < 1:
            raise ValueError("weight = %r is not a positive integer"
                             % (weight,))
        self.label = str(label)
        self.weight = weight
        self.level = 1
        ap = dict(ap)
        for p, a in ap.items():
            if not isinstance(a, int) or isinstance(a, bool):
                raise ValueError("a_%s = %r is not an integer" % (p, a))
        if bound is None:
            bound = max(ap) + 1 if ap else 2
        want = primes_below(bound)
        missing = [p for p in want if p not in ap]
        if missing:
            raise ValueError("missing primes below %d: %s"
                             % (bound, missing[:5]))
        extra = sorted(set(ap) - set(want))
        if extra:
            raise ValueError("entries beyond the bound %d: %s"
                             % (bound, extra[:5]))
        self.ap_map = ap
        self.bound = bound

    def ap(self, p):
        try:
            return self.ap_map[p]
        except KeyError:
            raise ValueError("prime %s not in the table (bound %d)"
                             % (p, self.bound))

    def primes(self, below=None):
        ps = sorted(self.ap_map)
        if below is None:
            return ps
        return [p for p in ps if p < below]

    def __eq__(self, other):
        return (isinstance(other, EigenTable)
                and (self.label, self.weight, self.ap_map)
                == (other.label, other.weight, other.ap_map))

    def to_csv(self):
        lines = ["p,ap"]
        for p in self.primes():
            lines.append("%d,%d" % (p, self.ap_map[p]))
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def loads_eigentable(text, label="Delta", weight=12):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "p,ap":
        raise ValueError("eigenvalue CSV needs a `p,ap` header")
    ap = {}
    for ln in lines[1:]:
        bits = ln.split(",")
        if len(bits) != 2:
            raise ValueError("bad row: %r" % ln)
        try:
            p, a = int(bits[0]), int(bits[1])
        except ValueError:
            raise ValueError("non-integer entry in row %r" % ln)
        if p in ap:
            raise ValueError("duplicate prime %d" % p)
        ap[p] = a
    return EigenTable(label, weight, ap)


def load_eigentable(path, label="Delta", weight=12):
    with open(path) as fh:
        return loads_eigentable(fh.read(), label=label, weight=weight)


def delta_qexpansion(x):
    " discriminant-form eigenvalues tau(p) for p <= x, from the q-expansion "
    if x < 2:
        raise ValueError("x = %s is below 2: no primes to tabulate" % x)
    taus = tau_table(x)
    ap = {p: taus[p - 1] for p in primes_below(x + 1)}
    return EigenTable("Delta", 12, ap, bound=x + 1)


class UnitarySatake:
    """Unit-determinant parameter pair at p: alpha*beta = 1 and
    alpha + beta = a_p / p^((k-1)/2)."""

    __slots__ = ("p", "alpha", "beta")

    def __init__(self, p, alpha, beta):
        self.p = p
        self.alpha = complex(alpha)
        self.beta = complex(beta)
        assert abs(self.alpha * self.beta - 1) < 1e-9

    def ramanujan(self, tol=1e-10):
        return (abs(abs(self.alpha) - 1) < tol
                and abs(abs(self.beta) - 1) < tol)

    def parameter(self):
        return SatakeParameter(self.alpha, self.beta)

    def trace(self):
        return self.alpha + self.beta

    def __repr__(self):
        return "UnitarySatake(p=%d, %s, %s)" % (self.p, self.alpha, self.beta)


def satake_from_ap(table, p):
    a = table.ap(p) / p ** ((table.weight - 1) / 2)
    disc = cmath.sqrt(complex(a * a - 4))
    return UnitarySatake(p, (a + disc) / 2, (a - disc) / 2)


def _local_factor_value(r, c, t):
    if isinstance(r, AdjointProxy):
        # pair weights {alpha^2, 1, 1, beta^2}: the Sym^2 factor with
        # one more (1 - t) pole
        return local_l_factor(RepSpec(2), c).evaluate(t) / (1 - t)
    return local_l_factor(r, c).evaluate(t)


def partial_euler(r, table, s, x):
    """Product over primes p <= x of the local L-factor of r at the
    unitary parameter, evaluated at t = p^(-s).  x = 1 gives 1."""
    total = complex(1)
    for p in table.primes(below=x + 1):
        c = satake_from_ap(table, p).parameter()
        total *= _local_factor_value(r, c, p ** (-complex(s)))
    return total


# -- pole-order estimators ----------------------------------------------


class AdjointProxy:
    " the |tr std|^2 weighting; pointwise tr(std) * conj(tr(std)) "
    name = "proxy"

    def trace(self, alpha, beta):
        z = alpha + beta
        return (z * z.conjugate()).real


def parse_weighting(name):
    s = name.strip().lower()
    if s in ("proxy", "adjoint-proxy", "adjproxy"):
        return AdjointProxy()
    return RepSpec.parse(name)


def _trace_of(r, alpha, beta):
    if isinstance(r, RepSpec):
        return sum(alpha ** e1 * beta ** e2 for e1, e2 in rep_weights(r))
    return r.trace(alpha, beta)


def pairwise_sum(xs):
    """Fixed-order pairwise reduction; the summation tree depends only
    on the term order, so chunked computation reproduces it exactly."""
    xs = list(xs)
    if not xs:
        return 0.0
    while len(xs) > 1:
        xs = [xs[i] + xs[i + 1] if i + 1 < len(xs) else xs[i]
              for i in range(0, len(xs), 2)]
    return xs[0]


def mr_estimator(r, table, n):
    """Average of log(p) tr(r(c_p)) over primes p < n; the candidate
    pole-order value of the partial L-function of r.  n may not exceed
    the table bound, so every prime below n is in the table."""
    return estimator_series(r, table, [n])[0][1]


def estimator_series(r, table, ns):
    """Rows (n, mr_estimator at n) for trend inspection.  Each prime's
    term is computed once, for the largest n; every row is the pairwise
    sum of a prefix of those terms, so it equals mr_estimator at n."""
    ps = table.primes()
    counts = []
    for n in ns:
        if n > table.bound:
            raise ValueError("n = %s exceeds the table bound %d"
                             % (n, table.bound))
        counts.append(bisect.bisect_left(ps, n))
        if not counts[-1]:
            raise ValueError("no primes below %s in the table" % n)
    terms = []
    for p in ps[:max(counts, default=0)]:
        c = satake_from_ap(table, p)
        # log measure weight against the real part of the trace
        terms.append(math.log(p) * complex(_trace_of(r, c.alpha, c.beta)).real)
    return [(n, pairwise_sum(terms[:k]) / k) for n, k in zip(ns, counts)]


def format_estimates(rows):
    lines = ["N,estimate"]
    for n, est in rows:
        lines.append("%d,%r" % (n, est))
    return "\n".join(lines) + "\n"


def residue_estimator(r, table, s_grid):
    """Rows (s, (s-1) * partial_euler(r, table, s, X)) with X doubled
    until two truncations agree to 1e-4 or the table is exhausted;
    returned for trend inspection, never asserted convergent."""
    if not table.primes():
        raise ValueError("empty eigenvalue table")
    top = table.bound - 1
    rows = []
    for s in s_grid:
        s = float(s)
        if not s > 1:
            raise ValueError("s = %r is not above 1" % s)
        x = min(64, top)
        prev = partial_euler(r, table, s, x)
        while x < top:
            x = min(2 * x, top)
            cur = partial_euler(r, table, s, x)
            stable = abs(cur - prev) < 1e-4 * max(1.0, abs(cur))
            prev = cur
            if stable:
                break
        rows.append((s, (s - 1) * prev.real))
    return rows
