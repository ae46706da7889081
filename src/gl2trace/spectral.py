"""Hecke eigenvalue tables, unitary Satake parameters, and the
pole-order estimator.

The estimator is numeric by design: the eigenvalue data is exact, the
unitary normalization a_p / p^((k-1)/2) is not, so it works in complex
doubles and reports trends rather than asserting limits.
"""

import bisect
import cmath
import itertools
import math

from . import basicfn
from .kernels import tau_table


def primes_below(n):
    if n <= 2:
        return []
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return list(itertools.compress(range(n), sieve))


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

    def primes(self):
        return sorted(self.ap_map)

    def to_csv(self):
        lines = ["p,ap"]
        for p in self.primes():
            lines.append("%d,%d" % (p, self.ap_map[p]))
        return "\n".join(lines) + "\n"


def delta_qexpansion(x):
    " discriminant-form eigenvalues tau(p) for p <= x, from the q-expansion "
    if x < 2:
        raise ValueError("x = %s is below 2: no primes to tabulate" % x)
    ps = primes_below(x + 1)
    return EigenTable("Delta", 12, zip(ps, tau_table(x, ps)), bound=x + 1)


def satake_from_ap(table, p):
    """The unit-determinant parameter pair (alpha, beta) at p, complex:
    alpha * beta = 1 and alpha + beta = a_p / p^((k-1)/2)."""
    a = table.ap(p) / p ** ((table.weight - 1) / 2)
    disc = cmath.sqrt(complex(a * a - 4))
    return (a + disc) / 2, (a - disc) / 2


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
    return basicfn.RepSpec.parse(name)


def _trace_fn(r):
    " (alpha, beta) -> tr r(diag(alpha, beta)), with r's weights listed once "
    if isinstance(r, AdjointProxy):
        return r.trace
    weights = basicfn.rep_weights(r)
    return lambda alpha, beta: sum(alpha ** e1 * beta ** e2
                                   for e1, e2 in weights)


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
    trace = _trace_fn(r)
    terms = []
    for p in ps[:max(counts, default=0)]:
        alpha, beta = satake_from_ap(table, p)
        # log measure weight against the real part of the trace
        terms.append(math.log(p) * complex(trace(alpha, beta)).real)
    return [(n, pairwise_sum(terms[:k]) / k) for n, k in zip(ns, counts)]


def format_estimates(rows):
    lines = ["N,estimate"]
    for n, est in rows:
        lines.append("%d,%r" % (n, est))
    return "\n".join(lines) + "\n"
