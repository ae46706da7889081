"""The weight-12 discriminant q-expansion, exact, by Kronecker squaring.

Delta = q * eta^24, and eta^3 has the sparse Jacobi expansion
sum_k (-1)^k (2k+1) q^(k(k+1)/2), about sqrt(2x) nonzero terms below
q^x.  So tau(1..x) are the first x coefficients of ((eta^3)^2)^4.
eta^6 comes from a sparse double loop over the Jacobi terms (about 0.8x
products of small ints); two squarings, each truncated to n = x terms,
then give eta^12 and eta^24.

A squaring packs the coefficients into one decimal number as slots of d
digits: slot i holds c_i + off with off = 5 * 10^(d-1), written top slot
first as a digit string, and subtracting the packed offsets leaves
a = sum c_i B^i with B = 10^d.  a^2 is formed by libmpdec's exact
number-theoretic-transform multiply (the stdlib decimal module), the
packed offsets are added back, and the low n slots of the result,
a^2 + offsets mod B^n, are the coefficients d_0 .. d_(n-1) of the
truncated square plus off.  Decimal digits cost no base conversion in
either direction: str(v + off) packs a slot and int() of d digits reads
one back.

Exactness: for k < n, d_k = 2 sum_{i<k/2} c_i c_(k-i) + [k even]
c_(k/2)^2, so |d_k| <= 2 m S, where m = max |c_i| and S is the sum of
|c_i| over i <= (n-1)/2.  Before every squaring the slot width is reset
to the least d with 8 m max(S, 1) < 10^d (14 and 26 digits at x = 10^4).
Then |d_k| < 10^d / 4 and |c_i| <= m < 10^d / 8, so every d_k + off and
every c_i + off lies strictly between 10^(d-1) and 10^d: each slot is
exactly d digits, packed and read back without padding or carries.  The
low n slots of a^2 + offsets are exactly those values: the reduction
mod B^n only drops multiples of B^n, whatever the coefficients at
k >= n are.  The arithmetic runs in one context with the largest
precision and exponent and with Inexact, Rounded, InvalidOperation and
Overflow trapped, so any rounding raises instead of returning a wrong
table.  The table is exact for every x, with no floats anywhere.

Reading: tau(n) is slot n - 1 of the last square.  tau_table(x, ns)
converts only the slots that ns asks for, so a caller that wants tau(p)
for the primes p <= x turns pi(x) slots into ints instead of x (1,229 of
10,000 at x = 10^4).  Slot widths, offsets and the context do not depend
on ns, so the proof above holds for every read.  An n outside 1..x
raises ValueError: its slice would be empty or, further out, silently
a slot of another coefficient.

Memory: each list is packed _CHUNK coefficients at a time and emptied
as it is packed, and each digit string and big temporary is released
before the next one is formed.  At x = 10^4 the traced peak is reached
inside the last multiply (its three transform buffers take about
0.77 MB): 0.90 MB for the whole table and 0.91 MB read at the primes,
whose copy of ns is the 0.01 MB more; the slot indices are drawn only
after that multiply.  The whole table returned is 0.43 MB; the 1,229
values at the primes take 0.05 MB.
"""

import decimal

BACKEND = "kronecker"

_CHUNK = 256        # coefficients per str.join while packing

_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         traps=[decimal.Inexact, decimal.Rounded,
                                decimal.InvalidOperation, decimal.Overflow])


def _eta6(x):
    " first x coefficients of eta^6, squared from the Jacobi terms of eta^3 "
    terms = []
    k = 0
    while k * (k + 1) // 2 < x:
        terms.append((k * (k + 1) // 2, (2 * k + 1) * (-1) ** k))
        k += 1
    c = [0] * x
    for a, (ea, ca) in enumerate(terms):
        if 2 * ea < x:
            c[2 * ea] += ca * ca
        for eb, cb in terms[a + 1:]:
            if ea + eb >= x:
                break
            c[ea + eb] += 2 * ca * cb
    return c


def _slot_digits(c):
    " least d with 8 m max(S, 1) < 10^d for the truncated square of c "
    m = max(map(abs, c))
    s = sum(map(abs, c[:(len(c) + 1) // 2]))
    return len(str(8 * m * max(s, 1)))


def _offsets(d, n):
    " n slots of d digits, each holding 5 * 10^(d-1) "
    return _EXACT.create_decimal(("5" + "0" * (d - 1)) * n)


def _square_truncated(c, at=None):
    """First n = len(c) coefficients of the square of the series c, or
    only those at the indices in at (each in 0..n-1), in that order.
    Empties c as it is packed, so that the list is gone before the
    product is formed."""
    n = len(c)
    d = _slot_digits(c)
    off = 5 * 10 ** (d - 1)
    parts = []
    while c:                                    # top slot first
        parts.append("".join([str(v + off) for v in reversed(c[-_CHUNK:])]))
        del c[-_CHUNK:]
    digits = "".join(parts)
    del parts
    a = _EXACT.create_decimal(digits)
    del digits
    a = _EXACT.subtract(a, _offsets(d, n))
    a = _EXACT.multiply(a, a)
    # the offsets are built again: kept alive through the multiply, they
    # would add 0.1 MB to the peak at x = 10^4
    a = _EXACT.add(a, _offsets(d, n))
    a = decimal.Context(prec=d * n).shift(a, 0)     # a^2 + offsets mod B^n
    digits = str(a)
    del a
    # coefficient k is the slot ending d * (n - k) digits into the string
    ends = range(d * n, 0, -d) if at is None else [d * (n - k) for k in at]
    return [int(digits[i - d:i]) - off for i in ends]


def tau_table(x, ns=None):
    """[tau(n) for n in ns] as exact ints, in the order of ns; with no
    ns, [tau(1), ..., tau(x)] ([] for x < 1).  Raises ValueError for an
    n outside 1..x."""
    if ns is not None:
        ns = list(ns)                           # read twice
        bad = [n for n in ns if not 1 <= n <= x]
        if bad:
            raise ValueError("tau(%s) is outside tau_table(%d), which holds "
                             "n = 1..%d" % (bad[0], x, x))
    if x < 1:
        return []
    c = _square_truncated(_eta6(x))             # eta^6 -> eta^12
    # the slot indices are drawn after the last multiply, off its peak
    return _square_truncated(c, None if ns is None else (n - 1 for n in ns))
