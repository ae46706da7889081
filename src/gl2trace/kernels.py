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
truncated square plus off.  The packed offsets, off * sum_{i<n} B^i, are
built by arithmetic: the base-B repunit by doubling (a scaleb and an add
per step, about log2 n steps), times off.

Decimal digits cost no base conversion: the first squaring packs the
eta^6 list with str(v + off), and int() of d digits reads a slot of the
last square.  eta^12 goes from the first square to the second as
digits, never as ints.  Its slot width w is taken from the d-digit slot
strings: strings of one width compare as numbers, so m comes from the
largest and the smallest, and only the low half's slots, which S sums,
become ints.  Each w-digit slot is then the prefix 5 0...0 (w - d
digits) followed by the d digits of e_k + off, copied a column at a
time, and the second squaring subtracts the packed offsets
5 * 10^(w-1) + off instead of off (off alone when w = d: no prefix).

Exactness: for k < n, d_k = 2 sum_{i<k/2} c_i c_(k-i) + [k even]
c_(k/2)^2, so |d_k| <= 2 m S, where m = max |c_i| and S is the sum of
|c_i| over i <= (n-1)/2.  Before every squaring the slot width is reset
to the least d with 8 m max(S, 1) < 10^d (14 and 26 digits at x = 10^4).
Then |d_k| < 10^d / 4 and |c_i| <= m < 10^d / 8, so every d_k + off and
every c_i + off lies strictly between 10^(d-1) and 10^d: each slot is
exactly d digits, packed and read back without padding or carries.  The
prefixed eta^12 slots are exactly w digits by the same first-stage
bound: e_k + off has d digits, so 5 * 10^(w-1) + e_k + off lies between
5 * 10^(w-1) and 6 * 10^(w-1), and its digits are the prefix and then
those of e_k + off.  This needs w > d, or w = d with no prefix, so the
second width is the larger of d and the least width for eta^12; the
least width is never below d at any x <= 10^5 (it equals d only at
x = 1 and 2), and a wider slot would only loosen the bound.  The low n
slots of a^2 + offsets are exactly the d_k + off: the reduction mod B^n
only drops multiples of B^n, whatever the coefficients at k >= n are.
The arithmetic runs in one context with the largest precision and
exponent and with Inexact, Rounded, InvalidOperation and Overflow
trapped, so any rounding raises instead of returning a wrong table.
The table is exact for every x, with no floats anywhere.

Reading: tau(n) is slot n - 1 of the last square.  tau_table(x, ns)
converts only the slots that ns asks for, so a caller that wants tau(p)
for the primes p <= x turns pi(x) slots into ints instead of x (1,229 of
10,000 at x = 10^4).  Slot widths, offsets and the context do not depend
on ns, so the proof above holds for every read.  An n outside 1..x
raises ValueError: its slice would be empty or, further out, silently
a slot of another coefficient.

Memory: the eta^6 list is packed _CHUNK coefficients at a time and
emptied as it is packed, the eta^12 digits are emptied once they are
copied into the second packing, and each digit string and big
temporary is released before the next one is formed.  Each multiply
holds the only reference to its operand.  At x = 10^4 the traced peak is
reached inside the last multiply (its three transform buffers take
about 0.77 MB): 0.90 MB for the whole table and 0.91 MB read at the
primes, whose copy of ns is the 0.01 MB more; the slot indices are
drawn only after that multiply.  The whole table returned is 0.43 MB;
the 1,229 values at the primes take 0.05 MB.
"""

import decimal
import struct

BACKEND = "kronecker"

_CHUNK = 256        # coefficients per str.join while packing, slots per unpack

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


def _width(m, s):
    " least d with 8 m max(s, 1) < 10^d "
    return len(str(8 * m * max(s, 1)))


def _slot_digits(c):
    " least d with 8 m max(S, 1) < 10^d for the truncated square of c "
    return _width(max(map(abs, c)), sum(map(abs, c[:(len(c) + 1) // 2])))


def _slots(digits, d, start=0):
    " the d-digit slot strings of digits[start:], _CHUNK to a tuple "
    whole = struct.Struct("%ds" % d * _CHUNK)
    for i in range(start, len(digits), whole.size):
        k = min(_CHUNK, (len(digits) - i) // d)
        part = whole if k == _CHUNK else struct.Struct("%ds" % d * k)
        yield part.unpack_from(digits, i)


def _packed_slot_digits(digits, d):
    """_slot_digits of the series whose d-digit slots in digits, top slot
    first, hold c_k + 5 * 10^(d-1).  Slot strings of one width compare as
    numbers, so m comes from the largest and the smallest, and only the
    low half's slots, which S sums, become ints."""
    n = len(digits) // d
    off = 5 * 10 ** (d - 1)
    ends = [(max(t), min(t)) for t in _slots(digits, d)]
    m = max(int(max(hi for hi, _ in ends)) - off,
            off - int(min(lo for _, lo in ends)))
    low = _slots(digits, d, d * (n - (n + 1) // 2))
    return _width(m, sum(abs(int(v) - off) for t in low for v in t))


def _offsets(d, n, off):
    " off * sum_{i<n} 10^(d i), the base-10^d repunit built by doubling "
    r, k = decimal.Decimal(1), 1
    for bit in bin(n)[3:]:
        r = _EXACT.add(r, _EXACT.scaleb(r, d * k))      # k -> 2k slots
        k *= 2
        if bit == "1":
            r = _EXACT.add(_EXACT.scaleb(r, d), 1)      # k -> k + 1
            k += 1
    return _EXACT.multiply(r, off)


def _pack(c, d):
    """a = sum c_i 10^(d i) for the list c, each c_i + 5 * 10^(d-1)
    written as a d-digit slot.  Empties c as it is packed."""
    n = len(c)
    off = 5 * 10 ** (d - 1)
    parts = []
    while c:                                    # top slot first
        parts.append("".join([str(v + off) for v in reversed(c[-_CHUNK:])]))
        del c[-_CHUNK:]
    digits = "".join(parts)
    del parts
    a = _EXACT.create_decimal(digits)
    del digits
    return _EXACT.subtract(a, _offsets(d, n, off))


def _repack(digits, d, w):
    """a = sum c_k 10^(w k) from the d-digit slots of digits, which hold
    c_k + 5 * 10^(d-1) top slot first, for a width w >= d.  Each w-digit
    slot is the prefix 5 0...0 (w - d digits; none when w = d) and then
    the d digits, laid out a column at a time, so no c_k becomes an int.
    Empties digits once they are copied."""
    n = len(digits) // d
    p = w - d
    buf = bytearray(b"0") * (w * n)
    if p:
        buf[::w] = b"5" * n
    for j in range(d):
        buf[p + j::w] = digits[j::d]
    digits.clear()
    off = (5 * 10 ** (w - 1) if p else 0) + 5 * 10 ** (d - 1)
    a = _EXACT.create_decimal(buf.decode("ascii"))
    del buf
    return _EXACT.subtract(a, _offsets(w, n, off))


def _square(a, d, n):
    """The d n digits of a^2 + sum_{i<n} 5 * 10^(d-1) 10^(d i) mod
    10^(d n), as a bytearray: slot k, which ends d k digits before the
    end, holds d_k + 5 * 10^(d-1), d_k the k-th coefficient of the square.
    The caller passes its only reference to a, so that a is freed as the
    square replaces it."""
    a = _EXACT.multiply(a, a)
    a = _EXACT.add(a, _offsets(d, n, 5 * 10 ** (d - 1)))
    a = decimal.Context(prec=d * n).shift(a, 0)     # mod B^n
    return bytearray(str(a), "ascii")


def _read(digits, d, ks):
    " [c_k for k in ks] from the d-digit slots of _square's digits "
    off = 5 * 10 ** (d - 1)
    end = len(digits)
    return [int(digits[end - d * (k + 1):end - d * k]) - off for k in ks]


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
    c = _eta6(x)
    d = _slot_digits(c)
    e = _square(_pack(c, d), d, x)              # eta^6 -> eta^12, as digits
    w = max(_packed_slot_digits(e, d), d)
    f = _square(_repack(e, d, w), w, x)         # eta^12 -> eta^24
    # the slot indices are drawn after the last multiply, off its peak
    return _read(f, w, range(x) if ns is None else (n - 1 for n in ns))
