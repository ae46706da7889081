"""The weight-12 discriminant q-expansion, exact, by Kronecker squaring.

Delta = q * eta^24, and eta^3 has the sparse Jacobi expansion
sum_k (-1)^k (2k+1) q^(k(k+1)/2), about sqrt(2x) nonzero terms below
q^x.  So tau(1..x) are the first x coefficients of ((eta^3)^2)^4.
eta^6 comes from a sparse double loop over the Jacobi terms (about 0.8x
products of small ints); two squarings, each truncated to n = x terms,
then give eta^12 and eta^24.

A squaring packs the coefficients into Python ints as slots of w bytes:
slot i holds c_i + 2^(8w-1), which is non-negative, and subtracting the
packed offsets leaves a = sum c_i B^i with B = 2^(8w).  With
h = ceil(n/2) the slots split as a = lo + B^h hi, and since 2h >= n,

    a^2 = lo^2 + 2 B^h lo hi + B^(2h) hi^2
        = lo^2 + 2 B^h (lo hi mod B^(n-h))        (mod B^n),

so the upper half of the square is never formed.  Adding the packed
offsets back and reading the low n slots gives the coefficients
d_0 .. d_(n-1) of the truncated square.

Exactness: for k < n, d_k = 2 sum_{i<k/2} c_i c_(k-i) + [k even]
c_(k/2)^2, so |d_k| <= 2 m S, where m = max |c_i| and S is the sum of
|c_i| over i <= (n-1)/2.  Before every squaring the slot width is reset
to the least w with 2 m S < 2^(8w-1) (6 and 11 bytes at x = 10^4).
The inputs fit too, as |c_i| <= m <= 2 m S (c_0 = 1), and to_bytes
raises rather than truncate.  So every d_k + 2^(8w-1) lies in [0, B),
and the low n slots of a^2 + offsets are exactly those values: the
reduction mod B^n only drops multiples of B^n, whatever the coefficients
at k >= n are.  The table is exact for every x, with no floats anywhere.

Memory: each list is packed _CHUNK coefficients at a time into one
bytearray, and each coefficient list and big temporary is released
before the next product is formed.  At x = 10^4 the traced peak is about
0.7 MB, reached inside the last lo * hi; the returned list is 0.43 MB.
"""

BACKEND = "kronecker"

_CHUNK = 256        # coefficients per bytes.join while packing


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


def _slot_bytes(c):
    " least w with 2 m S < 2^(8w-1) for the truncated square of c "
    m = max(map(abs, c))
    s = sum(map(abs, c[:(len(c) + 1) // 2]))
    return (2 * m * s).bit_length() // 8 + 1


def _offsets(off, w, n):
    " n slots of w bytes, each holding off "
    return int.from_bytes(off.to_bytes(w, "little") * n, "little")


def _square_truncated(c):
    """First n = len(c) coefficients of the square of the series c.
    Empties c once it is packed, so that the list is gone before the
    products are formed."""
    n = len(c)
    h = (n + 1) // 2
    w = _slot_bytes(c)
    off = 1 << (8 * w - 1)
    buf = bytearray(w * n)
    for i in range(0, n, _CHUNK):
        buf[w * i:w * (i + _CHUNK)] = b"".join(
            [(v + off).to_bytes(w, "little") for v in c[i:i + _CHUNK]])
    c.clear()
    lo = int.from_bytes(buf[:w * h], "little") - _offsets(off, w, h)
    hi = int.from_bytes(buf[w * h:], "little") - _offsets(off, w, n - h)
    del buf
    cross = (lo * hi) & ((1 << (8 * w * (n - h))) - 1)      # lo hi mod B^(n-h)
    sq = lo * lo + (cross << (8 * w * h + 1)) + _offsets(off, w, n)
    del lo, hi, cross
    buf = (sq & ((1 << (8 * w * n)) - 1)).to_bytes(w * n, "little")
    del sq
    return [int.from_bytes(buf[i:i + w], "little") - off
            for i in range(0, w * n, w)]


def tau_table(x):
    """[tau(1), ..., tau(x)] as exact ints; [] for x < 1."""
    if x < 1:
        return []
    c = _eta6(x)
    for _ in range(2):                          # eta^6 -> eta^12 -> eta^24
        c = _square_truncated(c)
    return c
