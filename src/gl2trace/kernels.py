"""The weight-12 discriminant q-expansion, exact, by Kronecker squaring.

Delta = q * eta^24, and eta^3 has the sparse Jacobi expansion
sum_k (-1)^k (2k+1) q^(k(k+1)/2), so tau(1..x) are the first x
coefficients of (eta^3)^8: three squarings, each truncated to x terms.
A squaring packs the coefficients into one Python int as fixed-width
slots (int.to_bytes / int.from_bytes, with a half-slot offset so every
slot is non-negative), multiplies once, and reads the slots back.

Exactness: a truncated square's coefficient is a sum of at most n = x
products, each at most m^2 in size, where m is the largest |coefficient|
of the factor.  Before every squaring the slot width is reset to
(n*m*m).bit_length() + 2 bits, rounded up to whole bytes, so the offset
exceeds every |coefficient| and no slot overflows: the table is exact
for every x, with no floats anywhere.
"""

BACKEND = "kronecker"


def _square_truncated(c):
    " first len(c) coefficients of the square of the series c "
    n = len(c)
    m = max(abs(v) for v in c)
    w = ((n * m * m).bit_length() + 2 + 7) // 8      # slot width in bytes
    off = 1 << (8 * w - 1)
    offsets = int.from_bytes(off.to_bytes(w, "little") * n, "little")
    packed = b"".join((v + off).to_bytes(w, "little") for v in c)
    a = int.from_bytes(packed, "little") - offsets
    low = (a * a + offsets) & ((1 << (8 * w * n)) - 1)
    buf = low.to_bytes(w * n, "little")
    return [int.from_bytes(buf[i:i + w], "little") - off
            for i in range(0, w * n, w)]


def tau_table(x):
    """[tau(1), ..., tau(x)] as exact ints; [] for x < 1."""
    if x < 1:
        return []
    c = [0] * x
    k = 0
    while k * (k + 1) // 2 < x:
        c[k * (k + 1) // 2] = (2 * k + 1) * (-1) ** k
        k += 1
    for _ in range(3):
        c = _square_truncated(c)
    return c
