"""Exact coefficient arithmetic.

Two small rings cover every exact value in the package:

  LaurentQ  -- K[v, v^-1] with the relation v^2 = q, kept in the reduced
               canonical form a + b*v, where K is Q or the Gaussian
               rationals Q(i).  Over Q it houses the half-integral powers
               of the residue cardinality forced by spherical
               normalizations; over Q(i) it is the value ring of exact
               spherical traces.
  QiNumber  -- the Gaussian rationals Q(i), for unit-circle Satake
               parameters and L-factor coefficients.

All arithmetic is exact (stdlib Fraction underneath).  q = None marks a
plain rational constant that has not been tied to a residue cardinality
yet; such values must have zero v-part and absorb the q of the other
operand.
"""

from fractions import Fraction


def fr(x):
    """coerce int/str/Fraction to Fraction; a QiNumber passes through,
    or becomes its real part when that is all it has, so an element with
    rational components is always stored with Fraction components"""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, QiNumber):
        return x if x.im else x.re
    return Fraction(x)


def _unify_q(q1, q2):
    if q1 is None:
        return q2
    if q2 is None or q1 == q2:
        return q1
    raise ValueError("mixed residue cardinalities %s and %s" % (q1, q2))


class LaurentQ:
    """Element a + b*v of K[v]/(v^2 - q), K = Q or Q(i), eagerly reduced.
    Each of a and b is a Fraction, or a QiNumber with nonzero imaginary
    part."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a=0, b=0, q=None):
        a, b = fr(a), fr(b)
        if b and q is None:
            raise ValueError("v-part requires a residue cardinality q")
        if q is not None and (not isinstance(q, int) or q < 2):
            raise ValueError("residue cardinality q = %r is not an integer >= 2" % (q,))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", q)

    def __setattr__(self, *_):
        raise AttributeError("LaurentQ is immutable")

    @classmethod
    def v_power(cls, k, q):
        " v^k reduced: v^(2j) = q^j, v^(2j+1) = q^j * v "
        j, r = divmod(k, 2)
        c = Fraction(q) ** j
        return cls(c, 0, q) if r == 0 else cls(0, c, q)

    @classmethod
    def from_powers(cls, coeffs, q):
        " reduce a {exponent: rational} Laurent expansion in v "
        out = cls(0, 0, q)
        for k, c in coeffs.items():
            out = out + cls.v_power(k, q) * fr(c)
        return out

    # -- ring structure -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentQ):
            return other
        if isinstance(other, (int, Fraction, QiNumber)):
            return LaurentQ(other, 0, None)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentQ(self.a + o.a, self.b + o.b, _unify_q(self.q, o.q))

    __radd__ = __add__

    def __neg__(self):
        return LaurentQ(-self.a, -self.b, self.q)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q = _unify_q(self.q, o.q)
        bb = self.b * o.b
        if bb and q is None:
            raise ValueError("v-part requires q")
        a = self.a * o.a + (bb * q if bb else 0)
        b = self.a * o.b + self.b * o.a
        return LaurentQ(a, b, q)

    __rmul__ = __mul__

    def inverse(self):
        # (a + bv)(a - bv) = a^2 - b^2 q, nonzero for nonsquare q
        if not self:
            raise ZeroDivisionError("LaurentQ zero has no inverse")
        if not self.b:
            return LaurentQ(1 / self.a, 0, self.q)
        n = self.a * self.a - self.b * self.b * self.q
        if n == 0:
            raise ZeroDivisionError("zero divisor: q = %s is a rational square" % self.q)
        return LaurentQ(self.a / n, -self.b / n, self.q)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent %r is not an integer" % (n,))
        if n < 0:
            return self.inverse() ** (-n)
        out = LaurentQ(1, 0, self.q)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates and conversions ------------------------------------

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.a != o.a or self.b != o.b:
            return False
        if self.b and self.q is not None and o.q is not None and self.q != o.q:
            return False
        return True

    def __hash__(self):
        return hash((self.a, self.b))

    @property
    def v_free(self):
        return not self.b

    def as_fraction(self):
        if self.b or isinstance(self.a, QiNumber):
            raise ValueError("value %s is not rational" % (self,))
        return self.a

    def to_float(self):
        if not self.b:
            return float(self.a)
        return float(self.a) + float(self.b) * float(self.q) ** 0.5

    def __complex__(self):
        z = complex(self.a)
        if self.b:
            z += complex(self.b) * float(self.q) ** 0.5
        return z

    # -- text forms -----------------------------------------------------

    def _monomials(self):
        """minimal-exponent monomial list [(coeff, v-exponent)]; a
        Gaussian coefficient stays whole, in parentheses"""
        out = []
        for part, parity in ((self.a, 0), (self.b, 1)):
            if not part:
                continue
            c, j = part, 0
            if isinstance(c, QiNumber):
                c = "(%s)" % c
            elif self.q is not None:
                while c.numerator % self.q == 0:
                    c, j = c / self.q, j + 1
                while c.denominator % self.q == 0:
                    c, j = c * self.q, j - 1
            out.append((c, 2 * j + parity))
        out.sort(key=lambda t: t[1])
        return out

    def __str__(self):
        if not self:
            return "0"
        terms = []
        for c, k in self._monomials():
            if k == 0:
                terms.append(str(c))
            else:
                vk = "v" if k == 1 else "v^%d" % k
                if c == 1:
                    terms.append(vk)
                elif c == -1:
                    terms.append("-" + vk)
                else:
                    terms.append("%s*%s" % (c, vk))
        s = terms[0]
        for t in terms[1:]:
            s += t if t.startswith("-") else "+" + t
        return s

    __repr__ = __str__

    def compact(self):
        " space-free text: 'a' when v-free, else 'a,b' "
        if not self.b:
            return str(self.a)
        return "%s,%s" % (self.a, self.b)

    @classmethod
    def from_compact(cls, s, q=None):
        if "," in s:
            a, b = s.split(",")
            return cls(Fraction(a), Fraction(b), q)
        return cls(Fraction(s), 0, q)


class QiNumber:
    """Gaussian rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", fr(re))
        object.__setattr__(self, "im", fr(im))

    def __setattr__(self, *_):
        raise AttributeError("QiNumber is immutable")

    def _coerce(self, other):
        if isinstance(other, QiNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return QiNumber(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QiNumber(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QiNumber(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QiNumber(self.re * other, self.im * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QiNumber(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conj(self):
        return QiNumber(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.abs2()
        if n == 0:
            raise ZeroDivisionError("QiNumber zero has no inverse")
        return QiNumber(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent %r is not an integer" % (n,))
        if n < 0:
            return self.inverse() ** (-n)
        out = QiNumber(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return "%s*i" % self.im
        s = str(self.im)
        sign = "+" if not s.startswith("-") else ""
        return "%s%s%s*i" % (self.re, sign, s)

    __repr__ = __str__


# Never built: perfbench/trace.py, its only reader, resolves rings.QiV in
# RING_CLASSES.  Defining no arithmetic keeps its op count at 0 and LaurentQ's
# ops counted once.
class QiV(LaurentQ):
    __slots__ = ()
