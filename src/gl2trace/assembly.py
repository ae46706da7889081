"""Global assembly over a finite place set S.

Test functions factor as a Hecke element per finite place times a
compactly supported radial profile pair at infinity; every term below
is an exact finite sum over the split torus points t = +-prod p^e or
over the quadratic characters attached to S.  Two separate profiles
are carried as input data: the torus restriction of f itself and the
unipotent average Phi; relating them analytically is out of scope.
"""

import itertools
import math
import os
from fractions import Fraction

from .chargroup import (class_group_mod_squares, hilbert_symbol, kronecker,
                        normalize_places)
from .hecke import HeckeElement, LocalField, coset_degree, n_integral
from .rings import LaurentQ


class ExactnessError(ValueError):
    " an exact rational value was requested where none exists "


def _fr(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, LaurentQ):
        if x.v_free:
            return x.as_fraction()
        raise ExactnessError("value %s has a v-part; assembly sums are "
                             "rational" % (x,))
    raise TypeError("unexpected value %r" % (x,))


# -- archimedean profiles ----------------------------------------------


def _check_pieces(pieces):
    out = []
    for lo, hi, coeffs in pieces:
        lo, hi = Fraction(lo), Fraction(hi)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if not coeffs:
            raise ValueError("empty coefficient list")
        if lo >= hi:
            raise ValueError("piece [%s, %s) is empty" % (lo, hi))
        out.append((lo, hi, coeffs))
    out.sort(key=lambda p: p[0])
    for (_, h1, _), (l2, _, _) in zip(out, out[1:]):
        if l2 < h1:
            raise ValueError("overlapping pieces at %s" % l2)
    return tuple(out)


# doublings of the Taylor term count before a comparison gives up
_MAX_DOUBLINGS = 6
_LN2_BELOW, _LN2_ABOVE = Fraction(69, 100), Fraction(7, 10)


def _exp_bracket(r, terms):
    """Rationals lo < e^r < hi for rational r != 0.  For r > 0, lo is the
    Taylor sum of the first `terms` terms and hi adds the tail bound
    r^N/N! * (N+1)/(N+1-r), N = terms > r, which overshoots, since the
    tail's later ratios r/(N+k) fall below r/(N+1).  For r < 0 the
    bracket of e^-r is inverted."""
    a = abs(r)
    p, q = a.numerator, a.denominator
    # Horner: num/den = 1 + a/1 (1 + a/2 (... (1 + a/(N-1)))), in integers,
    # which leaves den = q^(N-1) (N-1)!, so q^N N! = q N den
    num = den = 1
    for k in range(terms - 1, 0, -1):
        num, den = den * q * k + num * p, den * q * k
    lo = Fraction(num, den)
    n1 = terms + 1
    hi = lo + Fraction(p ** terms * n1, terms * den * (n1 * q - p))
    return (lo, hi) if r > 0 else (1 / hi, 1 / lo)


def _cmp_log(tabs, r, brackets=None):
    """Sign of log(tabs) - r for rational tabs > 0 and rational r, exact.
    Bit lengths place log(tabs) within ln 2 of k ln 2, which settles most
    pairs; the rest compare tabs with a bracket lo < e^r < hi, tightened
    by doubling its Taylor term count.  Equality occurs only at tabs = 1,
    r = 0 (e^r is irrational for rational r != 0), so a tie just means
    more terms.  `brackets` maps r to (terms, lo, hi) and keeps the
    tightest bracket across calls."""
    if tabs == 1:
        return 0 if r == 0 else (-1 if r > 0 else 1)
    if r == 0:
        return 1 if tabs > 1 else -1
    # 2^(k-1) < tabs < 2^(k+1)
    k = tabs.numerator.bit_length() - tabs.denominator.bit_length()
    if r >= (k + 1) * (_LN2_ABOVE if k >= -1 else _LN2_BELOW):
        return -1
    if r <= (k - 1) * (_LN2_BELOW if k >= 1 else _LN2_ABOVE):
        return 1
    first = 2 * math.ceil(abs(r)) + 16
    if brackets is None:
        brackets = {}
    if r not in brackets:
        brackets[r] = (first,) + _exp_bracket(r, first)
    terms, lo, hi = brackets[r]
    while lo < tabs < hi:
        if terms >= first << _MAX_DOUBLINGS:
            raise ExactnessError("cannot separate log(%s) from %s" % (tabs, r))
        terms *= 2
        lo, hi = _exp_bracket(r, terms)
        brackets[r] = (terms, lo, hi)
    return 1 if tabs >= hi else -1


class ArchProfile:
    """Compactly supported function on R^x, radial per sign component:
    on each component a piecewise polynomial in l = log|t| with rational
    breakpoints [lo, hi) and rational coefficients."""

    def __init__(self, pos=(), neg=()):
        self.pos = _check_pieces(pos)
        self.neg = _check_pieces(neg)
        self._brackets = {}   # breakpoint r -> (terms, lo, hi), lo < e^r < hi

    def pieces(self, sign):
        return self.pos if sign > 0 else self.neg

    def mass(self, sign):
        " exact integral against d^x t = dl over one sign component "
        total = Fraction(0)
        for lo, hi, coeffs in self.pieces(sign):
            for k, c in enumerate(coeffs):
                total += c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
        return total

    def _piece_at(self, tabs, sign):
        for lo, hi, coeffs in self.pieces(sign):
            if (_cmp_log(tabs, lo, self._brackets) >= 0
                    and _cmp_log(tabs, hi, self._brackets) < 0):
                return coeffs
        return None

    def value_at(self, t, numeric=False):
        " pointwise value at rational t != 0; exact unless impossible "
        t = Fraction(t)
        assert t != 0
        coeffs = self._piece_at(abs(t), 1 if t > 0 else -1)
        if coeffs is None:
            return Fraction(0)
        if abs(t) == 1:
            return coeffs[0]  # the polynomial at l = 0
        if len(coeffs) == 1:
            return coeffs[0]
        if not numeric:
            raise ExactnessError(
                "profile piece has degree %d at the irrational point "
                "log(%s); only |t| = 1 or constant pieces evaluate "
                "exactly" % (len(coeffs) - 1, abs(t)))
        import mpmath
        with mpmath.workdps(40):
            el = mpmath.log(mpmath.mpf(t.numerator if t > 0 else -t.numerator)
                            / t.denominator)
            return float(sum(float(c) * el ** k for k, c in enumerate(coeffs)))

    def __eq__(self, other):
        return (isinstance(other, ArchProfile)
                and other.pos == self.pos and other.neg == self.neg)

    def __repr__(self):
        return "ArchProfile(pos=%s, neg=%s)" % (self.pos, self.neg)


def parse_pieces(text):
    " 'lo:hi:c0,c1;lo:hi:c0' -> piece tuple; empty string -> () "
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(";"):
        bits = part.strip().split(":")
        if len(bits) != 3:
            raise ValueError("bad piece %r (want lo:hi:c0,c1,...)" % part)
        try:
            out.append((Fraction(bits[0]), Fraction(bits[1]),
                        [Fraction(c) for c in bits[2].split(",")]))
        except ZeroDivisionError:
            raise ValueError("piece %r has a denominator 0" % part) from None
    return tuple(out)


def format_pieces(pieces):
    return ";".join("%s:%s:%s" % (lo, hi, ",".join(str(c) for c in coeffs))
                    for lo, hi, coeffs in pieces)


# -- test functions and constants ---------------------------------------


class NormalizationConstants:
    def __init__(self, vol_k=1, vol_gbar=1):
        self.vol_k = Fraction(vol_k)
        self.vol_gbar = Fraction(vol_gbar)
        if self.vol_k <= 0 or self.vol_gbar <= 0:
            raise ValueError("volumes must be positive")


class GlobalTestFunction:
    """Factorizable spherical test function: an ArchProfile pair at the
    archimedean place, a HeckeElement at each finite place of S, and
    char_K implicitly outside S."""

    def __init__(self, places, hecke=None, f_profile=None, phi_profile=None):
        self.places = normalize_places(places)
        self.f_profile = f_profile if f_profile is not None else ArchProfile()
        self.phi_profile = phi_profile if phi_profile is not None else ArchProfile()
        hecke = dict(hecke or {})
        for p, h in hecke.items():
            if p not in self.places[1:]:
                raise ValueError("Hecke factor at %s outside S = %s"
                                 % (p, self.places))
            if h.field.q != p:
                raise ValueError("Hecke factor at %s lives over q = %s"
                                 % (p, h.field.q))
        self.hecke = hecke
        self._torus_rows = None
        self._class_group = None

    def torus_rows(self):
        " torus_support(self), built on first use; the data is not changed later "
        if self._torus_rows is None:
            self._torus_rows = torus_support(self)
        return self._torus_rows

    def class_group(self):
        " class_group_mod_squares(self.places), built on first use "
        if self._class_group is None:
            self._class_group = class_group_mod_squares(self.places)
        return self._class_group

    @property
    def finite_places(self):
        return self.places[1:]

    def local(self, p):
        if p in self.hecke:
            return self.hecke[p]
        return HeckeElement.unit(LocalField(p))


# -- torus restriction --------------------------------------------------


def _torus_value(h, e):
    " value of the bi-K-invariant function at diag(p^e, 1) "
    key = (e, 0) if e >= 0 else (0, e)
    return _fr(h[key])


def _phi_value(h, e):
    """Unipotent average at diag(p^e, 1): the module factor |p^e|_p
    times the x-integral of h([[p^e, x], [0, 1]])."""
    return Fraction(h.field.q) ** (-e) * _fr(n_integral(h, e, 0))


def _torus_exponents(h):
    " exponents e where the value or the Phi-average can be nonzero "
    out = set()
    for a, b in h.support():
        out.add(a + b)           # Phi lives on determinant valuation
        if b == 0 and a >= 0:
            out.add(a)           # diag(p^a, 1) itself
        if a == 0 and b <= 0:
            out.add(b)
    return sorted(out)


def torus_support(f):
    """All t = +-prod p^(e_p) where f(diag(t,1)) or Phi(diag(t,1)) is
    nonzero, with both exact values; rows sorted by |t|, positive
    first."""
    locals_ = [(p, f.local(p)) for p in f.finite_places]
    grids = [_torus_exponents(h) for _, h in locals_]
    rows = []
    for exps in itertools.product(*grids):
        tabs = Fraction(1)
        fv_fin = Fraction(1)
        pv_fin = Fraction(1)
        for (p, h), e in zip(locals_, exps):
            tabs *= Fraction(p) ** e
            fv_fin *= _torus_value(h, e)
            pv_fin *= _phi_value(h, e)
        for sign in (1, -1):
            t = sign * tabs
            fv = fv_fin * f.f_profile.value_at(t)
            pv = pv_fin * f.phi_profile.value_at(t)
            if fv or pv:
                rows.append((t, fv, pv))
    rows.sort(key=lambda r: (abs(r[0]), r[0] < 0))
    return rows


# -- the discrete one-dimensional term ----------------------------------


def one_dim_geometric(f, constants=None):
    " (volK^2 / volGbar) * sum of f(diag(t,1)) over the torus support "
    c = constants or NormalizationConstants()
    total = sum((fv for _, fv, _ in f.torus_rows()), Fraction(0))
    return c.vol_k ** 2 / c.vol_gbar * total


def _local_spectral_factor(h, d, p):
    """Group integral of h * chi_d(det) at the place p, by double-coset
    volumes: zero for ramified chi_d, else the coset-count sum weighted
    by the Kronecker value at det = p^(a+b)."""
    kron = kronecker(d, p)
    if kron == 0:
        return Fraction(0)
    total = Fraction(0)
    for key in h.support():
        w = kron if (key[0] + key[1]) % 2 else 1
        total += _fr(h[key]) * coset_degree(h.field, key) * w
    return total


def one_dim_spectral(f, constants=None):
    """(1/volGbar) * sum over quadratic characters chi of D_S of the
    product of exact local group integrals of f * conj(chi)(det), times
    the sign-decomposed Phi-profile mass at infinity."""
    c = constants or NormalizationConstants()
    sg = f.class_group()
    mp_ = f.phi_profile.mass(1)
    mm = f.phi_profile.mass(-1)
    total = Fraction(0)
    for ch in sg.quad_chars:
        term = Fraction(1)
        for p in f.finite_places:
            if not ch.unramified_at(p):
                term = Fraction(0)
                break
            term *= _local_spectral_factor(f.local(p), ch.d, p)
        if term:
            total += term * (mp_ + ch.sign_value() * mm)
    return total / c.vol_gbar


def cartan_discrepancy(f):
    """Per finite place and double coset: the exact group integral
    (coset volume) against the claimed vol(K)^2-weighted torus sum, and
    their ratio.  Reported, never asserted equal."""
    rows = []
    for p in f.finite_places:
        h = f.local(p)
        for key in h.support():
            a, b = key
            deg = coset_degree(h.field, key)
            npts = 1 if a == b else 2
            rows.append((p, key, h[key] * deg, h[key] * npts,
                         Fraction(deg, npts)))
    return rows


def format_cartan_report(rows):
    lines = ["place\tcoset\tgroup_integral\ttorus_form\tratio"]
    for p, key, g, t, r in rows:
        lines.append("%s\t(%s,%s)\t%s\t%s\t%s"
                     % (p, key[0], key[1], g.compact(), t.compact(), r))
    return "\n".join(lines) + "\n"


# -- the residual term --------------------------------------------------


def _require_residual_places(f):
    if 2 not in f.places:
        raise ValueError(
            "residual assembly needs both inf and 2 in S: with 2 outside "
            "S the quadratic characters are not trivial on S-unit "
            "diagonals and the finite identity fails")


def residual_geometric(f):
    " -(1/4) * sum of Phi(diag(t,1)) over the torus support "
    total = sum((pv for _, _, pv in f.torus_rows()), Fraction(0))
    return -Fraction(1, 4) * total


def residual_breakdown(f):
    """Per character chi_d: -(1/4)(1/|D_S|) * sum over the torus support
    of Phi(t) * psi_d(t), where psi_d(t) is the product over v in S of
    the local Hilbert symbols (c_d, t)_v, each computed independently."""
    _require_residual_places(f)
    sg = f.class_group()
    rows = f.torus_rows()
    out = []
    for ch in sg.quad_chars:
        s = Fraction(0)
        for t, _, pv in rows:
            psi = 1
            for v in sg.places:
                psi *= hilbert_symbol(ch.c, t, v)
            s += pv * psi
        out.append((ch.d, -Fraction(1, 4) * s / sg.order))
    return out


def residual_spectral(f):
    return sum((term for _, term in residual_breakdown(f)), Fraction(0))


# -- the correction bracket ---------------------------------------------


def correction_term(f, constants=None):
    """The subtracted bracket, itemized per torus point:
    sum over t of [ (1/4) Phi(t) - (volK^2/volGbar) f(t) ].
    Returns (total, rows) with rows (t, quarter_phi, one_dim_part,
    bracket)."""
    c = constants or NormalizationConstants()
    scale = c.vol_k ** 2 / c.vol_gbar
    rows = []
    total = Fraction(0)
    for t, fv, pv in f.torus_rows():
        quarter = Fraction(1, 4) * pv
        one = scale * fv
        rows.append((t, quarter, one, quarter - one))
        total += quarter - one
    return total, rows


def format_correction_report(total, rows):
    lines = ["t\tquarter_phi\tone_dim\tbracket"]
    for t, quarter, one, br in rows:
        lines.append("%s\t%s\t%s\t%s" % (t, quarter, one, br))
    lines.append("total\t\t\t%s" % total)
    return "\n".join(lines) + "\n"


# -- intertwining -------------------------------------------------------


def intertwining_constant():
    " the operator constant in the residual term "
    return -1


def numeric_verify(s_small):
    """Completed-zeta ratio xi(1-s)/xi(1+s) at s = s_small; tends to -1
    as s -> 0 (ratio of the simple poles at 0 and 1)."""
    s = float(s_small)
    if not s > 0:
        raise ValueError("s = %s is not > 0: the ratio is taken as s -> 0+"
                         % s_small)
    import mpmath
    with mpmath.workdps(50):
        def xi(x):
            return mpmath.pi ** (-x / 2) * mpmath.gamma(x / 2) * mpmath.zeta(x)
        return float(xi(1 - mpmath.mpf(s)) / xi(1 + mpmath.mpf(s)))


# -- configuration ------------------------------------------------------


_CONFIG_KEYS = ("places", "vol_gbar", "vol_k", "f_pos", "f_neg",
                "phi_pos", "phi_neg")


def load_config(text, base_dir="."):
    """Line-based `key = value` configuration.  Keys: places (required,
    e.g. inf,2,3), vol_gbar, vol_k, f_pos/f_neg and phi_pos/phi_neg
    (profile piece lists), hecke_<p> (path to a Hecke element file,
    relative to base_dir).  Returns (GlobalTestFunction,
    NormalizationConstants)."""
    values = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValueError("bad config line: %r" % ln)
        key, _, val = ln.partition("=")
        key, val = key.strip(), val.strip()
        if not (key in _CONFIG_KEYS or key.startswith("hecke_")):
            raise ValueError("unknown config key: %r" % key)
        if key in values:
            raise ValueError("duplicate config key: %r" % key)
        values[key] = val
    if "places" not in values:
        raise ValueError("config needs a places line")
    places = normalize_places(values.pop("places").split(","))
    constants = NormalizationConstants(vol_k=values.pop("vol_k", 1),
                                       vol_gbar=values.pop("vol_gbar", 1))
    f_profile = ArchProfile(pos=parse_pieces(values.pop("f_pos", "")),
                            neg=parse_pieces(values.pop("f_neg", "")))
    phi_profile = ArchProfile(pos=parse_pieces(values.pop("phi_pos", "")),
                              neg=parse_pieces(values.pop("phi_neg", "")))
    hecke = {}
    for key in list(values):
        p = int(key[len("hecke_"):])
        path = os.path.join(base_dir, values.pop(key))
        try:
            with open(path) as fh:
                hecke[p] = HeckeElement.from_text(fh.read())
        except (OSError, ValueError) as e:
            raise ValueError("%s %s: %s" % (key, path, e)) from None
    gtf = GlobalTestFunction(places, hecke=hecke, f_profile=f_profile,
                             phi_profile=phi_profile)
    return gtf, constants
