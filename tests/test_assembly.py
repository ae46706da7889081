"""Global assembly: torus support, one-dim and residual terms, Cartan
report, correction bracket, intertwining, configuration."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from gl2trace import assembly
from gl2trace.assembly import (ArchProfile, ExactnessError,
                               GlobalTestFunction, NormalizationConstants,
                               _cmp_log, _exp_bracket,
                               cartan_discrepancy, correction_term,
                               format_cartan_report, format_correction_report,
                               intertwining_constant,
                               load_config, numeric_verify, one_dim_geometric,
                               one_dim_spectral, parse_pieces,
                               residual_breakdown, residual_geometric,
                               residual_spectral, torus_support)
from gl2trace.chargroup import (class_group_mod_squares, hilbert_symbol,
                                poisson_check)
from gl2trace.hecke import HeckeElement, LocalField
from gl2trace.rings import LaurentQ

from _oracles import (format_pieces, kronecker, one_dim_spectral_oracle,
                      project, residual_breakdown_oracle)

INF = "inf"


def mp_cmp_log(tabs, r):
    """oracle for _cmp_log: log(tabs) - r in mpmath at escalating
    precision, trusted once it clears half the working digits"""
    if tabs == 1:
        return 0 if r == 0 else (-1 if r > 0 else 1)
    if r == 0:
        return 1 if tabs > 1 else -1
    import mpmath
    for dps in (40, 80, 160, 320, 640):
        with mpmath.workdps(dps):
            d = (mpmath.log(mpmath.mpf(tabs.numerator))
                 - mpmath.log(mpmath.mpf(tabs.denominator))
                 - mpmath.mpf(r.numerator) / r.denominator)
            if abs(d) > mpmath.mpf(10) ** (-(dps // 2)):
                return 1 if d > 0 else -1
    raise ExactnessError("cannot separate log(%s) from %s" % (tabs, r))


def exp_rational(r, digits):
    " a rational within 10^-digits of e^r, relative "
    import mpmath
    with mpmath.workdps(digits + 20):
        return Fraction(mpmath.nstr(mpmath.exp(mpmath.mpf(r.numerator) / r.denominator),
                                    digits + 10, min_fixed=-mpmath.inf,
                                    max_fixed=mpmath.inf))


def wide_profiles():
    f = ArchProfile(pos=((-2, 2, [3]),), neg=((-1, 1, [5]),))
    phi = ArchProfile(pos=((-2, 2, [Fraction(1, 2)]),), neg=((-1, 1, [7]),))
    return f, phi


def char_k_fn():
    f, phi = wide_profiles()
    return GlobalTestFunction([INF, 2], f_profile=f, phi_profile=phi)


def t2_fn():
    f, phi = wide_profiles()
    h2 = HeckeElement.char(LocalField(2), (1, 0))
    return GlobalTestFunction([INF, 2, 3], hecke={2: h2},
                              f_profile=f, phi_profile=phi)


# -- profiles -----------------------------------------------------------


def test_profile_mass():
    f, phi = wide_profiles()
    assert f.mass(1) == 12 and f.mass(-1) == 10
    assert phi.mass(1) == 2 and phi.mass(-1) == 14
    lin = ArchProfile(pos=((-2, 2, [0, 1]),))  # integrand l
    assert lin.mass(1) == 0
    quad = ArchProfile(pos=((0, 1, [0, 0, 3]),))  # integrand 3 l^2
    assert quad.mass(1) == 1


def test_profile_pointwise():
    p = ArchProfile(pos=((0, 1, [5]),))
    assert p.value_at(Fraction(2)) == 5       # log 2 in [0, 1)
    assert p.value_at(Fraction(3)) == 0       # log 3 > 1
    assert p.value_at(Fraction(1)) == 5       # l = 0
    assert p.value_at(Fraction(1, 2)) == 0    # l < 0
    assert p.value_at(Fraction(-2)) == 0      # no negative component


def test_profile_nonconstant_piece():
    p = ArchProfile(pos=((-2, 2, [0, 1]),))
    assert p.value_at(Fraction(1)) == 0       # polynomial at l = 0
    with pytest.raises(ExactnessError):
        p.value_at(Fraction(2))


# -- exact log comparison ---------------------------------------------


BREAKPOINTS = [Fraction(k, d) for k in (-41, -7, -3, -1, 1, 2, 5, 13)
               for d in (1, 2, 3)] + [Fraction(20), Fraction(-20), Fraction(45, 2),
                                      Fraction(-61, 3)]


def test_exp_bracket_contains_exp():
    for r in BREAKPOINTS:
        for terms in (2 * math.ceil(abs(r)) + 16, 4 * math.ceil(abs(r)) + 40):
            lo, hi = _exp_bracket(r, terms)
            e = exp_rational(r, 400)        # finer than the narrowest bracket
            assert 0 < lo < hi and lo < e < hi, (r, terms)


def test_cmp_log_corners():
    assert _cmp_log(Fraction(1), Fraction(0)) == 0
    for r in (Fraction(1, 3), Fraction(-1, 3), Fraction(20), Fraction(-20)):
        assert _cmp_log(Fraction(1), r) == (-1 if r > 0 else 1)
    for t in (Fraction(2), Fraction(1, 2), Fraction(10 ** 40 + 1, 10 ** 40)):
        assert _cmp_log(t, Fraction(0)) == (1 if t > 1 else -1)
    # far breakpoints and far points settle by bit length, with no series
    assert _cmp_log(Fraction(3), Fraction(10 ** 6)) == -1
    assert _cmp_log(Fraction(1, 3), Fraction(-10 ** 6)) == 1
    assert _cmp_log(Fraction(2 ** 10000), Fraction(6931, 1000)) == 1
    assert _cmp_log(Fraction(1, 2 ** 10000), Fraction(-6931, 1000)) == -1


def test_cmp_log_matches_oracle():
    " wide pairs, negative r and |r| >= 20, against the mpmath oracle "
    import random
    rng = random.Random(53)
    ts = [Fraction(a, b) for a in (1, 2, 3, 7, 10 ** 9, 2 ** 70, 3 ** 40)
          for b in (1, 5, 12, 10 ** 9, 2 ** 70)]
    ts += [Fraction(rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 12))
           for _ in range(60)]
    brackets = {}
    for r in BREAKPOINTS:
        for t in ts:
            want = mp_cmp_log(t, r)
            assert _cmp_log(t, r) == want, (t, r)
            assert _cmp_log(t, r, brackets) == want, (t, r)


def test_cmp_log_near_ties():
    " t within 1e-30 of e^r on either side forces the bracket to tighten "
    for r in BREAKPOINTS:
        e = exp_rational(r, 60)
        for t in (e * (1 + Fraction(1, 10 ** 31)), e * (1 - Fraction(1, 10 ** 31)),
                  e + Fraction(1, 10 ** 45), e - Fraction(1, 10 ** 45)):
            brackets = {}
            got = _cmp_log(t, r, brackets)
            assert got == mp_cmp_log(t, r) == (1 if t > e else -1), (t, r)
            terms, lo, hi = brackets[r]
            assert terms > 2 * math.ceil(abs(r)) + 16 and not lo < t < hi


def test_cmp_log_gives_up_at_the_cap(monkeypatch):
    monkeypatch.setattr(assembly, "_MAX_DOUBLINGS", 0)
    r = Fraction(1, 2)
    t = exp_rational(r, 60)
    with pytest.raises(ExactnessError, match="cannot separate"):
        _cmp_log(t, r)


def test_profile_brackets_kept():
    p = ArchProfile(pos=((Fraction(1, 2), 1, [5]),))
    t = exp_rational(Fraction(1, 2), 60) * (1 + Fraction(1, 10 ** 31))
    assert p.value_at(t) == 5
    terms = p._brackets[Fraction(1, 2)][0]
    assert p.value_at(t) == 5 and p._brackets[Fraction(1, 2)][0] == terms
    assert p.value_at(exp_rational(Fraction(1, 2), 60) * (1 - Fraction(1, 10 ** 31))) == 0


def test_profile_validation():
    with pytest.raises(ValueError):
        ArchProfile(pos=((1, 1, [2]),))
    with pytest.raises(ValueError):
        ArchProfile(pos=((0, 2, [1]), (1, 3, [1])))
    with pytest.raises(ValueError):
        ArchProfile(pos=((0, 1, []),))


def test_pieces_text_roundtrip():
    pieces = ((Fraction(-1, 2), Fraction(3), (Fraction(1), Fraction(-2, 7))),
              (Fraction(4), Fraction(5), (Fraction(0),)))
    again = parse_pieces(format_pieces(pieces))
    assert tuple((lo, hi, tuple(cs)) for lo, hi, cs in again) == pieces
    assert parse_pieces("") == ()


# -- torus support ------------------------------------------------------


def test_support_char_k():
    rows = torus_support(char_k_fn())
    assert rows == [(1, 3, Fraction(1, 2)), (-1, 5, 7)]


def test_support_t2():
    rows = torus_support(t2_fn())
    assert rows == [(2, 3, Fraction(1, 2)), (-2, 5, 7)]


def test_support_empty_arch():
    f = GlobalTestFunction([INF, 2])
    assert torus_support(f) == []


def test_support_central_shift():
    " a coset with negative exponent puts mass at t = 1/p "
    f, phi = wide_profiles()
    h = HeckeElement.char(LocalField(2), (0, -1))
    g = GlobalTestFunction([INF, 2], hecke={2: h},
                           f_profile=f, phi_profile=phi)
    rows = torus_support(g)
    ts = [r[0] for r in rows]
    assert ts == [Fraction(1, 2), Fraction(-1, 2)]
    # f-value: coefficient 1 times the positive profile value 3
    assert rows[0][1] == 3
    # Phi: module factor 2^{1} times the unit x-ball, times profile 1/2
    assert rows[0][2] == 2 * 1 * Fraction(1, 2)


def test_support_v_part_rejected():
    f, phi = wide_profiles()
    h = HeckeElement.char(LocalField(2), (1, 0), LaurentQ(0, 1, 2))
    g = GlobalTestFunction([INF, 2], hecke={2: h},
                           f_profile=f, phi_profile=phi)
    with pytest.raises(ExactnessError):
        torus_support(g)


def full_grid_torus_support(f):
    """oracle for torus_support: every point of the full product grid of
    the places' torus exponents, each place's values recomputed at each
    point and both profiles read at every point"""
    locals_ = [(p, f.local(p)) for p in f.finite_places]
    grids = [assembly._torus_exponents(h) for _, h in locals_]
    rows = []
    for exps in itertools.product(*grids):
        tabs = Fraction(1)
        fv_fin = Fraction(1)
        pv_fin = Fraction(1)
        for (p, h), e in zip(locals_, exps):
            tabs *= Fraction(p) ** e
            fv_fin *= assembly._torus_value(h, e)
            pv_fin *= assembly._phi_value(h, e)
        for sign in (1, -1):
            t = sign * tabs
            fv = fv_fin * f.f_profile.value_at(t)
            pv = pv_fin * f.phi_profile.value_at(t)
            if fv or pv:
                rows.append((t, fv, pv))
    rows.sort(key=lambda r: (abs(r[0]), r[0] < 0))
    return rows


def random_local(rng, p):
    """one to three cosets, sometimes with Phi cancelled at e = 1: for
    c (1,0) - c/(p-1) (2,-1) the f value at e = 1 is c and the Phi value
    is 0, while a coset (a, b) with a, b != 0 has f = 0 and Phi != 0 at
    e = a + b"""
    fld = LocalField(p)

    def coeff():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    h = HeckeElement.char(fld, (0, 0), 0)      # the zero element
    for _ in range(rng.randint(1, 3)):
        b = rng.randint(-2, 1)
        h = h + HeckeElement.char(fld, (b + rng.randint(0, 2), b), coeff())
    if rng.random() < 0.4:
        c = coeff()
        h = (h + HeckeElement.char(fld, (1, 0), c)
             + HeckeElement.char(fld, (2, -1), -c / (p - 1)))
    return h


def random_profile(rng):
    " constant pieces on [lo, hi) in log|t|, some of them 0 "
    def side():
        cuts = sorted(rng.sample(range(-8, 9), rng.randint(2, 4)))
        return tuple((Fraction(lo, 2), Fraction(hi, 2),
                      [Fraction(rng.choice([0, 1, 2, -3]), rng.randint(1, 3))])
                     for lo, hi in zip(cuts, cuts[1:]))
    return ArchProfile(pos=side(), neg=side())


def test_torus_support_matches_full_grid():
    " the place-by-place rows equal the full-grid oracle's, in order "
    rng = random.Random(9)
    primes = [2, 3, 5, 7, 11, 13]
    local_zeros = {"f": 0, "phi": 0, "both": 0}   # finite factors at (p, e)
    row_zeros = {"f": 0, "phi": 0}
    for trial in range(36):
        places = sorted(rng.sample(primes, trial % 6 + 1))
        hecke = {p: random_local(rng, p) for p in places}
        f = GlobalTestFunction([INF] + places, hecke=hecke,
                               f_profile=random_profile(rng),
                               phi_profile=random_profile(rng))
        rows = torus_support(f)
        assert rows == full_grid_torus_support(f), places
        assert all(type(t) is type(fv) is type(pv) is Fraction
                   for t, fv, pv in rows)
        for h in hecke.values():
            for e in assembly._torus_exponents(h):
                fz = assembly._torus_value(h, e) == 0
                pz = assembly._phi_value(h, e) == 0
                if fz or pz:
                    local_zeros["both" if fz and pz else "f" if fz else "phi"] += 1
        row_zeros["f"] += sum(1 for _, fv, pv in rows if pv and not fv)
        row_zeros["phi"] += sum(1 for _, fv, pv in rows if fv and not pv)
    assert min(local_zeros.values()) >= 10 and min(row_zeros.values()) >= 5


@pytest.mark.parametrize("cosets, zero, want", [
    ([((1, 1), 1)], "both", []),                          # f = Phi = 0 at t = 4
    ([((2, -1), 1)], "f", [(2, 0, 3)]),                    # f = 0, Phi = 1 at 2
    ([((1, 0), 1), ((2, -1), -1)], "phi", [(2, 3, 0)]),   # f = 1, Phi = 0 at 2
])
def test_support_reads_no_profile_at_a_zero_factor(cosets, zero, want):
    " a degree-1 piece at an irrational log is not read where it meets a 0 "
    fld = LocalField(2)
    h = HeckeElement.char(fld, *cosets[0])
    for key, c in cosets[1:]:
        h = h + HeckeElement.char(fld, key, c)
    const, linear = ArchProfile(pos=((-2, 2, [3]),)), ArchProfile(pos=((0, 2, [1, 1]),))
    f = GlobalTestFunction([INF, 2], hecke={2: h},
                           f_profile=linear if zero in ("both", "f") else const,
                           phi_profile=linear if zero in ("both", "phi") else const)
    assert torus_support(f) == want
    with pytest.raises(ExactnessError):
        full_grid_torus_support(f)


def test_support_stops_at_an_empty_factor():
    " a zero Hecke factor empties the support; later places are not read "
    f, phi = wide_profiles()
    hecke = {2: HeckeElement.char(LocalField(2), (1, 0), 0),
             3: HeckeElement.char(LocalField(3), (1, 0), LaurentQ(0, 1, 3))}
    g = GlobalTestFunction([INF, 2, 3], hecke=hecke, f_profile=f, phi_profile=phi)
    assert torus_support(g) == full_grid_torus_support(g) == []


def count_n_integrals(monkeypatch):
    calls = []
    real = assembly.n_integral

    def counted(h, m1, m2):
        calls.append((h.field.q, m1, m2))
        return real(h, m1, m2)
    monkeypatch.setattr(assembly, "n_integral", counted)
    return calls


def test_assemble_one_torus_pass(monkeypatch, tmp_path, capsys):
    " every sum of assemble reads one set of torus rows "
    from gl2trace.cli import run
    h2 = HeckeElement.char(LocalField(2), (1, 0)) + HeckeElement.char(LocalField(2), (0, -1))
    h3 = HeckeElement.char(LocalField(3), (1, 1)) + HeckeElement.unit(LocalField(3))
    (tmp_path / "h2.hecke").write_text(h2.to_text())
    (tmp_path / "h3.hecke").write_text(h3.to_text())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("places = inf,2,3\nhecke_2 = h2.hecke\nhecke_3 = h3.hecke\n"
                   "f_pos = -2:2:3\nf_neg = -1:1:5\n"
                   "phi_pos = -2:2:1/2\nphi_neg = -1:1:7\n")
    exponents = len(assembly._torus_exponents(h2)) + len(assembly._torus_exponents(h3))
    calls = count_n_integrals(monkeypatch)
    assert run(["assemble", "--config", str(cfg), "--base-dir", str(tmp_path)]) == 0
    assert "residual_spectral" in capsys.readouterr().out
    assert len(calls) == exponents     # one Phi value per place per exponent


def test_assemble_one_class_group(monkeypatch, tmp_path, capsys):
    " the S-class group and its Hilbert-symbol dual are built once per assemble "
    from gl2trace import cli
    (tmp_path / "h3.hecke").write_text(
        HeckeElement.char(LocalField(3), (1, 1)).to_text())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("places = inf,2,3\nhecke_3 = h3.hecke\n"
                   "phi_pos = -2:2:1/2\nphi_neg = -1:1:7\n")
    cfg, base = str(cfg), str(tmp_path)
    builds = []
    real = assembly.class_group_mod_squares

    def counted(places):
        builds.append(tuple(places))
        return real(places)
    monkeypatch.setattr(assembly, "class_group_mod_squares", counted)
    assert cli.run(["assemble", "--config", cfg, "--base-dir", base]) == 0
    assert builds == [("inf", 2, 3)]
    # the FAIL path breaks the residual down once more, on the same group
    del builds[:]
    monkeypatch.setattr(assembly, "residual_geometric", lambda f: Fraction(7))
    assert cli.run(["assemble", "--config", cfg, "--base-dir", base]) == 1
    assert "FAIL residual sides differ" in capsys.readouterr().out
    assert builds == [("inf", 2, 3)]


def test_torus_rows_per_function(monkeypatch):
    " a second function built apart gets its own rows, not the first one's "
    calls = count_n_integrals(monkeypatch)
    f1, f2 = char_k_fn(), t2_fn()
    rows1 = f1.torus_rows()
    n1 = len(calls)
    assert rows1 == torus_support(char_k_fn()) and n1 > 0
    del calls[n1:]
    assert f1.torus_rows() is rows1 and len(calls) == n1
    rows2 = f2.torus_rows()
    assert rows2 == [(2, 3, Fraction(1, 2)), (-2, 5, 7)] != rows1
    assert len(calls) > n1
    assert one_dim_geometric(f2) == 8 and residual_geometric(f2) == -Fraction(15, 8)
    assert f2.torus_rows() is rows2 and f1.torus_rows() is rows1


def test_test_function_validation():
    h3 = HeckeElement.char(LocalField(3), (1, 0))
    with pytest.raises(ValueError):
        GlobalTestFunction([INF, 2], hecke={2: h3})  # q mismatch
    with pytest.raises(ValueError):
        GlobalTestFunction([INF, 2], hecke={3: h3})  # place outside S


# -- one-dimensional term -----------------------------------------------


def test_one_dim_geometric_char_k():
    f = char_k_fn()
    assert one_dim_geometric(f) == 8
    consts = NormalizationConstants(vol_k=2, vol_gbar=3)
    assert one_dim_geometric(f, consts) == Fraction(32, 3)


def test_one_dim_spectral_char_k():
    # only the trivial character is unramified everywhere in S;
    # its local factors are 1 and the arch factor is the full Phi-mass
    assert one_dim_spectral(char_k_fn()) == 16


def test_one_dim_spectral_t2():
    # trivial character: coset count (2+1) at p=2, 1 at p=3
    assert one_dim_spectral(t2_fn()) == 48
    consts = NormalizationConstants(vol_gbar=4)
    assert one_dim_spectral(t2_fn(), consts) == 12


def test_one_dim_zero():
    f = GlobalTestFunction([INF, 2])
    assert one_dim_geometric(f) == 0
    assert one_dim_spectral(f) == 0


# -- Cartan report ------------------------------------------------------


def test_cartan_ratios():
    for q in (2, 3, 5):
        fld = LocalField(q)
        h = (HeckeElement.char(fld, (1, 0))
             + HeckeElement.char(fld, (1, 1), 4)
             + HeckeElement.unit(fld))
        f = GlobalTestFunction([INF, q] if q != 2 else [INF, 2],
                               hecke={q: h})
        rows = cartan_discrepancy(f)
        by_key = {key: (g, t, r) for _, key, g, t, r in rows}
        g, t, r = by_key[(1, 0)]
        assert r == Fraction(q + 1, 2)
        assert g == LaurentQ(q + 1, 0, q) and t == LaurentQ(2, 0, q)
        assert by_key[(0, 0)][2] == 1
        assert by_key[(1, 1)][2] == 1
        assert by_key[(1, 1)][0] == LaurentQ(4, 0, q)
    report = format_cartan_report(rows)
    assert "ratio" in report.splitlines()[0]
    assert len(report.splitlines()) == 4


# -- residual term ------------------------------------------------------


def test_residual_geometric_char_k():
    assert residual_geometric(char_k_fn()) == -Fraction(15, 8)


def test_residual_identity_char_k():
    f = char_k_fn()
    assert residual_spectral(f) == residual_geometric(f) == -Fraction(15, 8)


def test_residual_identity_t2():
    f = t2_fn()
    assert residual_geometric(f) == -Fraction(15, 8)
    assert residual_spectral(f) == -Fraction(15, 8)
    # itemization: 8 characters, equal shares by reciprocity
    rows = residual_breakdown(f)
    assert len(rows) == 8
    assert all(term == -Fraction(15, 64) for _, term in rows)


def test_residual_identity_is_live():
    " the per-place symbols are individually nontrivial "
    seen_minus = 0
    for c, t, v in [(3, 2, 2), (3, 2, 3), (-1, -1, INF), (-1, -1, 2)]:
        s = hilbert_symbol(c, t, v)
        assert s == -1
        seen_minus += 1
    assert seen_minus == 4


def test_residual_needs_2():
    f, phi = wide_profiles()
    g = GlobalTestFunction([INF, 3], f_profile=f, phi_profile=phi)
    assert residual_geometric(g) == -Fraction(15, 8)  # geometric side fine
    with pytest.raises(ValueError):
        residual_spectral(g)


def test_residual_zero():
    assert residual_spectral(GlobalTestFunction([INF, 2])) == 0


def test_residual_random_profiles():
    " equality holds for any rational piecewise-constant profile pair "
    import random
    rng = random.Random(17)
    fld2, fld3 = LocalField(2), LocalField(3)
    for _ in range(10):
        def rnd_profile():
            pos = ((-3, 0, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))]),
                   (0, 3, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))]))
            neg = ((-2, 2, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))]),)
            return ArchProfile(pos=pos, neg=neg)
        h2 = (HeckeElement.char(fld2, (1, 0), rng.randint(-3, 3))
              + HeckeElement.char(fld2, (0, 0), rng.randint(-3, 3))
              + HeckeElement.char(fld2, (1, 1), rng.randint(-3, 3)))
        h3 = (HeckeElement.char(fld3, (1, 0), rng.randint(-3, 3))
              + HeckeElement.unit(fld3))
        f = GlobalTestFunction([INF, 2, 3], hecke={2: h2, 3: h3},
                               f_profile=rnd_profile(),
                               phi_profile=rnd_profile())
        assert residual_spectral(f) == residual_geometric(f)


# S = {inf} plus up to five finite places; each set with 2 also has a
# residual term
ORACLE_PLACE_SETS = [[2], [3], [2, 3], [3, 5], [2, 5, 7], [2, 3, 5, 7],
                     [3, 5, 7, 11], [2, 3, 5, 7, 11]]


def random_test_function(rng, primes):
    """random Hecke factors (some absent) and piecewise-constant profiles
    wide enough to hold most torus points"""
    def profile():
        return ArchProfile(
            pos=((-12, 0, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))]),
                 (0, 12, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))])),
            neg=((-9, 9, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))]),))
    hecke = {}
    for p in primes:
        if rng.random() < 0.8:
            fld = LocalField(p)
            k1, k2 = rng.sample([(0, 0), (1, 0), (1, 1), (0, -1), (2, 0)], 2)
            hecke[p] = (HeckeElement.char(fld, k1, rng.randint(1, 3))
                        + HeckeElement.char(fld, k2, rng.randint(-3, 3)))
    return GlobalTestFunction([INF] + primes, hecke=hecke,
                              f_profile=profile(), phi_profile=profile())


@pytest.mark.parametrize("primes", ORACLE_PLACE_SETS)
def test_assembly_sums_match_per_character_oracles(monkeypatch, primes):
    """the residual breakdown from per-unit tables and the one-dimensional
    term from one local factor per Kronecker value equal the sums taken
    character by character, with a Hilbert symbol per (c_d, t, v) and a
    local factor per (character, place).  By reciprocity every psi_d is 1
    on the torus points, so every term of the breakdown is equal, and the
    breakdowns are also compared under the symbol with one place v0 left
    out: still multiplicative in c, it makes psi_d(t) = (c_d, t)_v0, which
    varies with d.  Only d = 1 is unramified at every finite place of S,
    so only chi_1 adds to the one-dimensional term."""
    rng = random.Random(sum(primes))
    ramified = varied = 0
    for _ in range(3):
        f = random_test_function(rng, primes)
        chars = f.class_group().quad_chars
        ramified += sum(kronecker(d, p) == 0 for d in chars for p in primes)
        assert [d for d in chars if all(kronecker(d, p) for p in primes)] == [1]
        consts = NormalizationConstants(vol_k=rng.randint(1, 3), vol_gbar=rng.randint(1, 3))
        assert one_dim_spectral(f, consts) == one_dim_spectral_oracle(f, consts)
        if 2 not in primes:
            continue
        rows = residual_breakdown(f)
        assert rows == residual_breakdown_oracle(f)
        assert len({term for _, term in rows}) == 1
        assert residual_spectral(f) == residual_geometric(f)
        for v0 in f.places:
            def symbol(a, b, v, v0=v0):
                return 1 if v == v0 else hilbert_symbol(a, b, v)
            with monkeypatch.context() as m:
                m.setattr(assembly, "hilbert_symbol", symbol)
                rows = residual_breakdown(f)
            assert rows == residual_breakdown_oracle(f, symbol)
            varied += len({term for _, term in rows}) > 1
    assert ramified
    assert varied or 2 not in primes


@pytest.mark.parametrize("places, code", [("inf,2,3", 1), ("inf,2,5,7,11", 1),
                                          ("inf,2", 0), ("inf,2,3,5", 0)])
def test_assemble_catches_a_constant_hilbert_symbol(monkeypatch, tmp_path, capsys,
                                                    places, code):
    """with (c, t)_v = -1 for every c, t and v, psi_u(t) = (-1)^|S| for each
    unit u, so when |S| is odd the residual sides differ and assemble exits
    1; when |S| is even every psi_d is 1 and the sides agree"""
    from gl2trace import cli
    cfg = tmp_path / "run.cfg"
    cfg.write_text("places = %s\nphi_pos = -2:2:1/2\nphi_neg = -1:1:7\n" % places)
    argv = ["assemble", "--config", str(cfg), "--base-dir", str(tmp_path)]
    assert cli.run(argv) == 0
    monkeypatch.setattr(assembly, "hilbert_symbol", lambda a, b, v: -1)
    assert cli.run(argv) == code
    assert ("FAIL residual sides differ" in capsys.readouterr().out) == bool(code)


# -- correction bracket -------------------------------------------------


def test_correction_char_k():
    f = char_k_fn()
    total, rows = correction_term(f)
    assert total == -Fraction(49, 8)
    assert total == -one_dim_geometric(f) - residual_geometric(f)
    assert [r[0] for r in rows] == [1, -1]
    assert rows[0] == (1, Fraction(1, 8), 3, Fraction(1, 8) - 3)
    text = format_correction_report(total, rows)
    assert text.splitlines()[-1].endswith(str(total))


def test_correction_zero_and_scaling():
    total0, rows0 = correction_term(GlobalTestFunction([INF, 2]))
    assert total0 == 0 and rows0 == []
    f, phi = wide_profiles()
    h = HeckeElement.char(LocalField(2), (1, 0))
    g1 = GlobalTestFunction([INF, 2], hecke={2: h},
                            f_profile=f, phi_profile=phi)
    g3 = GlobalTestFunction([INF, 2], hecke={2: h.scale(3)},
                            f_profile=f, phi_profile=phi)
    assert correction_term(g3)[0] == 3 * correction_term(g1)[0]


# -- torus-level Poisson invariant --------------------------------------


def test_torus_level_poisson():
    f = t2_fn()
    sg = class_group_mod_squares(f.places)
    values = {e: Fraction(0) for e in sg.group.elements()}
    for t, fv, _ in torus_support(f):
        values[project(sg, Fraction(t))] += fv
    F = [values[e] for e in sg.group.elements()]
    lhs, rhs = poisson_check(sg.group, [], F)
    assert lhs == rhs
    # the identity fiber is empty here: +-2 project nontrivially
    assert lhs == 0


# -- intertwining -------------------------------------------------------


def test_intertwining_constant():
    assert intertwining_constant() == -1


def test_intertwining_numeric():
    r4 = numeric_verify(1e-4)
    assert abs(r4 + 1) < 1e-3
    errs = [abs(numeric_verify(s) + 1) for s in (1e-2, 1e-3, 1e-4)]
    assert errs[0] > errs[1] > errs[2]


def uncompleted_zeta_ratio(s):
    " zeta(1-s)/zeta(1+s); at s = 1 this is zeta(0)/zeta(2) ~ -0.304 "
    import mpmath
    with mpmath.workdps(50):
        return float(mpmath.zeta(1 - mpmath.mpf(s)) / mpmath.zeta(1 + mpmath.mpf(s)))


def test_uncompleted_ratio_recorded():
    assert abs(uncompleted_zeta_ratio(1) + 0.30396) < 2e-3


# -- configuration ------------------------------------------------------


def test_load_config(tmp_path):
    h = HeckeElement.char(LocalField(2), (1, 0)) + HeckeElement.unit(LocalField(2))
    (tmp_path / "t2.hk").write_text(h.to_text())
    cfg = """
# comment
places = inf,2
vol_gbar = 2
vol_k = 1
hecke_2 = t2.hk
f_pos = -2:2:3
f_neg = -1:1:5
phi_pos = -2:2:1/2
phi_neg = -1:1:7
"""
    f, consts = load_config(cfg, base_dir=str(tmp_path))
    assert f.places == [INF, 2]
    assert f.local(2) == h
    assert consts.vol_gbar == 2
    assert f.f_profile.mass(1) == 12
    assert one_dim_geometric(f, consts) is not None


def test_load_config_errors(tmp_path):
    with pytest.raises(ValueError):
        load_config("vol_gbar = 1")          # missing places
    with pytest.raises(ValueError):
        load_config("places = inf,2\nbogus = 3")
    with pytest.raises(ValueError):
        load_config("places = inf,2\nplaces = inf,3")
    h3 = HeckeElement.char(LocalField(3), (1, 0))
    (tmp_path / "bad.hk").write_text(h3.to_text())
    with pytest.raises(ValueError):
        load_config("places = inf,2\nhecke_2 = bad.hk",
                    base_dir=str(tmp_path))
    with pytest.raises(ValueError, match="hecke_2 .*missing.hk: .*No such file"):
        load_config("places = inf,2\nhecke_2 = missing.hk",
                    base_dir=str(tmp_path))
