"""Exit codes, report formats, and determinism of the command line."""

import argparse
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import gl2trace
from gl2trace import assembly, cli, orbital
from gl2trace.chargroup import FiniteAbelianGroup
from gl2trace.cli import run
from gl2trace.hecke import HeckeElement, LocalField
from gl2trace.rings import LaurentQ

from _oracles import damaged_products, format_group_function


@pytest.fixture
def tp3(tmp_path):
    path = tmp_path / "T3.hecke"
    path.write_text(HeckeElement.char(LocalField(3), (1, 0)).to_text())
    return str(path)


@pytest.fixture
def assemble_cfg(tmp_path):
    (tmp_path / "T2.hecke").write_text(
        HeckeElement.char(LocalField(2), (1, 0)).to_text())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("places = inf,2\n"
                   "hecke_2 = T2.hecke\n"
                   "f_pos = -2:2:3\nf_neg = -1:1:5\n"
                   "phi_pos = -2:2:1/2\nphi_neg = -1:1:7\n")
    return str(cfg), str(tmp_path)


def test_satake_output(tp3, capsys):
    assert run(["satake", "--q", "3", "--in", tp3]) == 0
    assert capsys.readouterr().out.strip() == "v*(Y1 + Y2)"


def test_satake_q_mismatch(tp3):
    assert run(["satake", "--q", "5", "--in", tp3]) == 2


def test_convolve_roundtrip(tp3, tmp_path, capsys):
    out = tmp_path / "sq.hecke"
    assert run(["convolve", "--q", "3", "--in", tp3, "--in2", tp3,
                "--out", str(out)]) == 0
    back = HeckeElement.from_text(out.read_text())
    fld = LocalField(3)
    want = (HeckeElement.char(fld, (2, 0))
            + HeckeElement.char(fld, (1, 1), 4))
    assert back == want


@pytest.mark.parametrize("which", [0, 1, 2])
def test_convolve_self_check_fails(which, tmp_path, monkeypatch, capsys):
    """a product with one key's v-part perturbed, one key added or one
    key dropped fails the homomorphism self-check with exit 1"""
    field = LocalField(3)
    h1 = HeckeElement(field, {(1, 0): 1, (2, -1): LaurentQ(Fraction(1, 2), 2, 3)})
    h2 = HeckeElement(field, {(0, 0): 3, (3, 1): LaurentQ(0, -1, 3)})
    paths = []
    for i, h in enumerate((h1, h2)):
        paths.append(tmp_path / ("h%d.hecke" % i))
        paths[-1].write_text(h.to_text())
    real = cli.convolve
    monkeypatch.setattr(cli, "convolve",
                        lambda f, g: damaged_products(real(f, g))[which])
    out = tmp_path / "prod.hecke"
    assert run(["convolve", "--q", "3", "--in", str(paths[0]),
                "--in2", str(paths[1]), "--out", str(out)]) == 1
    assert capsys.readouterr().out == (
        "FAIL transform of the product differs from the product of transforms\n")


def test_basic_fn(capsys):
    assert run(["basic-fn", "--q", "2", "--r", "std", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "1 1 1/2" in out and "2 0 1/2" in out


def test_l_factor_check(capsys):
    assert run(["l-factor", "--q", "2", "--r", "std", "--check", "6"]) == 0
    out = capsys.readouterr().out
    assert "den: 0:1 1:-6/5 2:1" in out
    assert "identity verified to order 6" in out


def test_orbital_with_oracle(tp3, capsys):
    assert run(["orbital", "--q", "3", "--gamma", "1,0", "--in", tp3,
                "--depth", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "orbital\tv"
    assert out.splitlines()[1] == "oracle\tv"


def test_orbital_float(tp3, capsys):
    assert run(["orbital", "--q", "3", "--gamma", "1,0", "--in", tp3,
                "--float"]) == 0
    val = float(capsys.readouterr().out.split()[1])
    assert abs(val - 3 ** 0.5) < 1e-9


@pytest.mark.parametrize("d", ["1000000001", "1000000000"])
def test_orbital_huge_d(tmp_path, d):
    """a split class is its valuation triple: f_G does not depend on d, so
    no entry q^d is formed, and d = 10^9 is a value like any other"""
    unit = tmp_path / "unit.hecke"
    unit.write_text("q 3 kmin 0\n0 0 1\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(gl2trace.__file__)))
    proc = subprocess.run([sys.executable, "-m", "gl2trace.cli", "orbital",
                           "--q", "3", "--gamma", "0,0", "--d", d, "--in", str(unit)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "orbital\t1\n", "")


def test_float_only_where_read(tp3, assemble_cfg, capsys):
    " --float belongs to orbital and assemble; the other subcommands reject it "
    for name in cli.COMMANDS:
        if name not in ("orbital", "assemble"):
            assert run([name, "--float"]) == 2, name
            err = capsys.readouterr().err
            assert err.endswith("error: unrecognized arguments: --float\n"), name
    assert run(["satake", "--q", "3", "--in", tp3]) == 0
    assert capsys.readouterr().out == "v*(Y1 + Y2)\n"
    assert run(["satake", "--q", "3", "--in", tp3, "--float"]) == 2
    cfg, base = assemble_cfg
    assert run(["assemble", "--config", cfg, "--base-dir", base, "--float"]) == 0
    assert "one_dim_spectral\t48\n" in capsys.readouterr().out


def test_orbital_zeta_certified(capsys):
    assert run(["orbital-zeta", "--q", "2", "--gamma", "1,0", "--r", "std",
                "--N", "12", "--fit", "1,3"]) == 0
    out = capsys.readouterr().out
    assert "num: 1:1" in out
    assert "certified on 8 coefficients" in out


def test_orbital_zeta_no_fit(capsys):
    assert run(["orbital-zeta", "--q", "2", "--gamma", "1,0", "--r", "std",
                "--N", "4", "--fit", "0,0"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_orbital_zeta_window_too_small(capsys):
    assert run(["orbital-zeta", "--q", "2", "--gamma", "1,0", "--r", "std",
                "--N", "4", "--fit", "2,3"]) == 2


def test_phi_check(capsys):
    assert run(["phi-check", "--q", "5", "--dmax", "2"]) == 0
    assert "measured H-exponent(s): ['1/2']" in capsys.readouterr().out


def thirds(i):
    return Fraction(i - 1, 3)


def mixed(i):
    return Fraction((7 * i) % 11 - 5, 1 + i % 4)


def test_poisson(tmp_path, capsys):
    """exact stdout with no --subgroup, with one generator, and with three
    on a non-cyclic group; value(i) is the value at the i-th element"""
    for orders, value, flags, lhs in [
            ((2, 2), thirds, ["--group", "2,2"], "-1/3"),
            ((2, 2), thirds, ["--subgroup", "1,0"], "0"),
            ((2, 4, 3), mixed, ["--subgroup", "1,2,0;0,2,1;1,1,1"], "-53/12")]:
        g = FiniteAbelianGroup(orders)
        path = tmp_path / "f.txt"
        path.write_text(format_group_function(g, [value(i) for i in range(g.order)]))
        assert run(["poisson", "--f", str(path)] + flags) == 0
        assert capsys.readouterr().out == "sum over H\t%s\ndual side\t%s\n" % (lhs, lhs)
        assert run(["poisson", "--group", "2,4", "--f", str(path)]) == 2


def test_class_group(capsys):
    assert run(["class-group", "--places", "inf,2"]) == 0
    out = capsys.readouterr().out
    assert "group\t(Z/2)^2" in out
    assert "discriminants\t1,-4,8,-8" in out
    # with 2 outside S, half of the candidates c fail reciprocity
    assert run(["class-group", "--places", "inf,3,5,7"]) == 0
    assert capsys.readouterr().out == ("group\t(Z/2)^3\n"
                                       "coords\t5:val,7:val,7:nonres\n"
                                       "discriminants\t1,-3,5,-7,-15,21,-35,105\n")


def test_module_runs_the_cli():
    " python -m gl2trace.cli runs the command line and keeps its exit code "
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(gl2trace.__file__)))
    ok = subprocess.run([sys.executable, "-m", "gl2trace.cli", "tau", "--x", "30"],
                        env=env, capture_output=True, text=True, timeout=60)
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.splitlines()[:3] == ["p,ap", "2,-24", "3,252"]
    bad = subprocess.run([sys.executable, "-m", "gl2trace.cli", "tau", "--x", "1"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2 and "x = 1" in bad.stderr


def test_assemble(assemble_cfg, capsys):
    cfg, base = assemble_cfg
    assert run(["assemble", "--config", cfg, "--base-dir", base]) == 0
    out = capsys.readouterr().out
    assert "residual_geometric\t-15/8" in out
    assert "residual_spectral\t-15/8" in out
    assert "one_dim_spectral\t48" in out
    assert out.strip().splitlines()[-1] == "total\t\t\t-49/8"


def test_assemble_zero_finite_factor_reads_no_profile(tmp_path, capsys):
    """f and Phi of char (1,1) at q = 2 vanish at t = +-4, where the f
    profile has degree 1 at the irrational log 4: it is never read, and
    every torus sum is an exact 0"""
    (tmp_path / "h2.hecke").write_text("q 2 kmin 0\n1 1 1\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("places = inf,2\nhecke_2 = h2.hecke\n"
                   "f_pos = 0:2:1,1\nphi_pos = -2:2:1/2\n")
    assert run(["assemble", "--config", str(cfg), "--base-dir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        "one_dim_geometric\t0", "one_dim_spectral\t2",
        "residual_geometric\t0", "residual_spectral\t0",
        "t\tquarter_phi\tone_dim\tbracket", "total\t\t\t0"]


def test_assemble_deterministic(assemble_cfg, capsys):
    cfg, base = assemble_cfg
    run(["assemble", "--config", cfg, "--base-dir", base])
    first = capsys.readouterr().out
    run(["assemble", "--config", cfg, "--base-dir", base])
    assert capsys.readouterr().out == first


def test_cartan_report(assemble_cfg, capsys):
    cfg, base = assemble_cfg
    assert run(["cartan-report", "--config", cfg, "--base-dir", base]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "place\tcoset\tgroup_integral\ttorus_form\tratio"
    assert out.splitlines()[1] == "2\t(1,0)\t3\t2\t3/2"


def test_intertwine(capsys):
    assert run(["intertwine"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "constant\t-1"
    assert run(["intertwine", "--tol", "1e-9"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("vals, fail", [
    ([-0.9, -0.99, float("nan")], "FAIL final error nan"),
    ([-0.9, float("nan"), -0.9999], "FAIL error not strictly improving"),
])
def test_intertwine_nan_error_fails(vals, fail, monkeypatch, capsys):
    " a NaN ratio never reads as verified "
    ratios = dict(zip((0.01, 0.001, 0.0001), vals))
    monkeypatch.setattr(assembly, "numeric_verify", lambda s: ratios[s])
    assert run(["intertwine"]) == 1
    assert fail in capsys.readouterr().out


def test_tau_csv(tmp_path, capsys):
    out = tmp_path / "delta.csv"
    assert run(["tau", "--x", "30", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,ap" and lines[1] == "2,-24" and lines[2] == "3,252"


def test_tau_deligne_failure(monkeypatch, capsys):
    from gl2trace import spectral
    good = spectral.tau_table

    def forged(x, ns):
        return [10 ** 9 if n == 5 else t for n, t in zip(ns, good(x, ns))]
    monkeypatch.setattr(spectral, "tau_table", forged)
    assert run(["tau", "--x", "30"]) == 1
    assert "FAIL tau(5) = 1000000000" in capsys.readouterr().out


def test_tau_congruence_failure(monkeypatch, capsys):
    " tau(5) = 4831 passes Deligne's bound; the mod-691 congruence catches it "
    from gl2trace import spectral
    good = spectral.tau_table

    def forged(x, ns):
        taus = good(x, ns)
        assert taus[ns.index(5)] == 4830
        return [4831 if n == 5 else t for n, t in zip(ns, taus)]
    monkeypatch.setattr(spectral, "tau_table", forged)
    assert 4831 ** 2 <= 4 * 5 ** 11
    assert run(["tau", "--x", "30"]) == 1
    out = capsys.readouterr().out
    assert out == ("FAIL tau(5) = 4831 breaks Ramanujan's congruence "
                   "tau(p) = 1 + p^11 mod 691\n")


def test_estimate_mr_checks_the_table(monkeypatch, capsys):
    " estimate-mr reads the same checked table as tau: a forged tau(p) fails "
    from gl2trace import spectral
    good = spectral.tau_table

    def forged(x, ns):
        return [4831 if n == 5 else t for n, t in zip(ns, good(x, ns))]
    monkeypatch.setattr(spectral, "tau_table", forged)
    assert run(["estimate-mr", "--x", "30", "--n-grid", "10,30"]) == 1
    assert capsys.readouterr().out == (
        "FAIL tau(5) = 4831 breaks Ramanujan's congruence "
        "tau(p) = 1 + p^11 mod 691\n")


@pytest.mark.parametrize("grid", ["100,abc", "50,1000", "2,50", "0,50"])
def test_estimate_mr_grid_checked_before_kernel(grid, monkeypatch, capsys):
    from gl2trace import spectral
    calls = []
    monkeypatch.setattr(spectral, "tau_table", lambda *a: calls.append(a))
    assert run(["estimate-mr", "--x", "100", "--n-grid", grid]) == 2
    assert capsys.readouterr().err.startswith("error: --n-grid ")
    assert calls == []


def test_internal_assertion_is_not_a_usage_error(tp3, monkeypatch, capsys):
    " a broken invariant propagates; exit 2 is kept for bad input "
    def broken(args):
        raise AssertionError("invariant broken")
    monkeypatch.setitem(cli.COMMANDS, "satake",
                        (broken, cli.COMMANDS["satake"][1]))
    with pytest.raises(AssertionError, match="invariant broken"):
        run(["satake", "--q", "3", "--in", tp3])
    out, err = capsys.readouterr()
    assert "error:" not in out + err


def test_estimate_mr_csv(capsys):
    from gl2trace.basicfn import RepSpec
    from gl2trace.spectral import (delta_qexpansion, estimator_series,
                                   format_estimates)
    assert run(["estimate-mr", "--x", "300", "--r", "sym2",
                "--n-grid", "100,300"]) == 0
    rows = estimator_series(RepSpec(2), delta_qexpansion(300), [100, 300])
    assert capsys.readouterr().out == format_estimates(rows)


BAD_VALUES = [
    (["tau", "--x", "1"], "x = 1"),
    (["tau", "--x", "0"], "x = 0"),
    (["estimate-mr", "--x", "1", "--n-grid", "2"], "x = 1"),
    (["estimate-mr", "--x", "100", "--n-grid", "50,1000"], "n = 1000"),
    (["basic-fn", "--q", "2", "--r", "std", "--n", "-1"], "n = -1"),
    (["basic-fn", "--q", "1", "--r", "std", "--n", "2"], "q = 1"),
    (["l-factor", "--q", "1", "--r", "std", "--check", "3"], "q = 1"),
    (["l-factor", "--q", "2", "--r", "std", "--check", "-1"], "--check -1"),
    (["orbital-zeta", "--q", "1", "--gamma", "1,1", "--d", "2", "--r", "std",
      "--N", "8", "--fit", "1,1"], "q = 1"),
    (["orbital-zeta", "--q", "2", "--gamma", "1,0", "--r", "std",
      "--N", "-1", "--fit", "1,1"], "--N -1"),
    (["class-group", "--places", "inf,4"], "place 4 is not a prime"),
    (["class-group", "--places", "3,5"], "lacks the archimedean place inf"),
    (["orbital-zeta", "--q", "2", "--gamma", "1,0", "--r", "std",
      "--N", "12", "--fit=-1,2"], "fit degrees (-1, 2)"),
    (["phi-check", "--q", "3", "--dmax", "0"], "--dmax 0"),
    (["intertwine", "--s-grid", "1e-2,0"], "s = 0.0"),
    (["estimate-mr", "--x", "10000", "--n-grid", "100,abc"],
     "--n-grid wants comma-separated integers, got 'abc'"),
    (["estimate-mr", "--x", "10000", "--n-grid", "100,10002"],
     "--n-grid value n = 10002 exceeds the table bound x + 1 = 10001"),
    (["estimate-mr", "--x", "10000", "--r", "spin7", "--n-grid", "100"],
     "unknown representation 'spin7'"),
    (["intertwine", "--s-grid", "inf"], "--s-grid value s = inf is not finite"),
    (["intertwine", "--s-grid", "1e-2,1e-300"], "--s-grid value s = 1e-300 is below"),
    (["intertwine", "--tol", "nan"], "--tol nan is not a finite number > 0"),
    (["estimate-mr", "--x", "100", "--r", "spin7", "--n-grid", "2"],
     "--r spin7: unknown representation 'spin7'"),
    (["estimate-mr", "--x", "100", "--n-grid", "50,2"],
     "--n-grid value n = 2 is below 3: no primes below it"),
    (["tau", "--x", "-5"], "--x value x = -5 is below 2"),
    (["estimate-mr", "--x", "1", "--r", "spin7", "--n-grid", "0"],
     "--x value x = 1 is below 2"),
    (["basic-fn", "--q", "2", "--r", "detx", "--n", "2"],
     "--r detx: unknown representation 'detx'"),
    (["l-factor", "--q", "2", "--r", "spin7", "--check", "3"],
     "--r spin7: unknown representation 'spin7'"),
    (["orbital-zeta", "--q", "2", "--gamma", "1,0", "--r", "std*detx",
      "--N", "8", "--fit", "1,1"], "--r std*detx: unknown representation 'std*detx'"),
    (["estimate-mr", "--x", "100", "--r", "sym2*det1.5", "--n-grid", "50"],
     "--r sym2*det1.5: unknown representation 'sym2*det1.5'"),
    (["poisson", "--group", "4,x", "--f", "unread.fn"],
     "--group wants comma-separated cyclic orders, got '4,x'"),
    (["poisson", "--f", "unread.fn", "--subgroup", "1,a"],
     "--subgroup wants ';'-separated e1,e2,... generators, got '1,a'"),
    (["poisson", "--f", "unread.fn", "--subgroup", "1,0;2,a;1,1"],
     "--subgroup wants ';'-separated e1,e2,... generators, got '2,a'"),
    (["class-group", "--places", "inf,x"], "place 'x' is neither inf nor an integer"),
    (["orbital-zeta", "--q", "2", "--gamma", "1,x", "--r", "std",
      "--N", "8", "--fit", "1,1"],
     "--gamma wants two comma-separated integers, got '1,x'"),
]


def bad_file_values(tmp_path):
    " (argv, named value) for group-function files and subgroups that are wrong "
    cases = []
    for i, (text, value) in enumerate([
            ("group 2\nf 0 1\nf 1 1/0\n", "line 3 'f 1 1/0'"),
            ("group 2\nf 0 1\nf 1 1\nf 5 1\n", "line 4 'f 5 1'"),
            ("group 0\n", "cyclic order 0"),
            ("f 0 1\n", "group line must come first"),
            ("# empty\n", "missing group line")]):
        path = tmp_path / ("bad%d.fn" % i)
        path.write_text(text)
        cases.append((["poisson", "--f", str(path)], value))
    good = tmp_path / "good.fn"
    good.write_text("group 2\nf 0 1\nf 1 1\n")
    cases.append((["poisson", "--f", str(good), "--subgroup", "7"], "generator 7"))
    cases.append((["tau", "--x", "30", "--out", str(tmp_path / "no" / "t.csv")],
                  "No such file or directory"))
    for i, (text, value) in enumerate([
            ("q 3 kmin 0\n1 0 1/0\n", "line 2 '1 0 1/0': coefficient 1/0"),
            ("q 3 kmin 0\n\n1.5 0 1\n", "line 3 '1.5 0 1'")]):
        path = tmp_path / ("bad%d.hecke" % i)
        path.write_text(text)
        cases.append((["satake", "--q", "3", "--in", str(path)], value))
    good = tmp_path / "t3.hecke"
    good.write_text("q 3 kmin 0\n1 0 1\n")
    cases.append((["orbital", "--q", "3", "--gamma", "1,0", "--in", str(good),
                   "--depth", "-1"], "depth = -1"))
    q4 = tmp_path / "t4.hecke"
    q4.write_text("q 4 kmin 0\n1 0 1\n")
    cases.append((["orbital", "--q", "4", "--gamma", "1,0", "--in", str(q4),
                   "--depth", "2"], "q = 4 is not a prime"))
    for i, (text, value) in enumerate([
            ("places = inf,2,3\nhecke_3 = bad0.hecke\n", "line 2 '1 0 1/0'"),
            ("places = inf,2\nf_pos = -2:2:1/0\n", "piece '-2:2:1/0'"),
            ("places = inf,2\nvol_k = 1/0\n", "vol_k = 1/0 has a denominator 0"),
            ("places = inf,2\nvol_gbar = 3/0\n", "vol_gbar = 3/0 has a denominator 0"),
            ("places = inf,x\n", "place 'x' is neither inf nor an integer"),
            ("places = inf,2\nvol_k = 2\nvol_k = 3\n", "duplicate config key: 'vol_k'")]):
        path = tmp_path / ("bad%d.cfg" % i)
        path.write_text(text)
        for cmd in ("assemble", "cartan-report"):
            cases.append(([cmd, "--config", str(path),
                           "--base-dir", str(tmp_path)], value))
    flags = tmp_path / "flags.cfg"
    flags.write_text("q = x\n")
    cases.append((["phi-check", "--config", str(flags)],
                  "--config value q = x for --q: "))
    return cases


def test_bad_files_named(tmp_path, capsys):
    for argv, value in bad_file_values(tmp_path):
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and value in err, (argv, err)
        assert "dual side" not in out


@pytest.mark.parametrize("argv, value", BAD_VALUES)
def test_bad_values_named(argv, value, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and value in err
    assert "verified" not in out


def test_bad_value_named_under_optimize(tmp_path):
    " input checks are exceptions, so they survive python -O "
    hecke = tmp_path / "q1.hecke"
    hecke.write_text("q 1 kmin 0\n1 0 1\n")
    cases = (BAD_VALUES + bad_file_values(tmp_path)
             + [(["satake", "--q", "2", "--in", str(hecke)], "q = 1")])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(gl2trace.__file__)))
    code = ("import contextlib, io, json, sys\n"
            "from gl2trace.cli import run\n"
            "rows = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        code = run(argv)\n"
            "    rows.append([code, out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(rows))\n")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, json.dumps([a for a, _ in cases])],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    for (argv, value), (code, out, err) in zip(cases, json.loads(proc.stdout),
                                               strict=True):
        assert code == 2, argv
        assert err.startswith("error: ") and value in err, (argv, err)
        assert "verified" not in out and "Traceback" not in err, argv


def test_config_defaults(tmp_path, capsys):
    cfg = tmp_path / "tau.cfg"
    cfg.write_text("x = 30\n")
    assert run(["tau", "--config", str(cfg)]) == 0
    assert "2,-24" in capsys.readouterr().out
    # explicit flag wins over the config value
    assert run(["tau", "--config", str(cfg), "--x", "10"]) == 0
    assert "29," not in capsys.readouterr().out
    bad = tmp_path / "bad.cfg"
    bad.write_text("x = 30\nbogus = 1\n")
    assert run(["tau", "--config", str(bad)]) == 2


@pytest.mark.parametrize("argv, text, key", [
    (["tau"], "x = 30\nx = 10\n", "'x'"),
    (["estimate-mr", "--x", "300"], "n-grid = 100\n# again\nn_grid = 200\n", "'n_grid'"),
    (["assemble"], "places = inf,2\nplaces = inf,3\n", "'places'"),
])
def test_config_duplicate_key(argv, text, key, tmp_path, capsys):
    " a key given twice is an error for every subcommand, not its first value "
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", "error: duplicate config key: %s\n" % key)


@pytest.mark.parametrize("argv, line, value", [
    (["l-factor", "--q", "2", "--r", "std"], "check = abc", "'abc'"),
    (["intertwine"], "tol = x", "'x'"),
    (["tau"], "x = 3.5", "'3.5'"),
    # the config key is the flag's name, N, whose dest is order
    (["orbital-zeta", "--q", "2", "--r", "std", "--gamma", "1,0", "--fit", "1,1"],
     "N = 8.0", "for --N: invalid literal for int() with base 10: '8.0'"),
])
def test_config_value_typed(argv, line, value, tmp_path, capsys):
    " a config value goes through its flag's type, and a bad one is named "
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run(argv + ["--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and value in err
    assert err.startswith("error: --config value %s for --" % line)
    assert out == ""


ORBITAL_ZETA = ["orbital-zeta", "--q", "2", "--gamma", "1,0", "--r", "std",
                "--fit", "1,3"]


@pytest.mark.parametrize("argv, flag_line, dest_line, out", [
    (["orbital", "--q", "3", "--gamma", "1,0", "--in", "{tp3}"],
     "float = yes", "as_float = yes", "orbital\t1.73205080757\n"),
    (ORBITAL_ZETA, "N = 12", "order = 12", "certified on 8 coefficients"),
    (["satake", "--q", "3"], "in = {tp3}", "infile = {tp3}", "v*(Y1 + Y2)\n"),
])
def test_config_keys_are_flag_names(argv, flag_line, dest_line, out, tp3,
                                    tmp_path, capsys):
    """a --config key is the flag's name (--float, --N, --in), not its
    argparse dest (as_float, order, infile)"""
    argv = [a.format(tp3=tp3) for a in argv]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(flag_line.format(tp3=tp3) + "\n")
    assert run(argv + ["--config", str(cfg)]) == 0
    assert out in capsys.readouterr().out
    cfg.write_text(dest_line.format(tp3=tp3) + "\n")
    assert run(argv + ["--config", str(cfg)]) == 2
    key = dest_line.split(" = ")[0]
    assert capsys.readouterr() == ("", "error: unknown config key: %r\n" % key)


def count_phi_transforms(monkeypatch):
    calls = []
    real = orbital.phi_transform

    def counted(h, a):
        calls.append(a.m1)
        return real(h, a)
    monkeypatch.setattr(orbital, "phi_transform", counted)
    return calls


def test_config_overrides_default(tmp_path, monkeypatch, capsys):
    " a config value replaces a flag's default; an explicit flag beats both "
    calls = count_phi_transforms(monkeypatch)
    cfg = tmp_path / "phi.cfg"
    cfg.write_text("dmax = 4\n")
    assert run(["phi-check", "--q", "5", "--config", str(cfg)]) == 0
    assert "relation verified" in capsys.readouterr().out
    assert max(calls) == 4 and len(calls) == 3 * 4
    del calls[:]
    assert run(["phi-check", "--q", "5", "--config", str(cfg), "--dmax", "2"]) == 0
    assert max(calls) == 2
    del calls[:]
    assert run(["phi-check", "--q", "5"]) == 0
    assert max(calls) == 3
    # an explicit 0 is a value, not an unset switch for the config to fill
    cfg.write_text("check = 1\n")
    assert run(["l-factor", "--q", "2", "--r", "std", "--check", "0",
                "--config", str(cfg)]) == 0
    assert "identity verified to order 0" in capsys.readouterr().out


def run_captured(argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def cli_paths():
    " argv lists for every help and usage-error path of the parser "
    paths = [[], ["--help"], ["nope"], ["-h", "tau"], ["tau", "--x", "10", "--bogus"]]
    for name, (_, flags) in cli.COMMANDS.items():
        paths.append([name, "--help"])
        if any(spec.get("required") for spec in flags.values()):
            paths.append([name])            # missing a required flag
    return paths


def test_one_command_parser_matches_full(monkeypatch, capsys):
    " building only the named subparser changes no output and no exit code "
    monkeypatch.setenv("COLUMNS", "80")
    paths = cli_paths()
    assert len(paths) == 5 + 14 + 13
    one = [run_captured(argv, capsys) for argv in paths]
    full_parser = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv: full_parser([]))
    full = [run_captured(argv, capsys) for argv in paths]
    for argv, a, b in zip(paths, one, full):
        assert a == b, argv
    assert [code for code, _, _ in one[:5]] == [2, 0, 2, 0, 2]
    assert "{satake,convolve,basic-fn," in one[4][2]
    assert one[4][2].endswith("error: unrecognized arguments: --bogus\n")


def test_valid_command_builds_one_subparser(monkeypatch, capsys):
    names = []
    real = argparse._SubParsersAction.add_parser

    def counted(self, name, **kw):
        names.append(name)
        return real(self, name, **kw)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert run(["tau", "--x", "30"]) == 0
    assert names == ["tau"]
    del names[:]
    assert run(["--help"]) == 0
    assert names == list(cli.COMMANDS)
    capsys.readouterr()


def test_missing_value_names_the_flag(tmp_path, capsys):
    """each required flag left out, with every other one given, is named
    as typed on the command line; the same name is its --config key"""
    cfg = tmp_path / "run.cfg"
    cases = 0
    for name, (_, flags) in cli.COMMANDS.items():
        required = [flag for flag, spec in flags.items() if spec.get("required")]
        for missing in required:
            argv = [name]
            for flag in required:
                if flag != missing:
                    argv += ["--" + flag.replace("_", "-"), "1"]
            assert run(argv) == 2, argv
            shown = "--" + missing.replace("_", "-")
            assert capsys.readouterr() == (
                "", "error: missing a value for %s\n" % shown), argv
            if missing != "config":   # the file that --config names
                cfg.write_text("%s = 1\n" % shown[2:])
                run(argv + ["--config", str(cfg)])
                assert "missing a value" not in capsys.readouterr().err, argv
            cases += 1
    assert cases == 26


def test_usage_errors(capsys):
    assert run(["satake", "--q", "3"]) == 2          # missing --in
    assert run(["no-such-command"]) == 2
    assert run(["orbital", "--q", "4", "--gamma", "1,0", "--in", "x"]) == 2


def test_perfbench_trace_names_resolve(tmp_path, capsys):
    """the benchmark's Tracer and OpCounter install over every name in
    SPANS, COUNTS and RING_CLASSES, see a poisson run, and put every
    binding back when uninstalled"""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "trace.py")
    spec = importlib.util.spec_from_file_location("perfbench_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    for mod, cls in trace.RING_CLASSES:
        assert isinstance(getattr(importlib.import_module("gl2trace." + mod), cls), type)
    # the namespaces the two rebind: the modules, and classes for methods
    owners = [m for n, m in sys.modules.items() if n.startswith("gl2trace.")]
    owners += [c for m in owners for c in vars(m).values()
               if isinstance(c, type) and c.__module__.startswith("gl2trace.")]
    before = [dict(vars(o)) for o in owners]
    fn = tmp_path / "f.txt"
    fn.write_text("group 2 3\n" + "".join("f %d,%d %d\n" % (a, b, a + b)
                                          for a in range(2) for b in range(3)))
    tracer, counter = trace.Tracer(), trace.OpCounter()
    tracer.install()
    try:
        counter.install()
        try:
            assert tracer.job_span(0, "poisson", run, ["poisson", "--f", str(fn),
                                                       "--subgroup", "1,0"]) == 0
        finally:
            counter.uninstall()
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == "sum over H\t1\ndual side\t1\n"
    spans = {tracer.names[i] for i in tracer.name}
    assert {"cli.poisson", "chargroup.poisson_check", "chargroup.parse_group_function",
            "chargroup.subgroup_generated", "chargroup.annihilator"} <= spans
    assert counter.counts["chargroup.FiniteAbelianGroup.exponent.calls"] > 0
    assert [dict(vars(o)) for o in owners] == before
    # perfbench/run.py prints the backend in its header line
    assert isinstance(importlib.import_module("gl2trace.kernels").BACKEND, str)


def _fresh_process(code, *args):
    " stdout of code run by a fresh interpreter that finds gl2trace and perfbench "
    src = os.path.dirname(os.path.dirname(gl2trace.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(src)]))
    proc = subprocess.run([sys.executable, "-c", code] + list(args), env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# the gl2trace modules that have run, and the classes they define; type()
# reads no attribute, so it leaves a lazily registered module unrun
_RAN = ("import contextlib, io, json, sys, types\n"
        "def ran():\n"
        "    return sorted(n for n, m in sys.modules.items()\n"
        "                  if n.startswith('gl2trace.') and type(m) is types.ModuleType)\n"
        "def owners():\n"
        "    ms = [sys.modules[n] for n in ran()]\n"
        "    return ms + [c for m in ms for c in vars(m).values()\n"
        "                 if issubclass(type(c), type) and c.__module__ == m.__name__]\n"
        "def tau():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        return cli.run(['tau', '--x', '30'])\n")


def test_import_runs_only_the_core():
    """import gl2trace.cli registers every submodule but runs only cli and
    the hecke and rings that it binds from; a tau job leaves the modules it
    does not use unrun"""
    code = (_RAN + "from gl2trace import cli\n"
            "known = sorted(n for n in sys.modules if n.startswith('gl2trace.'))\n"
            "print(json.dumps([known, ran(), tau(), ran()]))\n")
    known, first, rc, after_tau = _fresh_process(code)
    src = os.path.dirname(gl2trace.__file__)
    assert known == sorted("gl2trace." + name[:-3] for name in os.listdir(src)
                           if name.endswith(".py") and name != "__init__.py")
    assert first == ["gl2trace.cli", "gl2trace.hecke", "gl2trace.rings"]
    assert rc == 0
    assert not {"gl2trace.assembly", "gl2trace.chargroup",
                "gl2trace.orbital"} & set(after_tau)


def test_perfbench_trace_over_unrun_modules(tmp_path):
    """in a fresh process where only a tau job has run, the benchmark's
    Tracer and OpCounter install over modules not yet run, see a poisson
    run, and leave every binding as it was once uninstalled.  In pytest
    other test files have run every module before
    test_perfbench_trace_names_resolve starts."""
    fn = tmp_path / "f.txt"
    fn.write_text("group 2 3\n" + "".join("f %d,%d %d\n" % (a, b, a + b)
                                          for a in range(2) for b in range(3)))
    code = (_RAN + "from gl2trace import cli\n"
            "from perfbench import trace\n"
            "rc = [tau()]\n"
            "unrun = sorted({'gl2trace.assembly', 'gl2trace.chargroup'} - set(ran()))\n"
            "early = owners()\n"
            "before = [dict(vars(o)) for o in early]\n"
            "tracer, counter = trace.Tracer(), trace.OpCounter()\n"
            "tracer.install()\n"
            "counter.install()\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    rc.append(tracer.job_span(0, 'poisson', cli.run, sys.argv[1:]))\n"
            "counter.uninstall()\n"
            "tracer.uninstall()\n"
            "# a wrapper left anywhere, also in a module the tracer ran\n"
            "left = ['%s.%s' % (o.__name__, k) for o in owners()\n"
            "        for k, v in vars(o).items()\n"
            "        if hasattr(getattr(v, '__func__', getattr(v, 'fget', v)), '__wrapped__')]\n"
            "print(json.dumps({\n"
            "    'rc': rc, 'unrun': unrun, 'out': out.getvalue(), 'left': left,\n"
            "    'spans': sorted({tracer.names[i] for i in tracer.name}),\n"
            "    'exponent': counter.counts['chargroup.FiniteAbelianGroup.exponent.calls'],\n"
            "    'restored': [dict(vars(o)) for o in early] == before}))\n")
    res = _fresh_process(code, "poisson", "--f", str(fn), "--subgroup", "1,0")
    assert res["unrun"] == ["gl2trace.assembly", "gl2trace.chargroup"]
    assert res["rc"] == [0, 0]
    assert res["out"] == "sum over H\t1\ndual side\t1\n"
    assert {"cli.poisson", "chargroup.poisson_check", "chargroup.parse_group_function",
            "chargroup.subgroup_generated", "chargroup.annihilator"} <= set(res["spans"])
    assert res["exponent"] > 0
    assert res["restored"] and res["left"] == []
