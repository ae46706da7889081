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
from gl2trace import cli
from gl2trace.chargroup import (FiniteAbelianGroup, GroupFunction,
                                format_group_function)
from gl2trace.cli import run
from gl2trace.hecke import HeckeElement, LocalField


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


def test_poisson(tmp_path, capsys):
    g = FiniteAbelianGroup((2, 2))
    f = GroupFunction(g, {e: Fraction(i - 1, 3)
                          for i, e in enumerate(g.elements())})
    path = tmp_path / "f.txt"
    path.write_text(format_group_function(f))
    assert run(["poisson", "--group", "2,2", "--f", str(path)]) == 0
    out = capsys.readouterr().out
    assert "sum over H\t-1/3" in out and "dual side\t-1/3" in out
    assert run(["poisson", "--f", str(path), "--subgroup", "1,0"]) == 0
    assert run(["poisson", "--group", "2,4", "--f", str(path)]) == 2


def test_class_group(capsys):
    assert run(["class-group", "--places", "inf,2"]) == 0
    out = capsys.readouterr().out
    assert "group\t(Z/2)^2" in out
    assert "discriminants\t1,-4,8,-8" in out


def test_assemble(assemble_cfg, capsys):
    cfg, base = assemble_cfg
    assert run(["assemble", "--config", cfg, "--base-dir", base]) == 0
    out = capsys.readouterr().out
    assert "residual_geometric\t-15/8" in out
    assert "residual_spectral\t-15/8" in out
    assert "one_dim_spectral\t48" in out
    assert out.strip().splitlines()[-1] == "total\t\t\t-49/8"


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


def test_tau_csv(tmp_path, capsys):
    out = tmp_path / "delta.csv"
    assert run(["tau", "--x", "30", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,ap" and lines[1] == "2,-24" and lines[2] == "3,252"


def test_tau_deligne_failure(monkeypatch, capsys):
    from gl2trace import spectral
    good = spectral.tau_table

    def forged(x):
        t = good(x)
        t[4] = 10 ** 9                               # tau(5)
        return t
    monkeypatch.setattr(spectral, "tau_table", forged)
    assert run(["tau", "--x", "30"]) == 1
    assert "FAIL tau(5) = 1000000000" in capsys.readouterr().out


def test_tau_congruence_failure(monkeypatch, capsys):
    " tau(5) = 4831 passes Deligne's bound; the mod-691 congruence catches it "
    from gl2trace import spectral
    good = spectral.tau_table

    def forged(x):
        t = good(x)
        assert t[4] == 4830
        t[4] = 4831                                  # tau(5)
        return t
    monkeypatch.setattr(spectral, "tau_table", forged)
    assert 4831 ** 2 <= 4 * 5 ** 11
    assert run(["tau", "--x", "30"]) == 1
    out = capsys.readouterr().out
    assert out == ("FAIL tau(5) = 4831 breaks Ramanujan's congruence "
                   "tau(p) = 1 + p^11 mod 691\n")


@pytest.mark.parametrize("grid", ["100,abc", "50,1000"])
def test_estimate_mr_grid_checked_before_kernel(grid, monkeypatch, capsys):
    from gl2trace import spectral
    calls = []
    monkeypatch.setattr(spectral, "tau_table", calls.append)
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
    for i, (text, value) in enumerate([
            ("places = inf,2,3\nhecke_3 = bad0.hecke\n", "line 2 '1 0 1/0'"),
            ("places = inf,2\nf_pos = -2:2:1/0\n", "piece '-2:2:1/0'")]):
        path = tmp_path / ("bad%d.cfg" % i)
        path.write_text(text)
        cases.append((["assemble", "--config", str(path),
                       "--base-dir", str(tmp_path)], value))
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


@pytest.mark.parametrize("argv, line, value", [
    (["l-factor", "--q", "2", "--r", "std"], "check = abc", "'abc'"),
    (["intertwine"], "tol = x", "'x'"),
    (["tau"], "x = 3.5", "'3.5'"),
])
def test_config_value_typed(argv, line, value, tmp_path, capsys):
    " a config value goes through its flag's type, and a bad one is named "
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run(argv + ["--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and value in err
    assert out == ""


def count_phi_transforms(monkeypatch):
    calls = []
    real = cli.phi_transform

    def counted(h, a):
        calls.append(a.m1)
        return real(h, a)
    monkeypatch.setattr(cli, "phi_transform", counted)
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


def test_usage_errors(capsys):
    assert run(["satake", "--q", "3"]) == 2          # missing --in
    assert run(["no-such-command"]) == 2
    assert run(["orbital", "--q", "4", "--gamma", "1,0", "--in", "x"]) == 2


def test_perfbench_trace_names_resolve():
    " every module attribute the benchmark's tracer wraps or counts exists "
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "trace.py")
    spec = importlib.util.spec_from_file_location("perfbench_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    names = ([(mod, attr) for mod, attr, _ in trace.SPANS] + trace.COUNTS
             + trace.RING_CLASSES)
    for mod, attr in names:
        owner = importlib.import_module("gl2trace." + mod)
        for bit in attr.split("."):
            assert hasattr(owner, bit), "gl2trace.%s has no %s" % (mod, attr)
            owner = getattr(owner, bit)
    for mod, cls in trace.RING_CLASSES:
        assert isinstance(getattr(importlib.import_module("gl2trace." + mod), cls), type)
