"""Fuzz tests for the text formats the command line reads: value tokens,
Hecke element files (satake --in), group-function files (poisson --f),
--config key = value files, and assemble configs with profile pieces.

Each format gets two kinds of test.  One builds a valid file, breaks it
in one known way, and requires exit 2 with an `error: ` line that names
the place.  The other makes up to three random edits to a valid file
(tokens replaced or dropped, lines dropped, copied or made up) and
requires that the command either runs (exit 0; always so with no edit)
or rejects the input (exit 2 with a message): never a traceback, and
never exit 1, which is kept for a failed identity.
Exponents, coset keys and group orders stay small, so every example runs
in milliseconds.
"""

import contextlib
import io
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2trace import chargroup, hecke
from gl2trace.cli import run
from gl2trace.hecke import HeckeElement, LocalField
from gl2trace.rings import rational

FRACTIONS = ["0", "1", "-1", "2", "1/2", "-3/4", "5/3"]


def run_captured(argv):
    " (exit code, stdout, stderr); an exception escapes and fails the test "
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def assert_rejected(argv, where):
    code, out, err = run_captured(argv)
    assert code == 2, (argv, code, out, err)
    assert err.startswith("error: ") and err.strip() != "error:", (argv, err)
    assert where in err, (argv, where, err)
    assert "verified" not in out
    return err


def assert_runs_or_rejected(argv, edited=True):
    code, out, err = run_captured(argv)
    assert code in ((0, 2) if edited else (0,)), (argv, code, out, err)
    if code == 2:
        assert err.startswith("error: ") and err.strip() != "error:", (argv, err)


@st.composite
def edited(draw, lines, words):
    """(text, whether edited): the lines of a valid file after up to three
    random edits that use tokens from words"""
    lines = [ln.split(" ") for ln in lines]
    edits = draw(st.integers(0, 3))
    for _ in range(edits):
        how = draw(st.sampled_from(["set", "drop token", "drop line", "copy line",
                                    "new line"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if not lines or how == "new line":
            lines.insert(i, draw(st.lists(st.sampled_from(words), max_size=4)))
        elif how == "drop line":
            del lines[i]
        elif how == "copy line":
            lines.insert(i, list(lines[i]))
        elif lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            if how == "set":
                lines[i][j] = draw(st.sampled_from(words))
            else:
                del lines[i][j]
    return "\n".join(" ".join(toks) for toks in lines) + "\n", edits > 0


def write(tmp, name, text):
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def insert_line(lines, line, at):
    " lines with line inserted at index at % (len + 1), and its 1-based number "
    at %= len(lines) + 1
    return lines[:at] + [line] + lines[at:], at + 1


# -- value tokens -------------------------------------------------------


# a doubled sign, a plus sign, minus zero, leading zeros, a zero
# denominator, an underscore, an Arabic-Indic and a superscript digit, a
# decimal, an exponent, a bare sign, a signed denominator, and tokens past
# int()'s default digit limit
TOKENS = ["--3", "+3", "-0", "007/014", "3/0", "1_0", "\u0663", "\u00b2", "1.5",
          "2e3", "-", "-3/4", "3/-4", "-3/0", "0/0", "-0/00", "1" * 5000,
          "-" + "1" * 5000, "1/" + "2" * 5000]


def read_outcome(read, tok):
    " (type, value) of read(tok), or the type and message of what it raised "
    try:
        value = read(tok)
    except (ValueError, ZeroDivisionError) as e:
        return type(e), str(e)
    return type(value), value


@st.composite
def digit_tokens(draw):
    " tokens of the form -?[0-9]+(/[0-9]+)?, leading zeros included "
    def digits():
        return "0" * draw(st.integers(0, 2)) + str(draw(st.integers(0, 10 ** 30)))
    tok = ("-" if draw(st.booleans()) else "") + digits()
    return tok + "/" + digits() if draw(st.booleans()) else tok


@given(st.one_of(st.sampled_from(TOKENS), digit_tokens(),
                 st.text(alphabet="0123456789-+/._eE \u0663\u00b2", max_size=8)))
@settings(max_examples=300, deadline=None)
def test_rational_reads_as_fraction(tok):
    assert read_outcome(rational, tok) == read_outcome(Fraction, tok)


@pytest.mark.parametrize("tok", TOKENS, ids=lambda tok: ascii(tok[:12]))
def test_file_values_match_the_fraction_reader(monkeypatch, tok):
    """a token in a Hecke file and in a group-function file gives the same
    exit code, output and error line as with Fraction(str) as the reader"""
    with tempfile.TemporaryDirectory() as tmp:
        argvs = [["satake", "--q", "3", "--in",
                  write(tmp, "h.hecke", "q 3 kmin 0\n0 0 %s\n1 0 1/2\n" % tok)],
                 ["poisson", "--f", write(tmp, "g.fn", "group 2\nf 0 %s\nf 1 1/2\n" % tok)]]
        assert read_outcome(rational, tok) == read_outcome(Fraction, tok)
        got = [run_captured(argv) for argv in argvs]
        monkeypatch.setattr(hecke, "rational", Fraction)
        monkeypatch.setattr(chargroup, "rational", Fraction)
        assert [run_captured(argv) for argv in argvs] == got


# -- Hecke element files ------------------------------------------------


@st.composite
def hecke_lines(draw):
    " (q, header, coset lines) of a valid file with small keys and kmin "
    q = draw(st.sampled_from([2, 3, 5]))
    kmin = draw(st.integers(-3, 3))
    keys = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)),
                         max_size=4, unique=True))
    lines = []
    for b, m in keys:   # the coset (b + m, b)
        coeffs = draw(st.lists(st.sampled_from(FRACTIONS), min_size=1, max_size=3))
        lines.append("%d %d %s" % (b + m, b, " ".join(coeffs)))
    return q, "q %d kmin %d" % (q, kmin), lines


# the coset (9, 0) is outside every generated file, so no line duplicates it
BAD_COSET_LINES = [
    ("9 0 1/0", "coefficient 1/0 has denominator 0"),
    ("1.5 0 1", "invalid literal for int() with base 10: '1.5'"),
    ("0 9 1", "must be dominant"),
    ("9 0", "bad coset line"),
    ("x 0 1", "invalid literal for int() with base 10: 'x'"),
    ("9 0 abc", "Invalid literal for Fraction: 'abc'"),
    ("9 0 nan", "Invalid literal for Fraction: 'nan'"),
    ("q 3 kmin 0", "invalid literal for int() with base 10: 'q'"),
]
BAD_HEADERS = [
    ("q 1 kmin 0", "q = 1"),
    ("q x kmin 0", "line 1"),
    ("p 3 kmin 0", "bad header"),
    ("q 3 kmin", "bad header"),
    ("q 3 kmin 0 1", "bad header"),
    ("q 3 kmin 1/2", "line 1"),
]


@given(hecke_lines(), st.sampled_from(BAD_COSET_LINES), st.integers(0, 10))
@settings(max_examples=150, deadline=None)
def test_hecke_file_bad_coset_line(valid, bad, at):
    q, header, lines = valid
    line, where = bad
    lines, num = insert_line(lines, line, at)
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, "h.hecke", "\n".join([header] + lines) + "\n")
        err = assert_rejected(["satake", "--q", str(q), "--in", path], where)
        assert err.startswith("error: line %d %r: " % (num + 1, line)), err


@given(hecke_lines(), st.sampled_from(BAD_HEADERS + [("", "empty Hecke element file")]))
@settings(max_examples=80, deadline=None)
def test_hecke_file_bad_header(valid, bad):
    q, _, lines = valid
    header, where = bad
    if not header:
        lines = []
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, "h.hecke", "\n".join([header] + lines) + "\n")
        assert_rejected(["satake", "--q", str(q), "--in", path], where)


HECKE_WORDS = ["q", "kmin", "0", "1", "-1", "2", "3", "5", "1/2", "1/0", "x",
               "1.5", "#", ""]


@given(hecke_lines().flatmap(lambda v: st.tuples(
    st.just(v[0]), edited([v[1]] + v[2], HECKE_WORDS))))
@settings(max_examples=200, deadline=None)
def test_hecke_file_edited(case):
    q, (text, was_edited) = case
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, "h.hecke", text)
        assert_runs_or_rejected(["satake", "--q", str(q), "--in", path], was_edited)


# -- group-function files -----------------------------------------------


@st.composite
def group_lines(draw):
    " (orders, lines) of a total function on a small group "
    orders = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    lines = ["group " + " ".join(map(str, orders))]
    elements = [()]
    for n in orders:
        elements = [e + (x,) for e in elements for x in range(n)]
    for e in elements:
        lines.append("f %s %s" % (",".join(map(str, e)), draw(st.sampled_from(FRACTIONS))))
    return orders, lines


# {e} is the group's zero element, whose own line the bad one replaces;
# a group line replaces the header
BAD_GROUP_LINES = [
    ("f 9 1", "is not in the group"),
    ("f 0,0,0 1", "is not in the group"),
    ("f {e} 1/0", "has denominator 0"),
    ("f {e} x", "Invalid literal for Fraction: 'x'"),
    ("f {e}", "want 'group n1 n2 ...'"),
    ("g {e} 1", "want 'group n1 n2 ...'"),
    ("f 0,x 1", "invalid literal for int() with base 10: 'x'"),
    ("group 0", "cyclic order 0"),
    ("group x", "invalid literal for int() with base 10: 'x'"),
    ("group -2", "cyclic order -2 is not >= 1"),
]


@given(group_lines(), st.sampled_from(BAD_GROUP_LINES), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_group_file_bad_line(valid, bad, at):
    orders, lines = valid
    line, where = bad
    if line.startswith("group"):
        lines, num = [line] + lines[1:], 0
    else:
        body = lines[2:] if "{e}" in line else lines[1:]
        body, num = insert_line(body, line.format(e=",".join("0" * len(orders))), at)
        lines = lines[:1] + body
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, "g.fn", "\n".join(lines) + "\n")
        err = assert_rejected(["poisson", "--f", path], where)
        assert err.startswith("error: line %d %r: " % (num + 1, lines[num])), err


@given(group_lines(), st.sampled_from([
    ("drop header", "group line must come first"),
    ("no group", "missing group line"),
    ("drop value", "function not total"),
    ("second group", "a second group line"),
    ("duplicate", "duplicate element"),
    ("subgroup", "generator"),
    ("group flag", "does not match the file's group")]))
@settings(max_examples=80, deadline=None)
def test_group_file_bad_structure(valid, bad):
    orders, lines = valid
    how, where = bad
    argv = []
    if how == "drop header":
        lines = lines[1:]
    elif how == "no group":
        lines = ["# only a comment"]
    elif how == "drop value":
        lines = lines[:-1]
    elif how == "second group":
        lines = lines + [lines[0]]
    elif how == "duplicate":
        lines = lines + [lines[-1]]
    elif how == "subgroup":
        argv = ["--subgroup", ",".join(["7"] * len(orders))]
    else:
        argv = ["--group", ",".join(str(n + 1) for n in orders)]
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, "g.fn", "\n".join(lines) + "\n")
        assert_rejected(["poisson", "--f", path] + argv, where)


GROUP_WORDS = ["group", "f", "2", "3", "0", "1", "-1", "1,0", "0,1", "1,1", "1/2",
               "1/0", "x", "#", ""]


@given(group_lines().flatmap(lambda v: edited(v[1], GROUP_WORDS)))
@settings(max_examples=200, deadline=None)
def test_group_file_edited(case):
    text, was_edited = case
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, "g.fn", text)
        assert_runs_or_rejected(["poisson", "--f", path], was_edited)


# -- --config key = value files -----------------------------------------

# (argv, valid config lines); no key here writes a file
CONFIG_BASES = [
    (["tau"], ["x = 30"]),
    (["l-factor"], ["q = 2", "r = std", "check = 2"]),
    (["phi-check"], ["q = 3", "dmax = 2"]),
    (["estimate-mr"], ["x = 50", "n_grid = 10,40"]),
    (["basic-fn"], ["q = 2", "r = sym2", "n = 2"]),
]
BAD_CONFIG_LINES = [
    ("x 30", "bad config line"),
    ("bogus = 1", "unknown config key: 'bogus'"),
    ("cmd = tau", "unknown config key: 'cmd'"),
    ("config = other.cfg", "unknown config key: 'config'"),
]
# (argv, line that replaces the value, named in the error)
BAD_CONFIG_VALUES = [
    ("tau", "x = abc", "--config value x = abc for --x: "),
    ("tau", "x = 1", "x = 1"),
    ("l-factor", "q = 1", "q = 1"),
    ("l-factor", "check = 1.5", "for --check: "),
    ("l-factor", "triple = 1,2", "--triple wants m > n > 0"),
    ("l-factor", "r = spin7", "unknown representation 'spin7'"),
    ("phi-check", "dmax = 0", "--dmax 0"),
    ("phi-check", "q = 3.0", "for --q: "),
    ("estimate-mr", "n_grid = 10,x", "--n-grid wants comma-separated integers"),
    ("basic-fn", "n = -1", "n = -1"),
]


@given(st.sampled_from(CONFIG_BASES), st.sampled_from(BAD_CONFIG_LINES),
       st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_config_bad_line(base, bad, at):
    argv, lines = base
    line, where = bad
    lines, _ = insert_line(lines, line, at)
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, "run.cfg", "\n".join(lines) + "\n")
        assert_rejected(argv + ["--config", path], where)


@given(st.sampled_from(BAD_CONFIG_VALUES), st.booleans())
@settings(max_examples=40, deadline=None)
def test_config_bad_value(bad, comment):
    cmd, line, where = bad
    argv, lines = next(b for b in CONFIG_BASES if b[0] == [cmd])
    key = line.split("=")[0].strip()
    lines = [ln for ln in lines if ln.split("=")[0].strip() != key] + [line]
    if comment:
        lines = ["# defaults", ""] + lines
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, "run.cfg", "\n".join(lines) + "\n")
        assert_rejected(argv + ["--config", path], where)


CONFIG_WORDS = ["q", "x", "r", "n", "dmax", "check", "triple", "n_grid", "float",
                "in", "bogus", "=", "2", "3", "0", "-1", "30", "std", "sym2",
                "2,1", "1,2", "10,20", "yes", "1/2", "#", ""]


@given(st.sampled_from(CONFIG_BASES).flatmap(lambda b: st.tuples(
    st.just(b[0]), edited(b[1], CONFIG_WORDS))))
@settings(max_examples=200, deadline=None)
def test_config_edited(case):
    argv, (text, was_edited) = case
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, "run.cfg", text)
        assert_runs_or_rejected(argv + ["--config", path], was_edited)


@pytest.mark.parametrize("word, on", [
    ("yes", True), ("TRUE", True), ("1", True), ("no", False), ("False", False),
    ("0", False), ("maybe", None), ("2", None), ("on", None), ("", None)])
def test_config_on_off_word(word, on):
    """a config word for an on/off flag gives what the flag or its absence
    gives; any other word exits 2 naming the key and the flag"""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["orbital", "--q", "3", "--gamma", "1,0", "--in",
                write(tmp, "T3.hecke", HeckeElement.char(LocalField(3), (1, 0)).to_text())]
        path = write(tmp, "f.cfg", "float = %s\n" % word)
        got = run_captured(argv + ["--config", path])
        if on is None:
            assert got == (2, "", "error: --config value float = %s for --float: want "
                           "one of 1, true, yes, 0, false, no\n" % word)
        else:
            want = run_captured(argv + (["--float"] if on else []))
            assert want[0] == 0 and want[1] and got == want


# -- assemble configs with profile pieces -------------------------------


@st.composite
def assemble_lines(draw):
    " lines of a valid config; constant pieces, so every profile value is exact "
    lines = ["places = inf,2" + draw(st.sampled_from(["", ",3", ",3,5"]))]
    for key in ("f_pos", "f_neg", "phi_pos", "phi_neg"):
        starts = draw(st.lists(st.integers(-3, 3), max_size=2, unique=True))
        pieces = ["%d:%d:%s" % (lo * 2, lo * 2 + 1, draw(st.sampled_from(FRACTIONS)))
                  for lo in sorted(starts)]
        if pieces:
            lines.append("%s = %s" % (key, ";".join(pieces)))
    if draw(st.booleans()):
        lines.append("vol_k = %s" % draw(st.sampled_from(["1", "2", "3/2"])))
    if draw(st.booleans()):
        lines.append("hecke_2 = t2.hecke")
    return draw(st.permutations(lines))


BAD_ASSEMBLE_LINES = [
    ("f_pos = 0:1", "bad piece '0:1'"),
    ("f_pos = 1:0:1", "piece [1, 0) is empty"),
    ("f_pos = 0:2:1;1:3:1", "overlapping pieces at 1"),
    ("f_pos = 0:1:", "piece '0:1:': "),
    ("phi_neg = 0:1/0:1", "piece '0:1/0:1' has a denominator 0"),
    ("phi_neg = a:1:1", "piece 'a:1:1': "),
    ("foo = 1", "unknown config key: 'foo'"),
    ("places inf,2", "bad config line"),
    ("vol_gbar = 0", "volumes must be positive"),
    ("vol_gbar = 1/0", "vol_gbar = 1/0 has a denominator 0"),
    ("vol_gbar = x", "vol_gbar = x"),
    ("hecke_7 = t2.hecke", "Hecke factor at 7 outside S"),
    ("hecke_3 = t2.hecke", "Hecke factor at 3 lives over q = 2"),
    ("hecke_3 = missing.hecke", "hecke_3"),
    ("hecke_x = t2.hecke", "config key 'hecke_x' names no place"),
]


def assemble_dir(tmp):
    write(tmp, "t2.hecke", HeckeElement.char(LocalField(2), (1, 0)).to_text())


@given(assemble_lines(), st.sampled_from(BAD_ASSEMBLE_LINES), st.integers(0, 8))
@settings(max_examples=150, deadline=None)
def test_assemble_config_bad_line(lines, bad, at):
    line, where = bad
    key = line.split("=")[0].strip()
    lines = [ln for ln in lines if ln.split("=")[0].strip() != key]
    if key == "hecke_3":   # 3 in S, so the factor's own q is what is wrong
        lines = ["places = inf,2,3" if ln.startswith("places") else ln for ln in lines]
    lines, _ = insert_line(lines, line, at)
    with tempfile.TemporaryDirectory() as tmp:
        assemble_dir(tmp)
        path = write(tmp, "run.cfg", "\n".join(lines) + "\n")
        for cmd in ("assemble", "cartan-report"):
            assert_rejected([cmd, "--config", path, "--base-dir", tmp], where)


@given(assemble_lines(), st.sampled_from([
    ("places = 2,3", "lacks the archimedean place inf"),
    ("places = inf,4", "place 4 is not a prime"),
    ("places = inf,3", "needs both inf and 2 in S"),
    (None, "config needs a places line")]))
@settings(max_examples=60, deadline=None)
def test_assemble_config_bad_places(lines, bad):
    places, where = bad
    lines = [ln for ln in lines if not ln.startswith(("places", "hecke_2"))]
    if places:
        lines.append(places)
    with tempfile.TemporaryDirectory() as tmp:
        assemble_dir(tmp)
        path = write(tmp, "run.cfg", "\n".join(lines) + "\n")
        assert_rejected(["assemble", "--config", path, "--base-dir", tmp], where)


@given(assemble_lines())
@settings(max_examples=60, deadline=None)
def test_assemble_config_inexact_profile(lines):
    " a degree-1 piece over log 2, read where the T_2 factor is nonzero "
    lines = [ln for ln in lines if not ln.startswith(("f_pos", "hecke_2"))]
    lines += ["f_pos = -5:5:0,1", "hecke_2 = t2.hecke"]
    with tempfile.TemporaryDirectory() as tmp:
        assemble_dir(tmp)
        path = write(tmp, "run.cfg", "\n".join(lines) + "\n")
        assert_rejected(["assemble", "--config", path, "--base-dir", tmp],
                        "at the irrational point log(2)")
        code, out, _ = run_captured(["cartan-report", "--config", path,
                                     "--base-dir", tmp])
        assert code == 0 and out.startswith("place\tcoset")


ASSEMBLE_WORDS = ["places", "inf,2", "inf,2,3", "inf,3", "inf", "f_pos", "f_neg",
                  "phi_pos", "phi_neg", "vol_k", "vol_gbar", "hecke_2", "hecke_3",
                  "t2.hecke", "=", "-1:1:2", "0:2:1/2", "-2:0:1", "1:0:1",
                  "0:1:1,1", "0:1:1;1:2:3", ";", ":", "1", "0", "1/0", "#", ""]


@given(assemble_lines().flatmap(lambda v: edited(v, ASSEMBLE_WORDS)))
@settings(max_examples=200, deadline=None)
def test_assemble_config_edited(case):
    text, was_edited = case
    with tempfile.TemporaryDirectory() as tmp:
        assemble_dir(tmp)
        path = write(tmp, "run.cfg", text)
        for cmd in ("assemble", "cartan-report"):
            assert_runs_or_rejected([cmd, "--config", path, "--base-dir", tmp],
                                    was_edited)


@pytest.mark.parametrize("second", ["hecke_03", "hecke_+3"])
def test_assemble_config_one_key_per_place(second):
    " a second key for one place is an error naming both, not a silent override "
    with tempfile.TemporaryDirectory() as tmp:
        for name, key in (("a", (1, 0)), ("b", (2, 0))):
            write(tmp, name + ".hecke", HeckeElement.char(LocalField(3), key).to_text())
        path = write(tmp, "run.cfg", "places = inf,2,3\nhecke_3 = a.hecke\n"
                     "%s = b.hecke\n" % second)
        for cmd in ("assemble", "cartan-report"):
            assert_rejected([cmd, "--config", path, "--base-dir", tmp],
                            "config keys 'hecke_3' and '%s' name one place 3" % second)


@pytest.mark.parametrize("lines, hecke, where", [
    (["places = inf,3", "hecke_3 = t3.hecke"], "q 3 kmin 0\n1 0 1\n",
     "needs both inf and 2 in S"),
    (["places = inf,2,3", "hecke_3 = t3.hecke"], "q 3 kmin 0\n1 0 1\n2 1 0 1\n",
     "value v has a v-part"),
], ids=["no-2-in-S", "v-part-off-the-torus"])
def test_assemble_prints_nothing_before_a_usage_error(lines, hecke, where):
    with tempfile.TemporaryDirectory() as tmp:
        write(tmp, "t3.hecke", hecke)
        path = write(tmp, "run.cfg", "\n".join(lines) + "\n")
        code, out, err = run_captured(["assemble", "--config", path, "--base-dir", tmp])
        assert (code, out) == (2, ""), (code, out, err)
        assert err.startswith("error: ") and where in err, err
