"""Command-line front end: every verification as a subcommand.

Exit codes: 0 success, 1 a verified identity failed (the first
counterexample is printed), 2 usage or input errors.  All output is
exact (`num/den`, `v^k`) unless --float, which orbital and assemble
take, asks for decimals.
"""

import argparse
import math
import sys

# modules, not names: cli binds no submodule name, and a module runs on
# the first read of one of its attributes (see __init__.py), so importing
# cli runs cli alone and a subcommand runs only what it uses
from . import (assembly, basicfn, chargroup, hecke, kernels, orbital, rings,
               spectral)

OK, FAIL, USAGE = 0, 1, 2


def __getattr__(name):
    # cli.convolve is whatever hecke.convolve is now, a tracer's wrapper too
    if name == "convolve":
        return hecke.convolve
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


class _Usage(ValueError):
    pass


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise _Usage(str(e))


def _write_out(args, text):
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise _Usage(str(e))
    else:
        sys.stdout.write(text)


def _load_hecke(path, q):
    h = hecke.HeckeElement.from_text(_read(path))
    if h.field.q != q:
        raise _Usage("--in element has q = %d, flag says q = %d"
                     % (h.field.q, q))
    return h


def _ints(text, flag, want):
    " comma-separated integers; a bad token names the flag and the text "
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _Usage("%s wants %s, got %r" % (flag, want, text)) from None


def _int_pair(text, flag):
    pair = _ints(text, flag, "two comma-separated integers")
    if len(pair) != 2:
        raise _Usage("%s wants two comma-separated integers" % flag)
    return pair


def _r_flag(text, parse):
    " the --r value read by parse; a parse error names the flag and its value "
    try:
        return parse(text)
    except ValueError as e:
        raise _Usage("--r %s: %s" % (text, e)) from None


def _fmt(x, as_float):
    if as_float:
        if hasattr(x, "to_float"):
            return "%.12g" % x.to_float()
        return "%.12g" % float(x)
    return str(x)


# -- subcommand handlers ------------------------------------------------


def _cmd_satake(args):
    h = _load_hecke(args.infile, args.q)
    s = hecke.satake_transform(h)
    print(str(s))
    if args.out:
        _write_out(args, s.to_text())
    return OK


def _cmd_convolve(args):
    h1 = _load_hecke(args.infile, args.q)
    h2 = _load_hecke(args.in2, args.q)
    try:
        # convolve checks S(h1 * h2) = S(h1) S(h2) before it returns, so a
        # product that fails it is never written
        prod = hecke.convolve(h1, h2)
    except hecke.HomomorphismError as e:
        print("FAIL %s" % e)
        return FAIL
    _write_out(args, prod.to_text())
    return OK


def _cmd_basic_fn(args):
    rep = _r_flag(args.r, basicfn.RepSpec.parse)
    h = basicfn.basic_coeff(rep, args.n, hecke.LocalField(args.q))
    _write_out(args, h.to_text())
    return OK


def _cmd_l_factor(args):
    field = hecke.LocalField(args.q)
    if args.check is not None and args.check < 0:
        raise _Usage("--check %d is negative: a series order is >= 0" % args.check)
    rep = _r_flag(args.r, basicfn.RepSpec.parse)
    m, n = _int_pair(args.triple, "--triple")
    if not m > n > 0:
        raise _Usage("--triple wants m > n > 0")
    c = hecke.SatakeParameter.from_triple(m, n)
    fn = basicfn.local_l_factor(rep, c)
    print(fn.to_text(), end="")
    if args.check is not None:
        lhs = basicfn.trace_series(rep, c, args.check, field)
        rhs = fn.series(args.check)
        for k in range(args.check + 1):
            if lhs[k] != rhs[k]:
                print("FAIL at order %d: trace %s vs L-series %s"
                      % (k, lhs[k], rhs[k]))
                return FAIL
        print("identity verified to order %d" % args.check)
    return OK


def _cmd_orbital(args):
    h = _load_hecke(args.infile, args.q)
    m1, m2 = _int_pair(args.gamma, "--gamma")
    gamma = orbital.SplitClass(hecke.LocalField(args.q), m1, m2, args.d)
    val = orbital.split_orbital(h, gamma)
    if args.depth is not None:   # before any output: a bad depth exits 2
        oracle = orbital.tree_orbital_oracle(h, gamma, args.depth)
    print("orbital\t%s" % _fmt(val, args.as_float))
    if args.depth is not None:
        print("oracle\t%s" % _fmt(oracle, args.as_float))
        if oracle != val:
            print("FAIL tree oracle at depth %d disagrees" % args.depth)
            return FAIL
    return OK


def _cmd_orbital_zeta(args):
    rep = _r_flag(args.r, basicfn.RepSpec.parse)
    m1, m2 = _int_pair(args.gamma, "--gamma")
    gamma = orbital.SplitClass(hecke.LocalField(args.q), m1, m2, args.d)
    if args.order < 0:
        raise _Usage("--N %d is negative: a series order is >= 0" % args.order)
    series = orbital.orbital_zeta(gamma, rep, args.order)
    degn, degd = _int_pair(args.fit, "--fit")
    fn = orbital.rational_reconstruct(series, degn, degd)
    if fn is None:
        print("FAIL no rational function of degree (%d, %d) matches; "
              "first coefficients: %s"
              % (degn, degd, [str(c) for c in series[:4]]))
        return FAIL
    print(fn.to_text(), end="")
    print("certified on %d coefficients beyond the fitting window"
          % (args.order - degn - degd))
    return OK


def _cmd_phi_check(args):
    field = hecke.LocalField(args.q)
    if args.dmax < 1:
        raise _Usage("--dmax %d checks no point: it must be >= 1" % args.dmax)
    if args.infile:
        hs = [_load_hecke(args.infile, args.q)]
    else:
        hs = [hecke.HeckeElement.unit(field),
              hecke.HeckeElement.char(field, (1, 0)),
              hecke.HeckeElement.char(field, (2, 0))]
    exponents = set()
    zero = rings.LaurentQ(0, 0, args.q)
    for h in hs:
        # f_G(diag(p^m, 1)) is the (m, 0) coefficient of S(h): the
        # transform's running sums, a second path beside phi_transform's
        # N-integral
        s = hecke.satake_transform(h).coeffs
        for m in range(1, args.dmax + 1):
            a = orbital.SplitClass(field, m, 0)
            f = s.get((m, 0), zero)
            want = rings.LaurentQ.v_power(a.m2 - a.m1, args.q) * f
            got = orbital.phi_transform(h, a)
            if got != want:
                print("FAIL at m = %d: phi = %s, H^(1/2) f_G = %s"
                      % (m, got.compact(), want.compact()))
                return FAIL
            e = orbital.measure_phi_exponent(a, got, f)
            if e is not None:
                exponents.add(e)
    print("relation verified; measured H-exponent(s): %s"
          % sorted(str(e) for e in exponents))
    return OK


def _cmd_poisson(args):
    gens = [_ints(g, "--subgroup", "';'-separated e1,e2,... generators")
            for g in args.subgroup.split(";")] if args.subgroup else []
    orders = args.group and _ints(args.group, "--group",
                                  "comma-separated cyclic orders")
    group, f = chargroup.parse_group_function(_read(args.f))
    if orders and orders != group.orders:
        raise _Usage("--group %s does not match the file's group %s"
                     % (orders, group.orders))
    lhs, rhs = chargroup.poisson_check(group, gens, f)
    print("sum over H\t%s" % lhs)
    print("dual side\t%s" % rhs)
    if lhs != rhs:
        print("FAIL the two sides differ")
        return FAIL
    return OK


def _cmd_class_group(args):
    sg = chargroup.class_group_mod_squares(args.places.split(","))
    print("group\t(Z/2)^%d" % len(sg.group.orders))
    print("coords\t%s" % ",".join("%s:%s" % sg.bit_labels[i] for i in sg.free_idx))
    print("discriminants\t%s" % ",".join(map(str, sg.quad_chars)))
    return OK


def _cmd_assemble(args):
    f, consts = assembly.load_config(_read(args.config), base_dir=args.base_dir)
    ff = args.as_float
    # every term before the first print: a bad input exits 2 with no output
    one_g = assembly.one_dim_geometric(f, consts)
    one_s = assembly.one_dim_spectral(f, consts)
    rg, rs = assembly.residual_geometric(f), assembly.residual_spectral(f)
    total, rows = assembly.correction_term(f, consts)
    print("one_dim_geometric\t%s" % _fmt(one_g, ff))
    print("one_dim_spectral\t%s" % _fmt(one_s, ff))
    print("residual_geometric\t%s" % _fmt(rg, ff))
    print("residual_spectral\t%s" % _fmt(rs, ff))
    print(assembly.format_correction_report(total, rows), end="")
    if rs != rg:
        for d, term in assembly.residual_breakdown(f):
            print("character %s contributes %s" % (d, term))
        print("FAIL residual sides differ: %s vs %s" % (rs, rg))
        return FAIL
    return OK


def _cmd_cartan_report(args):
    f, _ = assembly.load_config(_read(args.config), base_dir=args.base_dir)
    report = assembly.format_cartan_report(assembly.cartan_discrepancy(f))
    _write_out(args, report)
    return OK


def _s_value(bit):
    " one --s-grid value and its ratio; a bad value is named before any output "
    try:
        s = float(bit)
    except ValueError:
        raise _Usage("--s-grid wants comma-separated numbers, got %r"
                     % bit) from None
    try:
        return s, assembly.numeric_verify(s)
    except ValueError as e:
        raise _Usage("--s-grid value %s" % e) from None


def _cmd_intertwine(args):
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise _Usage("--tol %s is not a finite number > 0" % args.tol)
    rows = [_s_value(bit) for bit in args.s_grid.split(",")]
    print("constant\t%d" % assembly.intertwining_constant())
    errs = []
    for s, val in rows:
        errs.append(abs(val + 1))
        print("s=%g\t%.12g\terr %.3g" % (s, val, errs[-1]))
    # written so that a NaN error fails both checks
    if not errs[-1] < args.tol:
        print("FAIL final error %.3g above %.3g" % (errs[-1], args.tol))
        return FAIL
    if not all(a > b for a, b in zip(errs, errs[1:])):
        print("FAIL error not strictly improving along the grid")
        return FAIL
    return OK


def _table_x(x):
    " the --x of tau and estimate-mr, checked before the kernel runs "
    if x < 2:
        raise _Usage("--x value x = %d is below 2: no primes to tabulate" % x)
    return x


def _tau_checked(table):
    """the kernel's tau(p) table against tau(2) = -24, Deligne's bound and
    Ramanujan's congruence mod 691; prints the first FAIL line it finds"""
    if table.ap(2) != -24:
        print("FAIL tau(2) = %d from the %s kernel"
              % (table.ap(2), kernels.BACKEND))
        return False
    for p in table.primes():
        a = table.ap(p)
        p11 = p ** 11
        if a * a > 4 * p11:
            print("FAIL tau(%d) = %d breaks Deligne's bound tau(p)^2 <= 4p^11"
                  % (p, a))
            return False
        if (a - 1 - p11) % 691:
            print("FAIL tau(%d) = %d breaks Ramanujan's congruence "
                  "tau(p) = 1 + p^11 mod 691" % (p, a))
            return False
    return True


def _cmd_tau(args):
    table = spectral.delta_qexpansion(_table_x(args.x))
    if not _tau_checked(table):
        return FAIL
    _write_out(args, table.to_csv())
    return OK


def _n_grid(text, x):
    """the --n-grid integers, each from 3 (the first n with a prime
    below it) to the table bound x + 1"""
    ns = []
    for bit in text.split(","):
        try:
            ns.append(int(bit))
        except ValueError:
            raise _Usage("--n-grid wants comma-separated integers, got %r"
                         % bit)
        if ns[-1] < 3:
            raise _Usage("--n-grid value n = %d is below 3: no primes below it"
                         % ns[-1])
        if ns[-1] > x + 1:
            raise _Usage("--n-grid value n = %d exceeds the table bound "
                         "x + 1 = %d" % (ns[-1], x + 1))
    return ns


def _cmd_estimate_mr(args):
    x = _table_x(args.x)
    rep = _r_flag(args.r, spectral.parse_weighting)
    ns = _n_grid(args.n_grid, x)
    table = spectral.delta_qexpansion(x)
    if not _tau_checked(table):
        return FAIL
    rows = spectral.estimator_series(rep, table, ns)
    _write_out(args, spectral.format_estimates(rows))
    return OK


# -- command table ------------------------------------------------------


_Q = {"type": int, "required": True}
_IN = {"dest": "infile", "help": "Hecke element file"}
_FLOAT = {"dest": "as_float", "action": "store_true",
          "help": "decimal output instead of exact"}
_CONFIG = {"config": {"required": True}, "base_dir": {"default": "."}}

# name -> (handler, {flag: add_argument keywords}), in usage order.
# "required" and "default" are applied by run() after --config has filled
# unset flags, so a config file may supply a required value or override a
# default; "type" also converts config values, which arrive as text.
COMMANDS = {
    "satake": (_cmd_satake, {"q": _Q, "out": {},
                             "in": dict(_IN, required=True)}),
    "convolve": (_cmd_convolve, {"q": _Q, "in2": {"required": True}, "out": {},
                                 "in": dict(_IN, required=True)}),
    "basic-fn": (_cmd_basic_fn, {"q": _Q, "r": {"required": True},
                                 "n": {"type": int, "required": True},
                                 "out": {}}),
    "l-factor": (_cmd_l_factor, {"q": _Q, "r": {"required": True},
                                 "triple": {"default": "2,1"},
                                 "check": {"type": int}}),
    "orbital": (_cmd_orbital, {"q": _Q, "gamma": {"required": True},
                               "d": {"type": int}, "depth": {"type": int},
                               "in": dict(_IN, required=True), "float": _FLOAT}),
    "orbital-zeta": (_cmd_orbital_zeta, {
        "q": _Q, "r": {"required": True}, "gamma": {"required": True},
        "d": {"type": int},
        "N": {"dest": "order", "type": int, "required": True},
        "fit": {"required": True}}),
    "phi-check": (_cmd_phi_check, {"q": _Q, "dmax": {"type": int, "default": 3},
                                   "in": _IN}),
    "poisson": (_cmd_poisson, {"group": {},
                               "f": {"required": True,
                                     "help": "group function file"},
                               "subgroup": {"help": "generators e1,e2;e1,e2"}}),
    "class-group": (_cmd_class_group, {"places": {"required": True}}),
    "assemble": (_cmd_assemble, dict(_CONFIG, float=_FLOAT)),
    "cartan-report": (_cmd_cartan_report, {"out": {}, **_CONFIG}),
    "intertwine": (_cmd_intertwine, {"s_grid": {"default": "1e-2,1e-3,1e-4"},
                                     "tol": {"type": float, "default": 1e-3}}),
    "tau": (_cmd_tau, {"x": {"type": int, "required": True}, "out": {}}),
    "estimate-mr": (_cmd_estimate_mr, {"x": {"type": int, "required": True},
                                       "r": {"default": "sym2"},
                                       "n_grid": {"required": True}, "out": {}}),
}


# -- parser -------------------------------------------------------------


def _build_parser(argv):
    """The top-level parser.  When argv starts with a command, as every
    real call does, only that command's subparser is built; help, a
    missing or an unknown command get all of them."""
    top = argparse.ArgumentParser(prog="gl2trace", description=__doc__)
    if argv and argv[0] in COMMANDS:
        names = argv[:1]
        # the usage printed for unrecognized arguments still lists them all
        sub = top.add_subparsers(dest="cmd", required=True,
                                 metavar="{%s}" % ",".join(COMMANDS))
    else:
        names = COMMANDS
        sub = top.add_subparsers(dest="cmd", required=True)
    for name in names:
        flags = COMMANDS[name][1]
        p = sub.add_parser(name)
        for flag, spec in flags.items():
            kw = {k: v for k, v in spec.items()
                  if k not in ("required", "default")}
            p.add_argument("--" + flag.replace("_", "-"), **kw)
        if "config" not in flags:
            p.add_argument("--config", help="key = value defaults for flags")
    return top


_ON_OFF = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _apply_config(args, flags):
    """fill unset flags from a `key = value` file, keyed by flag name ('-'
    and '_' alike); unknown and repeated keys, and an on/off flag's word
    outside _ON_OFF, rejected"""
    path = getattr(args, "config", None)
    if not path or args.cmd in ("assemble", "cartan-report"):
        return  # those two consume --config themselves
    dests = {flag: spec.get("dest", flag) for flag, spec in flags.items()}

    def config_key(key):
        key = key.replace("-", "_")
        if key not in dests:
            raise _Usage("unknown config key: %r" % key)
        return dests[key]
    known = vars(args)
    flag_of = {dest: flag for flag, dest in dests.items()}
    for key, val in assembly.read_config(_read(path), config_key).items():
        cur = known[key]
        if cur is None:
            setattr(args, key, val)
        elif cur is False:
            if val.lower() not in _ON_OFF:
                flag = flag_of[key]
                raise _Usage("--config value %s = %s for --%s: want one of %s"
                             % (flag, val, flag.replace("_", "-"), ", ".join(_ON_OFF)))
            setattr(args, key, _ON_OFF[val.lower()])


def run(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else USAGE
    handler, flags = COMMANDS[args.cmd]
    dests = [(spec.get("dest", flag), flag, spec) for flag, spec in flags.items()]
    try:
        _apply_config(args, flags)
        for dest, flag, spec in dests:
            value = getattr(args, dest)
            if "type" in spec and isinstance(value, str):
                # a str here came from --config; argparse typed the flags
                try:
                    setattr(args, dest, spec["type"](value))
                except ValueError as e:
                    raise _Usage("--config value %s = %s for --%s: %s"
                                 % (flag, value, flag.replace("_", "-"), e)) from None
            elif value is None and "default" in spec:
                setattr(args, dest, spec["default"])
        for dest, flag, spec in dests:
            if spec.get("required") and getattr(args, dest) is None:
                raise _Usage("missing a value for --%s" % flag.replace("_", "-"))
        return handler(args)
    except ValueError as e:   # _Usage is one; an AssertionError is a bug
        print("error: %s" % e, file=sys.stderr)
        return USAGE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
