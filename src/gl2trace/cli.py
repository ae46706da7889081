"""Command-line front end: every verification as a subcommand.

Exit codes: 0 success, 1 a verified identity failed (the first
counterexample is printed), 2 usage or input errors.  All output is
exact (`num/den`, `v^k`) unless --float asks for decimals.
"""

import argparse
import sys
from fractions import Fraction

from .assembly import (cartan_discrepancy, correction_term,
                       format_cartan_report, format_correction_report,
                       intertwining_constant, load_config, numeric_verify,
                       one_dim_geometric, one_dim_spectral, residual_breakdown,
                       residual_geometric, residual_spectral)
from .basicfn import RepSpec, basic_coeff, local_l_factor, trace_series, value_eq
from .chargroup import (class_group_mod_squares, parse_group_function,
                        poisson_check, subgroup_generated)
from .hecke import (HeckeElement, LocalField, SatakeParameter, convolve,
                    satake_transform)
from .kernels import BACKEND
from .orbital import (SplitClass, measure_phi_exponent, orbital_zeta,
                      phi_transform, rational_reconstruct, split_orbital,
                      tree_orbital_oracle)
from .rings import LaurentQ
from .spectral import (delta_qexpansion, estimator_series, format_estimates,
                       parse_weighting)

OK, FAIL, USAGE = 0, 1, 2


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
    h = HeckeElement.from_text(_read(path))
    if h.field.q != q:
        raise _Usage("--in element has q = %d, flag says q = %d"
                     % (h.field.q, q))
    return h


def _int_pair(text, flag):
    bits = text.split(",")
    if len(bits) != 2:
        raise _Usage("%s wants two comma-separated integers" % flag)
    return int(bits[0]), int(bits[1])


def _fmt(x, as_float):
    if as_float:
        if hasattr(x, "to_float"):
            return "%.12g" % x.to_float()
        return "%.12g" % float(x)
    return str(x)


# -- subcommand handlers ------------------------------------------------


def _cmd_satake(args):
    h = _load_hecke(args.infile, args.q)
    s = satake_transform(h)
    print(str(s))
    if args.out:
        _write_out(args, s.to_text())
    return OK


def _cmd_convolve(args):
    h1 = _load_hecke(args.infile, args.q)
    h2 = _load_hecke(args.in2, args.q)
    prod = convolve(h1, h2)
    _write_out(args, prod.to_text())
    # homomorphism self-check on the pair just convolved
    if satake_transform(prod) != satake_transform(h1) * satake_transform(h2):
        print("FAIL transform of the product differs from the product "
              "of transforms")
        return FAIL
    return OK


def _cmd_basic_fn(args):
    rep = RepSpec.parse(args.r)
    h = basic_coeff(rep, args.n, LocalField(args.q))
    _write_out(args, h.to_text())
    return OK


def _cmd_l_factor(args):
    field = LocalField(args.q)
    if args.check is not None and args.check < 0:
        raise _Usage("--check %d is negative: a series order is >= 0" % args.check)
    rep = RepSpec.parse(args.r)
    m, n = _int_pair(args.triple, "--triple")
    if not m > n > 0:
        raise _Usage("--triple wants m > n > 0")
    c = SatakeParameter.from_triple(m, n)
    fn = local_l_factor(rep, c)
    print(fn.to_text(), end="")
    if args.check is not None:
        lhs, rhs = trace_series(rep, c, args.check, field), fn.series(args.check)
        for k in range(args.check + 1):
            if not value_eq(lhs[k], rhs[k]):
                print("FAIL at order %d: trace %s vs L-series %s"
                      % (k, lhs[k], rhs[k]))
                return FAIL
        print("identity verified to order %d" % args.check)
    return OK


def _cmd_orbital(args):
    h = _load_hecke(args.infile, args.q)
    m1, m2 = _int_pair(args.gamma, "--gamma")
    gamma = SplitClass.from_data(LocalField(args.q), m1, m2, args.d)
    val = split_orbital(h, gamma)
    if args.depth is not None:   # before any output: a bad depth exits 2
        oracle = tree_orbital_oracle(h, gamma, args.depth)
    print("orbital\t%s" % _fmt(val, args.as_float))
    if args.depth is not None:
        print("oracle\t%s" % _fmt(oracle, args.as_float))
        if oracle != val:
            print("FAIL tree oracle at depth %d disagrees" % args.depth)
            return FAIL
    return OK


def _cmd_orbital_zeta(args):
    rep = RepSpec.parse(args.r)
    m1, m2 = _int_pair(args.gamma, "--gamma")
    gamma = SplitClass.from_data(LocalField(args.q), m1, m2, args.d)
    if args.order < 0:
        raise _Usage("--N %d is negative: a series order is >= 0" % args.order)
    series = orbital_zeta(gamma, rep, args.order)
    degn, degd = _int_pair(args.fit, "--fit")
    fn = rational_reconstruct(series, degn, degd)
    if fn is None:
        print("FAIL no rational function of degree (%d, %d) matches; "
              "first coefficients: %s"
              % (degn, degd, [str(c) for c in series.coeffs[:4]]))
        return FAIL
    print(fn.to_text(), end="")
    print("certified on %d coefficients beyond the fitting window"
          % (args.order - degn - degd))
    return OK


def _cmd_phi_check(args):
    field = LocalField(args.q)
    if args.dmax < 1:
        raise _Usage("--dmax %d checks no point: it must be >= 1" % args.dmax)
    if args.infile:
        hs = [_load_hecke(args.infile, args.q)]
    else:
        hs = [HeckeElement.unit(field),
              HeckeElement.char(field, (1, 0)),
              HeckeElement.char(field, (2, 0))]
    exponents = set()
    for h in hs:
        for m in range(1, args.dmax + 1):
            a = SplitClass.from_data(field, m, 0)
            want = LaurentQ.v_power(a.m2 - a.m1, args.q) * split_orbital(h, a)
            got = phi_transform(h, a)
            if got != want:
                print("FAIL at m = %d: phi = %s, H^(1/2) f_G = %s"
                      % (m, got.compact(), want.compact()))
                return FAIL
            e = measure_phi_exponent(h, a)
            if e is not None:
                exponents.add(e)
    print("relation verified; measured H-exponent(s): %s"
          % sorted(str(e) for e in exponents))
    return OK


def _cmd_poisson(args):
    group, f = parse_group_function(_read(args.f))
    if args.group:
        orders = tuple(int(x) for x in args.group.split(","))
        if orders != group.orders:
            raise _Usage("--group %s does not match the file's group %s"
                         % (orders, group.orders))
    if args.subgroup:
        gens = [tuple(int(x) for x in g.split(","))
                for g in args.subgroup.split(";")]
        H = subgroup_generated(group, gens)
    else:
        H = [group.identity()]
    lhs, rhs = poisson_check(group, H, f)
    print("sum over H\t%s" % lhs)
    print("dual side\t%s" % rhs)
    if lhs != rhs:
        print("FAIL the two sides differ")
        return FAIL
    return OK


def _cmd_class_group(args):
    sg = class_group_mod_squares(args.places.split(","))
    print("group\t(Z/2)^%d" % len(sg.orders))
    print("coords\t%s" % ",".join("%s:%s" % lb for lb in sg.labels))
    print("discriminants\t%s" % ",".join(str(ch.d) for ch in sg.quad_chars))
    return OK


def _cmd_assemble(args):
    f, consts = load_config(_read(args.config), base_dir=args.base_dir)
    ff = args.as_float
    print("one_dim_geometric\t%s" % _fmt(one_dim_geometric(f, consts), ff))
    print("one_dim_spectral\t%s" % _fmt(one_dim_spectral(f, consts), ff))
    rg = residual_geometric(f)
    rs = residual_spectral(f)
    print("residual_geometric\t%s" % _fmt(rg, ff))
    print("residual_spectral\t%s" % _fmt(rs, ff))
    total, rows = correction_term(f, consts)
    print(format_correction_report(total, rows), end="")
    if rs != rg:
        for d, term in residual_breakdown(f):
            print("character %s contributes %s" % (d, term))
        print("FAIL residual sides differ: %s vs %s" % (rs, rg))
        return FAIL
    return OK


def _cmd_cartan_report(args):
    f, _ = load_config(_read(args.config), base_dir=args.base_dir)
    _write_out(args, format_cartan_report(cartan_discrepancy(f)))
    return OK


def _cmd_intertwine(args):
    print("constant\t%d" % intertwining_constant())
    grid = [float(s) for s in args.s_grid.split(",")]
    errs = []
    for s in grid:
        val = numeric_verify(s)
        errs.append(abs(val + 1))
        print("s=%g\t%.12g\terr %.3g" % (s, val, errs[-1]))
    if errs[-1] >= args.tol:
        print("FAIL final error %.3g above %.3g" % (errs[-1], args.tol))
        return FAIL
    if any(a <= b for a, b in zip(errs, errs[1:])):
        print("FAIL error not strictly improving along the grid")
        return FAIL
    return OK


def _cmd_tau(args):
    table = delta_qexpansion(args.x)
    if table.ap(2) != -24:
        print("FAIL tau(2) = %d from the %s kernel" % (table.ap(2), BACKEND))
        return FAIL
    for p in table.primes():
        a = table.ap(p)
        if a * a > 4 * p ** 11:
            print("FAIL tau(%d) = %d breaks Deligne's bound tau(p)^2 <= 4p^11"
                  % (p, a))
            return FAIL
        if (a - 1 - pow(p, 11, 691)) % 691:
            print("FAIL tau(%d) = %d breaks Ramanujan's congruence "
                  "tau(p) = 1 + p^11 mod 691" % (p, a))
            return FAIL
    _write_out(args, table.to_csv())
    return OK


def _n_grid(text, x):
    " the --n-grid integers, each at most the table bound x + 1 "
    ns = []
    for bit in text.split(","):
        try:
            ns.append(int(bit))
        except ValueError:
            raise _Usage("--n-grid wants comma-separated integers, got %r"
                         % bit)
        if ns[-1] > x + 1:
            raise _Usage("--n-grid value n = %d exceeds the table bound "
                         "x + 1 = %d" % (ns[-1], x + 1))
    return ns


def _cmd_estimate_mr(args):
    rep = parse_weighting(args.r)
    ns = _n_grid(args.n_grid, args.x)
    rows = estimator_series(rep, delta_qexpansion(args.x), ns)
    _write_out(args, format_estimates(rows))
    return OK


# -- command table ------------------------------------------------------


_Q = {"type": int, "required": True}
_IN = {"dest": "infile", "help": "Hecke element file"}
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
                               "in": dict(_IN, required=True)}),
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
    "assemble": (_cmd_assemble, _CONFIG),
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
        p.add_argument("--float", dest="as_float", action="store_true",
                       help="decimal output instead of exact")
    return top


def _apply_config(args):
    " fill unset flags from a `key = value` file; unknown keys rejected "
    path = getattr(args, "config", None)
    if not path or args.cmd in ("assemble", "cartan-report"):
        return  # those two consume --config themselves
    known = vars(args)
    for ln in _read(path).splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, eq, val = ln.partition("=")
        if not eq:
            raise _Usage("bad config line: %r" % ln)
        key, val = key.strip().replace("-", "_"), val.strip()
        if key in ("cmd", "config") or key not in known:
            raise _Usage("unknown config key: %r" % key)
        cur = known[key]
        if cur is None:
            setattr(args, key, val)
        elif cur is False:
            setattr(args, key, val.lower() in ("1", "true", "yes"))


def run(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else USAGE
    handler, flags = COMMANDS[args.cmd]
    dests = [(spec.get("dest", flag), spec) for flag, spec in flags.items()]
    try:
        _apply_config(args)
        for dest, spec in dests:
            value = getattr(args, dest)
            if "type" in spec and isinstance(value, str):
                setattr(args, dest, spec["type"](value))
            elif value is None and "default" in spec:
                setattr(args, dest, spec["default"])
        for dest, spec in dests:
            if spec.get("required") and getattr(args, dest) is None:
                raise _Usage("missing a value for %r" % dest)
        return handler(args)
    except ValueError as e:   # _Usage is one; an AssertionError is a bug
        print("error: %s" % e, file=sys.stderr)
        return USAGE


def main():
    sys.exit(run())
