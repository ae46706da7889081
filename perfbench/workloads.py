"""Seeded job streams for the four workloads.

A job is one CLI invocation plus the check that its output must pass.
Every input is generated here from the seed, with no gl2trace code, and
written to disk before timing starts.  Job kinds come from a deck that is
reshuffled every cycle, and sizes from stratified draws, so that the mix
of work in any prefix of the stream barely depends on the seed while no
job repeats within a run.
"""

import functools
import itertools
import math
import os
import random
from fractions import Fraction

from . import checks
from .checks import Qv

# golden-ratio step: any prefix of i*G mod 1 is spread evenly over [0, 1)
GOLDEN = (math.sqrt(5) - 1) / 2

REPS = {"std": (1, 0), "sym2": (2, 0), "sym3": (3, 0), "std*det": (1, 1)}
# (m, n) with m > n > 0, each giving the unit-circle Satake parameter of
# the Pythagorean triple (m^2 - n^2, 2mn, m^2 + n^2)
TRIPLES = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (5, 2), (5, 3),
           (5, 4), (6, 1), (6, 5), (7, 2)]
ODD_PRIMES = [3, 5, 7, 11, 13]


class Job:
    __slots__ = ("kind", "argv", "check", "outs")

    def __init__(self, kind, argv, check, outs=()):
        self.kind = kind            # the subcommand
        self.argv = argv            # as passed to gl2trace.cli.run
        self.check = check          # check(stdout, [out file texts])
        self.outs = tuple(outs)     # files the job writes, read back


class Stream:
    """Builds one workload's job list: input files go under `root`, and
    `seen` rejects a job identical to an earlier one."""

    def __init__(self, rng, root):
        self.rng = rng
        self.root = root
        self.seen = set()
        self.files = {}
        os.makedirs(os.path.join(root, "in"), exist_ok=True)
        self.out_path = os.path.join(root, "out.txt")

    def fresh(self, key):
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def put(self, name, text):
        " stage an input file; written by write_inputs() "
        path = os.path.join(self.root, "in", name)
        self.files[path] = text
        return path

    def write_inputs(self):
        for path, text in self.files.items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)


def deck(rng, cards):
    " endless sequence of `cards`, reshuffled every cycle "
    cycle = list(cards)
    while True:
        rng.shuffle(cycle)
        yield from cycle


def draw(stream, make, tries=200):
    " call make() until it returns a job not seen before "
    for _ in range(tries):
        job = make()
        if job is not None:
            return job
    raise RuntimeError("could not draw a fresh job")


def _nonzero_fraction(rng, num=9, den=4):
    return Fraction(rng.choice([i for i in range(-num, num + 1) if i]),
                    rng.randint(1, den))


def random_hecke(rng, nkeys, lo, hi, vpart=0.0):
    """{(a, b): (x, y)}, the coefficient x + y*v on each of nkeys distinct
    dominant keys lo <= b <= a <= hi"""
    keys = [(a, b) for b in range(lo, hi + 1) for a in range(b, hi + 1)]
    out = {}
    for key in rng.sample(keys, min(nkeys, len(keys))):
        y = _nonzero_fraction(rng) if rng.random() < vpart else 0
        out[key] = (_nonzero_fraction(rng), y)
    return out


def hecke_text(q, h):
    lines = ["q %d kmin 0" % q]
    for (a, b), (x, y) in sorted(h.items()):
        lines.append("%d %d %s %s" % (a, b, x, y) if y else "%d %d %s" % (a, b, x))
    return "\n".join(lines) + "\n"


def as_qv(q, h):
    return {k: Qv(x, y, q) for k, (x, y) in h.items()}


# -- algebra: exact LaurentQ algebra, no QiV ----------------------------


def algebra(stream, count):
    rng = stream.rng
    kinds = deck(rng, ["convolve"] * 5 + ["satake"] * 2 + ["orbital"] * 2
                 + ["phi-check"] * 2)
    # support sizes, which set the cost, come round in turn
    sizes = {"convolve": deck(rng, itertools.product(range(2, 7), repeat=2)),
             "satake": deck(rng, range(3, 9))}
    jobs = []
    for i in range(count):
        kind = next(kinds)
        make = functools.partial(ALGEBRA_MAKERS[kind], stream, i)
        if kind in sizes:
            make = functools.partial(make, sizes[kind])
        jobs.append(draw(stream, make))
    return jobs


def _make_convolve(stream, i, sizes):
    rng = stream.rng
    q = rng.choice([2, 3, 5, 7])
    n1, n2 = next(sizes)
    h1 = random_hecke(rng, n1, -3, 4, vpart=0.3)
    h2 = random_hecke(rng, n2, -3, 4, vpart=0.3)
    t1, t2 = hecke_text(q, h1), hecke_text(q, h2)
    if not stream.fresh(("convolve", t1, t2)):
        return None
    a = stream.put("%d_a.hecke" % i, t1)
    b = stream.put("%d_b.hecke" % i, t2)
    return Job("convolve", ["convolve", "--q", str(q), "--in", a, "--in2", b,
                            "--out", stream.out_path],
               functools.partial(checks.check_convolve, q=q, h1=as_qv(q, h1),
                                 h2=as_qv(q, h2)), [stream.out_path])


def _make_satake(stream, i, sizes):
    rng = stream.rng
    q = rng.choice([2, 3, 5, 7])
    h = random_hecke(rng, next(sizes), -4, 5, vpart=0.3)
    text = hecke_text(q, h)
    if not stream.fresh(("satake", text)):
        return None
    path = stream.put("%d.hecke" % i, text)
    return Job("satake", ["satake", "--q", str(q), "--in", path,
                          "--out", stream.out_path],
               functools.partial(checks.check_satake, q=q, h=as_qv(q, h)),
               [stream.out_path])


# tree-oracle classes (m1, m2, d); d = None means the forced min(m1, m2)
ORBITAL_CLASSES = [(1, 0, None), (2, 0, None), (2, 1, None), (1, -1, None),
                   (0, 1, None), (0, 0, 1), (0, 0, 2), (1, 1, 2), (1, 1, 3)]


def _make_orbital(stream, i):
    rng = stream.rng
    q = rng.choice([2, 3, 5])
    h = random_hecke(rng, rng.randint(1, 4), -2, 2, vpart=0.3)
    m1, m2, d = rng.choice(ORBITAL_CLASSES)
    if d is not None and q == 2 and d == m1:
        return None
    radius = max(max(abs(a), abs(b)) for a, b in h)
    depth = (min(m1, m2) if d is None else d) + radius + 2
    if q ** depth > 4000:
        return None
    text = hecke_text(q, h)
    if not stream.fresh(("orbital", text, m1, m2, d)):
        return None
    path = stream.put("%d.hecke" % i, text)
    argv = ["orbital", "--q", str(q), "--gamma", "%d,%d" % (m1, m2),
            "--in", path, "--depth", str(depth)]
    if d is not None:
        argv += ["--d", str(d)]
    return Job("orbital", argv, checks.check_orbital)


def _make_phi(stream, i):
    rng = stream.rng
    q = rng.choice([2, 3, 5, 7])
    dmax = rng.randint(2, 6)
    h = random_hecke(rng, rng.randint(1, 4), -2, 3, vpart=0.3)
    text = hecke_text(q, h)
    if not stream.fresh(("phi-check", text, dmax)):
        return None
    path = stream.put("%d.hecke" % i, text)
    return Job("phi-check", ["phi-check", "--q", str(q), "--in", path,
                             "--dmax", str(dmax)], checks.check_phi)


ALGEBRA_MAKERS = {"convolve": _make_convolve, "satake": _make_satake,
                  "orbital": _make_orbital, "phi-check": _make_phi}


# -- trace: basic_coeff -> inverse_satake -> spherical_trace over QiV ---


def trace(stream, count):
    rng = stream.rng
    cards = ([("l-factor", r) for r in REPS] * 2
             + [("orbital-zeta", r) for r in ("std", "sym2", "std*det")]
             + [("basic-fn", None)] * 2)
    kinds = deck(rng, cards)
    basic_reps = deck(rng, REPS)
    # the parameters that set a job's cost come round in turn
    qs = deck(rng, [2, 3, 5, 7])
    orders = {r: deck(rng, range(5, 10) if r == "sym3" else range(6, 13))
              for r in REPS}
    ns = {r: deck(rng, range(2, top + 1)) for r, top in
          (("std", 20), ("sym2", 14), ("sym3", 10), ("std*det", 20))}
    jobs = []
    for i in range(count):
        kind, rep = next(kinds)
        if kind == "l-factor":
            make = functools.partial(_make_l_factor, stream, rep, qs,
                                     orders[rep])
        elif kind == "basic-fn":
            rep = next(basic_reps)
            make = functools.partial(_make_basic_fn, stream, rep, qs, ns[rep])
        else:
            make = functools.partial(_make_orbital_zeta, stream, rep)
        jobs.append(draw(stream, make))
    return jobs


def _make_l_factor(stream, rep, qs, orders):
    q, order = next(qs), next(orders)
    triple = stream.rng.choice(TRIPLES)
    if not stream.fresh(("l-factor", rep, q, triple, order)):
        return None
    k, m = REPS[rep]
    return Job("l-factor", ["l-factor", "--q", str(q), "--r", rep,
                            "--triple", "%d,%d" % triple,
                            "--check", str(order)],
               functools.partial(checks.check_l_factor, k=k, m=m,
                                 triple=triple, order=order))


def _make_orbital_zeta(stream, rep):
    rng = stream.rng
    q = rng.choice([2, 3, 5, 7])
    k, m = REPS[rep]
    m1, m2 = rng.randint(0, 3), rng.randint(0, 3)
    d = None
    if m1 == m2:
        d = m1 + rng.randint(1 if q == 2 else 0, 2)
    if (m1 + m2) % (k + 2 * m) == 0:
        n0 = (m1 + m2) // (k + 2 * m)
    else:
        n0 = -1  # the series vanishes identically
    fit = (max(n0, 0) + rng.randint(0, 1), rng.randint(0, 2))
    order = 2 * (fit[0] + fit[1] + 1) - 1 + rng.randint(0, 4)
    if not stream.fresh(("orbital-zeta", rep, q, m1, m2, d, fit, order)):
        return None
    argv = ["orbital-zeta", "--q", str(q), "--gamma", "%d,%d" % (m1, m2),
            "--r", rep, "--N", str(order), "--fit", "%d,%d" % fit]
    if d is not None:
        argv += ["--d", str(d)]
    return Job("orbital-zeta", argv,
               functools.partial(checks.check_orbital_zeta, n0=n0,
                                 order=order, fit=fit))


def _make_basic_fn(stream, rep, qs, ns):
    q, n = next(qs), next(ns)
    if not stream.fresh(("basic-fn", rep, q, n)):
        return None
    k, m = REPS[rep]
    return Job("basic-fn", ["basic-fn", "--q", str(q), "--r", rep,
                            "--n", str(n)],
               functools.partial(checks.check_basic_fn, q=q, k=k, m=m, n=n))


# -- global: cyclotomic Poisson and S-class group assembly --------------


def global_(stream, count):
    rng = stream.rng
    # assemble takes about a third of the job time, in few enough jobs
    # that the 90th percentile falls among the stratified poisson jobs
    kinds = deck(rng, ["poisson"] * 24 + ["assemble"] * 2
                 + ["class-group", "cartan-report", "intertwine"])
    # assembly cost grows steeply with |S|, so every size comes round in turn
    sizes = deck(rng, range(len(ODD_PRIMES)))
    costs = quantiles(rng, POISSON_CLASSES)
    # The group structures come from one fixed generator, the same in every
    # seed; the seed draws the function values, the class order and every
    # other job.  Within a cost class, job time still varies with the
    # structure, and with per-seed structures that variation moved the
    # median job time by 10% (interquartile range over median, ten seeds)
    # against 3% for five runs of one seed.
    triples = PoissonTriples(random.Random("poisson-structures"))
    jobs = []
    for i in range(count):
        kind = next(kinds)
        make = functools.partial(GLOBAL_MAKERS[kind], stream, i)
        if kind == "assemble":
            make = functools.partial(make, next(sizes))
        elif kind == "poisson":
            make = functools.partial(make, triples, next(costs) + 1)
        jobs.append(draw(stream, make))
    return jobs


POISSON_ORDERS = [2, 2, 2, 3, 3, 4, 4, 5, 6, 8, 9, 12, 16]
# How often the sampler below lands in cost class k = 1..34 (per 1000
# draws, from 40000), where a triple's class is ceil(2 log2 poisson_cost):
# half-octaves of cost.  Costs above 2^17, 0.3% of the acceptance
# battery's draws but 18% of its time, are left out: one of them would
# decide a 25-second run by itself.
POISSON_CLASSES = [0, 27, 0, 63, 19, 21, 24, 48, 56, 18, 48, 39, 45, 32, 47,
                   43, 42, 27, 47, 36, 38, 32, 35, 28, 32, 26, 22, 23, 21, 16,
                   16, 12, 11, 5]


def _closure(orders, gens):
    zero = (0,) * len(orders)
    seen, frontier = {zero}, [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % n for a, b, n in zip(x, g, orders))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def poisson_cost(orders, h):
    """Rough work of `poisson` on a group with these cyclic orders and a
    subgroup of order h: a character sum over G for each of the |G|/h
    annihilator characters, plus one reduction mod the L-th cyclotomic
    polynomial per character, L the group exponent."""
    size = math.prod(orders)
    L = math.lcm(*orders)
    phi = sum(1 for j in range(1, L + 1) if math.gcd(j, L) == 1)
    return (size // h) * (size + L * phi // 5)


class PoissonTriples:
    """(orders, generators, H) drawn as in the acceptance battery (up to
    four cyclic factors, |G| <= 1024, |G|^2/|H| <= 2^16) and sorted into
    cost classes; take(k) hands out the next draw of class k, drawing more
    as needed and keeping the rest for later jobs."""

    def __init__(self, rng):
        self.rng = rng
        self.classes = {}

    def take(self, k):
        rng = self.rng
        while not self.classes.get(k):
            orders = [rng.choice(POISSON_ORDERS) for _ in range(rng.randint(1, 4))]
            size = math.prod(orders)
            if size > 1024:
                continue
            gens = [tuple(rng.randrange(n) for n in orders)
                    for _ in range(rng.randint(0, 2))]
            H = _closure(orders, gens)
            if size * size // len(H) <= 1 << 16:
                c = math.ceil(2 * math.log2(poisson_cost(orders, len(H))))
                self.classes.setdefault(c, []).append((orders, gens, H))
        return self.classes[k].pop(0)


def quantiles(rng, weights):
    """Endless indices drawn with the given weights, by the golden-ratio
    sequence through their cumulative distribution: any prefix holds each
    index in proportion, within one."""
    total = sum(weights)
    cum = list(itertools.accumulate(w / total for w in weights))
    u = rng.random()
    while True:
        yield next((i for i, c in enumerate(cum) if u < c), len(cum) - 1)
        u = (u + GOLDEN) % 1.0


def _make_poisson(stream, i, triples, k):
    rng = stream.rng
    orders, gens, H = triples.take(k)
    elems = list(itertools.product(*(range(n) for n in orders)))
    vals = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for e in elems}
    lines = ["group " + " ".join(map(str, orders))]
    lines += ["f %s %s" % (",".join(map(str, e)), vals[e]) for e in elems]
    text = "\n".join(lines) + "\n"
    if not stream.fresh(("poisson", text, tuple(gens))):
        return None
    path = stream.put("%d.fn" % i, text)
    argv = ["poisson", "--group", ",".join(map(str, orders)), "--f", path]
    if gens:
        argv += ["--subgroup", ";".join(",".join(map(str, g)) for g in gens)]
    lhs = sum((vals[h] for h in H), Fraction(0))
    return Job("poisson", argv,
               functools.partial(checks.check_poisson, lhs=lhs))


def _pieces(rng):
    """three constant profile pieces on [lo, hi) in log|t|, with rational
    breakpoints; the piece count sets the cost of ArchProfile.value_at"""
    cuts = sorted(rng.sample(range(-3, 4), 4))
    return ";".join("%s:%s:%s" % (Fraction(lo, 2), Fraction(hi, 2),
                                  _nonzero_fraction(rng, 9, 5))
                    for lo, hi in zip(cuts, cuts[1:]))


def _config(stream, i, n_odd):
    """(argv tail, {p: {key: Qv}}) for a fresh assembly config with 2 and
    n_odd odd primes in S"""
    rng = stream.rng
    primes = [2] + sorted(rng.sample(ODD_PRIMES, n_odd))
    lines = ["places = inf," + ",".join(map(str, primes))]
    hecke = {}
    files = {}
    for p in primes:
        # three cosets of distinct determinant valuation: three torus
        # exponents at p, so the torus grid has 3^|S_fin| points
        h = {}
        while len({a + b for a, b in h}) < 3:
            h = random_hecke(rng, 3, -2, 2)
        h = {k: (x.numerator, 0) for k, (x, _) in h.items()}
        hecke[p] = as_qv(p, h)
        files["h%d.hecke" % p] = hecke_text(p, h)
        lines.append("hecke_%d = h%d.hecke" % (p, p))
    for key in ("f_pos", "f_neg", "phi_pos", "phi_neg"):
        lines.append("%s = %s" % (key, _pieces(rng)))
    if rng.random() < 0.5:
        lines.append("vol_k = %s" % Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        lines.append("vol_gbar = %s" % Fraction(rng.randint(1, 4), rng.randint(1, 3)))
    text = "\n".join(lines) + "\n"
    if not stream.fresh(("config", text, tuple(sorted(files.items())))):
        return None
    base = os.path.dirname(stream.put("cfg%d/run.cfg" % i, text))
    for name, body in files.items():
        stream.put("cfg%d/%s" % (i, name), body)
    return ["--config", os.path.join(base, "run.cfg"), "--base-dir", base], hecke


def _make_assemble(stream, i, n_odd):
    made = _config(stream, i, n_odd)
    if made is None:
        return None
    return Job("assemble", ["assemble"] + made[0], checks.check_assemble)


def _make_cartan(stream, i):
    made = _config(stream, i, stream.rng.randint(0, len(ODD_PRIMES) - 1))
    if made is None:
        return None
    return Job("cartan-report", ["cartan-report"] + made[0],
               functools.partial(checks.check_cartan, hecke=made[1]))


def _make_class_group(stream, i):
    rng = stream.rng
    primes = [2] + sorted(rng.sample([3, 5, 7, 11, 13, 17, 19, 23],
                                     rng.randint(0, 5)))
    if not stream.fresh(("class-group", tuple(primes))):
        return None
    return Job("class-group", ["class-group", "--places",
                               "inf," + ",".join(map(str, primes))],
               functools.partial(checks.check_class_group, primes=primes))


def _make_intertwine(stream, i):
    rng = stream.rng
    s3 = 10 ** rng.uniform(-4.5, -3.5)
    s2 = s3 * 10 ** rng.uniform(0.7, 1.3)
    s1 = s2 * 10 ** rng.uniform(0.7, 1.3)
    texts = ["%.3g" % s for s in (s1, s2, s3)]
    if not stream.fresh(("intertwine", tuple(texts))):
        return None
    return Job("intertwine", ["intertwine", "--s-grid", ",".join(texts)],
               functools.partial(checks.check_intertwine,
                                 s_grid=[float(t) for t in texts], tol=1e-3))


GLOBAL_MAKERS = {"poisson": _make_poisson, "assemble": _make_assemble,
                 "cartan-report": _make_cartan, "class-group": _make_class_group,
                 "intertwine": _make_intertwine}


# -- spectral: the tau q-expansion kernel -------------------------------

X_LOG10 = (3.0, 4.0)
# Every seed walks the same golden-ratio strata of log x, shifted by a
# seed-drawn fraction of a decade below the gap between neighbouring
# strata of a run (about 0.005 for its 70-odd jobs).  Job time grows
# like x^1.7, so with a free shift the x that lands at the median of a
# run's jobs, and with it job_p50_s, moved by 6% from seed to seed.
X_SHIFT = 0.003


def spectral(stream, count):
    rng = stream.rng
    kinds = deck(rng, ["tau", "estimate-mr"])
    weights = deck(rng, ["std", "sym2", "proxy"])
    u0 = rng.random() * X_SHIFT
    jobs = []
    for i in range(count):
        lo, hi = X_LOG10
        x = round(10 ** (lo + (hi - lo) * ((u0 + i * GOLDEN) % 1.0)))
        while not stream.fresh(x):
            x += 1
        if next(kinds) == "tau":
            jobs.append(Job("tau", ["tau", "--x", str(x)],
                            functools.partial(checks.check_tau, x=x)))
            continue
        r = next(weights)
        grid = sorted({max(3, int(x * rng.uniform(0.05, 0.15))),
                       max(3, int(x * rng.uniform(0.3, 0.6))), x})
        jobs.append(Job("estimate-mr", ["estimate-mr", "--x", str(x), "--r", r,
                                        "--n-grid", ",".join(map(str, grid))],
                        functools.partial(checks.check_estimate, r=r,
                                          grid=grid)))
    return jobs


WORKLOADS = {"algebra": algebra, "trace": trace, "global": global_,
             "spectral": spectral}


def build(workload, seed, root, count):
    " the first `count` jobs of a workload's stream, inputs written "
    stream = Stream(random.Random("%s:%d" % (workload, seed)), root)
    jobs = WORKLOADS[workload](stream, count)
    stream.write_inputs()
    return jobs, stream
