"""Outside-in tracing of gl2trace: spans around public functions, and
exact call counters for ring arithmetic.

Nothing under src/ is edited.  `Tracer.install` rebinds every wrapped
name in every gl2trace module namespace that binds it (cli imports most
functions by name, spectral imports tau_table), and `uninstall` puts the
originals back.  Spans live in flat arrays and are written out at the
end; self time is a span's duration minus the time its child spans cover.
"""

import functools
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

SUBCOMMANDS = ("satake", "convolve", "basic-fn", "l-factor", "orbital",
               "orbital-zeta", "phi-check", "poisson", "class-group",
               "assemble", "cartan-report", "intertwine", "tau", "estimate-mr")


def _basic_key(r, n, field):
    return (r.k, r.m, n, field.q)


def _first_arg(x, *_, **__):
    return x


# (module, attribute path, key function or None).  The key of a call feeds
# distinct_ratio, and for tau_table the coefficient count.
SPANS = [
    ("hecke", "convolve", None),
    ("hecke", "satake_transform", None),
    ("hecke", "inverse_satake", None),
    ("hecke", "spherical_trace", None),
    ("hecke", "SymLaurent.evaluate", None),
    ("hecke", "SymLaurent.__mul__", None),
    ("hecke", "n_integral", None),
    ("hecke", "HeckeElement.from_text", None),
    ("basicfn", "basic_coeff", _basic_key),
    ("basicfn", "symn_trace", None),
    ("basicfn", "local_l_factor", None),
    ("basicfn", "RationalFn.series", None),
    ("basicfn", "truncated_basic_identity", None),
    ("orbital", "tree_orbital_oracle", None),
    ("orbital", "split_orbital", None),
    ("orbital", "orbital_zeta", None),
    ("orbital", "rational_reconstruct", None),
    ("orbital", "phi_transform", None),
    ("orbital", "measure_phi_exponent", None),
    ("chargroup", "poisson_check", None),
    ("chargroup", "fourier", None),
    ("chargroup", "CycloNumber.from_buckets", None),
    ("chargroup", "annihilator", None),
    ("chargroup", "parse_group_function", None),
    ("chargroup", "subgroup_generated", None),
    ("chargroup", "class_group_mod_squares", None),
    ("chargroup", "hilbert_symbol", None),
    ("assembly", "load_config", None),
    ("assembly", "torus_support", None),
    ("assembly", "ArchProfile.value_at", None),
    ("assembly", "one_dim_geometric", None),
    ("assembly", "one_dim_spectral", None),
    ("assembly", "residual_geometric", None),
    ("assembly", "residual_breakdown", None),
    ("assembly", "correction_term", None),
    ("assembly", "cartan_discrepancy", None),
    ("assembly", "numeric_verify", None),
    ("kernels", "tau_table", _first_arg),
    ("spectral", "delta_qexpansion", _first_arg),
    ("spectral", "mr_estimator", None),
    ("spectral", "estimator_series", None),
]

# counted, not timed: hot enough that a span would swamp them
COUNTS = [
    ("hecke", "n_integral"),
    ("orbital", "split_orbital"),
    ("chargroup", "FiniteAbelianGroup.exponent"),
]

COUNTED = {"%s.%s" % c for c in COUNTS}

RING_CLASSES = [("rings", "LaurentQ"), ("rings", "QiV"), ("rings", "QiNumber"),
                ("chargroup", "CycloNumber")]
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__neg__", "__pow__")


def _timed(name):
    return [(name + ".calls", "count"), (name + ".self_s", "s")]


# Per-layer metrics emitted by a traced run, in order, with units.
LAYER_METRICS = (
    [m for sub in SUBCOMMANDS for m in (("cli.%s.calls" % sub, "count"),
                                        ("cli.%s.p50_s" % sub, "s"),
                                        ("cli.%s.failed" % sub, "count"))]
    + [("cli.run.self_s", "s")]
    + [("%s.%s.ops" % (mod, cls), "count") for mod, cls in RING_CLASSES]
    + _timed("hecke.convolve") + _timed("hecke.satake_transform")
    + [("hecke.n_integral.calls", "count")]
    + _timed("orbital.tree_orbital_oracle")
    + _timed("hecke.inverse_satake") + _timed("hecke.spherical_trace")
    + _timed("hecke.SymLaurent.evaluate")
    + _timed("basicfn.basic_coeff") + [("basicfn.basic_coeff.distinct_ratio", "ratio")]
    + _timed("basicfn.symn_trace") + _timed("basicfn.local_l_factor")
    + _timed("basicfn.RationalFn.series")
    + _timed("orbital.orbital_zeta") + _timed("orbital.rational_reconstruct")
    + [("orbital.split_orbital.calls", "count")]
    + _timed("chargroup.poisson_check") + _timed("chargroup.fourier")
    + _timed("chargroup.CycloNumber.from_buckets") + _timed("chargroup.annihilator")
    + _timed("chargroup.parse_group_function")
    + [("chargroup.FiniteAbelianGroup.exponent.calls", "count")]
    + _timed("chargroup.class_group_mod_squares") + _timed("chargroup.hilbert_symbol")
    + _timed("assembly.torus_support") + [("assembly.torus_support.calls_per_job", "calls/job")]
    + _timed("assembly.ArchProfile.value_at") + _timed("assembly.residual_breakdown")
    + _timed("assembly.one_dim_spectral") + _timed("assembly.load_config")
    + _timed("assembly.numeric_verify")
    + _timed("kernels.tau_table") + [("kernels.tau_table.coeffs", "count")]
    + _timed("spectral.delta_qexpansion")
    + [("spectral.delta_qexpansion.distinct_ratio", "ratio")]
    + _timed("spectral.mr_estimator")
    + [("trace.jobs_per_s_untraced", "1/s"), ("trace.jobs_per_s_traced", "1/s"),
       ("trace.overhead_ratio", "ratio")]
)


def _modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "gl2trace" or n.startswith("gl2trace.")]


def _resolve(mod, path):
    " (owner, attribute, raw object) for 'func' or 'Class.method' "
    owner = sys.modules["gl2trace." + mod]
    bits = path.split(".")
    for b in bits[:-1]:
        owner = getattr(owner, b)
    raw = owner.__dict__[bits[-1]] if isinstance(owner, type) \
        else getattr(owner, bits[-1])
    return owner, bits[-1], raw


def _rewrap(raw, wrap):
    " apply wrap to the function inside raw, keeping its descriptor kind "
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(wrap(raw.__func__))
    if isinstance(raw, property):
        return property(wrap(raw.fget), raw.fset, raw.fdel, raw.__doc__)
    return wrap(raw)


class Patches:
    """Rebinds names across the gl2trace modules.  The bindings are found
    once; undo() restores the originals and apply() puts the wrappers back."""

    def __init__(self):
        self.log = []  # (owner, attribute, original, replacement)

    def replace(self, mod, path, wrap):
        owner, attr, raw = _resolve(mod, path)
        new = _rewrap(raw, wrap)
        if isinstance(owner, type):
            self.log.append((owner, attr, raw, new))
        else:
            for m in _modules():
                self.log.extend((m, name, raw, new)
                                for name, val in vars(m).items() if val is raw)
        self.apply()

    def apply(self):
        for owner, attr, _, new in self.log:
            setattr(owner, attr, new)

    def undo(self):
        for owner, attr, raw, _ in reversed(self.log):
            setattr(owner, attr, raw)


class Tracer:
    """Spans in flat arrays: name index, parent span, job id, start, end."""

    def __init__(self):
        self.names = []
        self._index = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.job_id = -1
        self.keys = defaultdict(list)
        self.patches = Patches()

    def nid(self, label):
        if label not in self._index:
            self._index[label] = len(self.names)
            self.names.append(label)
        return self._index[label]

    def wrap(self, label, key=None):
        nid = self.nid(label)
        name, parent, job = self.name, self.parent, self.job
        start, end, stack = self.start, self.end, self.stack
        keys = self.keys[label]

        def deco(fn):
            @functools.wraps(fn)
            def traced(*args, **kw):
                sid = len(start)
                name.append(nid)
                parent.append(stack[-1] if stack else -1)
                job.append(self.job_id)
                start.append(0.0)
                end.append(0.0)
                if key is not None:
                    keys.append(key(*args, **kw))
                stack.append(sid)
                t0 = perf_counter()
                try:
                    return fn(*args, **kw)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    start[sid] = t0
                    end[sid] = t1
            return traced
        return deco

    def install(self):
        if self.patches.log:
            self.patches.apply()
            return
        for mod, path, key in SPANS:
            self.patches.replace(mod, path, self.wrap("%s.%s" % (mod, path), key))

    def uninstall(self):
        self.patches.undo()

    def job_span(self, job_id, kind, fn, *args):
        " run fn(*args) as the root span of one job "
        self.job_id = job_id
        return self.wrap("cli." + kind)(fn)(*args)

    def self_times(self):
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def write(self, path):
        " one line per span: job, span id, parent id, name, start, end "
        with open(path, "w") as fh:
            fh.write("job\tspan\tparent\tname\tstart_s\tend_s\n")
            base = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    self.job[i], i, self.parent[i], self.names[self.name[i]],
                    self.start[i] - base, self.end[i] - base))


class OpCounter:
    " exact call counts, for ring arithmetic and the hottest helpers "

    def __init__(self):
        self.counts = Counter()
        self.patches = Patches()

    def _counted(self, label):
        counts = self.counts

        def deco(fn):
            @functools.wraps(fn)
            def counted(*args, **kw):
                counts[label] += 1
                return fn(*args, **kw)
            return counted
        return deco

    def install(self):
        for mod, cls in RING_CLASSES:
            klass = getattr(sys.modules["gl2trace." + mod], cls)
            for op in ARITH:
                if op in klass.__dict__:
                    self.patches.replace(mod, "%s.%s" % (cls, op),
                                         self._counted("%s.%s.ops" % (mod, cls)))
        for mod, path in COUNTS:
            self.patches.replace(mod, path,
                                 self._counted("%s.%s.calls" % (mod, path)))

    def uninstall(self):
        self.patches.undo()


def layer_metrics(tracer, records, counts, untraced_s, traced_s):
    """Per-layer metric values from the spans of the traced replay.
    records: per job (kind, failed) in job-id order."""
    selfs = tracer.self_times()
    calls = Counter()
    self_s = defaultdict(float)
    root_dur = defaultdict(list)
    jobs_calling = defaultdict(set)
    run_self = 0.0
    for i, s in enumerate(selfs):
        label = tracer.names[tracer.name[i]]
        calls[label] += 1
        self_s[label] += s
        jobs_calling[label].add(tracer.job[i])
        if tracer.parent[i] < 0:
            root_dur[label].append(tracer.end[i] - tracer.start[i])
            run_self += s
    out = {}
    failed = Counter(kind for kind, bad in records if bad)
    for sub in SUBCOMMANDS:
        durs = root_dur.get("cli." + sub, [])
        out["cli.%s.calls" % sub] = len(durs)
        out["cli.%s.p50_s" % sub] = statistics.median(durs) if durs else 0.0
        out["cli.%s.failed" % sub] = failed[sub]
    out["cli.run.self_s"] = run_self
    for name, _ in LAYER_METRICS:
        if name in out:
            continue
        label, _, stat = name.rpartition(".")
        if stat == "ops" or label in COUNTED:
            out[name] = counts[name]
        elif stat == "calls":
            out[name] = calls[label]
        elif stat == "self_s":
            out[name] = self_s[label]
        elif stat == "distinct_ratio":
            keys = tracer.keys[label]
            out[name] = len(set(keys)) / len(keys) if keys else 0.0
        elif stat == "calls_per_job":
            nj = len(jobs_calling[label])
            out[name] = calls[label] / nj if nj else 0.0
        elif stat == "coeffs":
            out[name] = sum(tracer.keys[label])
    njobs = len(records)
    out["trace.jobs_per_s_untraced"] = njobs / untraced_s
    out["trace.jobs_per_s_traced"] = njobs / traced_s
    out["trace.overhead_ratio"] = traced_s / untraced_s
    return out


def attribution(tracer, top=4):
    """Lines naming, per subcommand, the functions with the most self time
    and their share of that subcommand's job time."""
    selfs = tracer.self_times()
    labels = [tracer.names[k] for k in tracer.name]
    root_of = {}
    kind_total = defaultdict(float)
    for i, label in enumerate(labels):
        if tracer.parent[i] < 0:
            root_of[tracer.job[i]] = label
            kind_total[label] += tracer.end[i] - tracer.start[i]
    by_kind = defaultdict(lambda: defaultdict(float))
    for i, (label, s) in enumerate(zip(labels, selfs)):
        if tracer.parent[i] < 0:
            label = "cli.run (self)"
        by_kind[root_of[tracer.job[i]]][label] += s
    lines = []
    for kind in sorted(kind_total):
        total = kind_total[kind]
        ranked = sorted(by_kind[kind].items(), key=lambda kv: -kv[1])[:top]
        lines.append("%-18s %8.3fs  %s" % (kind, total, "  ".join(
            "%s %.0f%%" % (label, 100 * s / total) for label, s in ranked)))
    return lines
