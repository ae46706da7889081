"""Closed-loop benchmark of the gl2trace command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 25 --trace 0

One client runs one job at a time, in process, through gl2trace.cli.run,
the entry point of the `gl2trace` command.  Inputs come from the seed and
are written before timing starts; every output is checked by the
benchmark itself.  The run stops once the jobs' own wall time reaches
--seconds.  The last line of stdout is a JSON object with the keys
correct, attempted, failed and metrics: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of perfbench.trace.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, ROOT)
from perfbench import speed, trace, workloads  # noqa: E402
from perfbench.checks import CheckError  # noqa: E402

SETUP_SAMPLES = 9
# untimed job time first: a fresh interpreter runs its first jobs slower
# (allocator arenas, mpmath's lazily built constants)
WARMUP_S = 1.5
DIGEST_PREFIX = 50     # jobs in the prefix digest, comparable across commits
# jobs per second of each workload at the commit that added the benchmark;
# fixes how many jobs a traced run replays, so its counts repeat exactly
TRACE_RATE = {"algebra": 80, "trace": 15, "global": 20, "spectral": 2.6}
# generous ceiling on jobs per second of budget; inputs for this many jobs
# are written before timing, and the run ends early if they run out
MAX_RATE = {"algebra": 200, "trace": 30, "global": 40, "spectral": 30}

END_TO_END = [("jobs_per_s", "1/s"), ("job_p50_s", "s"), ("job_p90_s", "s"),
              ("verified_frac", "ratio"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]

# seconds of job time between two readings of the speed gauge
GAUGE_EVERY_S = 0.25

SETUP_CODE = ("import sys, time; sys.path[:0] = [%r, %r]; t = time.perf_counter();"
              " import gl2trace.cli; t = time.perf_counter() - t;"
              " from perfbench import speed; print(t, speed.reference_seconds(5))")


def import_seconds():
    """time to import gl2trace.cli in a fresh interpreter, raw and rescaled
    by the reference work timed in that interpreter right after"""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE % (SRC, ROOT)],
                         capture_output=True, text=True, timeout=60, check=True)
    raw, ref = map(float, out.stdout.split())
    return raw, raw * speed.REFERENCE_S / ref


class SetupTimer:
    """Samples import_seconds() at evenly spaced points of the timed run,
    between jobs, so the median spans the run instead of one moment."""

    def __init__(self, samples, budget):
        self.samples, self.step = samples, budget / samples
        self.times = []

    def __call__(self, spent):
        if len(self.times) < self.samples and spent >= self.step * len(self.times):
            self.times.append(import_seconds())

    def medians(self):
        " (raw, rescaled) medians "
        while len(self.times) < self.samples:
            self.times.append(import_seconds())
        return tuple(statistics.median(ts) for ts in zip(*self.times))


class Result:
    __slots__ = ("kind", "seconds", "error", "output", "scaled")

    def __init__(self, kind, seconds, error, output):
        self.kind, self.seconds, self.error = kind, seconds, error
        self.output = output
        self.scaled = seconds   # wall time rescaled by the speed gauge


def run_job(cli_run, job, call=None):
    """Run one job; returns a Result whose error is None when the exit code
    is 0 and the benchmark's own check of the output passes."""
    for path in job.outs:  # a stale file must not pass for this job's output
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call(cli_run, job) if call else cli_run(job.argv)
    except Exception as e:  # a crashing job is counted, not fatal
        rc, error = None, "raised %s: %s" % (type(e).__name__, e)
    dt = perf_counter() - t0
    stdout = out.getvalue()
    texts, missing = [], []
    for path in job.outs:
        try:
            with open(path) as fh:
                texts.append(fh.read())
        except FileNotFoundError:
            missing.append(os.path.basename(path))
    if error is None and rc != 0:
        error = "exit code %s: %s" % (rc, (err.getvalue() or stdout).strip()[:200])
    if error is None and missing:
        error = "wrote no %s" % ", ".join(missing)
    if error is None:
        try:
            job.check(stdout, texts)
        except CheckError as e:
            error = "check failed: %s" % e
        except Exception as e:  # malformed output can break a parser
            error = "check raised %s: %s" % (type(e).__name__, e)
    output = "%s\n%s\n%s\n" % (rc, stdout, "\n".join(texts))
    return Result(job.kind, dt, error, output)


def run_stream(cli_run, jobs, budget, call=None, between=None, gauge=None):
    """Run jobs in order until their summed wall time reaches budget;
    between(spent), if given, runs untimed before each job.  With a
    speed.Gauge, each result's `scaled` is its rescaled wall time."""
    results, marks = [], []
    spent = 0.0
    for job in jobs:
        if spent >= budget:
            break
        if between:
            between(spent)
        if gauge:
            marks.append(gauge(spent))
        r = run_job(cli_run, job, call)
        spent += r.seconds
        results.append(r)
    if gauge:
        gauge.close(spent)
        for r, mark in zip(results, marks):
            r.scaled = r.seconds * gauge.factor(mark)
    return results, spent


def digest(results):
    h = hashlib.sha256()
    for r in results:
        h.update(r.output.encode())
    return h.hexdigest()


def git_sha():
    " HEAD of the checkout's git metadata, read without running git "
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for ln in fh:
                if ln.strip().endswith(" " + ref):
                    return ln.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for ln in fh:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiled_kernel_check(jobs):
    """When the compiled kernel is importable, its table must equal the pure
    one at the smallest x of the run (the equal-output assertion of
    benchmarks/bench_kernels.py).  Returns an error string or None."""
    try:
        from gl2trace import _speedups
    except ImportError:
        return None
    from gl2trace.kernels import tau_table_pure
    x = min(int(j.argv[j.argv.index("--x") + 1]) for j in jobs)
    if _speedups.tau_table(x) != tau_table_pure(x):
        return "compiled and pure tau tables differ at x = %d" % x
    return None


def prepare(workload, seed, seconds):
    root = os.path.join(WORK, workload)
    shutil.rmtree(root, ignore_errors=True)
    count = max(200, int((WARMUP_S + seconds) * MAX_RATE[workload]))
    return workloads.build(workload, seed, root, count)[0]


def quantile(xs, k):
    " k-th decile of xs; needs at least two samples "
    return statistics.quantiles(xs, n=10)[k - 1] if len(xs) > 1 else xs[0]


def report_untraced(args, jobs, cli_run):
    import_seconds()  # discarded: leaves the bytecode cache warm
    warm, _ = run_stream(cli_run, jobs, WARMUP_S)
    setup = SetupTimer(SETUP_SAMPLES, args.seconds)
    gauge = speed.Gauge(GAUGE_EVERY_S)
    results, spent = run_stream(cli_run, jobs[len(warm):], args.seconds,
                                between=setup, gauge=gauge)
    if not results:
        raise SystemExit("error: the warm-up used up the input pool; "
                         "raise MAX_RATE[%r]" % args.workload)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = [r for r in warm + results if r.error]
    attempted = len(warm) + len(results)
    verified = len(results) - len([r for r in results if r.error])
    if args.workload == "spectral":
        err = compiled_kernel_check(jobs)
        if err:
            failures.append(Result("tau", 0.0, err, ""))
    times = [r.scaled for r in results]
    raw = [r.seconds for r in results]
    setup_raw, setup_s = setup.medians()
    metrics = {
        "jobs_per_s": verified / sum(times),
        "job_p50_s": statistics.median(times),
        "job_p90_s": quantile(times, 9),
        "verified_frac": 1 - len(failures) / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    print("%d warm-up jobs, then %d timed jobs in %.3f s of job time; %s" % (
        len(warm), len(results), spent,
        "input pool exhausted" if attempted == len(jobs) else "budget reached"))
    print("failed_frac %.6g  (%d failed of %d; p90 rests on %d jobs beyond it)"
          % (len(failures) / attempted, len(failures), attempted,
             len(times) - int(0.9 * len(times))))
    for name, unit in END_TO_END:
        print("%-14s %14.6g %s" % (name, metrics[name], unit))
    print("machine pace x%.3f of the reference speed (%d gauge readings); "
          "raw wall times: jobs_per_s %.6g  job_p50_s %.6g  job_p90_s %.6g"
          "  setup_s %.6g" % (gauge.slowdown(), len(gauge.marks),
                              verified / spent, statistics.median(raw),
                              quantile(raw, 9), setup_raw))
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.kind, []).append(r.seconds)
    for kind, ts in sorted(by_kind.items()):
        print("  %-14s %5d jobs %9.3f s  p50 %.4g s" % (
            kind, len(ts), sum(ts), statistics.median(ts)))
    done = warm + results
    print("output_sha256 all %d jobs %s" % (attempted, digest(done)))
    print("output_sha256 first %d jobs %s" % (
        min(DIGEST_PREFIX, attempted), digest(done[:DIGEST_PREFIX])))
    return attempted, failures, {name: {"value": metrics[name], "unit": unit}
                                 for name, unit in END_TO_END}


def report_traced(args, jobs, cli_run):
    """A fixed number of jobs, about a quarter of the budget at the commit
    that added the benchmark, runs once untraced to warm the program's own
    caches, then each job twice more, traced and untraced back to back in
    alternating order, so that drift in machine speed cancels out of the
    overhead.  The first half of them then runs once more with exact op
    counters."""
    n = max(1, round(args.seconds * TRACE_RATE[args.workload] / 4))
    replay = jobs[:n]
    warm, _ = run_stream(cli_run, replay, float("inf"))
    tracer = trace.Tracer()
    traced, plain = [], []
    for i, job in enumerate(replay):
        for on in ((True, False) if i % 2 else (False, True)):
            if not on:
                plain.append(run_job(cli_run, job))
                continue
            tracer.install()
            try:
                traced.append(run_job(cli_run, job, call=lambda fn, job: (
                    tracer.job_span(i, job.kind, fn, job.argv))))
            finally:
                tracer.uninstall()
    traced_s = sum(r.seconds for r in traced)
    plain_s = sum(r.seconds for r in plain)
    counter = trace.OpCounter()
    counter.install()
    try:
        counted, _ = run_stream(cli_run, replay[:max(1, n // 2)], float("inf"))
    finally:
        counter.uninstall()
    failures = [r for r in warm + traced + plain + counted if r.error]
    if not digest(warm) == digest(traced) == digest(plain):
        failures.append(Result("trace", 0.0, "replayed outputs differ", ""))
    records = [(r.kind, bool(r.error)) for r in traced]
    values = trace.layer_metrics(tracer, records, counter.counts, plain_s,
                                 traced_s)
    print("traced %d jobs, op counts over the first %d" % (n, len(counted)))
    print("%.3f s untraced, %.3f s traced (overhead x%.3f)"
          % (plain_s, traced_s, traced_s / plain_s))
    print("self time by subcommand (share of that subcommand's job time):")
    for line in trace.attribution(tracer):
        print("  " + line)
    spans = os.path.join(WORK, args.workload, "spans.tsv")
    tracer.write(spans)
    print("spans written to %s" % os.path.relpath(spans, ROOT))
    attempted = len(warm) + len(traced) + len(plain) + len(counted)
    return attempted, failures, {name: {"value": values[name], "unit": unit}
                                 for name, unit in trace.LAYER_METRICS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gl2trace", "cli.py")):
        print("error: no gl2trace sources under %s; run from the root of a "
              "gl2trace checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from gl2trace import cli
    from gl2trace.kernels import BACKEND

    jobs = prepare(args.workload, args.seed, args.seconds)
    # the job pool lives all run: keep the collector from walking it
    gc.collect()
    gc.freeze()
    print("workload %s seed %d seconds %g trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("nproc %d | cpu %s | python %s | backend %s | git %s" % (
        len(os.sched_getaffinity(0)), cpu_model(), platform.python_version(),
        BACKEND, git_sha()))
    report = report_traced if args.trace else report_untraced
    attempted, failures, metrics = report(args, jobs, cli.run)
    for r in failures[:10]:
        print("FAILED %s: %s" % (r.kind, r.error))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
