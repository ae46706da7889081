"""A/B one benchmark pool on two checkouts in one interpreter.

Run from the root of a checkout, naming the root of another:

    python3 tools/ab_pool.py OTHER_CHECKOUT --workload global --seed 7

This checkout's src/gl2trace is imported as gl2trace and the other's as
ab_other_gl2trace, two separate packages in one interpreter.  The pool
is the one perfbench/run.py prepares for a run of --seconds (25 by
default), built by this checkout's perfbench; its inputs are written to
a temporary directory.  Each job runs --repeat times on
each side, the two sides taking turns to go first, and each side's exit
code, stdout, stderr and --out files must be equal on every run: the
first difference is printed and the script exits 1.  Otherwise it prints
one line per job kind with the job count, the sum over jobs of each
side's fastest run, and their ratio this/other, then the same over all
jobs, and a last line with the per-job medians and their ratio, followed
on the same line by each side's p90 and jobs/s with their ratios:

    per-job median  N  OTHER THIS RATIO  p90  OTHER THIS RATIO  jobs/s  OTHER THIS RATIO

The p90 is perfbench/run.py's quantile(times, 9) of the fastest times,
as it computes job_p90_s, and jobs/s is the job count over their sum,
so these are the figures a benchmark claim is judged on.

Timing both sides in turn in one interpreter cancels most of the drift
of a shared machine's speed, so the ratios are for sizing a change and
for checking that its output is unchanged.  Speed claims come from
perfbench/run.py.
"""

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile

from replay_pool import cli, pool_size, run, run_job, workloads


def load_cli(name, checkout):
    " checkout/src/gl2trace imported as the package `name`; its cli module "
    src = os.path.join(os.path.abspath(checkout), "src", "gl2trace")
    init = os.path.join(src, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit("error: no gl2trace package under %s" % checkout)
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(name + ".cli")


def compare(clis, workload, seed, seconds, repeat):
    """[(kind, fastest time per side)] over the pool's jobs, or SystemExit
    naming the first job whose two sides differ"""
    rows = []
    with tempfile.TemporaryDirectory(prefix="ab-pool-") as root:
        jobs = workloads.build(workload, seed, root, pool_size(workload, seconds))[0]
        for i, job in enumerate(jobs):
            best = [float("inf")] * len(clis)
            for r in range(repeat):
                results = [None] * len(clis)
                for side in ((0, 1) if (i + r) % 2 else (1, 0)):
                    elapsed, results[side] = run_job(clis[side], job)
                    best[side] = min(best[side], elapsed)
                if results[0] != results[1]:
                    raise SystemExit("job %d (%s) differs between the checkouts: %s"
                                     % (i, job.kind, " ".join(job.argv)))
            rows.append((job.kind, best))
    return rows


def report(rows):
    " one line per job kind, then all jobs "
    lines = ["kind\tjobs\tother_s\tthis_s\tthis/other"]
    kinds = sorted({kind for kind, _ in rows})
    for kind in kinds + ["all"]:
        best = [b for k, b in rows if kind in (k, "all")]
        other, this = sum(b[0] for b in best), sum(b[1] for b in best)
        lines.append("%s\t%d\t%.4f\t%.4f\t%.3f" % (kind, len(best), other, this,
                                                 this / other))
    cells = []
    for name, stat in (("per-job median", statistics.median),
                       ("p90", lambda xs: run.quantile(xs, 9)),
                       ("jobs/s", lambda xs: len(xs) / sum(xs))):
        other, this = (stat([b[side] for _, b in rows]) for side in (0, 1))
        cells += [name, "%.6g" % other, "%.6g" % this, "%.3f" % (this / other)]
    cells.insert(1, str(len(rows)))
    lines.append("\t".join(cells))
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", metavar="OTHER_CHECKOUT",
                    help="root of the checkout to compare with this one")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="run length whose pool is replayed (default 25)")
    ap.add_argument("--repeat", type=int, default=5,
                    help="runs of each job on each side (default 5)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    clis = [load_cli("ab_other_gl2trace", args.other), cli]
    rows = compare(clis, args.workload, args.seed, args.seconds, args.repeat)
    print(report(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
