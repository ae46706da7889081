"""Replay one whole benchmark pool in one interpreter and print a digest.

Run from the root of a checkout:

    python3 tools/replay_pool.py --workload global --seed 7

The pool is the one perfbench/run.py prepares for a run of --seconds
(25 by default): the same workload, seed and job count.  Its inputs are
written to a temporary directory.  Every job runs once, in order, through
gl2trace.cli.run.  The digest is a sha256 over each job's exit code,
stdout, stderr and --out files, with the temporary directory's path
replaced by a fixed placeholder, so two checkouts that print the same
bytes give the same digest.  The last line is

    jobs N nonzero K sha256 HEX

where K counts the jobs whose exit code is not 0.  The script exits 1
when K > 0 and 0 otherwise, so a byte-identity check can be chained in a
shell script.  Nothing under perfbench/ is edited.

With --warmup it also prints, before that line,

    warm-up N of M jobs
    pool job time T s, warm-up W s

N is how many pool jobs, in order, perfbench/run.py's warm-up would run
before their summed in-process job time reaches run.WARMUP_S (1.5 s),
and M is the pool size.  N = M means the warm-up uses up the pool, where
run.py exits 1 before timing a job, so a change that moves N toward M
shows before a benchmark run.  gl2trace loads a submodule on first use,
so the first jobs that need one (chargroup on the first poisson job, say)
also compile and run it, here as in run.py's warm-up.  T is the summed
in-process job time of the whole pool and W is run.WARMUP_S: a pool whose
T is near W leaves run.py almost no job to time after its warm-up.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from gl2trace import cli  # noqa: E402
from perfbench import run, workloads  # noqa: E402

MASK = "<pool>"


def pool_size(workload, seconds):
    " the job count perfbench/run.py prepares for a run of `seconds` "
    return max(200, int((run.WARMUP_S + seconds) * run.MAX_RATE[workload]))


def run_job(cli, job):
    """(seconds, [exit code, stdout, stderr, --out file texts...]) of one
    job through cli.run, its --out files removed first"""
    for path in job.outs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.run(list(job.argv))
        elapsed = time.perf_counter() - t0
    parts = [str(rc), out.getvalue(), err.getvalue()]
    for path in job.outs:
        try:
            with open(path) as fh:
                parts.append(fh.read())
        except FileNotFoundError:
            parts.append("<no file>")
    return elapsed, parts


def warmup_jobs(times, seconds):
    """how many of the jobs with these in-process times, in order, run.py's
    warm-up runs: it starts a job while the summed time is below seconds"""
    spent = 0.0
    for n, t in enumerate(times):
        if spent >= seconds:
            return n
        spent += t
    return len(times)


def replay(workload, seed, seconds):
    " (per-job seconds, nonzero exit count, sha256 hex) "
    h = hashlib.sha256()
    nonzero = 0
    times = []
    with tempfile.TemporaryDirectory(prefix="replay-") as root:
        jobs = workloads.build(workload, seed, root, pool_size(workload, seconds))[0]
        for job in jobs:
            elapsed, parts = run_job(cli, job)
            times.append(elapsed)
            nonzero += parts[0] != "0"
            for part in parts:
                text = part.replace(root, MASK)
                h.update(b"%d:" % len(text))
                h.update(text.encode())
    return times, nonzero, h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="run length whose pool is replayed (default 25)")
    ap.add_argument("--warmup", action="store_true",
                    help="also print how many pool jobs run.py's %s-s warm-up "
                    "takes" % run.WARMUP_S)
    args = ap.parse_args(argv)
    times, nonzero, hexdigest = replay(args.workload, args.seed, args.seconds)
    if args.warmup:
        print("warm-up %d of %d jobs" % (warmup_jobs(times, run.WARMUP_S), len(times)))
        print("pool job time %.3f s, warm-up %s s" % (sum(times), run.WARMUP_S))
    print("jobs %d nonzero %d sha256 %s" % (len(times), nonzero, hexdigest))
    return 1 if nonzero else 0


if __name__ == "__main__":
    sys.exit(main())
