"""Machine-speed gauge for a shared host.

The benchmark's host lends it a few cores of a shared machine whose speed
drifts by up to a third within minutes, on pure CPU work with no I/O, and
that drift is slower than a run: successive 25-second windows of a fixed
loop differ by 20% (interquartile range over median).  Raw wall times
would rank the machine's neighbours, not the program.

So a run interleaves, between jobs and untimed, a fixed piece of
reference work of the same kind the jobs do (rational and big-integer
arithmetic, small-object allocation, dict traffic).  Each job's wall time
is rescaled by REFERENCE_S over the reference time measured around it:
the result is the job's time at the speed at which the reference takes
REFERENCE_S.  A faster program still reads faster in proportion; a slower
machine no longer does.  Raw wall times are printed beside the metrics.
"""

import statistics
from fractions import Fraction
from time import perf_counter

# median time of reference_work() on the 2-vCPU "Intel(R) Xeon(R)
# Processor" VM (Python 3.11) that the first baseline was measured on;
# a constant, so that normalised times compare across runs and commits
REFERENCE_S = 0.003
REPEATS = 3


def reference_work():
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        acc += Fraction((i * 7919) % 23 - 11, i)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i ** 5
    big, mod = 3 ** 700, 7 ** 900 + 1
    for _ in range(60):
        big = big * big % mod
    return acc, table, big


def reference_seconds(repeats=REPEATS):
    " median wall time of reference_work() over a few back-to-back runs "
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        reference_work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Gauge:
    """Measures reference_seconds() every `every` seconds of job time,
    called between jobs, and rescales job times by the measurements that
    bracket them."""

    def __init__(self, every):
        self.every = every
        self.marks = []     # (job time spent, reference seconds)

    def __call__(self, spent):
        " before a job: measure if `every` seconds of jobs ran since the last "
        if not self.marks or spent - self.marks[-1][0] >= self.every:
            self.marks.append((spent, reference_seconds()))
        return len(self.marks) - 1

    def close(self, spent):
        " after the last job: the closing measurement "
        self.marks.append((spent, reference_seconds()))

    def factor(self, mark):
        """REFERENCE_S over the mean reference time at the measurement
        before a job window and the one after it"""
        after = self.marks[min(mark + 1, len(self.marks) - 1)]
        return REFERENCE_S / ((self.marks[mark][1] + after[1]) / 2)

    def slowdown(self):
        " median reference time over REFERENCE_S: the machine's pace "
        return statistics.median(r for _, r in self.marks) / REFERENCE_S
