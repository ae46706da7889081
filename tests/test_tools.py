"""The pool tools: A/B passes equal checkouts and stops at a changed
output; the replay counts the jobs a warm-up takes and sums the pool's
job time."""

import importlib.util
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_POOL = os.path.join(ROOT, "tools", "ab_pool.py")
REPLAY_POOL = os.path.join(ROOT, "tools", "replay_pool.py")


def ab_pool(other, *flags):
    return subprocess.run([sys.executable, AB_POOL, str(other), "--workload", "global",
                           "--seed", "1", "--seconds", "0", "--repeat", "1"] + list(flags),
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_ab_pool_reports_each_kind_for_equal_checkouts():
    proc = ab_pool(ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "kind\tjobs\tother_s\tthis_s\tthis/other"
    kinds = {ln.split("\t")[0]: int(ln.split("\t")[1]) for ln in lines[1:]}
    assert kinds["all"] == kinds["per-job median"] == 200
    assert sum(n for k, n in kinds.items() if k not in ("all", "per-job median")) == 200
    assert {"poisson", "assemble"} <= set(kinds)


def test_ab_pool_stops_at_a_changed_output(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src", "gl2trace"), tmp_path / "src" / "gl2trace",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "gl2trace" / "cli.py"
    text = cli.read_text()
    assert text.count('"sum over H\\t%s"') == 1
    cli.write_text(text.replace('"sum over H\\t%s"', '"sum over H \\t%s"'))
    proc = ab_pool(tmp_path)
    assert proc.returncode == 1
    assert "(poisson) differs between the checkouts: poisson" in proc.stderr


def replay_pool(*flags):
    return subprocess.run([sys.executable, REPLAY_POOL, "--workload", "global",
                           "--seed", "1", "--seconds", "0"] + list(flags),
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_warmup_jobs_stops_once_the_sum_reaches_the_budget():
    spec = importlib.util.spec_from_file_location("replay_pool", REPLAY_POOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    times = [0.5, 0.25, 0.25, 1.0]
    assert [tool.warmup_jobs(times, s) for s in (0, 0.4, 0.5, 0.75, 1.0, 1.01, 9)] \
        == [0, 1, 1, 2, 3, 4, 4]
    assert tool.warmup_jobs([], 1.5) == 0


def test_replay_pool_prints_the_warmup_before_the_digest():
    proc = replay_pool("--warmup")
    assert proc.returncode == 0, proc.stderr
    head, pool, last = proc.stdout.splitlines()
    assert last.startswith("jobs 200 nonzero 0 sha256 ")
    word, n, of, m, jobs = head.split()
    assert (word, of, m, jobs) == ("warm-up", "of", "200", "jobs")
    assert 0 < int(n) <= 200
    # the pool's summed job time, next to the 1.5-s warm-up it must outlast
    words = pool.split()
    assert words[:3] + words[4:] == ["pool", "job", "time", "s,", "warm-up", "1.5", "s"]
    assert float(words[3]) > 0
