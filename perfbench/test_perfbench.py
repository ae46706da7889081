"""Tests of the benchmark itself: run them with

    python3 -m pytest perfbench

Tiny runs of every workload must verify every job, and a tampered output
must be counted as a failure rather than pass silently.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import checks, run, speed, trace, workloads

sys.path.insert(0, run.SRC)
from gl2trace import cli  # noqa: E402

BENCH = os.path.join(run.ROOT, "perfbench", "run.py")


def _bench(*args, cwd=run.ROOT):
    out = subprocess.run([sys.executable, BENCH] + list(args), cwd=cwd,
                         capture_output=True, text=True, timeout=170)
    return out.returncode, out.stdout


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_verifies_every_job(workload):
    rc, stdout = _bench("--workload", workload, "--seed", "7",
                        "--seconds", "0.3", "--trace", "0")
    assert rc == 0
    res = json.loads(stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == run.END_TO_END
    assert res["metrics"]["verified_frac"]["value"] == 1.0
    assert "failed_frac 0 " in stdout


def test_tiny_traced_run_emits_every_layer_metric():
    rc, stdout = _bench("--workload", "trace", "--seed", "3",
                        "--seconds", "0.5", "--trace", "1")
    assert rc == 0
    res = json.loads(stdout.strip().splitlines()[-1])
    assert res["correct"]
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] \
        == trace.LAYER_METRICS
    assert res["metrics"]["cli.l-factor.calls"]["value"] >= 1


def test_benchmark_json_matches_emitted_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == trace.LAYER_METRICS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "algebra", "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=170)
    assert out.returncode != 0 and "correct" not in out.stdout


def _jobs(workload, seed, count, tmp_path):
    return workloads.build(workload, seed, str(tmp_path / workload), count)


def _argvs(jobs, stream):
    return [[x.replace(stream.root, "") for x in j.argv] for j in jobs]


def test_same_seed_same_inputs(tmp_path):
    a, sa = _jobs("global", 5, 40, tmp_path / "a")
    b, sb = _jobs("global", 5, 40, tmp_path / "b")
    c, sc = _jobs("global", 6, 40, tmp_path / "c")
    assert _argvs(a, sa) == _argvs(b, sb) != _argvs(c, sc)
    assert [sa.files[p] for p in sa.files] == [sb.files[p] for p in sb.files]


def test_spectral_x_distinct_and_spread(tmp_path):
    jobs, _ = _jobs("spectral", 1, 60, tmp_path)
    xs = [int(j.argv[j.argv.index("--x") + 1]) for j in jobs]
    assert len(set(xs)) == len(xs)
    assert min(xs) >= 1000 and max(xs) <= 10000
    assert sum(x < 3162 for x in xs) in range(25, 36)  # log-uniform halves


def _tau_csv(x):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(["tau", "--x", str(x)]) == 0
    return buf.getvalue()


def test_tau_check_catches_one_altered_value():
    text = _tau_csv(300)
    checks.check_tau_csv(text, 300)
    for p, delta in ((101, 691), (13, 691), (293, 1)):
        rows = text.splitlines()
        i = next(k for k, r in enumerate(rows) if r.startswith("%d," % p))
        q, a = rows[i].split(",")
        rows[i] = "%s,%d" % (q, int(a) + delta)
        with pytest.raises(checks.CheckError):
            checks.check_tau_csv("\n".join(rows) + "\n", 300)


def _fake(rc=0, alter=None, boom=False):
    " a stand-in for cli.run that exits rc, raises, or edits the output "
    def fake_run(argv):
        if boom:
            raise RuntimeError("internal invariant")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        sys.stdout.write(alter(buf.getvalue()) if alter else buf.getvalue())
        return code if alter else rc
    return fake_run


def test_tampered_outputs_are_counted_as_failures(tmp_path):
    jobs, _ = _jobs("spectral", 2, 4, tmp_path)
    tau = [j for j in jobs if j.kind == "tau"][:1]
    assert tau
    good, _ = run.run_stream(cli.run, tau, float("inf"))
    assert good[0].error is None

    def bump_tau_5(out):
        return out.replace("\n5,4830\n", "\n5,4831\n")
    for fake in (_fake(rc=1), _fake(boom=True), _fake(alter=bump_tau_5)):
        results, _ = run.run_stream(fake, tau, float("inf"))
        assert len(results) == 1 and results[0].error


def test_missing_output_file_is_a_failure(tmp_path):
    jobs, _ = _jobs("algebra", 4, 12, tmp_path)
    job = next(j for j in jobs if j.kind == "convolve")
    assert run.run_job(cli.run, job).error is None

    def no_out(argv):
        return cli.run(argv[:argv.index("--out")])
    assert "wrote no" in run.run_job(no_out, job).error


def test_poisson_check_recomputes_sum_over_h(tmp_path):
    jobs, _ = _jobs("global", 3, 30, tmp_path)
    job = next(j for j in jobs if j.kind == "poisson")
    assert run.run_job(cli.run, job).error is None

    def forge(out):
        lines = out.splitlines()
        return "\n".join([ln + "1" for ln in lines[:2]] + lines[2:]) + "\n"
    assert "check failed" in run.run_job(_fake(alter=forge), job).error


def test_tracer_restores_every_binding():
    from gl2trace import hecke, kernels, spectral
    before = (cli.convolve, hecke.convolve, spectral.tau_table, kernels.tau_table,
              hecke.SymLaurent.__dict__["evaluate"])
    t = trace.Tracer()
    t.install()
    assert cli.convolve is not before[0] and spectral.tau_table is not before[2]
    assert cli.convolve is hecke.convolve
    t.uninstall()
    assert (cli.convolve, hecke.convolve, spectral.tau_table, kernels.tau_table,
            hecke.SymLaurent.__dict__["evaluate"]) == before


def test_self_time_subtracts_children():
    t = trace.Tracer()
    t.job_id = 0
    inner = t.wrap("inner")(lambda: sum(range(20000)))
    outer = t.wrap("outer")(lambda: inner() + inner())
    outer()
    selfs = t.self_times()
    names = [t.names[i] for i in t.name]
    assert names == ["outer", "inner", "inner"]
    assert list(t.parent) == [-1, 0, 0]
    dur = [t.end[i] - t.start[i] for i in range(3)]
    assert abs(selfs[0] - (dur[0] - dur[1] - dur[2])) < 1e-12
    assert selfs[1] == dur[1]


def test_gauge_rescales_each_job_by_the_readings_around_it(monkeypatch):
    readings = iter([2.0, 4.0, 6.0])
    monkeypatch.setattr(speed, "reference_seconds", lambda: next(readings))
    g = speed.Gauge(every=1.0)
    marks = [g(0.0), g(0.5), g(1.2)]    # the second job takes no reading
    g.close(2.0)
    assert marks == [0, 0, 1]
    ref = speed.REFERENCE_S
    assert g.factor(0) == ref / 3.0 and g.factor(1) == ref / 5.0
    assert g.slowdown() == 4.0 / ref


def test_rescaled_times_track_the_reference_not_the_clock(monkeypatch, tmp_path):
    jobs, _ = _jobs("algebra", 5, 3, tmp_path)
    monkeypatch.setattr(speed, "reference_seconds",
                        lambda: 2 * speed.REFERENCE_S)  # a machine at half speed
    results, _ = run.run_stream(cli.run, jobs, float("inf"),
                                gauge=speed.Gauge(0.0))
    for r in results:
        assert r.error is None and abs(r.scaled - r.seconds / 2) < 1e-12
