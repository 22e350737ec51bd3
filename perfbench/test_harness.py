"""Self-tests for the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py

They check that every failure mode of a job lands in the failed count,
that the tail percentile is the highest one with ten samples beyond it,
how self time is derived, and that the metric names the run prints are
the ones BENCHMARK.json declares.
"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from harness import CheckFailed, NullTracer, Tracer, expect  # noqa: E402


@pytest.mark.parametrize("n", [20, 21, 37, 100, 101, 999, 1000, 2500])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n):
    samples = [i / 7 for i in range(n)]
    random.Random(n).shuffle(samples)
    pct, value = harness.tail_percentile(samples)
    ordered = sorted(samples)
    assert sum(1 for s in samples if s > value) == 10
    # nearest rank: the p-th percentile is the ceil(p n / 100)-th value
    rank = round(pct * n / 100)
    assert rank == pytest.approx(pct * n / 100) and ordered[rank - 1] == value
    # the next rank up, the lowest any higher percentile can pick, has nine
    assert sum(1 for s in samples if s > ordered[rank]) == 9


def test_tail_percentile_needs_twenty_samples():
    assert harness.tail_percentile([0.1] * 19) is None
    assert harness.tail_percentile([0.1] * 20) == (50.0, 0.1)


def _ok(tr):
    tr.count("jobs")


def _wrong_value(tr):
    expect(2 + 2, 5, "sum")


def _raises(tr):
    raise ZeroDivisionError("boom")


def _cli_env_and_dir(tmp_path):
    return workloads.cli_env(ROOT), str(tmp_path)


def test_wrong_value_exception_and_exit_code_are_failures(tmp_path):
    env, cwd = _cli_env_and_dir(tmp_path)
    bad_exit = workloads.cli_job(["rack", "props", "--rack", "missing"], None, env, cwd)
    jobs = [("ok", _ok), ("wrong", _wrong_value), ("raises", _raises), ("exit", bad_exit)]
    results = harness.run_cycle(jobs, NullTracer(), 0)
    assert [r.ok for r in results] == [True, False, False, False]
    assert "CheckFailed" in results[1].error
    assert "ZeroDivisionError" in results[2].error
    assert "exit code" in results[3].error
    stats = harness.job_stats(results)
    assert (stats["attempted"], stats["failed"]) == (4, 3)
    assert stats["jobs_per_s"] == pytest.approx(1 / sum(r.wall_s for r in results))


def test_cli_report_check_failure_is_a_failure(tmp_path):
    env, cwd = _cli_env_and_dir(tmp_path)
    job = workloads.cli_job(["rack", "props", "--rack", "o24"],
                            lambda r: expect(r["n"], 7, "rack size"), env, cwd)
    result = harness.run_cycle([("props", job)], NullTracer(), 0)[0]
    assert not result.ok and "rack size" in result.error


def test_stdout_must_be_byte_identical_across_runs(tmp_path):
    env, cwd = _cli_env_and_dir(tmp_path)
    noisy = [sys.executable, "-c", "import os; print(os.urandom(8).hex())"]
    job = workloads.cli_job(["noisy"], None, env, cwd, command=noisy)
    steady = workloads.cli_job(["steady"], None, env, cwd, command=[sys.executable, "-c", "print(1)"])
    jobs = [("noisy", job), ("steady", steady)]
    first = harness.run_cycle(jobs, NullTracer(), 0)
    second = harness.run_cycle(jobs, NullTracer(), 1)
    assert [r.ok for r in first] == [True, True]
    assert [r.ok for r in second] == [False, True]
    assert "differs" in second[0].error


def test_traced_cli_job_records_probe_spans(tmp_path):
    env, cwd = _cli_env_and_dir(tmp_path)
    job = workloads.cli_job(["rack", "props", "--rack", "o24"],
                            lambda r: expect(r["n"], 6, "rack size"), env, cwd)
    tracer = Tracer()
    assert harness.run_cycle([("props", job)], tracer, 0)[0].ok
    names = [s[0] for s in tracer.spans]
    assert names == ["bench.job", "cli.process", "cli.interpreter", "cli.import", "cli.main"]
    start, end = tracer.spans[1][1:3]
    for name, lo, hi, parent, job_id in tracer.spans[2:]:
        assert parent == 1 and start <= lo <= hi <= end
    assert tracer.counts["cli.main.handler_s"][1] >= 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["parent", 0.0, 10.0, None, "j"],
        ["a", 1.0, 3.0, 0, "j"],
        ["b", 2.0, 4.0, 0, "j"],  # overlaps a: counted once
        ["c", 6.0, 7.0, 0, "j"],
        ["grandchild", 6.2, 6.5, 3, "j"],  # not the parent's child
    ]
    assert harness.self_times(spans) == pytest.approx([6.0, 2.0, 2.0, 0.7, 0.3])


def test_layer_totals_count_setup_once_and_jobs_per_cycle():
    tracer = Tracer()
    tracer.call("layer.f", lambda: None)
    tracer.count("n", 5)
    for cycle in range(2):
        tracer.job = "%d:0:x" % cycle
        tracer.call("layer.f", lambda: None)
        tracer.count("n", 3)
    tracer.job = harness.SETUP_JOB
    totals, counts = harness.layer_totals(tracer, cycles=2)
    assert totals["layer.f"]["calls"] == 2.0  # one set-up call + one per cycle
    assert counts["n"] == 8.0


def test_spans_nest_and_carry_the_job_id():
    tracer = Tracer()
    tracer.job = "0:0:x"
    tracer.call("outer", lambda: tracer.call("inner", lambda: None))
    (outer, inner) = tracer.span_records()
    assert outer["parent"] is None and inner["parent"] == outer["id"]
    assert outer["job"] == inner["job"] == "0:0:x"
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == run.per_layer_names()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_report_every_declared_name():
    tracer = Tracer()
    metrics = run.layer_metrics(tracer, untraced_s=1.0, traced_s=1.1, pairs=3)
    assert set(metrics) == set(run.per_layer_names())
    assert metrics["trace.overhead_ratio"]["value"] == pytest.approx(0.1)


def test_throughput_takes_each_jobs_median_across_cycles():
    R = harness.JobResult
    results = [R(0, "a", 1.0, True, None), R(1, "b", 2.0, True, None),
               R(0, "a", 1.0, True, None), R(1, "b", 8.0, True, None),  # slow stretch
               R(0, "a", 1.0, True, None), R(1, "b", 2.0, False, "x")]
    stats = harness.job_stats(results)
    assert stats["cycle_s"] == 3.0
    assert stats["jobs_per_s"] == pytest.approx(5 / 6 * 2 / 3.0)


def test_check_failed_is_an_assertion():
    with pytest.raises(CheckFailed):
        expect([1], [2], "lists")
