"""Harness pieces shared by every workload: span tracing, statistics and
the closed-loop job runner.

A workload is a set-up function plus an ordered list of jobs.  A job is a
`(label, fn)` pair; `fn(tracer)` does the work, checks the answer and
raises on any failure.  One pass over the list is a cycle.  Load comes
from one client in a closed loop: the next job starts when the previous
one has finished.
"""

import math
import os
import statistics
import time

SETUP_JOB = "setup"


class CheckFailed(AssertionError):
    """A job produced an answer that differs from the expected one."""


def expect(actual, expected, what):
    if actual != expected:
        raise CheckFailed("%s: got %r, expected %r" % (what, actual, expected))


class NullTracer:
    """Tracer used for the untraced runs: calls straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value=1):
        pass


class Tracer:
    """Records spans in memory: name, start, end, parent span, job id.

    Spans are opened by the benchmark around its own calls into the
    program's public functions; nothing inside the program is touched.
    Counts recorded while a job runs are kept apart from set-up counts so
    that job counts can be reported per cycle.
    """

    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job]
        self.counts = {}  # name -> [set-up total, job total]
        self.job = SETUP_JOB
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def add_span(self, name, start, end, parent=None):
        """Record a span measured elsewhere (for example in a child
        process); the parent defaults to the innermost open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append([name, start, end, parent, self.job])
        return len(self.spans) - 1

    def count(self, name, value=1):
        slot = self.counts.setdefault(name, [0, 0])
        slot[0 if self.job == SETUP_JOB else 1] += value

    def span_records(self):
        """Spans as dicts with their self time, for writing out."""
        selfs = self_times(self.spans)
        return [
            {
                "id": i,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "job": job,
                "self_s": selfs[i],
            }
            for i, (name, start, end, parent, job) in enumerate(self.spans)
        ]


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for name, start, end, parent, job in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, job) in enumerate(spans):
        clipped = [
            (max(lo, start), min(hi, end))
            for lo, hi in children[i]
            if min(hi, end) > max(lo, start)
        ]
        out.append((end - start) - _union_length(clipped))
    return out


def layer_totals(tracer, cycles):
    """Per-span-name calls, busy and self time, and counts, for one set-up
    plus one cycle of jobs: job totals are divided by the cycle count."""
    selfs = self_times(tracer.spans)
    totals = {}
    for (name, start, end, parent, job), self_s in zip(tracer.spans, selfs):
        share = 1.0 if job == SETUP_JOB else 1.0 / cycles
        slot = totals.setdefault(name, {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0})
        slot["calls"] += share
        slot["busy_s"] += (end - start) * share
        slot["self_s"] += self_s * share
    counts = {
        name: setup_total + job_total / cycles
        for name, (setup_total, job_total) in tracer.counts.items()
    }
    return totals, counts


def tail_percentile(samples):
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (percentile, value), or None when fewer than twenty samples
    exist, since the percentile would then fall below the median.
    """
    n = len(samples)
    if n < 20:
        return None
    rank = n - 10  # 1-based rank of the value; ten samples lie above it
    return 100.0 * rank / n, sorted(samples)[rank - 1]


class JobResult:
    __slots__ = ("index", "label", "wall_s", "ok", "error")

    def __init__(self, index, label, wall_s, ok, error):
        self.index = index
        self.label = label
        self.wall_s = wall_s
        self.ok = ok
        self.error = error


def run_cycle(jobs, tracer, cycle):
    """Run every job once, in order; a job fails when it raises."""
    results = []
    for i, (label, fn) in enumerate(jobs):
        tracer.job = "%d:%d:%s" % (cycle, i, label)
        t0 = time.perf_counter()
        try:
            tracer.call("bench.job", fn, tracer)
            ok, error = True, None
        except Exception as exc:  # every failure mode of a job counts
            ok, error = False, "%s: %s" % (type(exc).__name__, exc)
        results.append(JobResult(i, label, time.perf_counter() - t0, ok, error))
    tracer.job = SETUP_JOB
    return results


def pin_to_fastest_cpu(cpus):
    """Pin this process, and so every process it starts later, to the CPU
    of `cpus` that runs a fixed calibration loop fastest right now.

    On a shared virtual machine one vCPU can run half again as slow as
    the other for seconds to minutes at a time.  Choosing again before
    every cycle keeps a run from measuring which vCPU the scheduler
    happened to pick.  `cpus` is the affinity set read before any
    pinning.  Returns the chosen CPU.
    """
    best = {}
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            acc = 0
            for i in range(100_000):
                acc += i * i % 7
            best[cpu] = min(best.get(cpu, math.inf), time.perf_counter() - t0)
    chosen = min(best, key=best.get)
    os.sched_setaffinity(0, {chosen})
    return chosen


def run_cycles(jobs, tracers, before_cycle):
    """One cycle of the job list per entry of `tracers`, traced by it;
    `before_cycle()` runs, untimed, before each.  Returns the job results
    and each cycle's wall time."""
    results = []
    walls = []
    for cycle, tracer in enumerate(tracers):
        before_cycle()
        t0 = time.perf_counter()
        results += run_cycle(jobs, tracer, cycle)
        walls.append(time.perf_counter() - t0)
    return results, walls


def job_stats(results):
    """End-to-end figures over whole cycles.

    Throughput is the share of correct jobs times the jobs in a cycle over
    a robust cycle time: the sum, over the cycle's jobs, of each job's
    median wall time across cycles.  Without noise that is correct jobs
    over elapsed time; on a shared machine it keeps one slow stretch from
    moving the figure.
    """
    walls = [r.wall_s for r in results]
    correct = sum(1 for r in results if r.ok)
    by_job = {}
    for r in results:
        by_job.setdefault(r.index, []).append(r.wall_s)
    cycle_s = sum(statistics.median(v) for v in by_job.values())
    return {
        "attempted": len(results),
        "failed": len(results) - correct,
        "cycle_s": cycle_s,
        "jobs_per_s": correct / len(results) * len(by_job) / cycle_s,
        "job_p50_s": statistics.median(walls),
        "tail": tail_percentile(walls),
    }
