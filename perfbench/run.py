"""rackalg benchmark: one workload per run, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; it benchmarks the sources under `src/`.
With `--trace 0` the timed phase runs whole cycles of the workload's job
list, untraced, and the run reports the end-to-end metrics.  With
`--trace 1` untraced and traced cycles alternate, and the run reports the
per-layer metrics from the spans the benchmark records around its calls
into each rackalg module, plus the tracing overhead.  Every job's answer
is checked.  The last stdout line is the JSON result; the lines before it
say the same for a reader, and the run record and spans are written under
`.perfbench/`.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from harness import NullTracer, Tracer, job_stats, layer_totals, pin_to_fastest_cpu, run_cycles

ROOT = os.getcwd()
WORKDIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 120
MIN_JOBS = 20  # the tail percentile needs ten samples beyond it and a median
MIN_CYCLES = 2  # every job runs twice, so each CLI command's stdout is compared once
MIN_TRACE_PAIRS = 3  # the tracing overhead compares per-job medians over these

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# spans reported with .calls, .busy_s and .self_s
SPANS = (
    "freealg.groebner",
    "freealg.normal_form",
    "freealg.audit_obstructions",
    "freealg.quotient_dim",
    "freealg.hilbert_series",
    "freealg.is_trivial_quotient",
    "braided.make_braiding",
    "braided.quantum_symmetrizer",
    "linalg.rank_bareiss",
    "deform.sample_params",
    "deform.build_deformed_ideal",
    "deform.is_admissible",
    "deform.zero_parameter_dim",
    "grouprealize.builtin_realization",
    "grouprealize.validate_principal",
    "grouprealize.dual_braiding_check",
    "grouprealize.comatrix_action_audit.pointed",
    "grouprealize.comatrix_action_audit.copointed",
    "grouprealize.theta_characters",
    "grouprealize.smash",
    "grouprealize.associativity_audit",
    "quadrel.quadratic_ideal",
    "bench.job",
)

# counts reported as they are, per set-up plus one cycle
COUNTS = {
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main.overhead_s": "s",
    "cli.main.handler_s": "s",
    "freealg.groebner.basis_size": "count",
    "freealg.normal_words": "count",
    "braided.quantum_symmetrizer.rows": "count",
    "braided.quantum_symmetrizer.nnz": "count",
    "grouprealize.checked": "count",
    "quadrel.quadratic_ideal.relations": "count",
}

# spans summed into one layer figure, reported with .calls and .busy_s
GROUPS = {
    "cli.main": ("cli.main",),
    "freealg.counting": ("freealg.quotient_dim", "freealg.hilbert_series"),
    "quadrel.param_spaces": ("quadrel.pointed_lambda_space", "quadrel.copointed_lambda_space"),
    "rack": ("rack.builtin_rack", "rack.transposition_rack"),
    "cocycle": ("cocycle.builtin_cocycle", "cocycle.constant_cocycle"),
    "bench.setup": ("bench.setup",),
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for span in SPANS:
        names[span + ".calls"] = "count"
        names[span + ".busy_s"] = "s"
        names[span + ".self_s"] = "s"
    names.update(COUNTS)
    for group in GROUPS:
        names[group + ".calls"] = "count"
        names[group + ".busy_s"] = "s"
    names["bench.setup.self_s"] = "s"
    names["freealg.groebner.truncated_ratio"] = "ratio"
    names["deform.admissible_ratio"] = "ratio"
    names["grouprealize.ok_ratio"] = "ratio"
    names["trace.untraced_cycle_s"] = "s"
    names["trace.traced_cycle_s"] = "s"
    names["trace.overhead_ratio"] = "ratio"
    names["trace.cycles"] = "count"
    return names


def layer_metrics(tracer, untraced_s, traced_s, pairs):
    """Per-layer figures for one set-up plus one cycle of jobs.  The
    cycle times are robust ones (see `job_stats`) over `pairs` untraced
    and `pairs` traced cycles."""
    totals, counts = layer_totals(tracer, pairs)
    zero = {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0}
    values = {}
    for span in SPANS:
        for key, value in totals.get(span, zero).items():
            values[span + "." + key] = value
    for name in COUNTS:
        values[name] = counts.get(name, 0.0)
    for group, members in GROUPS.items():
        picked = [totals[name] for name in members if name in totals]
        values[group + ".calls"] = sum(t["calls"] for t in picked)
        values[group + ".busy_s"] = sum(t["busy_s"] for t in picked)
    values["bench.setup.self_s"] = totals.get("bench.setup", zero)["self_s"]
    values["freealg.groebner.truncated_ratio"] = _ratio(
        counts.get("freealg.groebner.truncated", 0), values["freealg.groebner.calls"]
    )
    values["deform.admissible_ratio"] = _ratio(
        counts.get("deform.admissible", 0), counts.get("deform.points", 0)
    )
    values["grouprealize.ok_ratio"] = _ratio(
        counts.get("grouprealize.ok", 0), counts.get("grouprealize.audits", 0)
    )
    values["trace.untraced_cycle_s"] = untraced_s
    values["trace.traced_cycle_s"] = traced_s
    values["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    values["trace.cycles"] = pairs
    units = per_layer_names()
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def measure_setup(workload, seed):
    """Median, over fresh processes, of the time from launch until the
    first timed job could start."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr.decode()[-2000:])
        ready = json.loads(proc.stdout.decode().splitlines()[-1])["ready"]
        samples.append(ready - t0)
    return statistics.median(samples), samples


def cycles_for(seconds, work):
    """Whole cycles that fill `seconds` at the workload's nominal cycle
    time, MIN_CYCLES at least, and enough for MIN_JOBS jobs.  The count
    depends on the arguments alone, not on how fast the code runs, so the
    job count, and with it the tail percentile, is the same on every
    commit."""
    fit = int(seconds / work.nominal_cycle_s)
    return max(fit, MIN_CYCLES, math.ceil(MIN_JOBS / len(work.jobs)))


def peak_rss_mb(workload):
    """Peak resident memory of the processes that ran the jobs: the CLI
    children for cli-suite, this process otherwise (ru_maxrss is in KiB)."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-suite" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _report_failures(results):
    failures = [r for r in results if not r.ok]
    for r in failures[:10]:
        print("FAILED %s: %s" % (r.label, r.error), file=sys.stderr)
    if len(failures) > 10:
        print("... %d more failures" % (len(failures) - 10), file=sys.stderr)


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rackalg", "__init__.py")):
        print("perfbench: no rackalg sources in %s; run from the repository root" % src,
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads  # needs rackalg on the path

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    setup = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        setup(args.seed, NullTracer(), ROOT, WORKDIR)
        print(json.dumps({"ready": time.perf_counter()}))
        return 0

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    pins = []

    def before_cycle():
        if len(cpus) > 1:
            pins.append(pin_to_fastest_cpu(cpus))

    before_cycle()
    tracer = Tracer() if args.trace else NullTracer()
    work = tracer.call("bench.setup", setup, args.seed, tracer, ROOT, WORKDIR)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "input_size": work.input_size,
        "jobs_per_cycle": len(work.jobs),
        "client": "one process, one client, closed loop",
        "cpus": cpus,
    }
    if args.trace:
        # untraced and traced cycles of the same jobs alternate, and every
        # other pair runs the traced cycle first, so order effects cancel
        pairs = max(MIN_TRACE_PAIRS, int(args.seconds / (2 * work.nominal_cycle_s)))
        null = NullTracer()
        tracers = [t for i in range(pairs) for t in ((null, tracer) if i % 2 == 0 else (tracer, null))]
        results, walls = run_cycles(work.jobs, tracers, before_cycle)
        n = len(work.jobs)
        by_cycle = [results[i * n:(i + 1) * n] for i in range(2 * pairs)]

        def robust_cycle_s(enabled):
            picked = [c for t, c in zip(tracers, by_cycle) if t.enabled == enabled]
            return job_stats([r for c in picked for r in c])["cycle_s"]

        untraced, traced = robust_cycle_s(False), robust_cycle_s(True)
        metrics = layer_metrics(tracer, untraced, traced, pairs)
        record.update(cycle_traced=[t.enabled for t in tracers], cycles_s=walls)
        spans_path = os.path.join(WORKDIR, "spans-%s-%d.json" % (args.workload, args.seed))
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.span_records(), fh)
        print("spans: %d written to %s" % (len(tracer.spans), spans_path))
        print("tracing overhead: %+.1f%% (robust cycle %.3fs untraced, %.3fs traced, %d pairs)"
              % (100 * metrics["trace.overhead_ratio"]["value"], untraced, traced, pairs))
    else:
        cycles = cycles_for(args.seconds, work)
        results, walls = run_cycles(work.jobs, [tracer] * cycles, before_cycle)
        elapsed = sum(walls)
        rss = peak_rss_mb(args.workload)  # before the set-up probes add children
        setup_s, setup_samples = measure_setup(args.workload, args.seed)
        stats = job_stats(results)
        metrics = {
            "setup_s": setup_s,
            "jobs_per_s": stats["jobs_per_s"],
            "job_p50_s": stats["job_p50_s"],
            "ok_ratio": 1.0 - stats["failed"] / stats["attempted"],
            "peak_rss_mb": rss,
        }
        if stats["tail"] is not None:
            metrics["job_tail_s"] = stats["tail"][1]
        metrics = {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
            if name in metrics
        }
        record.update(cycles=cycles, elapsed_s=elapsed, robust_cycle_s=stats["cycle_s"],
                      setup_samples_s=setup_samples)
        tail = stats["tail"]
        print("jobs: %d attempted, %d failed, failed_ratio %.4f, %d cycles in %.2fs"
              % (stats["attempted"], stats["failed"], stats["failed"] / stats["attempted"],
                 cycles, elapsed))
        if tail is None:
            print("job_tail_s omitted: fewer than %d jobs" % MIN_JOBS)
        else:
            print("job_tail_s is p%.2f over %d samples" % (tail[0], stats["attempted"]))
            record.update(tail_percentile=tail[0], tail_samples=stats["attempted"])
        print("setup_s is the median of %d fresh processes: %s"
              % (len(setup_samples), ", ".join("%.3f" % s for s in setup_samples)))

    attempted = len(results)
    failed = sum(1 for r in results if not r.ok)
    _report_failures(results)
    record.update(attempted=attempted, failed=failed, metrics=metrics, cpu_per_cycle=pins,
                  failures=[[r.label, r.error] for r in results if not r.ok][:50])
    with open(os.path.join(WORKDIR, "run-%s-%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    print("%s seed %d: nproc %s, python %s, CPU per cycle %s, %s"
          % (args.workload, args.seed, record["nproc"], record["python"], pins, work.input_size))
    for name, m in metrics.items():
        if name in END_TO_END_UNITS:
            print("  %-14s %12.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
