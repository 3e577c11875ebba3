#!/usr/bin/env python3
"""Engine benchmark: builds fastft from source, runs one workload, prints metrics.

    python3 perfbench/run.py --workload explore|eval_bound \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (and with it ../src) under .bench_build/, or under
$CARGO_TARGET_DIR when that is set. The runner engine_bench then runs the
workload closed-loop for S seconds; with --trace 1 it adds three traced
runs and the layer probes. Summary lines go to stdout first; the last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import derive

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explore", "eval_bound")
# engine_bench must finish well inside the 180 s the caller allows a run.
RUNNER_TIMEOUT_S = 170


def build(build_root):
    """Configures and builds engine_bench; returns its path."""
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "--target", "engine_bench", "-j", jobs]):
        subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "engine_bench")


def drive(binary, args, work_dir):
    """Runs engine_bench and returns its span records."""
    completed = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", work_dir],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, check=True,
        timeout=RUNNER_TIMEOUT_S)
    return [json.loads(line) for line in completed.stdout.splitlines()
            if line.startswith("{")]


def report(args, invocation):
    """Prints the summary lines and returns the metrics object."""
    print("workload %s seed %d: input 0 digest %s; %d runs over %d inputs; "
          "%d of %d operations failed" % (
              args.workload, args.seed, invocation.reference,
              len(invocation.spans["core/run"]), len(invocation.references),
              invocation.failed, invocation.attempted))
    for operation, check in invocation.failures:
        print("FAILED %s: %s" % (operation, check))
    if args.trace == 0:
        metrics = invocation.end_to_end()
        if metrics is None:
            return {name: {"value": 0.0, "unit": unit}
                    for name, unit in derive.END_TO_END.items()}
        spin = derive.summarize(r["spin_ms"] for r in invocation.spans["core/run"])
        for name, (value, s) in dict(metrics, **{"host.spin_ms": (spin.median, spin)}).items():
            print("%-14s %-11.6g median %.6g  q1 %.6g  q3 %.6g  n=%d" % (
                name, value, s.median, s.q1, s.q3, s.n))
        return {name: {"value": metrics[name][0], "unit": unit}
                for name, unit in derive.END_TO_END.items()}
    values, phases = invocation.per_layer()
    if values is None:
        return {name: {"value": 0.0, "unit": unit}
                for name, unit in derive.PER_LAYER.items()}
    traced_run_s = values["core.engine.traced_run_s"]
    print("phase accounting of the traced runs (%.4f s):" % traced_run_s)
    for phase, (busy, calls) in sorted(phases.items(), key=lambda p: -p[1][0]):
        print("  %-16s %9.4f s  %5.1f%%  calls %d" % (
            phase, busy, 100.0 * busy / traced_run_s, calls))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in derive.PER_LAYER.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root)
        work_dir = tempfile.mkdtemp(prefix="work-", dir=build_root)
        try:
            records = drive(binary, args, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        invocation = derive.Invocation(records)
        metrics = report(args, invocation)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError,
            derive.AccountingError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": invocation.failed == 0,
        "attempted": invocation.attempted,
        "failed": invocation.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
