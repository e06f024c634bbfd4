#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 bench_e2e/run.py --workload wire_steady --seed 1 --seconds 24 \
        --trace 0 [--out run.json] [--trace-file trace.json]
    python3 bench_e2e/run.py --selftest

The first call configures and builds libalf, alf_served and the harness
(bench_e2e/CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build when it
is unset; later calls rebuild incrementally. Build output goes to stderr,
so the last line on stdout is the harness's result object. Exits with the
harness's code: non-zero when the build fails, an answer is wrong, a drain
check fails or a metric could not be measured.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire_steady", "wire_ladder", "engine_offline")


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "alf_e2e_bench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "alf_e2e_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the full run record here")
    ap.add_argument("--trace-file", help="trace-event JSON of a traced run")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    trace_file = args.trace_file or os.path.join(
        build_dir, f"trace-{args.workload or 'selftest'}-{args.seed}.json")
    if args.selftest:
        return selftest(exe, trace_file)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--workdir", os.path.join(build_dir, f"work-{os.getpid()}")]
    if args.trace:
        cmd += ["--trace-out", trace_file]
    if args.out:
        cmd += ["--record", os.path.abspath(args.out)]
    return subprocess.run(cmd, cwd=ROOT).returncode


def selftest(exe, trace_file):
    """The harness's own checks, then: its trace parses, and the metric
    names it emits are exactly the ones BENCHMARK.json declares."""
    run = subprocess.run([exe, "--selftest", "--trace-out", trace_file],
                         cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(run.stderr)
    print(run.stdout, end="")
    if run.returncode != 0:
        return run.returncode
    with open(trace_file) as f:
        events = json.load(f)["traceEvents"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    emitted = {"end_to_end": set(), "per_layer": set()}
    for line in run.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "metric":
            emitted[parts[1]].add(parts[2])
    bad = 0
    for kind, names in emitted.items():
        declared = {m["name"] for m in bench[kind]}
        for name in sorted(declared ^ names):
            where = "BENCHMARK.json" if name in declared else "the harness"
            print(f"selftest FAILED: {kind} metric {name} only in {where}",
                  file=sys.stderr)
            bad += 1
    if not events:
        print("selftest FAILED: empty trace", file=sys.stderr)
        bad += 1
    print("selftest (metric names, trace) " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
