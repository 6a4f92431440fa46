#!/usr/bin/env python3
"""Builds the benchmark in Release and runs it.

Usage, from the repository root:
    python3 wcetbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 wcetbench/run.py --probe

The build goes to $CARGO_TARGET_DIR/wcetbench (default .bench_build) and
is incremental. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. A traced run (--trace 1)
writes its spans to <build dir>/traces/<workload>-seed<n>.json.
"""
import os
import subprocess
import sys


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(os.path.abspath(target), "wcetbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("wcetbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        traces = os.path.join(os.path.abspath(target), "traces")
        os.makedirs(traces, exist_ok=True)
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "1"
        args += ["--trace-out", os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    return subprocess.run([os.path.join(build, "wcetbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
