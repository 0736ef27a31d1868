#!/usr/bin/env python3
"""Build and run the SLFE end-to-end benchmark (see README.md).

One run of one workload; the last line of stdout is the result JSON:

  python3 slfebench/run.py --workload arith-batch --seed 1 --seconds 20 --trace 0

Every workload once, shortened and on 16x smaller datasets, with all
correctness checks on (exit status 0 only if every run is correct):

  python3 slfebench/run.py --smoke

The benchmark builds from the sources next to this directory into
.bench_build/slfebench. Each run also leaves its full record (host, build,
per-pair RR panel, span self times) in .bench_build/results/ and, when
traced, its spans in .bench_build/spans/.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("arith-batch", "minmax-batch", "mutate-query", "serve-mixed")
SMOKE_SECONDS = 1.0  # 1/20 of the benchmark's run_seconds
SMOKE_SCALE = 16


def build():
    """Configures on first use, then (re)builds slfe_bench; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "slfe"))):
        sys.exit("run.py: no SLFE sources next to slfebench/ "
                 "(expected CMakeLists.txt and src/slfe/)")
    build_dir = os.path.join(OUT, "slfebench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "slfe_bench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))
    return os.path.join(build_dir, "slfe_bench")


def command(binary, workload, seed, seconds, trace, scale=None):
    tag = "%s-seed%d" % (workload, seed)
    args = [binary, "--workload=" + workload, "--seed=%d" % seed,
            "--seconds=%s" % seconds, "--trace=%d" % trace,
            "--out=" + os.path.join(OUT, "results",
                                    "%s-trace%d.json" % (tag, trace))]
    if trace:
        args.append("--spans=" + os.path.join(OUT, "spans", tag + ".json"))
    if scale is not None:
        args.append("--scale=%d" % scale)
    return args


def smoke(binary):
    ok = True
    for workload in WORKLOADS:
        run = subprocess.run(command(binary, workload, 1, SMOKE_SECONDS, 1,
                                     SMOKE_SCALE),
                             stdout=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        good = run.returncode == 0 and result.get("correct") is True
        print("smoke %-13s %s attempted=%s failed=%s" % (
            workload, "ok" if good else "FAILED", result.get("attempted"),
            result.get("failed")))
        ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    binary = build()
    for sub in ("results", "spans"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    if args.smoke:
        return smoke(binary)
    sys.stdout.flush()
    return subprocess.run(command(binary, args.workload, args.seed,
                                  args.seconds, args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
