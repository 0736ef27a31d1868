#!/usr/bin/env python3
"""Summarize and compare slfe_bench runs against the bounds in BENCHMARK.json.

Both modes read the per-run records that run.py leaves in
.bench_build/results/ (one JSON file per run).

  repeat  FILE...            Runs of one commit: median and quartiles per
          [--write OUT]      (workload, metric). Flags every end-to-end
                             metric whose spread (IQR / median) exceeds its
                             bound. --write saves the summary as JSON (the
                             form of the committed BENCH_slfe.json).

  compare --parent FILE...   Paired runs of a parent and a change, given in
          --change FILE...   the order they were paired (run each pair in
                             alternating order). Per workload and end-to-end
                             metric: a gain needs at least 10 pairs, a win in
                             9 of 10 of them, a median difference larger
                             than the parent's IQR and no more failed
                             operations than the parent; a regression is a
                             change median worse than the parent's by more
                             than the bound; a metric whose parent spread
                             exceeds the bound is unresolved unless every
                             change run beats every parent run.

Exit status 1 when repeat flags a spread or compare finds a regression.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def group(runs):
    """{(workload, traced): {metric: [values in run order]}}"""
    out = {}
    for run in runs:
        key = (run["workload"], bool(run["trace"]))
        metrics = out.setdefault(key, {})
        for name, m in run["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def repeat(args, spec):
    runs = load_runs(args.files)
    flagged = False
    summary = {"bench": "slfe", "host": runs[0]["host"],
               "scale_divisor": runs[0]["scale_divisor"],
               "seconds": runs[0]["seconds"], "workloads": {}}
    print("%-13s %-27s %3s %12s %12s %12s %7s %6s" % (
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound"))
    for (workload, traced), metrics in sorted(group(runs).items()):
        side = summary["workloads"].setdefault(workload, {})
        rows = side.setdefault("traced" if traced else "untraced", {})
        seeds = sorted({r["seed"] for r in runs
                        if r["workload"] == workload and r["trace"] == traced})
        rows["seeds"] = seeds
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            s = spread(values)
            m = spec.get(name, {})
            bound = m.get("bound")
            mark = ""
            if not traced and bound is not None and len(values) > 1:
                if s > bound and name != "setup_s":
                    mark = "OVER"
                    flagged = True
                elif s > bound / 3:
                    mark = "wide"
            rows[name] = {"n": len(values), "q1": q1, "median": med, "q3": q3,
                          "unit": m.get("unit", "")}
            print("%-13s %-27s %3d %12.5g %12.5g %12.5g %7.4f %6s %s" % (
                workload, name, len(values), q1, med, q3, s,
                "" if bound is None else bound, mark))
        if traced:
            side["rr_pairs"] = [r["rr_pairs"] for r in runs
                                if r["workload"] == workload and r["trace"]][-1]
    if args.write:
        with open(args.write, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if flagged else 0


def better(name, spec, a, b):
    """True when value a is better than value b for metric `name`."""
    return a < b if spec[name]["better"] == "lower" else a > b


def compare(args, spec):
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    if len(parent) != len(change):
        sys.exit("check.py: --parent and --change need the same run count")
    pairs = {}
    for p, c in zip(parent, change):
        if p["workload"] != c["workload"] or p["trace"] or c["trace"]:
            sys.exit("check.py: pair %s/%s is not two untraced runs of one "
                     "workload" % (p["workload"], c["workload"]))
        pairs.setdefault(p["workload"], []).append((p, c))
    regressed = False
    print("%-13s %-18s %5s %12s %12s %10s %6s  %s" % (
        "workload", "metric", "pairs", "parent", "change", "parentIQR",
        "wins", "verdict"))
    for workload, runs in sorted(pairs.items()):
        # A gain does not count when more operations fail than at the parent.
        more_failed = (sum(c["failed"] for _, c in runs)
                       > sum(p["failed"] for p, _ in runs))
        for name, m in spec.items():
            if "bound" not in m:
                continue
            pv = [p["metrics"][name]["value"] for p, _ in runs]
            cv = [c["metrics"][name]["value"] for _, c in runs]
            pq1, pmed, pq3 = quartiles(pv)
            _, cmed, _ = quartiles(cv)
            wins = sum(better(name, spec, c, p) for p, c in zip(pv, cv))
            worse_by = cmed - pmed if m["better"] == "lower" else pmed - cmed
            if worse_by > m["bound"] * pmed:
                verdict = "REGRESSION"
                regressed = True
            elif spread(pv) > m["bound"] and not all(
                    better(name, spec, c, p) for c in cv for p in pv):
                verdict = "unresolved"
            elif (len(runs) >= 10 and wins >= 0.9 * len(runs)
                  and better(name, spec, cmed, pmed)
                  and abs(cmed - pmed) > pq3 - pq1 and not more_failed):
                verdict = "gain"
            else:
                verdict = "no change"
            if len(runs) < 10 and verdict == "no change":
                verdict += " (fewer than 10 pairs)"
            print("%-13s %-18s %5d %12.5g %12.5g %10.4g %3d/%-2d  %s" % (
                workload, name, len(runs), pmed, cmed, pq3 - pq1, wins,
                len(runs), verdict))
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    rep = sub.add_parser("repeat")
    rep.add_argument("files", nargs="+")
    rep.add_argument("--write")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("--parent", nargs="+", required=True)
    cmp_.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    spec = load_spec()
    return repeat(args, spec) if args.mode == "repeat" else compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
