#!/usr/bin/env python3
"""Runs the benchmark workloads N times and reports how steady each metric is.

    python3 perfbench/steadiness.py [--runs N] [--workloads a,b,...]
        [--seed-base K] [--with-trace]

Run from the root of a checkout. Every run lasts run_seconds from
BENCHMARK.json, the length the bounds apply to. Run i uses seed K + i; the
workload order alternates between runs (forward, then reversed), so a slow
spell of the host does not always land on the same workload. For every
end-to-end metric of every workload it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json. It also
prints the informational figures of each run (per-mode MIPS, campaign
coverage runs) the same way, and the share of failed operations.

With --with-trace every untraced run is followed by a traced run of the same
workload and seed; the tracing overhead is reported as the relative drop of
the traced run's sim_mips from the untraced run's, medians over the runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    output = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            check=True).stdout.splitlines()
    result = json.loads(output[-1])
    info = {}
    for line in output:
        for prefix in ("# info ", "# traced "):
            if line.startswith(prefix):
                info = json.loads(line[len(prefix):])
    return result, info


def describe(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else float("nan")
    return median, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--with-trace", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as file:
        spec = json.load(file)
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            seed = args.seed_base + i
            result, info = run_once(workload, seed, seconds, 0)
            traced = run_once(workload, seed, seconds, 1) if args.with_trace \
                else (None, {})
            runs[workload].append({"seed": seed, "result": result,
                                   "info": info, "traced": traced[0],
                                   "traced_info": traced[1]})
            print(f"# run {i} {workload} seed={seed}: "
                  + json.dumps(result["metrics"]), file=sys.stderr)

    print(f"{'workload':16} {'metric':36} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for workload, records in runs.items():
        metrics = records[0]["result"]["metrics"]
        for name in metrics:
            values = [r["result"]["metrics"][name]["value"] for r in records]
            median, q1, q3, spread = describe(values)
            bound = bounds.get(name)
            print(f"{workload:16} {name:36} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}")
        for name in records[0]["info"]:
            if name == "rounds":
                continue
            values = [r["info"][name] for r in records]
            median, q1, q3, spread = describe(values)
            print(f"{workload:16} {'(info) ' + name:36} {median:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:8.4f}")
        shares = {r["result"]["failed"] / r["result"]["attempted"]
                  for r in records}
        print(f"{workload:16} {'failed share':36} "
              f"{', '.join(str(s) for s in sorted(shares))}")
        if args.with_trace:
            untraced = statistics.median(r["info"]["sim_mips"]
                                         for r in records)
            traced = statistics.median(r["traced_info"]["sim_mips"]
                                       for r in records)
            print(f"{workload:16} {'tracing overhead (sim_mips)':36} "
                  f"{1 - traced / untraced:12.4f}")
            for name in records[0]["traced"]["metrics"]:
                values = [r["traced"]["metrics"][name]["value"]
                          for r in records]
                median, q1, q3, spread = describe(values)
                unit = records[0]["traced"]["metrics"][name]["unit"]
                print(f"{workload:16} {'(layer) ' + name:36} {median:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {spread:8.4f} {unit}")


if __name__ == "__main__":
    main()
