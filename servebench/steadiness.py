#!/usr/bin/env python3
"""Runs the benchmark in two sets of runs and records how much each end-to-end
metric spreads within a set and how far its median moves between the sets:
the record BENCHMARK.json's bounds are read against.

Run from the root of a checkout:

    python3 servebench/steadiness.py [--write servebench/STEADINESS.json]

Each set runs `servebench/run.py` once per seed 1..10 on every workload in
BENCHMARK.json. The second set starts when the first has ended, so drift of
the machine over that time shows as a change of median. Per metric it prints
the median, the quartiles (statistics.quantiles with n=4) and the spread
(q3 - q1) / median, and for the second set the change of median from the
first, next to the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    fingerprint = next((l.split(" ", 1)[1] for l in lines
                        if l.startswith("fingerprint ")), "{}")
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                 f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{proc.stdout}")
    return result, json.loads(fingerprint)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--write", default="")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"runs": RUNS, "run_seconds": bench["run_seconds"],
              "seeds": list(range(1, RUNS + 1)), "sets": []}
    for set_index in range(SETS):
        rows_by_workload = {}
        for workload in (w["name"] for w in bench["workloads"]):
            values = {name: [] for name in bounds}
            for seed in record["seeds"]:
                result, record["fingerprint"] = run_once(
                    workload, seed, bench["run_seconds"])
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            rows = {}
            print(f"set {set_index + 1}, {workload}:")
            for name, vals in values.items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                row = {"median": med, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med, "bound": bounds[name],
                       "values": vals}
                flags = ["spread above bound/3"] * (
                    row["spread"] > bounds[name] / 3)
                change = ""
                if set_index > 0:
                    first = record["sets"][0][workload][name]["median"]
                    row["change"] = (med - first) / first
                    change = f"  change {row['change']:+7.4f}"
                    if abs(row["change"]) > bounds[name]:
                        flags.append("change above bound")
                print(f"  {name:16s} median {med:14.6g}  q1 {q1:14.6g}  "
                      f"q3 {q3:14.6g}  spread {row['spread']:7.4f}{change}  "
                      f"bound {bounds[name]:.2f}"
                      + "".join(f"  <-- {f}" for f in flags), flush=True)
                rows[name] = row
            rows_by_workload[workload] = rows
        record["sets"].append(rows_by_workload)
    if args.write:
        with open(os.path.join(ROOT, args.write), "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
