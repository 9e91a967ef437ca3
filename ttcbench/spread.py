#!/usr/bin/env python3
"""Run the time-to-coverage benchmark over several seeds and summarise.

For every workload in BENCHMARK.json (or those named with --workload),
runs the benchmark command once per seed and prints, per end-to-end
metric, the median over seeds, the spread (inter-quartile range over
median, as statistics.quantiles(values, n=4) gives it), the sample
count and the metric's bound. Also shows bugs_found, error_rate and the
host's CPU steal share, which the human-readable lines carry but the
JSON result does not.

Run from the repository root:

    python3 ttcbench/spread.py --runs 10
    python3 ttcbench/spread.py --runs 5 --workload rocket-lm --first-seed 100
"""

import argparse
import json
import statistics
import subprocess
import sys

# Table-only figures: printed by every run but not part of the JSON
# result; each can be 0 on a good run, so none carries a relative bound.
EXTRA = [("bugs_found", "count"), ("error_rate", "ratio"), ("host_steal_share", "ratio")]


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        fields = line.lstrip("# ").split()
        if len(fields) >= 3 and fields[0] == "bugs_found":
            values["bugs_found"] = float(fields[2])
        if len(fields) == 2 and fields[0] == "host_steal_share":
            values["host_steal_share"] = float(fields[1])
    values["error_rate"] = result["failed"] / result["attempted"]
    return result["correct"], values


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = [(m["name"], m["unit"], m["bound"]) for m in bench["end_to_end"]]
    metrics += [(name, unit, None) for name, unit in EXTRA]

    ok = True
    for workload in workloads:
        samples = {name: [] for name, _, _ in metrics}
        correct = True
        for seed in range(args.first_seed, args.first_seed + args.runs):
            good, values = run_once(bench["command"], workload, seed, seconds)
            correct &= good
            for name in samples:
                samples[name].append(values.get(name, 0.0))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        print(f"\n== {workload}: {args.runs} seeds, outputs "
              f"{'correct' if correct else 'INCORRECT'}")
        print(f"{'metric':<22} {'unit':>9} {'median':>14} {'spread':>8} {'n':>3} {'bound':>6}")
        for name, unit, bound in metrics:
            values = samples[name]
            s = spread(values)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
                ok &= s <= bound
            print(f"{name:<22} {unit:>9} {statistics.median(values):>14.6g} {s:>8.4f} "
                  f"{len(values):>3} {bound if bound is not None else '-':>6} {flag}")
        ok &= correct
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
