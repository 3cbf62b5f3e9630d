#!/usr/bin/env python3
"""Records a baseline: several seeded runs of every workload, plus one
traced run each, with a descriptor of the machine they ran on.

Usage (from the repository root):

    python3 perfbench/baseline.py [--seeds 1-10] [--seconds <s>] [--out perfbench/BASELINE.json]

--seconds defaults to run_seconds in BENCHMARK.json. For each workload and
end-to-end metric it stores every value, the median and the spread
(distance between the first and third quartile as a share of the median,
as statistics.quantiles(values, n=4) gives them), and for each run the
skew of its request pool as the run logged it. A later change can be
compared against these numbers, or better, against a fresh baseline of its
parent made on the same machine.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("%s seed %d trace %d failed (exit %d):\n%s" % (
            workload, seed, trace, out.returncode, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    result["wall_s"] = round(wall, 1)
    result["pool_skew"] = next(
        (l[len("# pool skew: "):] for l in lines if l.startswith("# pool skew: ")),
        "")
    return result


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / med


def machine():
    def read(path):
        try:
            with open(path) as f:
                return f.read()
        except OSError:
            return ""
    model = ""
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    mem_kb = 0
    for line in read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            mem_kb = int(line.split()[1])
    compiler = subprocess.run(["c++", "--version"], capture_output=True,
                              text=True).stdout.splitlines()
    return {
        "cpu": model,
        "cpus": os.cpu_count(),
        "memory_gb": round(mem_kb / 1024 / 1024, 1),
        "kernel": platform.release(),
        "compiler": compiler[0] if compiler else "",
        "build_type": "Release",
    }


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default="",
                    help="comma-separated; default: those in BENCHMARK.json")
    ap.add_argument("--out", default=os.path.join(HERE, "BASELINE.json"))
    args = ap.parse_args()
    seeds = seeds_from(args.seeds)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    report = {
        "machine": machine(),
        "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for seed in seeds:
            r = run(workload, seed, args.seconds, 0)
            print("%s seed %d: correct=%s failed=%d wall=%.1fs" % (
                workload, seed, r["correct"], r["failed"], r["wall_s"]),
                flush=True)
            runs.append(r)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": statistics.median(values),
                "spread": round(spread(values), 4),
                "values": values,
            }
            print("  %-14s median %12.6g spread %.3f" % (
                name, metrics[name]["median"], metrics[name]["spread"]),
                flush=True)
        traced = run(workload, seeds[0], args.seconds, 1)
        report["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "wall_s": [r["wall_s"] for r in runs],
            "pool_skew": [r["pool_skew"] for r in runs],
            "end_to_end": metrics,
            "per_layer_seed_%d" % seeds[0]: {
                k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print("wrote", args.out)


if __name__ == "__main__":
    main()
