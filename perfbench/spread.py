#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0] [workload ...]

Run from the repository root. For every workload (default: all in
BENCHMARK.json) it runs `bash perfbench/run.sh` once per seed, sequentially,
with the configured `run_seconds`, then prints per metric the median, the
quartile spread (Q3 - Q1, as `statistics.quantiles(values, n=4)` gives
them) as a share of the median, and the metric's bound. A spread above a
third of its bound is flagged; `setup_s` is exempt from the spread rule.
Raw results are appended as JSON lines to the file named by --log.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--log")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = open(args.log, "a") if args.log else None
    worst = 0.0
    for name in names:
        results = []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            started = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            took = time.time() - started
            if out.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{name} seed {seed}: INCORRECT\n{out.stdout}", file=sys.stderr)
            results.append(res)
            if log:
                log.write(json.dumps({"workload": name, "seed": seed, "took_s": took,
                                      "result": res}) + "\n")
                log.flush()
            print(f"  {name} seed {seed}: {took:.1f}s", file=sys.stderr)
        print(f"{name} ({len(results)} runs)")
        for metric in results[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            share = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s":
                worst = max(worst, share / bound)
                flag = "  OVER bound/3" if share > bound / 3 else ""
            print(f"  {metric:42s} median {med:14.6g}  spread {share:7.2%}"
                  f"  min {min(vals):12.6g}  max {max(vals):12.6g}"
                  + (f"  bound {bound:.2f}" if bound is not None else "") + flag)
    print(f"worst spread/bound: {worst:.2f}")


if __name__ == "__main__":
    main()
