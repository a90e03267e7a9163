#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload l2_read --seeds 1-10 [--trace 0] [--seconds S]

Runs from the repository root, one run per seed, and prints for every
metric its median, the interquartile range as a share of the median
(quartiles as statistics.quantiles(values, n=4) gives them), and, for
end-to-end metrics, the bound BENCHMARK.json declares.  Raw results
are appended as JSON lines to perfbench/.out/spread-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    os.makedirs(os.path.join("perfbench", ".out"), exist_ok=True)
    log = os.path.join("perfbench", ".out", "spread-%s.jsonl" % args.workload)
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", args.trace]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if p.returncode != 0:
            print("seed %d: exit %d" % (seed, p.returncode), file=sys.stderr)
            continue
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        run = json.loads(lines[-2]).get("run") if len(lines) >= 2 else None
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, "trace": args.trace, "result": result, "run": run}) + "\n")
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med != 0:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print("%-40s median %-14.6g spread %-8.4f bound %-6s %s" % (
            name, med, spread, "" if bound is None else bound, flag))


if __name__ == "__main__":
    main()
