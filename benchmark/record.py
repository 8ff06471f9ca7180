#!/usr/bin/env python3
"""Record one trajectory point of the sparsimatch benchmark.

    python3 benchmark/record.py --out benchmark/trajectory/NN-name.json \
        [--seeds 1-10] [--workloads a,b] [--label text]

Run from the repository root with nothing else running. For every
workload (those of BENCHMARK.json unless --workloads says otherwise) it
runs `run.py --trace 0` once per seed for BENCHMARK.json's run_seconds,
echoing each run's metrics by name and unit. Then it makes one
`--trace 1` run, which replays every workload. It writes the host facts,
the median and quartiles (Python's `statistics.quantiles(values, n=4)`)
of every end-to-end metric, the spread (quartile distance over the
median) next to the metric's bound from BENCHMARK.json, the traced
per-layer table and `trace.coverage` per workload. It flags every spread
over its bound and exits nonzero if any run is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    host = next((json.loads(line[6:]) for line in lines if line.startswith("host: ")), None)
    coverage = next((json.loads(line.split(": ", 1)[1]) for line in lines
                     if line.startswith("trace.coverage per workload: ")), None)
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if p.returncode != 0 or not result.get("correct"):
        sys.stderr.write(f"{workload} seed {seed} trace {trace}: incorrect\n{p.stdout}{p.stderr}\n")
        result["correct"] = False
    print(f"{workload:18} seed {seed:3} trace {trace}: correct={result['correct']}")
    for line in lines[:-1]:
        if line.startswith(workload) or line.startswith("VIOLATION"):
            print("    " + line)
    sys.stdout.flush()
    return host, result, coverage


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--label", default="")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",")
    point = {"label": args.label, "seconds": seconds, "seeds": seed_list(args.seeds),
             "hosts": [], "end_to_end": {}}
    ok = True
    for wl in workloads:
        values = {}
        for seed in point["seeds"]:
            host, result, _ = run(wl, seed, seconds, 0)
            ok &= result["correct"]
            point["hosts"].append(host)
            for name, m in result.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
        table = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            med = statistics.median(vals)
            table[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else None,
                           "bound": bounds.get(name), "values": vals}
        point["end_to_end"][wl] = table
    host, result, coverage = run(workloads[0], point["seeds"][0], seconds, 1)
    ok &= result["correct"]
    point["hosts"].append(host)
    point["per_layer"] = {k: v["value"] for k, v in result.get("metrics", {}).items()
                          if k != "trace.coverage"}
    point["trace_coverage"] = coverage
    point["correct"] = ok
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(point, f, indent=1, sort_keys=True)
        f.write("\n")
    for wl, table in point["end_to_end"].items():
        for name, row in table.items():
            flag = "" if row["spread"] <= row["bound"] else "  OVER BOUND"
            print(f"{wl:18} {name:18} median {row['median']:16.6f} {units[name]:6} spread "
                  f"{row['spread']:.4f} (bound {row['bound']}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
