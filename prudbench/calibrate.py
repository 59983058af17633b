#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread against BENCHMARK.json.

    python3 prudbench/calibrate.py [--sets 2] [--seeds 1-10] [--out FILE]

Run from the repository root. For each seed, each set and each workload
(in that nesting, so the sets interleave) it runs the benchmark command
once, untraced, at BENCHMARK.json's run_seconds. For every end-to-end
metric of every workload it then reports each set's median and
quartiles, the spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives them) and the difference between
the sets' medians, next to the metric's bound. --out writes the same
data, raw values included, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: run failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--label", default="", help="recorded in --out")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    raw = {w: [[] for _ in range(args.sets)] for w in workloads}
    for seed in args.seeds:
        for s in range(args.sets):
            for w in workloads:
                raw[w][s].append(run_once(spec, w, seed))
                print(f"seed {seed} set {s} {w} done", file=sys.stderr,
                      flush=True)

    report = {"label": args.label, "run_seconds": spec["run_seconds"],
              "seeds": args.seeds, "sets": args.sets, "workloads": {}}
    for w in workloads:
        rows = {}
        for m in spec["end_to_end"]:
            sets = [summarize([r[m["name"]] for r in runs])
                    for runs in raw[w]]
            first = sets[0]["median"]
            shift = max(abs(s["median"] - first) / first for s in sets)
            rows[m["name"]] = {"bound": m["bound"], "sets": sets,
                               "between_sets": shift}
            spreads = " ".join(f"{s['spread']:7.2%}" for s in sets)
            print(f"{w:12s} {m['name']:24s} median {first:14.6g} "
                  f"spread {spreads} between {shift:7.2%} "
                  f"bound {m['bound']:.0%}")
        report["workloads"][w] = rows
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
