#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 prudbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the allocator
libraries and the prudbench leg binary (CMake, in $CARGO_TARGET_DIR or
.bench_build); later runs rebuild only what changed.

A run splits its --seconds across many short, independent allocator
instances. Instances run in legs, one process per leg holding a few
instances of one allocator; Prudence and SLUB legs alternate, and which
goes first alternates with the seed and the workload. Every metric is
the median over that allocator's instances (metrics of the SLUB baseline
carry a "slub." prefix): on a shared host a single instance can land in
a slow state for its whole life, and the median keeps such instances
out of the result.

The host's own speed also drifts, by about +-15% over minutes, moving
every timing with it. Each instance therefore times a fixed reference
kernel on its worker CPUs (host.ref_ns), and the end-to-end speed
metrics (closed-loop throughput and median latency) are scaled from the
measured host speed to a nominal one, NOMINAL_REF_NS per kernel step.
The unscaled values are reported as workload.raw_throughput_rps and
workload.raw_latency_p50_us.

--trace 0 prints the end-to-end metrics BENCHMARK.json lists; --trace 1
adds traced legs and prints the per-layer metrics, writing one Chrome
trace per allocator to --trace-dir. Each metric is printed as
"<workload> <metric> <value> <unit>", and the last line of standard
output is the JSON result. The exit status is 0 only when every leg
passed every correctness check.

--smoke runs every workload, traced and untraced, with tiny windows and
checks that every metric BENCHMARK.json names is printed with its unit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> (loop, warm-up seconds per instance). Order fixes which
# allocator runs first: it alternates with the workload's position and
# the seed.
WORKLOADS = {
    "defer_storm": ("closed", 0.15),
    "alloc_churn": ("closed", 0.15),
    "mixed_churn": ("closed", 0.15),
    "burst_open": ("open", 0.25),
}
ALLOCATORS = ("prudence", "slub")
# Reference-kernel ns per step of the nominal host the speed metrics are
# scaled to (the 4-vCPU host the bounds were calibrated on, when calm).
NOMINAL_REF_NS = 3.8
# Target timed window of one instance; a run holds as many as fit.
INSTANCE_SECONDS = 0.75
INSTANCES_PER_LEG = 4
LEG_TIMEOUT_S = 60


def log(msg):
    print(f"prudbench: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    """Configure (once) and build the leg binary; return its path."""
    build_dir = build_root / "prudbench"
    if not (HERE / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"allocator sources not found under {ROOT}")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "prudbench", "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "prudbench"


def run_leg(binary, workload, alloc, seed, seconds, instances, traced,
            trace_file, smoke):
    """Run one leg process; return its instances' results."""
    loop, warmup = WORKLOADS[workload]
    cmd = [str(binary),
           f"--scenario={HERE / 'workloads' / (workload + '.scenario')}",
           f"--alloc={alloc}", f"--loop={loop}", f"--seed={seed}",
           f"--seconds={seconds}",
           f"--warmup={min(warmup, seconds) if smoke else warmup}",
           f"--instances={instances}"]
    if traced:
        cmd.append("--traced")
        if trace_file:
            cmd.append(f"--trace-file={trace_file}")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=LEG_TIMEOUT_S)
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    if proc.returncode not in (0, 1) or len(results) != instances:
        raise RuntimeError(f"{alloc} leg of {workload} exited with "
                           f"{proc.returncode}")
    for r in results:
        for name, passed in r["checks"].items():
            if not passed:
                log(f"{workload} {alloc} seed {r['seed']}: check {name} "
                    "failed")
    return results


def median_of(results, name):
    return statistics.median(r["metrics"][name] for r in results)


def speed(results, loop):
    """Host-scaled (throughput, median latency) of a group of instances.
    An open loop's throughput is its offered rate: not scaled."""
    scale = median_of(results, "host.ref_ns") / NOMINAL_REF_NS
    throughput = median_of(results, "workload.raw_throughput_rps")
    if loop == "closed":
        throughput *= scale
    return throughput, median_of(results, "workload.raw_latency_p50_us") / scale


def run_workload(binary, workload, seed, seconds, trace, trace_dir, smoke):
    """Run the legs of one invocation; return (results, metrics)."""
    position = list(WORKLOADS).index(workload)
    order = ALLOCATORS if (seed + position) % 2 == 0 else ALLOCATORS[::-1]
    groups = [(a, t) for a in order for t in ((False, True) if trace
                                             else (False,))]
    per_group = max(1, round(seconds / (len(groups) * INSTANCE_SECONDS)))
    legs = -(-per_group // INSTANCES_PER_LEG)
    window = seconds / (len(groups) * per_group)

    results = {g: [] for g in groups}
    for leg in range(legs):
        # Paired inputs: every group's leg `leg` serves the same seeds.
        leg_seed = seed * 1000 + leg * INSTANCES_PER_LEG
        instances = min(INSTANCES_PER_LEG, per_group - leg * INSTANCES_PER_LEG)
        for alloc, traced in groups:
            trace_file = None
            if traced and leg == legs - 1:
                trace_file = trace_dir / f"{workload}.{alloc}.trace.json"
            results[(alloc, traced)] += run_leg(
                binary, workload, alloc, leg_seed, window, instances, traced,
                trace_file, smoke)

    loop = WORKLOADS[workload][0]
    metrics = {}
    for alloc in ALLOCATORS:
        prefix = "" if alloc == "prudence" else "slub."
        plain = results[(alloc, False)]
        for name in plain[0]["metrics"]:
            metrics[prefix + name] = median_of(plain, name)
        metrics[prefix + "setup_s"] = statistics.median(
            r["setup_s"] for r in plain)
        throughput, p50 = speed(plain, loop)
        metrics[prefix + "throughput_rps"] = throughput
        metrics[prefix + "latency_p50_us"] = p50
        if trace:
            traced = results[(alloc, True)]
            for name in traced[0]["metrics"]:
                if name not in plain[0]["metrics"]:
                    metrics[prefix + name] = median_of(traced, name)
            metrics[prefix + "trace.overhead_pct"] = 100.0 * (
                1.0 - speed(traced, loop)[0] / throughput)
    metrics["cmp.throughput_vs_slub"] = (
        metrics["throughput_rps"] / metrics["slub.throughput_rps"])
    metrics["cmp.footprint_vs_slub"] = (
        metrics["footprint_peak_mib"] / metrics["slub.footprint_peak_mib"])
    return [r for group in results.values() for r in group], metrics


def report(spec, workload, results, metrics, trace):
    """Print the metric lines and the JSON result; return correctness."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {', '.join(missing)}")
    out = {}
    for m in wanted:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{workload} {m['name']} {value!r} {m['unit']}")
    correct = all(r["ok"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": out,
    }), flush=True)
    return correct


def smoke(binary, spec, trace_dir):
    """Every workload, untraced and traced, at tiny windows: report()
    prints each metric with its unit and fails on a missing one."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            results, metrics = run_workload(binary, workload, 1,
                                            0.4 * (1 + trace), trace,
                                            trace_dir, smoke=True)
            ok = report(spec, workload, results, metrics, trace) and ok
            for alloc in ALLOCATORS if trace else ():
                path = trace_dir / f"{workload}.{alloc}.trace.json"
                if not path.is_file():
                    log(f"smoke: {path} not written")
                    ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-dir", type=Path,
                    help="where traced runs write their Chrome traces")
    ap.add_argument("--binary", type=Path,
                    help="use this prudbench binary instead of building")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 0.0 < args.seconds <= 600.0:
        ap.error("--seed must be >= 0 and --seconds in (0, 600]")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        binary = args.binary or build(build_root)
        trace_dir = args.trace_dir or build_root / "traces"
        if args.smoke:
            with tempfile.TemporaryDirectory(dir=binary.parent) as tmp:
                return 0 if smoke(binary, spec, Path(tmp)) else 1
        if args.trace:
            trace_dir.mkdir(parents=True, exist_ok=True)
        results, metrics = run_workload(binary, args.workload, args.seed,
                                        args.seconds, args.trace, trace_dir,
                                        smoke=False)
        return 0 if report(spec, args.workload, results, metrics,
                           args.trace) else 1
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
