#!/bin/sh
# Run the perf-tracking benchmark set (tab01_alloc_cost, fig06_micro,
# fig13_throughput) over the A/B knob matrix — thread-local magazines
# (capacity 32 vs 0) × per-CPU page caches (watermark 32 vs 0) — plus
# the fig14 buddy-lock contention microbench (its own pcp on/off
# table), and write a machine-readable summary to
# bench/results/BENCH_<git-sha>.json.
#
# Reported per config:
#   tab01  — alloc/free hit-cycle ns and ops/sec: mean, p50 and p99
#            computed over google-benchmark repetitions (REPS);
#   fig06  — kmalloc/kfree_deferred pairs/s per object size, both
#            allocators, plus the prudence/slub speedup;
#   fig13  — per-workload ops/s for both allocators and improvement %.
# Plus:
#   fig14  — ns/op, buddy-lock acquisitions/op and PCP hit rate per
#            thread count, pcp on vs off.
#
# Usage: scripts/run_bench.sh [preset]
#   preset    default | nolockfree | tsan | asan   (default: default)
# Environment:
#   SCALE  workload scale for fig06/fig13/fig14    (default: 0.2)
#   REPS   tab01 google-benchmark repetitions      (default: 5)
#   JOBS   parallel build jobs                     (default: 2)
#   OUT    output JSON path (default: bench/results/BENCH_<sha>.json)
set -eu

cd "$(dirname "$0")/.."

PRESET="${1:-default}"
case "$PRESET" in
default) BUILD_DIR=build ;;
*) BUILD_DIR="build-$PRESET" ;;
esac

cmake --preset "$PRESET"
cmake --build --preset "$PRESET" -j "${JOBS:-2}" \
    --target tab01_alloc_cost fig06_micro fig13_throughput \
    fig14_page_contention fig15_slab_contention fig03_endurance \
    ablation_governor scenario_bench

SHA="$(git rev-parse --short HEAD)"
SCALE="${SCALE:-0.2}"
REPS="${REPS:-5}"
OUT="${OUT:-bench/results/BENCH_${SHA}.json}"
mkdir -p bench/results

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for cap in 32 0; do
    for pcp in 32 0; do
        cfg="mag${cap}_pcp${pcp}"
        echo "== $cfg: tab01_alloc_cost =="
        PRUDENCE_MAGAZINE_CAPACITY=$cap \
            PRUDENCE_PCP_HIGH_WATERMARK=$pcp \
            "$BUILD_DIR/bench/tab01_alloc_cost" \
            --benchmark_repetitions="$REPS" \
            --benchmark_report_aggregates_only=false \
            --benchmark_out="$TMP/tab01_$cfg.json" \
            --benchmark_out_format=json
        echo "== $cfg: fig06_micro =="
        PRUDENCE_MAGAZINE_CAPACITY=$cap \
            PRUDENCE_PCP_HIGH_WATERMARK=$pcp \
            "$BUILD_DIR/bench/fig06_micro" "$SCALE" \
            | tee "$TMP/fig06_$cfg.txt"
        echo "== $cfg: fig13_throughput =="
        PRUDENCE_MAGAZINE_CAPACITY=$cap \
            PRUDENCE_PCP_HIGH_WATERMARK=$pcp \
            "$BUILD_DIR/bench/fig13_throughput" "$SCALE" \
            | tee "$TMP/fig13_$cfg.txt"
    done
done

# Lock-free per-CPU layer off (DESIGN.md §14), at the default
# mag32/pcp32 knobs: the legacy-spinlock row of the on/off
# comparison. The "on" leg is the build default in mag32_pcp32 above.
cfg="mag32_pcp32_lf0"
echo "== $cfg: tab01_alloc_cost =="
PRUDENCE_LOCKFREE_PCPU=0 \
    "$BUILD_DIR/bench/tab01_alloc_cost" \
    --benchmark_repetitions="$REPS" \
    --benchmark_report_aggregates_only=false \
    --benchmark_out="$TMP/tab01_$cfg.json" \
    --benchmark_out_format=json
echo "== $cfg: fig06_micro =="
PRUDENCE_LOCKFREE_PCPU=0 \
    "$BUILD_DIR/bench/fig06_micro" "$SCALE" \
    | tee "$TMP/fig06_$cfg.txt"
echo "== $cfg: fig13_throughput =="
PRUDENCE_LOCKFREE_PCPU=0 \
    "$BUILD_DIR/bench/fig13_throughput" "$SCALE" \
    | tee "$TMP/fig13_$cfg.txt"

# fig14 runs its own pcp on/off legs internally per thread count.
echo "== fig14_page_contention =="
"$BUILD_DIR/bench/fig14_page_contention" "$SCALE" \
    | tee "$TMP/fig14.txt"

# fig15 runs its own lock-free on/off legs internally per thread
# count (the per-CPU slab-lock analogue of fig14), plus a
# deferred-heavy mix leg and the residual-miss attribution counters.
echo "== fig15_slab_contention =="
"$BUILD_DIR/bench/fig15_slab_contention" "$SCALE" \
    | tee "$TMP/fig15.txt"

# fig03 endurance leg with the telemetry monitor attached: the
# RSS/latent-bytes/deferred-age time series land in the summary JSON
# (the paper's memory-over-time narrative, machine-readable per SHA).
echo "== fig03_endurance (telemetry) =="
"$BUILD_DIR/bench/fig03_endurance" "$SCALE" \
    --telemetry="$TMP/fig03_telemetry.json" > "$TMP/fig03.txt"
# Keep the summary schema stable with an empty block if the leg wrote
# no series.
[ -f "$TMP/fig03_telemetry.json" ] || : > "$TMP/fig03_telemetry.json"

# Scenario engine (DESIGN.md §15): open-loop server-style traffic per
# stock scenario per allocator — tail latency (p99/p999) and peak RSS
# land in the summary as scenario_burst / scenario_diurnal /
# scenario_churn rows.
echo "== scenario_bench =="
"$BUILD_DIR/bench/scenario_bench" "$SCALE" \
    | tee "$TMP/scenarios.txt"

# Governor ablation: static knobs vs. the adaptive reclamation
# governor under a fixed offered load (DESIGN.md §13). Peak footprint,
# deferred-age p99 and reader p99 per leg land in the summary.
echo "== ablation_governor =="
"$BUILD_DIR/bench/ablation_governor" "$SCALE" \
    | tee "$TMP/ablation_governor.txt"

python3 - "$TMP" "$OUT" "$SHA" "$SCALE" "$REPS" <<'EOF'
import json
import re
import sys

tmp, out, sha, scale, reps = sys.argv[1:6]


def percentile(values, p):
    """Nearest-rank percentile over the repetition samples."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(round(p / 100.0 * (len(s) - 1)))))
    return s[k]


def summary(values):
    return {
        "mean": sum(values) / len(values),
        "p50": percentile(values, 50),
        "p99": percentile(values, 99),
        "samples": len(values),
    }


def parse_tab01(path):
    with open(path) as f:
        doc = json.load(f)
    cycle_ns, ops = [], []
    for b in doc.get("benchmarks", []):
        if b.get("name", "").startswith("BM_AllocPath_Hit") and \
                b.get("run_type", "iteration") == "iteration":
            cycle_ns.append(b["real_time"])
            if "items_per_second" in b:
                ops.append(b["items_per_second"])
    result = {}
    if cycle_ns:
        result["hit_cycle_ns"] = summary(cycle_ns)
    if ops:
        result["hit_ops_per_sec"] = summary(ops)
    return result


def parse_fig06(path):
    rows = {}
    pat = re.compile(
        r"^\s*(\d+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)"
        r"\s+([\d.]+)\s*$")
    with open(path) as f:
        for line in f:
            m = pat.match(line)
            if m:
                rows[m.group(1)] = {
                    "slub_pairs_per_sec": float(m.group(2)),
                    "prudence_pairs_per_sec": float(m.group(4)),
                    "speedup": float(m.group(6)),
                }
    return rows


def parse_fig13(path):
    rows = {}
    pat = re.compile(
        r"^([a-z][a-z0-9_]*)\s+([\d.]+)\s+([\d.]+)\s+(-?[\d.]+)"
        r"\s+(-?[\d.]+)\s*$")
    with open(path) as f:
        for line in f:
            m = pat.match(line)
            if m:
                rows[m.group(1)] = {
                    "slub_ops_per_sec": float(m.group(2)),
                    "prudence_ops_per_sec": float(m.group(3)),
                    "improve_percent": float(m.group(4)),
                }
    return rows


def parse_telemetry(path):
    """Fold the fig03 telemetry time series into the summary: the
    RSS-over-time, per-phase latent-bytes and deferred-age series as
    (t_ms, value) pairs. Bounded by construction (the monitor's 2:1
    downsampling), so the summary stays a few hundred points per
    series no matter how long the run was."""
    keep = (
        "process.rss_bytes",
        "slub.alloc.latent_bytes",
        "prudence.alloc.latent_bytes",
        "slub.buddy.bytes_in_use",
        "prudence.buddy.bytes_in_use",
        "age.deferred_mean_ns",
        "age.deferred_p99_ns",
    )
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}  # leg skipped or wrote no series
    out = {"period_us": doc["period_us"], "rounds": doc["rounds"],
           "series": {}}
    for s in doc["series"]:
        if s["name"] not in keep:
            continue
        out["series"][s["name"]] = {
            "unit": s["unit"],
            "samples_per_point": s["samples_per_point"],
            "points": [[p["t_last_ms"], p["last"]]
                       for p in s["points"]],
        }
    return out


def parse_ablation_governor(path):
    """`leg <name> pairs_s <v> peak_mib <v> defer_p99_ms <v>
    reader_p99_us <v>` rows, one per leg."""
    rows = {}
    pat = re.compile(
        r"^leg\s+(\w+)\s+pairs_s\s+([\d.]+)\s+peak_mib\s+([\d.]+)"
        r"\s+defer_p99_ms\s+([\d.]+)\s+reader_p99_us\s+([\d.]+)\s*$")
    with open(path) as f:
        for line in f:
            m = pat.match(line)
            if m:
                rows[m.group(1)] = {
                    "pairs_per_sec": float(m.group(2)),
                    "peak_mib": float(m.group(3)),
                    "defer_p99_ms": float(m.group(4)),
                    "reader_p99_us": float(m.group(5)),
                }
    if "static" in rows and "governed" in rows and \
            rows["static"]["peak_mib"] > 0:
        rows["peak_reduction_percent"] = 100.0 * (
            1.0 - rows["governed"]["peak_mib"] /
            rows["static"]["peak_mib"])
    return rows


def parse_fig15(path):
    rows = {}
    pat = re.compile(
        r"^\s*(\d+)\s+(on|off)(-heavy)?\s+([\d.]+)\s+([\d.]+)"
        r"\s+([\d.]+)\s*$")
    miss_pat = re.compile(
        r"^# 8 threads (on(?:-heavy)?): miss_cold=(\d+)"
        r" miss_gp_pending=(\d+)\s*$")
    with open(path) as f:
        for line in f:
            m = pat.match(line)
            if m:
                leg = "lockfree_" + m.group(2) + \
                    ("_heavy" if m.group(3) else "")
                rows.setdefault("threads_" + m.group(1), {})[leg] = {
                    "ns_per_op": float(m.group(4)),
                    "pcpu_lock_acq_per_op": float(m.group(5)),
                    "depot_exchanges_per_op": float(m.group(6)),
                }
                continue
            m = miss_pat.match(line)
            if m:
                leg = m.group(1).replace("-", "_")
                rows.setdefault("miss_attribution", {})[leg] = {
                    "miss_cold": int(m.group(2)),
                    "miss_gp_pending": int(m.group(3)),
                }
    return rows


def parse_scenarios(path):
    """`scenario <name> alloc <kind> completed <n> failed <n> rps <v>
    p50_us <v> ... peak_rss_mib <v> fingerprint 0x<hex>` rows, one per
    (scenario, allocator) leg, folded into scenario_<name> objects."""
    rows = {}
    pat = re.compile(
        r"^scenario\s+(\S+)\s+alloc\s+(\w+)\s+completed\s+(\d+)"
        r"\s+failed\s+(\d+)\s+rps\s+([\d.]+)\s+p50_us\s+([\d.]+)"
        r"\s+p90_us\s+([\d.]+)\s+p99_us\s+([\d.]+)"
        r"\s+p999_us\s+([\d.]+)\s+max_us\s+([\d.]+)"
        r"\s+peak_rss_mib\s+([\d.]+)\s+fingerprint\s+(0x[0-9a-f]+)"
        r"\s*$")
    with open(path) as f:
        for line in f:
            m = pat.match(line)
            if m:
                rows.setdefault("scenario_" + m.group(1), {})[
                    m.group(2)] = {
                    "completed": int(m.group(3)),
                    "failed": int(m.group(4)),
                    "rps": float(m.group(5)),
                    "p50_us": float(m.group(6)),
                    "p90_us": float(m.group(7)),
                    "p99_us": float(m.group(8)),
                    "p999_us": float(m.group(9)),
                    "max_us": float(m.group(10)),
                    "peak_rss_mib": float(m.group(11)),
                    "fingerprint": m.group(12),
                }
    return rows


def parse_fig14(path):
    rows = {}
    pat = re.compile(
        r"^\s*(\d+)\s+(on|off)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s*$")
    with open(path) as f:
        for line in f:
            m = pat.match(line)
            if m:
                rows.setdefault("threads_" + m.group(1), {})[
                    "pcp_" + m.group(2)] = {
                    "ns_per_op": float(m.group(3)),
                    "lock_acq_per_op": float(m.group(4)),
                    "pcp_hit_rate": float(m.group(5)),
                }
    return rows


doc = {
    "sha": sha,
    "scale": float(scale),
    "tab01_repetitions": int(reps),
    "configs": {},
    "fig14_page_contention": parse_fig14(f"{tmp}/fig14.txt"),
    "fig15_slab_contention": parse_fig15(f"{tmp}/fig15.txt"),
    "fig03_telemetry": parse_telemetry(f"{tmp}/fig03_telemetry.json"),
    "ablation_governor":
        parse_ablation_governor(f"{tmp}/ablation_governor.txt"),
}
doc.update(parse_scenarios(f"{tmp}/scenarios.txt"))
for cap in ("32", "0"):
    for pcp in ("32", "0"):
        cfg = f"mag{cap}_pcp{pcp}"
        doc["configs"][cfg] = {
            "magazine_capacity": int(cap),
            "pcp_high_watermark": int(pcp),
            "tab01_alloc_cost": parse_tab01(f"{tmp}/tab01_{cfg}.json"),
            "fig06_micro": parse_fig06(f"{tmp}/fig06_{cfg}.txt"),
            "fig13_throughput": parse_fig13(f"{tmp}/fig13_{cfg}.txt"),
        }
cfg = "mag32_pcp32_lf0"
doc["configs"][cfg] = {
    "magazine_capacity": 32,
    "pcp_high_watermark": 32,
    "lockfree_pcpu": 0,
    "tab01_alloc_cost": parse_tab01(f"{tmp}/tab01_{cfg}.json"),
    "fig06_micro": parse_fig06(f"{tmp}/fig06_{cfg}.txt"),
    "fig13_throughput": parse_fig13(f"{tmp}/fig13_{cfg}.txt"),
}

with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out}")

on = doc["configs"]["mag32_pcp32"]["tab01_alloc_cost"]
off = doc["configs"]["mag0_pcp32"]["tab01_alloc_cost"]
if "hit_cycle_ns" in on and "hit_cycle_ns" in off:
    a, b = on["hit_cycle_ns"]["p50"], off["hit_cycle_ns"]["p50"]
    if b > 0:
        print(f"tab01 hit cycle p50: magazines on {a:.1f} ns, "
              f"off {b:.1f} ns ({100.0 * (b - a) / b:+.1f}%)")

gov = doc["ablation_governor"]
if "peak_reduction_percent" in gov:
    print(f"ablation_governor: peak {gov['static']['peak_mib']:.0f} "
          f"MiB static -> {gov['governed']['peak_mib']:.0f} MiB "
          f"governed ({gov['peak_reduction_percent']:+.1f}%), "
          f"defer p99 {gov['static']['defer_p99_ms']:.1f} -> "
          f"{gov['governed']['defer_p99_ms']:.1f} ms")

lf_on = doc["configs"]["mag32_pcp32"]["tab01_alloc_cost"]
lf_off = doc["configs"]["mag32_pcp32_lf0"]["tab01_alloc_cost"]
if "hit_cycle_ns" in lf_on and "hit_cycle_ns" in lf_off:
    a = lf_on["hit_cycle_ns"]["p50"]
    b = lf_off["hit_cycle_ns"]["p50"]
    if b > 0:
        print(f"tab01 hit cycle p50: lock-free on {a:.1f} ns, "
              f"off {b:.1f} ns ({100.0 * (b - a) / b:+.1f}%)")

s8 = doc["fig15_slab_contention"].get("threads_8", {})
if "lockfree_on" in s8 and "lockfree_off" in s8:
    on_l = s8["lockfree_on"]["pcpu_lock_acq_per_op"]
    off_l = s8["lockfree_off"]["pcpu_lock_acq_per_op"]
    on_ns = s8["lockfree_on"]["ns_per_op"]
    off_ns = s8["lockfree_off"]["ns_per_op"]
    if on_ns > 0:
        print(f"fig15 @8 threads: per-CPU lock acq/op {off_l:.4f} -> "
              f"{on_l:.4f}, ns/op {off_ns:.1f} -> {on_ns:.1f} "
              f"({off_ns / on_ns:.2f}x)")

for key in ("scenario_burst", "scenario_diurnal", "scenario_churn"):
    legs = doc.get(key, {})
    if "slub" in legs and "prudence" in legs:
        print(f"{key}: p99 {legs['slub']['p99_us']:.1f} -> "
              f"{legs['prudence']['p99_us']:.1f} us, p999 "
              f"{legs['slub']['p999_us']:.1f} -> "
              f"{legs['prudence']['p999_us']:.1f} us, peak RSS "
              f"{legs['slub']['peak_rss_mib']:.1f} -> "
              f"{legs['prudence']['peak_rss_mib']:.1f} MiB")

t8 = doc["fig14_page_contention"].get("threads_8", {})
if "pcp_on" in t8 and "pcp_off" in t8:
    on_l = t8["pcp_on"]["lock_acq_per_op"]
    off_l = t8["pcp_off"]["lock_acq_per_op"]
    on_ns = t8["pcp_on"]["ns_per_op"]
    off_ns = t8["pcp_off"]["ns_per_op"]
    if on_l > 0:
        print(f"fig14 @8 threads: buddy-lock acq/op {off_l:.4f} -> "
              f"{on_l:.4f} ({off_l / on_l:.0f}x reduction), "
              f"ns/op {off_ns:.1f} -> {on_ns:.1f} "
              f"({off_ns / on_ns:.2f}x)")
EOF
