/**
 * @file
 * Figure printers: turn paired workload results into the rows the
 * paper's Figures 7-13 plot, one printer per figure.
 */
#ifndef PRUDENCE_WORKLOAD_REPORT_H
#define PRUDENCE_WORKLOAD_REPORT_H

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "trace/metrics_registry.h"
#include "workload/suite.h"

namespace prudence {

/// Caches with fewer combined alloc+deferred-free events are omitted
/// from per-cache figures (paper §5.3 reports caches with more than a
/// million such events; scaled runs use a proportional threshold).
struct ReportOptions
{
    std::uint64_t min_cache_traffic = 10000;
};

/// Fig. 7: % of allocations served from the object cache.
void print_fig7_cache_hits(std::ostream& os,
                           const std::vector<BenchmarkComparison>& cmps,
                           const ReportOptions& opts = {});

/// Fig. 8: object-cache churns (refill/flush pairs).
void print_fig8_object_churns(
    std::ostream& os, const std::vector<BenchmarkComparison>& cmps,
    const ReportOptions& opts = {});

/// Fig. 9: slab churns (grow/shrink pairs).
void print_fig9_slab_churns(
    std::ostream& os, const std::vector<BenchmarkComparison>& cmps,
    const ReportOptions& opts = {});

/// Fig. 10: peak slab usage.
void print_fig10_peak_slabs(
    std::ostream& os, const std::vector<BenchmarkComparison>& cmps,
    const ReportOptions& opts = {});

/// Fig. 11: total fragmentation after the run.
void print_fig11_fragmentation(
    std::ostream& os, const std::vector<BenchmarkComparison>& cmps,
    const ReportOptions& opts = {});

/// Fig. 12: deferred frees as % of all frees per benchmark.
void print_fig12_deferred_ratio(
    std::ostream& os, const std::vector<BenchmarkComparison>& cmps);

/// Fig. 13: overall throughput improvement per benchmark.
void print_fig13_throughput(
    std::ostream& os, const std::vector<BenchmarkComparison>& cmps);

/// One table of latency-histogram summaries (count, p50/p90/p99, max)
/// from a metrics snapshot, histograms only; counters and gauges are
/// skipped. Prints nothing when no histogram recorded anything (e.g.
/// tracing was not started).
void print_latency_summary(
    std::ostream& os, const char* title,
    const std::vector<trace::MetricSnapshot>& metrics);

/// Timed-phase latency histograms for every comparison in the suite
/// (one table per workload per allocator).
void print_latency_histograms(
    std::ostream& os, const std::vector<BenchmarkComparison>& cmps);

/**
 * One machine-parseable line per scenario run — the row shape
 * scripts/run_bench.sh regex-folds into BENCH_<sha>.json:
 *
 *   scenario <name> alloc <kind> completed <n> failed <n> rps <v>
 *   p50_us <v> p90_us <v> p99_us <v> p999_us <v> max_us <v>
 *   peak_rss_mib <v> fingerprint 0x<hex>
 */
void print_scenario_row(std::ostream& os, const ScenarioResult& r);

/// Human-readable scenario digest: latency percentiles, request
/// accounting, cache state and the RSS trajectory when telemetry
/// captured one.
void print_scenario_summary(std::ostream& os, const ScenarioResult& r);

}  // namespace prudence

#endif  // PRUDENCE_WORKLOAD_REPORT_H
