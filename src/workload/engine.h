/**
 * @file
 * Workload execution engine: replays a WorkloadSpec against an
 * Allocator with per-thread object pools and measures throughput and
 * per-cache allocator statistics.
 */
#ifndef PRUDENCE_WORKLOAD_ENGINE_H
#define PRUDENCE_WORKLOAD_ENGINE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/allocator.h"
#include "trace/metrics_registry.h"
#include "workload/op_spec.h"
#include "workload/scenario.h"

namespace prudence {

class RcuDomain;

/// Outcome of one workload run on one allocator.
struct WorkloadResult
{
    std::string workload;
    std::string allocator_kind;
    double wall_seconds = 0.0;
    std::uint64_t total_ops = 0;
    double ops_per_second = 0.0;
    std::uint64_t alloc_failures = 0;
    /// Snapshots of the spec's caches, in spec order, taken after the
    /// run completed, the allocator quiesced and the thread pools
    /// drained.
    std::vector<CacheStatsSnapshot> caches;

    /// Snapshots taken after quiescing but with the workload's live
    /// objects still allocated — the paper's "measured after the
    /// completion of each run" state used for total fragmentation
    /// (Fig. 11), where the kernel's caches are still populated.
    std::vector<CacheStatsSnapshot> caches_live;

    /// Deferred frees as % of all frees across the spec's caches
    /// (paper Fig. 12).
    double deferred_free_percent() const;

    /// Trace-registry metrics covering exactly the timed phase:
    /// snapshotted-and-reset at the start barrier (discarding warmup
    /// activity) and again right after the finish barrier, so
    /// alloc/free latency histograms here contain timed-phase
    /// recordings only. Empty when the registry is idle.
    std::vector<trace::MetricSnapshot> timed_metrics;
};

/**
 * Run @p spec against @p alloc.
 *
 * Creates the spec's caches, warms per-thread pools, executes the
 * timed phase on spec.threads threads, releases pooled objects,
 * quiesces the allocator and snapshots the caches.
 *
 * @param seed RNG seed (runs with equal seeds make identical
 *        decisions up to thread interleaving).
 */
WorkloadResult run_workload(Allocator& alloc, const WorkloadSpec& spec,
                            std::uint64_t seed = 1);

/**
 * Busy-spin for approximately @p ns nanoseconds (calibrated once per
 * process). Exposed for benchmarks that model application work.
 */
void spin_for_ns(std::uint32_t ns);

/// Knobs orthogonal to the scenario's traffic shape.
struct ScenarioRunOptions
{
    /**
     * OS threads the shards are multiplexed onto (round-robin by
     * shard index). 0 = one per shard, capped at the hardware
     * concurrency. Per-shard op streams are pure functions of
     * (spec, shard, seed), so the thread count never changes what
     * requests run — only who runs them.
     */
    unsigned threads = 0;

    /**
     * Pace execution against the wall clock (open loop): each request
     * waits for its scheduled arrival, and latency is measured from
     * that arrival to completion — queueing delay included, so the
     * tail is free of coordinated omission. When false the whole
     * schedule runs as fast as possible and latency is pure service
     * time (fast deterministic runs for tests).
     */
    bool paced = true;

    /// Sample RSS and allocator telemetry over the run.
    bool telemetry = true;
};

/// Outcome of one scenario run on one allocator.
struct ScenarioResult
{
    std::string scenario;
    std::string allocator_kind;
    double wall_seconds = 0.0;
    /// Requests executed — always the full schedule (a paced engine
    /// that falls behind keeps serving; it never drops arrivals).
    std::uint64_t completed_requests = 0;
    /// Requests that saw at least one allocation failure.
    std::uint64_t failed_requests = 0;
    double achieved_rps = 0.0;
    /// Request latency (ns): arrival-to-completion when paced,
    /// service time otherwise. latency.count == completed_requests;
    /// the snapshot carries p50/p90/p99/p999.
    trace::HistogramSnapshot latency;
    /// Per-shard FNV-1a op-stream fingerprints, shard order.
    std::vector<std::uint64_t> shard_fingerprints;
    /// Fold of shard_fingerprints — the whole run's determinism audit.
    std::uint64_t fingerprint = 0;
    /// Peak resident set over the run, bytes (0 when telemetry was
    /// off or /proc is unavailable).
    std::uint64_t peak_rss_bytes = 0;
    /// RSS-over-time samples (t_ns since sampling start, bytes);
    /// empty under the same conditions as peak_rss_bytes.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> rss_series;
    /// Scenario cache snapshots after teardown + quiesce: every
    /// connection, published object and scratch buffer returned, so
    /// live_objects == 0 on each entry.
    std::vector<CacheStatsSnapshot> caches;
    /// Registry metrics covering exactly the traffic phase (same
    /// snapshot-and-reset bracketing as WorkloadResult).
    std::vector<trace::MetricSnapshot> timed_metrics;
};

/**
 * Run scenario @p spec against @p alloc (DESIGN.md §15).
 *
 * Builds the shard states (connection table + published-key table per
 * shard), replays each shard's deterministic ShardScript — RCU-read
 * lookups under @p rcu, updates that publish a fresh object and
 * defer-free the old, scratch churn — then tears down all shard
 * custody, quiesces and snapshots.
 */
ScenarioResult run_scenario(Allocator& alloc, RcuDomain& rcu,
                            const ScenarioSpec& spec,
                            const ScenarioRunOptions& options = {});

}  // namespace prudence

#endif  // PRUDENCE_WORKLOAD_ENGINE_H
