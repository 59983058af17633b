/**
 * @file
 * Shared plumbing for the figure-reproduction binaries.
 *
 * Every fig* binary accepts an optional scale argument (the first
 * non-flag argument, default 1.0) multiplying the workload op counts,
 * so quick smoke runs and full runs use the same code. Batch runs
 * over all binaries can export PRUDENCE_BENCH_SCALE instead.
 * Passing `--trace=<file>` records a trace session over the
 * run and writes Chrome/Perfetto trace JSON to <file> (plus registry
 * metrics to <file>.metrics.json) at exit.
 */
#ifndef PRUDENCE_BENCH_BENCH_COMMON_H
#define PRUDENCE_BENCH_BENCH_COMMON_H

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "telemetry/monitor.h"
#include "trace/exporter.h"
#include "trace/tracer.h"
#include "workload/report.h"
#include "workload/suite.h"

namespace prudence_bench {

/// Parse the run scale from the first non-flag argument or
/// PRUDENCE_BENCH_SCALE (flags like --trace=... may appear anywhere).
inline double
run_scale(int argc, char** argv, double fallback = 1.0)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            return std::atof(argv[i]);
    }
    if (const char* env = std::getenv("PRUDENCE_BENCH_SCALE"))
        return std::atof(env);
    return fallback;
}

/// Value of --trace=<file>, or empty when tracing was not requested.
inline std::string
trace_path(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--trace=", 8) == 0)
            return std::string(argv[i] + 8);
    }
    if (const char* env = std::getenv("PRUDENCE_BENCH_TRACE"))
        return std::string(env);
    return {};
}

/**
 * RAII trace session for a bench main: starts tracing when a
 * `--trace=<file>` argument is present and, at scope exit, stops
 * tracing and writes the merged Chrome trace plus the metrics JSON.
 * With no flag it does nothing.
 */
class TraceSession
{
  public:
    TraceSession(int argc, char** argv) : path_(trace_path(argc, argv))
    {
        if (!path_.empty())
            prudence::trace::start();
    }

    ~TraceSession()
    {
        if (path_.empty())
            return;
        prudence::trace::stop();
        if (!prudence::trace::export_trace_files(path_)) {
            std::cerr << "failed to write trace to " << path_ << "\n";
            return;
        }
        std::cout << "\ntrace: " << path_ << " ("
                  << prudence::trace::total_recorded() << " events, "
                  << prudence::trace::total_dropped()
                  << " dropped; load in ui.perfetto.dev)\n"
                  << "metrics: " << path_ << ".metrics.json\n";
    }

    TraceSession(const TraceSession&) = delete;
    TraceSession& operator=(const TraceSession&) = delete;

    bool active() const { return !path_.empty(); }

  private:
    std::string path_;
};

/// Numeric environment override (run_bench.sh A/B knobs), or
/// @p fallback when unset.
inline std::size_t
size_env(const char* name, std::size_t fallback)
{
    if (const char* env = std::getenv(name))
        return static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
    return fallback;
}

/// Value of --telemetry=<file>, or empty when not requested.
inline std::string
telemetry_path(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--telemetry=", 12) == 0)
            return std::string(argv[i] + 12);
    }
    if (const char* env = std::getenv("PRUDENCE_BENCH_TELEMETRY"))
        return std::string(env);
    return {};
}

/**
 * RAII telemetry session for a bench main (DESIGN.md §12): with a
 * `--telemetry=<file>` argument it runs a background Monitor over the
 * whole run — process RSS plus the registry-derived age/section
 * probes are registered up front; benches register per-phase
 * allocator/domain probes against monitor(). At scope exit it writes
 * the structured time-series JSON to <file> and CSV to <file>.csv,
 * and installs the series as Chrome counter tracks so a TraceSession
 * declared BEFORE this object (destroyed after it) exports them
 * alongside the event tracks.
 *
 * Sampling period: 10 ms (the paper's memory timeline), overridable
 * via PRUDENCE_TELEMETRY_PERIOD_US. With no flag it does nothing and
 * monitor() returns nullptr.
 */
class TelemetrySession
{
  public:
    TelemetrySession(int argc, char** argv)
        : path_(telemetry_path(argc, argv))
    {
        if (path_.empty())
            return;
        prudence::telemetry::MonitorConfig cfg;
        cfg.period = std::chrono::microseconds(
            size_env("PRUDENCE_TELEMETRY_PERIOD_US", 10'000));
        monitor_ =
            std::make_unique<prudence::telemetry::Monitor>(cfg);
        group_ = std::make_unique<prudence::telemetry::ProbeGroup>(
            *monitor_);
        prudence::telemetry::add_rss_probe(*group_);
        prudence::telemetry::add_registry_probes(*group_);
        monitor_->start();
    }

    ~TelemetrySession()
    {
        if (monitor_ == nullptr)
            return;
        monitor_->stop();
        // Counter tracks for a --trace export that happens after this
        // destructor (TraceSession is declared first in bench mains,
        // so it is destroyed last). Snapshot by value: the exporter
        // must not dangle into this dying monitor.
        prudence::telemetry::install_chrome_counter_export(
            monitor_->snapshot());
        std::ofstream json(path_);
        if (json)
            monitor_->write_json(json);
        std::ofstream csv(path_ + ".csv");
        if (csv)
            monitor_->write_csv(csv);
        if (json && csv) {
            std::cout << "\ntelemetry: " << path_ << " (JSON), "
                      << path_ << ".csv (" << monitor_->rounds()
                      << " sampling rounds)\n";
        } else {
            std::cerr << "failed to write telemetry to " << path_
                      << "\n";
        }
    }

    TelemetrySession(const TelemetrySession&) = delete;
    TelemetrySession& operator=(const TelemetrySession&) = delete;

    /// The running monitor, or nullptr when telemetry is off.
    prudence::telemetry::Monitor* monitor() { return monitor_.get(); }
    bool active() const { return monitor_ != nullptr; }

  private:
    std::string path_;
    std::unique_ptr<prudence::telemetry::Monitor> monitor_;
    std::unique_ptr<prudence::telemetry::ProbeGroup> group_;
};

/// PRUDENCE_MAGAZINE_CAPACITY override (run_bench.sh A/B knob), or
/// @p fallback when unset.
inline std::size_t
magazine_capacity_env(std::size_t fallback)
{
    return size_env("PRUDENCE_MAGAZINE_CAPACITY", fallback);
}

/// PRUDENCE_LOCKFREE_PCPU override (run_bench.sh on/off knob for the
/// lock-free per-CPU layer, DESIGN.md §14), or @p fallback when
/// unset.
inline bool
lockfree_pcpu_env(bool fallback)
{
    return size_env("PRUDENCE_LOCKFREE_PCPU", fallback ? 1 : 0) != 0;
}

/// Suite configuration shared by the per-figure binaries.
inline prudence::SuiteConfig
suite_config(double scale)
{
    prudence::SuiteConfig cfg;
    cfg.scale = scale;
    cfg.cpus = 8;
    cfg.repetitions = 1;
    cfg.magazine_capacity =
        magazine_capacity_env(cfg.magazine_capacity);
    cfg.pcp_high_watermark =
        size_env("PRUDENCE_PCP_HIGH_WATERMARK", cfg.pcp_high_watermark);
    cfg.pcp_batch = size_env("PRUDENCE_PCP_BATCH", cfg.pcp_batch);
    cfg.lockfree_pcpu = lockfree_pcpu_env(cfg.lockfree_pcpu);
    return cfg;
}

/// Threshold scaled with the run size (paper: 1M-event caches at
/// full kernel scale).
inline prudence::ReportOptions
report_options(double scale)
{
    prudence::ReportOptions opts;
    opts.min_cache_traffic =
        static_cast<std::uint64_t>(50000.0 * scale);
    if (opts.min_cache_traffic < 100)
        opts.min_cache_traffic = 100;
    return opts;
}

inline void
print_banner(const char* figure, const char* paper_summary)
{
    std::cout << "# " << figure << "\n";
    std::cout << "# Paper reports: " << paper_summary << "\n";
    std::cout << "# (shape reproduction: direction and rough factor, "
                 "not absolute kernel numbers)\n";
}

}  // namespace prudence_bench

#endif  // PRUDENCE_BENCH_BENCH_COMMON_H
