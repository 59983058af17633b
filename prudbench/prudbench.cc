/**
 * @file
 * One benchmark leg: one scenario workload on one allocator, in its own
 * process. run.py runs the legs, alternates their order and folds their
 * output into the benchmark result.
 *
 * A leg runs one or more independent allocator instances back to back.
 * Each instance is set up (allocator construction plus a prefill of
 * every key slot, timed as the set-up), warmed up untimed on a separate
 * seed stream, measured over a timed window, then torn down and checked;
 * the last instance also replays its request streams offline.
 * Everything is measured from outside the allocator: the request loop's
 * own clock reads, a 1 ms footprint sampler over the lock-free
 * bytes_in_use(), public statistics snapshots at the window edges, and —
 * in a traced leg — a decorator that times every call into the
 * Allocator interface.
 *
 * The request loop mirrors the scenario engine's request (connection
 * touch, request buffer, lookup / update / scratch) and adds what the
 * benchmark needs: a time-bounded closed loop, a warm-up phase, a fine
 * latency histogram, per-request tracing and a key-stamp check on
 * every lookup.
 *
 * Usage:
 *   prudbench --scenario=FILE --alloc=prudence|slub --loop=closed|open
 *             --seed=N --seconds=S [--warmup=S] [--instances=K]
 *             [--traced [--trace-file=FILE]] [--smoke]
 *
 * Prints one JSON object per instance on stdout. Exit status: 0 when
 * every check passed, 1 when a check failed, 2 on a usage or
 * environment error.
 */
#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/allocator_factory.h"
#include "page/buddy_allocator.h"
#include "rcu/rcu_domain.h"
#include "sync/cacheline.h"
#include "workload/loadgen.h"
#include "workload/scenario.h"
#include "workload/suite.h"

namespace {

using namespace prudence;

/// Request-serving threads: one core of a 4-core host stays free for
/// the grace-period, maintenance, callback and sampler threads.
constexpr unsigned kWorkers = 3;
constexpr unsigned kMinCpus = kWorkers + 1;
/// One request in this many keeps its full span tree in a traced leg.
constexpr std::uint64_t kSpanSampleMask = 255;
/// Span buffer per worker; spans past it are not kept.
constexpr std::size_t kSpanCapacity = 1 << 17;
/// Published objects carry this stamp xor their key, so a lookup that
/// reads a recycled or foreign object fails the check.
constexpr std::uint64_t kStampMagic = 0x5be7'1eaf'0000'0000ULL;

std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
process_cpu_seconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline void
cpu_relax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

void
pin_current_thread(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// The reference kernel's table: a random permutation of 64 KiB, so
/// the kernel runs from the core's private caches.
const std::vector<std::uint32_t>&
reference_table()
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(1 << 14);
        for (std::uint32_t i = 0; i < t.size(); ++i)
            t[i] = i;
        std::uint64_t x = 88172645463325252ULL;
        for (std::size_t i = t.size() - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(t[i], t[x % (i + 1)]);
        }
        return t;
    }();
    return table;
}

/// Slices of the reference kernel each worker runs per instance.
constexpr unsigned kRefSlices = 20;

/**
 * Time a fixed kernel (an xorshift step plus a dependent load from the
 * reference table) on the calling thread in kRefSlices slices of about
 * 1 ms, writing ns per step of each slice to @p out. Workers run it at
 * once, right after the warm-up, so it sees the host as the window
 * will. The host's speed drifts by about +-15% over minutes and moves
 * every timing with it; run.py scales the speed metrics by this.
 */
void
reference_kernel(unsigned seed, double* out)
{
    const std::vector<std::uint32_t>& table = reference_table();
    const std::size_t mask = table.size() - 1;
    std::uint32_t p = seed;
    for (std::uint32_t v : table)  // bring the table into cache
        p += v;
    std::uint64_t x = 12345 + seed;
    for (unsigned c = 0; c < kRefSlices; ++c) {
        std::uint64_t steps = 0;
        std::uint64_t t0 = now_ns();
        std::uint64_t t1 = t0;
        while (t1 - t0 < 1'000'000) {
            for (int i = 0; i < 256; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                p = table[(p ^ x) & mask];
            }
            steps += 256;
            t1 = now_ns();
        }
        out[c] = static_cast<double>(t1 - t0) / static_cast<double>(steps);
    }
    volatile std::uint32_t sink = p;  // keeps the loads
    (void)sink;
}

/// Read/write an object's first word (the request's "payload").
void
touch_word(void* p)
{
    auto* w = static_cast<volatile std::uint64_t*>(p);
    *w = *w + 1;
}

/**
 * Log-linear histogram of nanosecond values: exact below 64 ns, then 64
 * equal buckets per power of two, so a bucket is at most 1/64 of its
 * values wide. Percentiles interpolate inside the bucket.
 */
class FineHistogram
{
  public:
    FineHistogram() : counts_(kBuckets, 0) {}

    void
    record(std::uint64_t v)
    {
        ++counts_[index(v)];
        ++count_;
        sum_ += v;
    }

    void
    merge(const FineHistogram& o)
    {
        for (std::size_t i = 0; i < kBuckets; ++i)
            counts_[i] += o.counts_[i];
        count_ += o.count_;
        sum_ += o.sum_;
    }

    double
    mean() const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_) /
                                 static_cast<double>(count_);
    }

    /// Value at quantile @p q in [0, 1]; 0 when empty.
    double
    percentile(double q) const
    {
        if (count_ == 0)
            return 0.0;
        double rank = q * static_cast<double>(count_);
        double before = 0.0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            if (counts_[i] == 0)
                continue;
            auto c = static_cast<double>(counts_[i]);
            if (before + c >= rank) {
                double frac = std::clamp((rank - before) / c, 0.0, 1.0);
                return static_cast<double>(lower(i)) +
                       frac * static_cast<double>(width(i));
            }
            before += c;
        }
        return static_cast<double>(lower(kBuckets - 1));
    }

  private:
    static constexpr unsigned kSubBits = 6;
    static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
    static constexpr std::size_t kBuckets = 41 * kSub;  // up to ~2^46 ns

    static std::size_t
    index(std::uint64_t v)
    {
        if (v < kSub)
            return static_cast<std::size_t>(v);
        unsigned shift = 63u - static_cast<unsigned>(std::countl_zero(v)) -
                         kSubBits;
        std::size_t i = (shift + 1) * kSub +
                        static_cast<std::size_t>((v >> shift) - kSub);
        return std::min(i, kBuckets - 1);
    }

    static std::uint64_t
    lower(std::size_t i)
    {
        if (i < kSub)
            return i;
        std::size_t shift = i / kSub - 1;
        return static_cast<std::uint64_t>(kSub + i % kSub) << shift;
    }

    static std::uint64_t
    width(std::size_t i)
    {
        return i < kSub ? 1 : std::uint64_t{1} << (i / kSub - 1);
    }

    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

/// One traced span, kept for a sampled request.
struct Span
{
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t request_id;
};

/// Per-thread tracing state of a traced leg (one per worker).
struct alignas(kCacheLineSize) TraceState
{
    FineHistogram alloc_ns, free_ns, defer_ns, read_ns, gen_ns, self_ns;
    /// Sums over every request: API time and request service time.
    std::uint64_t api_total_ns = 0;
    std::uint64_t request_total_ns = 0;
    /// Child time inside the current request (for its self time).
    std::uint64_t child_ns = 0;
    bool sampled = false;
    std::uint64_t request_id = 0;
    std::vector<Span> spans;

    void
    span(const char* name, std::uint64_t t0, std::uint64_t t1,
         std::uint64_t id)
    {
        if (spans.size() < kSpanCapacity)
            spans.push_back({name, t0, t1, id});
    }

    /// Record one child call [t0, t1) of the current request.
    void
    child(const char* name, FineHistogram& hist, std::uint64_t t0,
          std::uint64_t t1, bool api)
    {
        hist.record(t1 - t0);
        child_ns += t1 - t0;
        if (api)
            api_total_ns += t1 - t0;
        if (sampled)
            span(name, t0, t1, request_id);
    }
};

/// The calling worker's trace state; null outside traced workers.
thread_local TraceState* tls_trace = nullptr;

/**
 * Allocator decorator of a traced leg: forwards every virtual and
 * times cache_alloc, cache_free and cache_free_deferred for the
 * calling worker's TraceState.
 */
class TimingAllocator final : public Allocator
{
  public:
    explicit TimingAllocator(Allocator& inner) : inner_(inner) {}

    const char* kind() const override { return inner_.kind(); }
    void* kmalloc(std::size_t size) override { return inner_.kmalloc(size); }
    void kfree(void* p) override { inner_.kfree(p); }
    void kfree_deferred(void* p) override { inner_.kfree_deferred(p); }
    CacheId
    create_cache(const std::string& name, std::size_t object_size) override
    {
        return inner_.create_cache(name, object_size);
    }

    void*
    cache_alloc(CacheId cache) override
    {
        TraceState* t = tls_trace;
        if (t == nullptr)
            return inner_.cache_alloc(cache);
        std::uint64_t t0 = now_ns();
        void* p = inner_.cache_alloc(cache);
        t->child("api.alloc", t->alloc_ns, t0, now_ns(), true);
        return p;
    }

    void
    cache_free(CacheId cache, void* p) override
    {
        TraceState* t = tls_trace;
        if (t == nullptr)
            return inner_.cache_free(cache, p);
        std::uint64_t t0 = now_ns();
        inner_.cache_free(cache, p);
        t->child("api.free", t->free_ns, t0, now_ns(), true);
    }

    void
    cache_free_deferred(CacheId cache, void* p) override
    {
        TraceState* t = tls_trace;
        if (t == nullptr)
            return inner_.cache_free_deferred(cache, p);
        std::uint64_t t0 = now_ns();
        inner_.cache_free_deferred(cache, p);
        t->child("api.defer", t->defer_ns, t0, now_ns(), true);
    }

    CacheStatsSnapshot
    cache_snapshot(CacheId cache) const override
    {
        return inner_.cache_snapshot(cache);
    }
    std::vector<CacheStatsSnapshot>
    snapshots() const override
    {
        return inner_.snapshots();
    }
    BuddyAllocator& page_allocator() override
    {
        return inner_.page_allocator();
    }
    void quiesce() override { inner_.quiesce(); }
    void drain_thread() override { inner_.drain_thread(); }
    void
    register_telemetry_probes(telemetry::ProbeGroup& group,
                              const std::string& prefix) override
    {
        inner_.register_telemetry_probes(group, prefix);
    }
    void
    set_deferred_admission(unsigned pct) override
    {
        inner_.set_deferred_admission(pct);
    }
    std::size_t reclaim_ready() override { return inner_.reclaim_ready(); }
    std::size_t
    trim_depot(std::size_t keep_blocks) override
    {
        return inner_.trim_depot(keep_blocks);
    }
    std::size_t harvest_depot() override { return inner_.harvest_depot(); }
    std::string validate() override { return inner_.validate(); }

  private:
    Allocator& inner_;
};

/// What one leg runs.
struct LegConfig
{
    std::string workload;
    std::string alloc_kind = "prudence";
    ScenarioSpec spec;
    bool closed = true;
    std::uint64_t seed = 1;
    double seconds = 5.0;
    double warmup_seconds = 1.0;
    /// Independent allocator instances run back to back; instance i
    /// serves the inputs of seed + i.
    unsigned instances = 1;
    /// Time every Allocator call and keep sampled span trees.
    bool traced = false;
    /// Where a traced leg writes its spans; empty = not written.
    std::string trace_file;
    bool smoke = false;
    /// CPU of each worker; empty = unpinned.
    std::vector<int> worker_cpus;
};

/// Per-worker request statistics of the timed window.
struct alignas(kCacheLineSize) WorkerStats
{
    /// Service time (start to end) per request, overall and per kind.
    FineHistogram latency, lookup, update, scratch;
    /// Open loop: time from the request's due time to its end.
    FineHistogram sojourn;
    FineHistogram lateness;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t stamp_errors = 0;
};

/// One shard's server state. The owning worker publishes into its key
/// slots and defer-frees the displaced objects; every worker reads any
/// shard's slots under an RCU guard. Line-aligned: the owner updates
/// its fields on every request.
struct alignas(kCacheLineSize) Shard
{
    std::unique_ptr<std::atomic<void*>[]> slots;
    std::vector<void*> conns;
    unsigned scratch_pairs = 0;
    std::unique_ptr<ShardScript> script;
    ScenarioRequest pending{};
    bool has_pending = false;
    /// Requests the current phase's script emitted / this leg served.
    std::uint64_t generated = 0;
    std::uint64_t executed = 0;
};

/// Window-edge snapshot of the public statistics.
struct Counters
{
    std::vector<CacheStatsSnapshot> caches;
    BuddyStatsSnapshot page;
    RcuStatsSnapshot rcu;
    double cpu_s = 0.0;
};

/// 1 ms sampler of the footprint (lock-free bytes_in_use()) and of the
/// last grace period's duration, run over the timed window.
class Sampler
{
  public:
    Sampler(BuddyAllocator& page, RcuDomain& rcu)
        : page_(page), rcu_(rcu), thread_([this] { loop(); })
    {
    }

    ~Sampler() { stop(); }

    Sampler(const Sampler&) = delete;
    Sampler& operator=(const Sampler&) = delete;

    void
    stop()
    {
        stop_.store(true, std::memory_order_relaxed);
        if (thread_.joinable())
            thread_.join();
    }

    std::uint64_t peak_bytes = 0;
    double sum_bytes = 0.0;
    std::uint64_t samples = 0;
    FineHistogram gp_ns;

  private:
    void
    loop()
    {
        auto next = std::chrono::steady_clock::now();
        while (!stop_.load(std::memory_order_relaxed)) {
            std::uint64_t b = page_.bytes_in_use();
            peak_bytes = std::max(peak_bytes, b);
            sum_bytes += static_cast<double>(b);
            ++samples;
            gp_ns.record(rcu_.stats().last_gp_ns);
            next += std::chrono::milliseconds(1);
            auto now = std::chrono::steady_clock::now();
            if (next < now)
                next = now;
            std::this_thread::sleep_until(next);
        }
    }

    BuddyAllocator& page_;
    RcuDomain& rcu_;
    std::atomic<bool> stop_{false};
    std::thread thread_;  // last: starts once the members above exist
};

/// Named metric values of one leg, in print order.
using Metrics = std::vector<std::pair<std::string, double>>;

/// Named pass/fail checks of one leg.
using Checks = std::vector<std::pair<std::string, bool>>;

/**
 * One allocator instance and its server state. The constructor builds
 * the allocator, starts the workers and returns once every key slot is
 * prefilled; run() drives the warm-up, the host reference and the timed
 * window; finish() tears down, joins and checks.
 */
class Leg
{
  public:
    /// @param audit replay every shard's script offline after the
    ///        window; the replay costs about a third of the window.
    Leg(const LegConfig& cfg, std::uint64_t seed, bool audit)
        : cfg_(cfg), seed_(seed), audit_(audit), sync_(kWorkers + 1)
    {
        rcu_ = std::make_unique<RcuDomain>();
        SuiteConfig suite;
        if (cfg.alloc_kind == "slub") {
            SlubConfig sc;
            sc.arena_bytes = suite.arena_bytes;
            sc.cpus = suite.cpus;
            sc.magazine_capacity = suite.magazine_capacity;
            sc.pcp_high_watermark = suite.pcp_high_watermark;
            sc.pcp_batch = suite.pcp_batch;
            sc.lockfree_pcpu = suite.lockfree_pcpu;
            sc.callback.inline_batch_limit = 100000;
            sc.callback.batch_limit = 1000;
            sc.callback.tick = std::chrono::microseconds{1000};
            real_ = make_slub_allocator(*rcu_, sc);
        } else {
            PrudenceConfig pc;
            pc.arena_bytes = suite.arena_bytes;
            pc.cpus = suite.cpus;
            pc.magazine_capacity = suite.magazine_capacity;
            pc.pcp_high_watermark = suite.pcp_high_watermark;
            pc.pcp_batch = suite.pcp_batch;
            pc.lockfree_pcpu = suite.lockfree_pcpu;
            real_ = make_prudence_allocator(*rcu_, pc);
        }
        if (cfg.traced) {
            timing_ = std::make_unique<TimingAllocator>(*real_);
            api_ = timing_.get();
        } else {
            api_ = real_.get();
        }

        const ScenarioSpec& spec = cfg.spec;
        conn_cache_ = api_->create_cache("scenario.conn", 128);
        obj_cache_ = api_->create_cache("scenario.obj", spec.object_bytes);
        req_cache_ = api_->create_cache("scenario.req", spec.request_bytes);
        zipf_ = std::make_shared<const ZipfSampler>(spec.keys, spec.zipf_s);

        shards_.resize(spec.shards);
        for (unsigned s = 0; s < spec.shards; ++s) {
            shards_[s].slots =
                std::make_unique<std::atomic<void*>[]>(spec.keys);
            shards_[s].scratch_pairs =
                shard_mix(spec, spec.shard_class(s)).scratch_pairs;
        }
        threads_.reserve(kWorkers);
        for (unsigned w = 0; w < kWorkers; ++w)
            threads_.emplace_back([this, w] { worker(w); });
        sync_.arrive_and_wait();  // every key slot published
    }

    ~Leg()
    {
        for (std::thread& t : threads_)
            if (t.joinable())
                t.join();
    }

    Leg(const Leg&) = delete;
    Leg& operator=(const Leg&) = delete;

    /// Warm-up, then the timed window; fills @p m with the metrics.
    void
    run(Metrics& m)
    {
        stats_.resize(kWorkers);
        if (cfg_.traced) {
            traces_ = std::vector<TraceState>(kWorkers);
            for (TraceState& t : traces_)
                t.spans.reserve(kSpanCapacity);
        }

        // Warm-up: a separate seed stream, same shape.
        std::uint64_t w0 = now_ns();
        prepare_phase(phase_spec(cfg_.warmup_seconds), warmup_seed());
        sync_.arrive_and_wait();
        finish_phase(cfg_.warmup_seconds);
        double warmup_s = static_cast<double>(now_ns() - w0) * 1e-9;
        sync_.arrive_and_wait();  // host reference timed
        // The median slice discards slices a preemption hit.
        std::nth_element(ref_slices_.begin(),
                         ref_slices_.begin() + ref_slices_.size() / 2,
                         ref_slices_.end());
        double ref_ns = ref_slices_[ref_slices_.size() / 2];

        Counters before = counters();
        std::uint64_t t0 = prepare_phase(phase_spec(cfg_.seconds), seed_);
        auto sampler =
            std::make_unique<Sampler>(real_->page_allocator(), *rcu_);
        sync_.arrive_and_wait();
        std::uint64_t t1 = finish_phase(cfg_.seconds);
        sampler->stop();
        sync_.arrive_and_wait();  // workers flushed their magazines
        Counters after = counters();
        sync_.arrive_and_wait();  // release the script audits
        double window_s = static_cast<double>(t1 - t0) * 1e-9;

        WorkerStats all;
        for (const WorkerStats& w : stats_) {
            all.latency.merge(w.latency);
            all.lookup.merge(w.lookup);
            all.update.merge(w.update);
            all.scratch.merge(w.scratch);
            all.sojourn.merge(w.sojourn);
            all.lateness.merge(w.lateness);
            all.completed += w.completed;
            all.failed += w.failed;
            all.stamp_errors += w.stamp_errors;
        }
        completed_ = all.completed;
        failed_ = all.failed;
        stamp_errors_ = all.stamp_errors;

        constexpr double kMiB = 1024.0 * 1024.0;
        auto us = [](double ns) { return ns * 1e-3; };
        m.emplace_back("workload.raw_throughput_rps",
                       static_cast<double>(all.completed) / window_s);
        m.emplace_back("workload.raw_latency_p50_us",
                       us(all.latency.percentile(0.50)));
        m.emplace_back("host.ref_ns", ref_ns);
        m.emplace_back("workload.latency_p99_us",
                       us(all.latency.percentile(0.99)));
        m.emplace_back("footprint_peak_mib",
                       static_cast<double>(sampler->peak_bytes) / kMiB);

        layer_metrics(m, before, after, window_s);
        m.emplace_back("rcu.gp_ns_p50", sampler->gp_ns.percentile(0.50));
        m.emplace_back("page.footprint_mean_mib",
                       sampler->samples == 0
                           ? 0.0
                           : sampler->sum_bytes /
                                 static_cast<double>(sampler->samples) /
                                 kMiB);
        // A closed loop has no due times: sojourn is service time.
        const FineHistogram& sojourn = cfg_.closed ? all.latency : all.sojourn;
        m.emplace_back("workload.sojourn_p50_us",
                       us(sojourn.percentile(0.50)));
        m.emplace_back("workload.sojourn_p99_us",
                       us(sojourn.percentile(0.99)));
        m.emplace_back("workload.lateness_p50_us",
                       us(all.lateness.percentile(0.50)));
        m.emplace_back("workload.lateness_p99_us",
                       us(all.lateness.percentile(0.99)));
        m.emplace_back("workload.lookup_p99_us",
                       us(all.lookup.percentile(0.99)));
        m.emplace_back("workload.update_p99_us",
                       us(all.update.percentile(0.99)));
        m.emplace_back("workload.scratch_p99_us",
                       us(all.scratch.percentile(0.99)));
        m.emplace_back("workload.latency_p999_us",
                       us(all.latency.percentile(0.999)));
        m.emplace_back("workload.cpu_util",
                       (after.cpu_s - before.cpu_s) / window_s);
        m.emplace_back("workload.warmup_s", warmup_s);
        m.emplace_back("process.peak_rss_mib", peak_rss_mib());
        if (!traces_.empty())
            trace_metrics(m);
    }

    /// Tear down, join, quiesce and run the accounting checks.
    void
    finish(Checks& checks)
    {
        sync_.arrive_and_wait();  // release teardown
        for (std::thread& t : threads_)
            t.join();
        api_->quiesce();

        bool setup_ok = setup_failures_.load() == 0;
        bool caches_clean = true;
        bool balanced = true;
        for (CacheId id : {conn_cache_, obj_cache_, req_cache_}) {
            CacheStatsSnapshot s = api_->cache_snapshot(id);
            caches_clean = caches_clean && s.live_objects == 0 &&
                           s.deferred_outstanding == 0;
            balanced = balanced &&
                       s.alloc_calls == s.free_calls + s.deferred_free_calls;
        }
        checks.emplace_back("setup_prefill_complete", setup_ok);
        checks.emplace_back("caches_empty_after_quiesce", caches_clean);
        checks.emplace_back("alloc_eq_free_plus_deferred", balanced);
        checks.emplace_back("validate_clean", api_->validate().empty());
        checks.emplace_back("page_integrity",
                            real_->page_allocator().check_integrity());
        checks.emplace_back("lookup_key_stamps", stamp_errors_ == 0);
        if (audit_) {
            checks.emplace_back("fingerprint_matches_replay",
                                audit_failures_.load() == 0);
            checks.emplace_back("completed_eq_scheduled",
                                count_failures_.load() == 0);
        }
    }

    std::uint64_t completed() const { return completed_; }
    std::uint64_t failed() const { return failed_; }

    /// Write the sampled spans as a Chrome trace-event file.
    bool
    write_trace(const std::string& path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        std::uint64_t origin = UINT64_MAX;
        for (const TraceState& t : traces_)
            for (const Span& s : t.spans)
                origin = std::min(origin, s.start_ns);
        out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
        bool first = true;
        char buf[320];
        for (std::size_t w = 0; w < traces_.size(); ++w) {
            for (const Span& s : traces_[w].spans) {
                std::snprintf(
                    buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"request\":\"0x%" PRIx64 "\"}}",
                    first ? "" : ",", s.name, cfg_.alloc_kind.c_str(), w,
                    static_cast<double>(s.start_ns - origin) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                    s.request_id);
                out << buf;
                first = false;
            }
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    /// The workload's spec for a phase of @p seconds: an open loop's
    /// schedule lasts exactly the phase, a closed loop's outlasts it.
    ScenarioSpec
    phase_spec(double seconds) const
    {
        ScenarioSpec s = cfg_.spec;
        if (!cfg_.closed)
            s.duration_ms = static_cast<std::uint32_t>(
                std::max(1.0, seconds * 1000.0));
        return s;
    }

    std::uint64_t warmup_seed() const { return ~seed_; }

    /// Set the next phase up; the next barrier releases the workers
    /// into it. @return the phase's start.
    std::uint64_t
    prepare_phase(const ScenarioSpec& spec, std::uint64_t seed)
    {
        phase_spec_ = spec;
        phase_seed_ = seed;
        stop_.store(false, std::memory_order_relaxed);
        // Open loop: arrivals count from a common origin just ahead,
        // so every worker is waiting when the first one is due.
        base_ns_ = now_ns() + (cfg_.closed ? 0 : 2'000'000);
        return base_ns_;
    }

    /// Closed loop: stop the phase after @p seconds. Open loop: wait
    /// for the schedule to run out. @return the phase's end.
    std::uint64_t
    finish_phase(double seconds)
    {
        if (cfg_.closed) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(seconds));
            stop_.store(true, std::memory_order_relaxed);
        }
        sync_.arrive_and_wait();
        return now_ns();
    }

    Counters
    counters() const
    {
        Counters c;
        for (CacheId id : {conn_cache_, obj_cache_, req_cache_})
            c.caches.push_back(real_->cache_snapshot(id));
        c.page = real_->page_allocator().stats();
        c.rcu = rcu_->stats();
        c.cpu_s = process_cpu_seconds();
        return c;
    }

    void
    layer_metrics(Metrics& m, const Counters& a, const Counters& b,
                  double window_s) const
    {
        CacheStatsSnapshot d;  // window deltas, summed over the caches
        std::int64_t peak_slabs = 0;
        std::int64_t peak_deferred = 0;
        for (std::size_t i = 0; i < a.caches.size(); ++i) {
            const CacheStatsSnapshot& x = a.caches[i];
            const CacheStatsSnapshot& y = b.caches[i];
            d.alloc_calls += y.alloc_calls - x.alloc_calls;
            d.cache_hits += y.cache_hits - x.cache_hits;
            d.latent_merge_hits += y.latent_merge_hits - x.latent_merge_hits;
            d.refills += y.refills - x.refills;
            d.flushes += y.flushes - x.flushes;
            d.grows += y.grows - x.grows;
            d.shrinks += y.shrinks - x.shrinks;
            d.pcpu_lock_acquisitions +=
                y.pcpu_lock_acquisitions - x.pcpu_lock_acquisitions;
            d.depot_exchanges += y.depot_exchanges - x.depot_exchanges;
            d.depot_miss_cold += y.depot_miss_cold - x.depot_miss_cold;
            d.depot_miss_gp_pending +=
                y.depot_miss_gp_pending - x.depot_miss_gp_pending;
            peak_slabs += y.peak_slabs;
            peak_deferred += y.peak_deferred_outstanding;
        }
        auto dbl = [](std::uint64_t v) { return static_cast<double>(v); };
        double allocs = dbl(d.alloc_calls);
        auto share = [&](std::uint64_t v) {
            return allocs == 0.0 ? 0.0 : dbl(v) / allocs;
        };
        auto per_kalloc = [&](std::uint64_t v) { return 1000.0 * share(v); };
        bool prudence = cfg_.alloc_kind == "prudence";

        m.emplace_back("slab.hit_ratio", share(d.cache_hits));
        if (prudence) {
            m.emplace_back("slab.latent_merge_ratio",
                           share(d.latent_merge_hits));
            m.emplace_back("slab.depot_exchanges_per_kalloc",
                           per_kalloc(d.depot_exchanges));
            m.emplace_back("slab.depot_miss_cold_per_kalloc",
                           per_kalloc(d.depot_miss_cold));
            m.emplace_back("slab.depot_miss_gp_pending_per_kalloc",
                           per_kalloc(d.depot_miss_gp_pending));
        }
        m.emplace_back("slab.pcpu_lock_per_kalloc",
                       per_kalloc(d.pcpu_lock_acquisitions));
        m.emplace_back("slab.refills_per_kalloc", per_kalloc(d.refills));
        m.emplace_back("slab.flushes_per_kalloc", per_kalloc(d.flushes));
        m.emplace_back("slab.grows", dbl(d.grows));
        m.emplace_back("slab.shrinks", dbl(d.shrinks));
        m.emplace_back("slab.peak_slabs", static_cast<double>(peak_slabs));
        m.emplace_back("slab.deferred_peak_objects",
                       static_cast<double>(peak_deferred));

        std::uint64_t hits = b.page.pcp_hits - a.page.pcp_hits;
        std::uint64_t misses = b.page.pcp_misses - a.page.pcp_misses;
        m.emplace_back("page.allocs_per_kalloc",
                       per_kalloc(b.page.alloc_calls - a.page.alloc_calls));
        // No page allocation in the window means no PCP miss either.
        m.emplace_back("page.pcp_hit_ratio",
                       hits + misses == 0
                           ? 1.0
                           : dbl(hits) / dbl(hits + misses));
        m.emplace_back("page.lock_per_kalloc",
                       per_kalloc(b.page.lock_acquisitions -
                                  a.page.lock_acquisitions));
        m.emplace_back("rcu.gp_per_s",
                       dbl(b.rcu.grace_periods - a.rcu.grace_periods) /
                           window_s);
    }

    void
    trace_metrics(Metrics& m) const
    {
        TraceState all;
        for (const TraceState& t : traces_) {
            all.alloc_ns.merge(t.alloc_ns);
            all.free_ns.merge(t.free_ns);
            all.defer_ns.merge(t.defer_ns);
            all.read_ns.merge(t.read_ns);
            all.gen_ns.merge(t.gen_ns);
            all.self_ns.merge(t.self_ns);
            all.api_total_ns += t.api_total_ns;
            all.request_total_ns += t.request_total_ns;
        }
        m.emplace_back("api.alloc_ns_p50", all.alloc_ns.percentile(0.50));
        m.emplace_back("api.free_ns_p50", all.free_ns.percentile(0.50));
        m.emplace_back("api.defer_ns_p99", all.defer_ns.percentile(0.99));
        m.emplace_back("api.time_share",
                       all.request_total_ns == 0
                           ? 0.0
                           : static_cast<double>(all.api_total_ns) /
                                 static_cast<double>(all.request_total_ns));
        m.emplace_back("rcu.read_ns_p50", all.read_ns.percentile(0.50));
        m.emplace_back("rcu.read_ns_p99", all.read_ns.percentile(0.99));
        m.emplace_back("workload.gen_ns_mean", all.gen_ns.mean());
        m.emplace_back("workload.self_ns_p50", all.self_ns.percentile(0.50));
    }

    static double
    peak_rss_mib()
    {
        std::ifstream status("/proc/self/status");
        std::string line;
        while (std::getline(status, line)) {
            if (line.rfind("VmHWM:", 0) == 0)
                return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
        return 0.0;
    }

    std::vector<unsigned>
    owned(unsigned w) const
    {
        std::vector<unsigned> out;
        for (unsigned s = w; s < shards_.size(); s += kWorkers)
            out.push_back(s);
        return out;
    }

    void
    worker(unsigned w)
    {
        if (!cfg_.worker_cpus.empty())
            pin_current_thread(cfg_.worker_cpus[w]);
        const std::vector<unsigned> mine = owned(w);
        prefill(mine);
        api_->drain_thread();
        sync_.arrive_and_wait();  // set-up done

        sync_.arrive_and_wait();
        WorkerStats warm;  // discarded
        serve(mine, warm, nullptr);
        api_->drain_thread();
        sync_.arrive_and_wait();  // warm-up done
        reference_kernel(w, &ref_slices_[w * kRefSlices]);
        sync_.arrive_and_wait();  // host reference timed

        sync_.arrive_and_wait();
        TraceState* trace = traces_.empty() ? nullptr : &traces_[w];
        tls_trace = trace;
        serve(mine, stats_[w], trace);
        tls_trace = nullptr;
        sync_.arrive_and_wait();  // window closed
        api_->drain_thread();
        sync_.arrive_and_wait();  // magazines flushed
        sync_.arrive_and_wait();  // window-end counters read
        if (audit_)
            audit(mine);

        sync_.arrive_and_wait();  // teardown released
        for (unsigned s : mine) {
            Shard& sh = shards_[s];
            for (std::uint32_t k = 0; k < cfg_.spec.keys; ++k) {
                void* obj =
                    sh.slots[k].exchange(nullptr, std::memory_order_acq_rel);
                if (obj != nullptr)
                    api_->cache_free(obj_cache_, obj);
            }
            for (void* c : sh.conns)
                if (c != nullptr)
                    api_->cache_free(conn_cache_, c);
            sh.conns.clear();
        }
        api_->drain_thread();
    }

    void
    prefill(const std::vector<unsigned>& mine)
    {
        for (unsigned s : mine) {
            Shard& sh = shards_[s];
            sh.conns.assign(cfg_.spec.connections, nullptr);
            for (void*& c : sh.conns) {
                c = api_->cache_alloc(conn_cache_);
                if (c == nullptr)
                    setup_failures_.fetch_add(1);
                else
                    touch_word(c);
            }
            for (std::uint32_t k = 0; k < cfg_.spec.keys; ++k) {
                void* obj = api_->cache_alloc(obj_cache_);
                if (obj == nullptr) {
                    setup_failures_.fetch_add(1);
                    continue;
                }
                *static_cast<std::uint64_t*>(obj) = kStampMagic ^ k;
                sh.slots[k].store(obj, std::memory_order_release);
            }
        }
    }

    /// Serve the current phase on the owned shards, merged by arrival.
    void
    serve(const std::vector<unsigned>& mine, WorkerStats& st,
          TraceState* trace)
    {
        for (unsigned s : mine) {
            Shard& sh = shards_[s];
            sh.script = std::make_unique<ShardScript>(phase_spec_, s,
                                                      phase_seed_, zipf_);
            sh.has_pending = sh.script->next(sh.pending);
            sh.generated = sh.has_pending ? 1 : 0;
            sh.executed = 0;
        }
        const bool paced = !cfg_.closed;
        const std::uint64_t base = base_ns_;
        std::uint64_t prev_end = 0;
        for (;;) {
            if (!paced && stop_.load(std::memory_order_relaxed))
                break;
            Shard* best = nullptr;
            unsigned best_s = 0;
            for (unsigned s : mine) {
                Shard& sh = shards_[s];
                if (sh.has_pending &&
                    (best == nullptr ||
                     sh.pending.arrival_ns < best->pending.arrival_ns)) {
                    best = &sh;
                    best_s = s;
                }
            }
            if (best == nullptr)
                break;
            const ScenarioRequest req = best->pending;

            std::uint64_t due = 0;
            std::uint64_t start;
            if (paced) {
                due = base + req.arrival_ns;
                start = now_ns();
                while (start < due) {
                    if (due - start > 200'000)
                        std::this_thread::sleep_for(std::chrono::nanoseconds(
                            due - start - 100'000));
                    else
                        cpu_relax();
                    start = now_ns();
                }
            } else {
                start = now_ns();
            }

            std::uint64_t id = std::uint64_t{best_s} << 40 | best->executed;
            if (trace != nullptr) {
                trace->sampled = (best->executed & kSpanSampleMask) == 0;
                trace->request_id = id;
                trace->child_ns = 0;
            }
            bool failed = execute(best_s, req, st, trace);
            std::uint64_t end = now_ns();

            std::uint64_t lat = end - start;
            st.latency.record(lat);
            // Sojourn counts from the due time, so a stall also charges
            // the requests queued behind it.
            if (paced)
                st.sojourn.record(end - due);
            switch (req.kind) {
              case ScenarioRequest::Kind::kLookup:
                st.lookup.record(lat);
                break;
              case ScenarioRequest::Kind::kUpdate:
                st.update.record(lat);
                break;
              case ScenarioRequest::Kind::kScratch:
                st.scratch.record(lat);
                break;
            }
            // Generator lateness: how long after the request could have
            // started (due, and the previous request done) it started.
            std::uint64_t ready = std::max(due, prev_end);
            if (prev_end != 0)
                st.lateness.record(start > ready ? start - ready : 0);
            prev_end = end;
            ++st.completed;
            if (failed)
                ++st.failed;
            ++best->executed;

            if (trace != nullptr) {
                trace->request_total_ns += lat;
                trace->self_ns.record(lat - std::min(lat, trace->child_ns));
                if (trace->sampled)
                    trace->span("request", start, end, id);
                std::uint64_t g0 = now_ns();
                best->has_pending = best->script->next(best->pending);
                std::uint64_t g1 = now_ns();
                trace->gen_ns.record(g1 - g0);
                // The generator's span belongs to the request it emits.
                if ((best->executed & kSpanSampleMask) == 0)
                    trace->span("workload.gen", g0, g1,
                                std::uint64_t{best_s} << 40 | best->executed);
            } else {
                best->has_pending = best->script->next(best->pending);
            }
            if (best->has_pending)
                ++best->generated;
        }
    }

    /// Serve one request on shard @p s. @return true if an allocation
    /// failed.
    bool
    execute(unsigned s, const ScenarioRequest& req, WorkerStats& st,
            TraceState* trace)
    {
        Shard& sh = shards_[s];
        bool failed = false;
        if (void* conn = sh.conns[req.conn])
            touch_word(conn);

        void* rbuf = api_->cache_alloc(req_cache_);
        if (rbuf == nullptr)
            failed = true;
        else
            touch_word(rbuf);

        switch (req.kind) {
          case ScenarioRequest::Kind::kLookup: {
            // Cross-shard read: key k of shard s lives on shard
            // (s + k) mod N, so readers race another worker's
            // publish / defer-free.
            Shard& target = shards_[(s + req.key) % shards_.size()];
            std::uint64_t r0 = trace != nullptr ? now_ns() : 0;
            {
                RcuReadGuard guard(*rcu_);
                void* obj =
                    target.slots[req.key].load(std::memory_order_acquire);
                if (obj == nullptr ||
                    *static_cast<volatile std::uint64_t*>(obj) !=
                        (kStampMagic ^ req.key))
                    ++st.stamp_errors;
            }
            if (trace != nullptr)
                trace->child("rcu.read", trace->read_ns, r0, now_ns(),
                             false);
            break;
          }
          case ScenarioRequest::Kind::kUpdate: {
            void* obj = api_->cache_alloc(obj_cache_);
            if (obj == nullptr) {
                failed = true;
                break;
            }
            *static_cast<std::uint64_t*>(obj) = kStampMagic ^ req.key;
            void* old =
                sh.slots[req.key].exchange(obj, std::memory_order_acq_rel);
            if (old != nullptr)
                api_->cache_free_deferred(obj_cache_, old);
            break;
          }
          case ScenarioRequest::Kind::kScratch:
            for (unsigned i = 0; i < sh.scratch_pairs; ++i) {
                void* p = api_->cache_alloc(req_cache_);
                if (p == nullptr) {
                    failed = true;
                    continue;
                }
                touch_word(p);
                api_->cache_free(req_cache_, p);
            }
            break;
        }

        if (rbuf != nullptr)
            api_->cache_free(req_cache_, rbuf);
        return failed;
    }

    /// Check each owned shard's served stream against an offline replay
    /// of its script: same fingerprint, and every emitted request
    /// served (a closed loop leaves at most the one pending request).
    void
    audit(const std::vector<unsigned>& mine)
    {
        for (unsigned s : mine) {
            const Shard& sh = shards_[s];
            std::uint64_t count = 0;
            std::uint64_t fp = 0;
            if (cfg_.closed) {
                ShardScript replay(phase_spec_, s, phase_seed_, zipf_);
                ScenarioRequest req;
                while (count < sh.generated && replay.next(req))
                    ++count;
                fp = replay.fingerprint();
            } else {
                ShardScript::replay(phase_spec_, s, phase_seed_, count, fp);
            }
            if (count != sh.generated || fp != sh.script->fingerprint())
                audit_failures_.fetch_add(1);
            std::uint64_t pending = sh.has_pending ? 1 : 0;
            if (sh.executed + pending != count ||
                (!cfg_.closed && pending != 0))
                count_failures_.fetch_add(1);
        }
    }

    const LegConfig& cfg_;
    const std::uint64_t seed_;
    const bool audit_;
    std::unique_ptr<RcuDomain> rcu_;
    std::unique_ptr<Allocator> real_;
    std::unique_ptr<TimingAllocator> timing_;
    Allocator* api_ = nullptr;
    CacheId conn_cache_, obj_cache_, req_cache_;
    std::shared_ptr<const ZipfSampler> zipf_;
    std::vector<Shard> shards_;
    std::vector<WorkerStats> stats_;
    std::vector<TraceState> traces_;

    // The current phase, written by the main thread before the barrier
    // that releases the workers into it.
    ScenarioSpec phase_spec_;
    std::uint64_t phase_seed_ = 0;
    std::uint64_t base_ns_ = 0;
    std::atomic<bool> stop_{false};

    std::vector<double> ref_slices_ =
        std::vector<double>(kWorkers * kRefSlices, 0.0);
    std::atomic<std::uint64_t> setup_failures_{0};
    std::atomic<std::uint64_t> audit_failures_{0};
    std::atomic<std::uint64_t> count_failures_{0};
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t stamp_errors_ = 0;

    std::barrier<> sync_;
    std::vector<std::thread> threads_;  // last: joined before the rest dies
};

/// The CPUs this process may run on, in ascending order.
std::vector<int>
allowed_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> out;
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return out;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            out.push_back(c);
    return out;
}

bool
load_spec(const std::string& path, ScenarioSpec& out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "prudbench: cannot open %s\n", path.c_str());
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    ScenarioParseResult parsed = parse_scenario(text.str());
    if (!parsed.ok) {
        std::fprintf(stderr, "prudbench: %s: %s\n", path.c_str(),
                     parsed.error.c_str());
        return false;
    }
    if (!parsed.clamped.empty()) {
        std::fprintf(stderr, "prudbench: %s: %s\n", path.c_str(),
                     parsed.clamped.front().c_str());
        return false;
    }
    out = parsed.spec;
    return true;
}

bool
parse_args(int argc, char** argv, LegConfig& cfg)
{
    std::string scenario;
    std::string loop = "closed";
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&a](const char* key) -> const char* {
            std::size_t n = std::strlen(key);
            return a.compare(0, n, key) == 0 ? a.c_str() + n : nullptr;
        };
        if (const char* v = val("--scenario="))
            scenario = v;
        else if (const char* v = val("--alloc="))
            cfg.alloc_kind = v;
        else if (const char* v = val("--loop="))
            loop = v;
        else if (const char* v = val("--seed="))
            cfg.seed = std::strtoull(v, nullptr, 10);
        else if (const char* v = val("--seconds="))
            cfg.seconds = std::strtod(v, nullptr);
        else if (const char* v = val("--warmup="))
            cfg.warmup_seconds = std::strtod(v, nullptr);
        else if (const char* v = val("--instances="))
            cfg.instances =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        else if (a == "--traced")
            cfg.traced = true;
        else if (const char* v = val("--trace-file="))
            cfg.trace_file = v;
        else if (a == "--smoke")
            cfg.smoke = true;
        else {
            std::fprintf(stderr, "prudbench: unknown argument %s\n",
                         a.c_str());
            return false;
        }
    }
    if (scenario.empty() || (loop != "closed" && loop != "open") ||
        (cfg.alloc_kind != "prudence" && cfg.alloc_kind != "slub") ||
        !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) ||
        !(cfg.warmup_seconds >= 0.0 && cfg.warmup_seconds <= 60.0) ||
        cfg.instances < 1 || cfg.instances > 100) {
        std::fprintf(stderr,
                     "usage: prudbench --scenario=FILE "
                     "--alloc=prudence|slub --loop=closed|open --seed=N "
                     "--seconds=S [--warmup=S] [--instances=K] [--traced] "
                     "[--trace-file=FILE] [--smoke]\n");
        return false;
    }
    cfg.closed = loop == "closed";
    if (!load_spec(scenario, cfg.spec))
        return false;
    cfg.workload = cfg.spec.name;
    cfg.spec.seed = cfg.seed;
    return true;
}

/// One line of JSON per allocator instance.
void
print_json(const LegConfig& cfg, std::uint64_t seed, const Checks& checks,
           double setup_s, const Metrics& metrics, std::uint64_t attempted,
           std::uint64_t failed, bool ok)
{
    std::printf("{\"workload\":\"%s\",\"alloc\":\"%s\",\"traced\":%s,"
                "\"seed\":%" PRIu64 ",\"ok\":%s,\"attempted\":%" PRIu64
                ",\"failed\":%" PRIu64 ",\"setup_s\":%.9g,\"checks\":{",
                cfg.workload.c_str(), cfg.alloc_kind.c_str(),
                cfg.traced ? "true" : "false", seed, ok ? "true" : "false",
                attempted, failed, setup_s);
    for (std::size_t i = 0; i < checks.size(); ++i)
        std::printf("%s\"%s\":%s", i == 0 ? "" : ",",
                    checks[i].first.c_str(),
                    checks[i].second ? "true" : "false");
    std::printf("},\"metrics\":{");
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\":%.17g", i == 0 ? "" : ",",
                    metrics[i].first.c_str(), metrics[i].second);
    std::printf("}}\n");
    std::fflush(stdout);
}

}  // namespace

int
main(int argc, char** argv)
{
    LegConfig cfg;
    if (!parse_args(argc, argv, cfg))
        return 2;
    reference_table();  // built once, outside every timed phase
    std::vector<int> cpus = allowed_cpus();
    if (cpus.size() >= kMinCpus) {
        // Workers each own one CPU; the main thread takes the next, and
        // every thread the allocator and the RCU domain start inherits
        // it, so background work never preempts a worker.
        cfg.worker_cpus.assign(cpus.begin(), cpus.begin() + kWorkers);
        pin_current_thread(cpus[kWorkers]);
    } else if (!cfg.smoke) {
        std::fprintf(stderr,
                     "prudbench: needs %u CPUs (%u request workers plus "
                     "one for background threads), found %zu\n",
                     kMinCpus, kWorkers, cpus.size());
        return 2;
    }

    bool all_ok = true;
    for (unsigned i = 0; i < cfg.instances; ++i) {
        std::uint64_t seed = cfg.seed + i;
        bool last = i + 1 == cfg.instances;
        std::uint64_t t0 = now_ns();
        Leg leg(cfg, seed, last);
        double setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
        Metrics metrics;
        Checks checks;
        leg.run(metrics);
        leg.finish(checks);
        if (last && !cfg.trace_file.empty() &&
            !leg.write_trace(cfg.trace_file)) {
            std::fprintf(stderr, "prudbench: cannot write %s\n",
                         cfg.trace_file.c_str());
            checks.emplace_back("trace_written", false);
        }
        bool ok = leg.completed() > 0;
        for (const auto& c : checks)
            ok = ok && c.second;
        all_ok = all_ok && ok;
        print_json(cfg, seed, checks, setup_s, metrics, leg.completed(),
                   leg.failed(), ok);
    }
    return all_ok ? 0 : 1;
}
