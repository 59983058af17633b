#include "workload/engine.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <memory>
#include <random>
#include <thread>

#include "rcu/rcu_domain.h"
#include "telemetry/monitor.h"
#include "trace/histogram.h"
#include "workload/loadgen.h"

namespace prudence {

namespace {

/// Registry snapshot with idle metrics removed (a workload that never
/// touched a subsystem should not report its empty histograms).
std::vector<trace::MetricSnapshot>
active_metrics(bool reset)
{
    std::vector<trace::MetricSnapshot> all =
        trace::MetricsRegistry::instance().snapshot_all(reset);
    std::vector<trace::MetricSnapshot> out;
    for (trace::MetricSnapshot& m : all) {
        bool active =
            m.kind == trace::MetricSnapshot::Kind::kHistogram
                ? m.hist.count > 0
                : (m.value != 0 || m.peak != 0);
        if (active)
            out.push_back(std::move(m));
    }
    return out;
}

/// Loops of the spin body per nanosecond, measured once.
double
calibrate_spin()
{
    using clock = std::chrono::steady_clock;
    volatile std::uint64_t sink = 0;
    constexpr std::uint64_t kIters = 20'000'000;
    auto t0 = clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i)
        sink = sink + i;
    auto t1 = clock::now();
    double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    if (ns <= 0.0)
        return 1.0;
    return static_cast<double>(kIters) / ns;
}

double
loops_per_ns()
{
    static const double value = calibrate_spin();
    return value;
}

/// Per-thread pool of live objects for one cache.
struct Pool
{
    std::vector<void*> objects;

    void*
    take_random(std::mt19937_64& rng)
    {
        if (objects.empty())
            return nullptr;
        std::size_t i = rng() % objects.size();
        void* obj = objects[i];
        objects[i] = objects.back();
        objects.pop_back();
        return obj;
    }
};

/// One worker thread's run over the spec.
struct Worker
{
    Allocator* alloc;
    const WorkloadSpec* spec;
    std::vector<CacheId> cache_ids;
    std::uint64_t seed;
    std::uint64_t failures = 0;

    std::mt19937_64 rng{0};
    std::vector<Pool> pools;
    std::discrete_distribution<std::size_t> pick;

    void
    prepare()
    {
        rng.seed(seed);
        pools.assign(spec->caches.size(), Pool{});
        std::vector<double> weights;
        weights.reserve(spec->ops.size());
        for (const OpType& op : spec->ops)
            weights.push_back(op.weight);
        pick = std::discrete_distribution<std::size_t>(weights.begin(),
                                                       weights.end());
    }

    void
    warmup()
    {
        prepare();
        // Seed each cache's standing population.
        for (std::size_t ci = 0; ci < spec->caches.size(); ++ci) {
            for (std::size_t i = 0; i < spec->caches[ci].standing_pool;
                 ++i) {
                void* obj = alloc->cache_alloc(cache_ids[ci]);
                if (obj == nullptr) {
                    ++failures;
                    continue;
                }
                pools[ci].objects.push_back(obj);
            }
        }
        for (std::uint64_t i = 0; i < spec->warmup_ops_per_thread; ++i)
            run_op(spec->ops[pick(rng)], pools, rng);
    }

    void
    timed()
    {
        for (std::uint64_t i = 0; i < spec->ops_per_thread; ++i)
            run_op(spec->ops[pick(rng)], pools, rng);
    }

    /// Drain the pools so end-of-run metrics reflect the workload,
    /// not leaked objects (benchmarks delete their files /
    /// connections / sessions at exit too).
    void
    drain()
    {
        for (std::size_t ci = 0; ci < pools.size(); ++ci) {
            for (void* obj : pools[ci].objects)
                alloc->cache_free(cache_ids[ci], obj);
            pools[ci].objects.clear();
        }
    }

    void
    run_op(const OpType& op, std::vector<Pool>& pools,
           std::mt19937_64& rng)
    {
        for (const OpAction& a : op.actions) {
            CacheId id = cache_ids[a.cache];
            Pool& pool = pools[a.cache];
            switch (a.kind) {
              case OpAction::Kind::kAlloc:
                for (std::size_t i = 0; i < a.count; ++i) {
                    void* obj = alloc->cache_alloc(id);
                    if (obj == nullptr) {
                        ++failures;
                        continue;
                    }
                    pool.objects.push_back(obj);
                }
                break;
              case OpAction::Kind::kFree:
                for (std::size_t i = 0; i < a.count; ++i) {
                    if (void* obj = pool.take_random(rng))
                        alloc->cache_free(id, obj);
                }
                break;
              case OpAction::Kind::kFreeDeferred:
                for (std::size_t i = 0; i < a.count; ++i) {
                    if (void* obj = pool.take_random(rng))
                        alloc->cache_free_deferred(id, obj);
                }
                break;
              case OpAction::Kind::kPair:
                for (std::size_t i = 0; i < a.count; ++i) {
                    void* obj = alloc->cache_alloc(id);
                    if (obj == nullptr) {
                        ++failures;
                        continue;
                    }
                    alloc->cache_free(id, obj);
                }
                break;
            }
        }
        if (spec->app_work_ns > 0)
            spin_for_ns(spec->app_work_ns);
    }
};

// ---- scenario engine (DESIGN.md §15) ----

/// One shard's server state. Custody: exactly one engine thread owns
/// a shard's connections, key slots and script; other threads only
/// ever *read* its key slots (cross-shard RCU lookups), so slots are
/// atomics and everything else is plain.
struct ShardState
{
    std::unique_ptr<ShardScript> script;
    std::vector<void*> conns;
    /// Published objects, index = key. Readers load-acquire under an
    /// RCU guard; the owner publishes with exchange-release and
    /// defer-frees the displaced object.
    std::unique_ptr<std::atomic<void*>[]> slots;
    unsigned scratch_pairs = 0;
    std::uint64_t executed = 0;
    std::uint64_t failed = 0;
    ScenarioRequest pending{};
    bool has_pending = false;
};

/// Read/write an object's first word (the request's "payload").
void
touch_word(void* p)
{
    auto* w = static_cast<volatile std::uint64_t*>(p);
    *w = *w + 1;
}

/// Everything the scenario worker threads share.
struct ScenarioShared
{
    Allocator* alloc = nullptr;
    RcuDomain* rcu = nullptr;
    const ScenarioSpec* spec = nullptr;
    CacheId conn_cache, obj_cache, req_cache;
    std::vector<ShardState>* shards = nullptr;
    trace::LatencyHistogram* latency = nullptr;
    bool paced = false;
    /// Schedule origin; written by the main thread before the start
    /// barrier, read by workers after it.
    std::chrono::steady_clock::time_point base;
};

/// Serve one request on its owning shard.
void
execute_request(ScenarioShared& sh, std::size_t shard_index,
                const ScenarioRequest& req)
{
    std::vector<ShardState>& shards = *sh.shards;
    ShardState& st = shards[shard_index];
    bool failed = false;

    if (void* conn = st.conns[req.conn])
        touch_word(conn);

    // Per-request allocation graph: every request owns a transient
    // request buffer for its whole service time.
    void* rbuf = sh.alloc->cache_alloc(sh.req_cache);
    if (rbuf == nullptr)
        failed = true;
    else
        touch_word(rbuf);

    switch (req.kind) {
      case ScenarioRequest::Kind::kLookup: {
        // Cross-shard read: key k of shard s resolves to shard
        // (s + k) mod N, so lookups genuinely race another shard's
        // publish/defer-free — the RCU path under test.
        ShardState& target =
            shards[(shard_index + req.key) % shards.size()];
        RcuReadGuard guard(*sh.rcu);
        void* obj = target.slots[req.key].load(std::memory_order_acquire);
        if (obj != nullptr) {
            auto* w = static_cast<volatile std::uint64_t*>(obj);
            (void)*w;
        }
        break;
      }
      case ScenarioRequest::Kind::kUpdate: {
        void* obj = sh.alloc->cache_alloc(sh.obj_cache);
        if (obj == nullptr) {
            failed = true;
            break;
        }
        *static_cast<std::uint64_t*>(obj) = req.key;
        void* old = st.slots[req.key].exchange(
            obj, std::memory_order_acq_rel);
        if (old != nullptr)
            sh.alloc->cache_free_deferred(sh.obj_cache, old);
        break;
      }
      case ScenarioRequest::Kind::kScratch:
        for (unsigned i = 0; i < st.scratch_pairs; ++i) {
            void* p = sh.alloc->cache_alloc(sh.req_cache);
            if (p == nullptr) {
                failed = true;
                continue;
            }
            touch_word(p);
            sh.alloc->cache_free(sh.req_cache, p);
        }
        break;
    }

    if (rbuf != nullptr)
        sh.alloc->cache_free(sh.req_cache, rbuf);
    if (failed)
        ++st.failed;
    ++st.executed;
}

/// Sleep-then-yield until the scheduled arrival instant.
void
wait_until_arrival(std::chrono::steady_clock::time_point target)
{
    using namespace std::chrono_literals;
    for (;;) {
        auto now = std::chrono::steady_clock::now();
        if (now >= target)
            return;
        auto gap = target - now;
        if (gap > 150us)
            std::this_thread::sleep_for(gap - 100us);
        else
            std::this_thread::yield();
    }
}

/// Serve every owned shard's schedule, merged by arrival time.
void
scenario_traffic(ScenarioShared& sh,
                 const std::vector<std::size_t>& owned)
{
    using clock = std::chrono::steady_clock;
    std::vector<ShardState>& shards = *sh.shards;
    for (;;) {
        std::size_t best = static_cast<std::size_t>(-1);
        std::uint64_t best_arrival = 0;
        for (std::size_t s : owned) {
            ShardState& st = shards[s];
            if (!st.has_pending)
                continue;
            if (best == static_cast<std::size_t>(-1) ||
                st.pending.arrival_ns < best_arrival) {
                best = s;
                best_arrival = st.pending.arrival_ns;
            }
        }
        if (best == static_cast<std::size_t>(-1))
            return;

        ShardState& st = shards[best];
        ScenarioRequest req = st.pending;
        auto scheduled =
            sh.base + std::chrono::nanoseconds(req.arrival_ns);
        clock::time_point t0;
        if (sh.paced) {
            wait_until_arrival(scheduled);
            // Open-loop latency: measured from the *scheduled*
            // arrival, so time spent queued behind earlier requests
            // counts (no coordinated omission).
            t0 = scheduled;
        } else {
            t0 = clock::now();
        }
        execute_request(sh, best, req);
        auto dt = clock::now() - t0;
        sh.latency->record(dt.count() > 0
                               ? static_cast<std::uint64_t>(dt.count())
                               : 0);
        st.has_pending = st.script->next(st.pending);
    }
}

}  // namespace

void
spin_for_ns(std::uint32_t ns)
{
    volatile std::uint64_t sink = 0;
    auto loops =
        static_cast<std::uint64_t>(loops_per_ns() * ns);
    for (std::uint64_t i = 0; i < loops; ++i)
        sink = sink + i;
}

double
WorkloadResult::deferred_free_percent() const
{
    std::uint64_t frees = 0;
    std::uint64_t deferred = 0;
    for (const CacheStatsSnapshot& s : caches) {
        frees += s.free_calls + s.deferred_free_calls;
        deferred += s.deferred_free_calls;
    }
    if (frees == 0)
        return 0.0;
    return 100.0 * static_cast<double>(deferred) /
           static_cast<double>(frees);
}

WorkloadResult
run_workload(Allocator& alloc, const WorkloadSpec& spec,
             std::uint64_t seed)
{
    // Force spin calibration outside the timed region.
    loops_per_ns();

    std::vector<CacheId> cache_ids;
    cache_ids.reserve(spec.caches.size());
    for (const CacheSpec& cs : spec.caches)
        cache_ids.push_back(alloc.create_cache(cs.name, cs.object_size));

    std::vector<Worker> workers(spec.threads);
    for (unsigned t = 0; t < spec.threads; ++t) {
        workers[t].alloc = &alloc;
        workers[t].spec = &spec;
        workers[t].cache_ids = cache_ids;
        workers[t].seed = seed * 7919 + t;
    }

    // Barriers bracket the timed phase: warmup runs before it, and
    // the quiesced live-state snapshot plus the pool drain run after
    // it, outside the measurement window.
    std::barrier start_line(spec.threads + 1);
    std::barrier finish_line(spec.threads + 1);
    std::barrier metrics_line(spec.threads + 1);
    std::barrier flushed_line(spec.threads + 1);
    std::barrier drain_line(spec.threads + 1);
    std::vector<std::thread> threads;
    threads.reserve(spec.threads);
    for (unsigned t = 0; t < spec.threads; ++t) {
        threads.emplace_back([&, t] {
            workers[t].warmup();
            start_line.arrive_and_wait();
            workers[t].timed();
            finish_line.arrive_and_wait();
            // After the timed metrics are captured, flush this
            // thread's magazines so the quiesced live snapshot sees
            // exact standing-object counts (thread-local batches
            // would otherwise inflate the live gauge).
            metrics_line.arrive_and_wait();
            alloc.drain_thread();
            flushed_line.arrive_and_wait();
            drain_line.arrive_and_wait();
            workers[t].drain();
        });
    }
    start_line.arrive_and_wait();
    // Phase boundary: drain-and-reset every registry metric via
    // atomic exchange, discarding warmup-phase recordings. Increments
    // racing the barrier land in exactly one phase (never lost, as a
    // get()+reset() pair would allow).
    active_metrics(/*reset=*/true);
    auto t0 = std::chrono::steady_clock::now();
    finish_line.arrive_and_wait();
    auto t1 = std::chrono::steady_clock::now();
    // Second boundary: capture the timed phase before quiesce/drain
    // activity pollutes the histograms.
    std::vector<trace::MetricSnapshot> timed_metrics =
        active_metrics(/*reset=*/true);

    // Release the workers to flush their thread-local magazines, and
    // wait until every flush has landed in the shared layers.
    metrics_line.arrive_and_wait();
    alloc.drain_thread();
    flushed_line.arrive_and_wait();

    // Workers are parked at drain_line: reclaim every deferred object
    // and snapshot the paper's end-of-run state (live objects still
    // allocated).
    alloc.quiesce();
    std::vector<CacheStatsSnapshot> live_snaps;
    for (CacheId id : cache_ids)
        live_snaps.push_back(alloc.cache_snapshot(id));

    drain_line.arrive_and_wait();
    for (std::thread& th : threads)
        th.join();

    alloc.quiesce();

    WorkloadResult result;
    result.timed_metrics = std::move(timed_metrics);
    result.caches_live = std::move(live_snaps);
    result.workload = spec.name;
    result.allocator_kind = alloc.kind();
    result.wall_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    result.total_ops =
        static_cast<std::uint64_t>(spec.threads) * spec.ops_per_thread;
    result.ops_per_second = result.wall_seconds > 0.0
        ? static_cast<double>(result.total_ops) / result.wall_seconds
        : 0.0;
    for (const Worker& w : workers)
        result.alloc_failures += w.failures;
    for (CacheId id : cache_ids)
        result.caches.push_back(alloc.cache_snapshot(id));
    return result;
}

ScenarioResult
run_scenario(Allocator& alloc, RcuDomain& rcu, const ScenarioSpec& spec_in,
             const ScenarioRunOptions& options)
{
    ScenarioSpec spec = spec_in;
    clamp_scenario(spec);

    ScenarioShared sh;
    sh.alloc = &alloc;
    sh.rcu = &rcu;
    sh.spec = &spec;
    sh.paced = options.paced;
    sh.conn_cache = alloc.create_cache("scenario.conn", 128);
    sh.obj_cache = alloc.create_cache("scenario.obj", spec.object_bytes);
    sh.req_cache = alloc.create_cache("scenario.req", spec.request_bytes);

    std::vector<ShardState> shards(spec.shards);
    sh.shards = &shards;
    trace::LatencyHistogram latency;
    sh.latency = &latency;

    // One key-distribution table per scenario, shared by every shard.
    auto zipf =
        std::make_shared<const ZipfSampler>(spec.keys, spec.zipf_s);

    unsigned hw = std::thread::hardware_concurrency();
    unsigned nthreads = options.threads != 0
        ? options.threads
        : std::min(spec.shards, hw == 0 ? 1u : hw);
    nthreads = std::clamp(nthreads, 1u, spec.shards);

    std::unique_ptr<telemetry::Monitor> monitor;
    std::unique_ptr<telemetry::ProbeGroup> probes;
    if (options.telemetry) {
        telemetry::MonitorConfig mc;
        // ~200 samples over the scheduled duration, within sane rates.
        std::uint64_t period_us =
            std::uint64_t{spec.duration_ms} * 1000 / 200;
        period_us = std::clamp<std::uint64_t>(period_us, 1'000, 50'000);
        mc.period = std::chrono::microseconds{period_us};
        monitor = std::make_unique<telemetry::Monitor>(mc);
        probes = std::make_unique<telemetry::ProbeGroup>(*monitor);
        telemetry::add_rss_probe(*probes);
        alloc.register_telemetry_probes(*probes, "scenario.");
        monitor->start();
    }

    // Shard ownership: round-robin by shard index. The per-shard
    // streams are thread-count independent, so this split is pure
    // scheduling.
    std::vector<std::vector<std::size_t>> owned(nthreads);
    for (unsigned s = 0; s < spec.shards; ++s)
        owned[s % nthreads].push_back(s);

    std::barrier start_line(nthreads + 1);
    std::barrier finish_line(nthreads + 1);
    std::barrier teardown_line(nthreads + 1);

    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t) {
        threads.emplace_back([&, t] {
            // Build owned shards' server state outside the traffic
            // window.
            for (std::size_t s : owned[t]) {
                ShardState& st = shards[s];
                st.script = std::make_unique<ShardScript>(
                    spec, static_cast<unsigned>(s), spec.seed, zipf);
                st.scratch_pairs =
                    shard_mix(spec, st.script->shard_class())
                        .scratch_pairs;
                st.slots =
                    std::make_unique<std::atomic<void*>[]>(spec.keys);
                st.conns.assign(spec.connections, nullptr);
                for (void*& c : st.conns)
                    if ((c = alloc.cache_alloc(sh.conn_cache)))
                        touch_word(c);
                st.has_pending = st.script->next(st.pending);
            }
            start_line.arrive_and_wait();
            scenario_traffic(sh, owned[t]);
            finish_line.arrive_and_wait();
            // Main captures the traffic-phase metrics, then releases
            // us to tear down custody: unpublish and free every key
            // slot (all readers are past the finish barrier), return
            // the connections, flush thread-local magazines.
            teardown_line.arrive_and_wait();
            for (std::size_t s : owned[t]) {
                ShardState& st = shards[s];
                for (std::uint32_t k = 0; k < spec.keys; ++k) {
                    void* obj = st.slots[k].exchange(
                        nullptr, std::memory_order_acq_rel);
                    if (obj != nullptr)
                        alloc.cache_free(sh.obj_cache, obj);
                }
                for (void* c : st.conns)
                    if (c != nullptr)
                        alloc.cache_free(sh.conn_cache, c);
                st.conns.clear();
            }
            alloc.drain_thread();
        });
    }

    sh.base = std::chrono::steady_clock::now();
    start_line.arrive_and_wait();
    // Same phase bracketing as run_workload: drain-and-reset discards
    // setup-phase recordings, the post-finish capture excludes
    // teardown.
    active_metrics(/*reset=*/true);
    finish_line.arrive_and_wait();
    auto t1 = std::chrono::steady_clock::now();
    std::vector<trace::MetricSnapshot> timed_metrics =
        active_metrics(/*reset=*/true);
    teardown_line.arrive_and_wait();
    for (std::thread& th : threads)
        th.join();
    alloc.quiesce();

    ScenarioResult result;
    result.scenario = spec.name;
    result.allocator_kind = alloc.kind();
    result.wall_seconds =
        std::chrono::duration<double>(t1 - sh.base).count();
    result.timed_metrics = std::move(timed_metrics);
    for (const ShardState& st : shards) {
        result.completed_requests += st.executed;
        result.failed_requests += st.failed;
        result.shard_fingerprints.push_back(st.script->fingerprint());
    }
    result.fingerprint = combine_fingerprints(result.shard_fingerprints);
    result.achieved_rps = result.wall_seconds > 0.0
        ? static_cast<double>(result.completed_requests) /
              result.wall_seconds
        : 0.0;
    result.latency = latency.snapshot();
    result.caches.push_back(alloc.cache_snapshot(sh.conn_cache));
    result.caches.push_back(alloc.cache_snapshot(sh.obj_cache));
    result.caches.push_back(alloc.cache_snapshot(sh.req_cache));

    if (monitor != nullptr) {
        monitor->stop();
        for (const telemetry::SeriesSnapshot& s : monitor->snapshot()) {
            if (s.name != "process.rss_bytes" || s.points.empty())
                continue;
            std::uint64_t origin = s.points.front().t_first_ns;
            for (const telemetry::SeriesPoint& p : s.points) {
                result.peak_rss_bytes =
                    std::max(result.peak_rss_bytes, p.max);
                result.rss_series.emplace_back(p.t_last_ns - origin,
                                               p.last);
            }
        }
        probes.reset();  // detach allocator probes before `alloc` dies
    }
    return result;
}

}  // namespace prudence
