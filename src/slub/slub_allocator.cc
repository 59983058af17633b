#include "slub/slub_allocator.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <stdexcept>

#include "perturb/perturb.h"
#include "slab/size_classes.h"
#include "slab/validate.h"
#include "telemetry/monitor.h"
#include "trace/tracer.h"

namespace prudence {

namespace {

/// Refill batches a ring-empty lock-free refill pulls under one
/// node-lock acquisition: one feeds the magazine, the surplus is
/// parked in the CPU's ring (capped at kMaxMagazineCapacity objects).
constexpr std::size_t kRefillPrefillBatches = 4;

}  // namespace

SlubAllocator::Cache::Cache(std::string name, std::size_t object_size,
                            BuddyAllocator& buddy, PageOwnerTable& owners,
                            unsigned ncpus, bool lockfree)
    : pool(std::move(name), object_size, buddy, owners)
{
    pool.set_context(this);
    cpus.reserve(ncpus);
    for (unsigned i = 0; i < ncpus; ++i) {
        cpus.push_back(std::make_unique<PerCpu>(
            pool.geometry().cache_capacity, lockfree));
    }
}

SlubAllocator::SlubAllocator(GracePeriodDomain& domain,
                             const SlubConfig& config)
    : domain_(domain),
      buddy_(BuddyConfig{config.arena_bytes, config.cpus,
                         config.pcp_batch, config.pcp_high_watermark}),
      owners_(buddy_),
      cpu_registry_(config.cpus),
      lockfree_pcpu_(config.lockfree_pcpu),
      pressure_drain_batch_(config.pressure_drain_batch),
      front_(config.magazine_capacity, cpu_registry_,
             [this](ThreadMagazines& t) { drain_table(t); })
{
    // The kmalloc ladder occupies cache indexes [0, kNumSizeClasses).
    for (std::size_t i = 0; i < kNumSizeClasses; ++i) {
        caches_[i] = std::make_unique<Cache>(
            size_class_name(i), kSizeClasses[i], buddy_, owners_,
            cpu_registry_.max_cpus(), lockfree_pcpu_);
        caches_[i]->index = i;
    }
    cache_count_.store(kNumSizeClasses, std::memory_order_release);

    CallbackEngineConfig cb = config.callback;
    cb.cpus = cpu_registry_.max_cpus();
    if (!cb.pressure_probe) {
        cb.pressure_probe = [this] { return buddy_.usage_fraction(); };
    }
    engine_ = std::make_unique<CallbackEngine>(domain_, cb);
}

SlubAllocator::~SlubAllocator()
{
    // Reclaim surviving per-thread magazines while the caches they
    // drain into still exist. Callback-invoked frees bypass the
    // magazine layer, so the engine drain that follows (engine_ is
    // destroyed first, declaration order) cannot repopulate them.
    front_.shutdown();
}

SlubAllocator::Cache&
SlubAllocator::cache_ref(CacheId id) const
{
    assert(id.valid() &&
           id.index < cache_count_.load(std::memory_order_acquire));
    return *caches_[id.index];
}

SlubAllocator::Cache*
SlubAllocator::cache_of_object(const void* p) const
{
    SlabHeader* slab = owners_.lookup(p);
    if (slab == nullptr)
        return nullptr;
    auto* pool = static_cast<SlabPool*>(slab->owner);
    return static_cast<Cache*>(pool->context());
}

void*
SlubAllocator::kmalloc(std::size_t size)
{
    std::size_t idx = size_class_index(size);
    if (idx >= kNumSizeClasses)
        return nullptr;
    return cache_alloc(CacheId{idx});
}

void
SlubAllocator::kfree(void* p)
{
    if (p == nullptr)
        return;
    Cache* c = cache_of_object(p);
    assert(c != nullptr && "kfree of a pointer this allocator does not own");
    cache_free(CacheId{c->index}, p);
}

void
SlubAllocator::kfree_deferred(void* p)
{
    if (p == nullptr)
        return;
    Cache* c = cache_of_object(p);
    assert(c != nullptr &&
           "kfree_deferred of a pointer this allocator does not own");
    // Conventional RCU deferral (paper Listing 1): the allocator is
    // oblivious of this object until the callback fires.
    c->pool.stats().deferred_free_calls.add();
    c->pool.stats().live_objects.sub();
    c->pool.stats().deferred_outstanding.add();
    PRUDENCE_TRACE_SPAN(defer_span, trace::HistId::kSlubDeferNs,
                        trace::EventId::kDeferSpan);
    defer_span.set_args(c->pool.geometry().object_size);
    engine_->call(&SlubAllocator::deferred_free_cb, this, p);
}

void
SlubAllocator::deferred_free_cb(void* ctx, void* obj)
{
    auto* self = static_cast<SlubAllocator*>(ctx);
    Cache* c = self->cache_of_object(obj);
    assert(c != nullptr);
    c->pool.stats().deferred_outstanding.sub();
    self->free_impl(CacheId{c->index}, obj, /*from_callback=*/true);
}

CacheId
SlubAllocator::create_cache(const std::string& name,
                            std::size_t object_size)
{
    std::lock_guard<std::mutex> lock(caches_mutex_);
    std::size_t count = cache_count_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < count; ++i) {
        if (caches_[i]->pool.name() == name &&
            caches_[i]->pool.geometry().object_size == object_size) {
            return CacheId{i};
        }
    }
    if (count == kMaxCaches)
        throw std::runtime_error("SlubAllocator: too many caches");
    caches_[count] = std::make_unique<Cache>(
        name, object_size, buddy_, owners_, cpu_registry_.max_cpus(),
        lockfree_pcpu_);
    caches_[count]->index = count;
    cache_count_.store(count + 1, std::memory_order_release);
    return CacheId{count};
}

// The hit paths (DESIGN.md §9 "Leaf hit path"), the same as
// Prudence's: every boundary tail-calls the out-of-line *_impl slow
// path, which counts the call itself.

void*
SlubAllocator::cache_alloc(CacheId cache)
{
    if (void* obj = front_.pop(cache.index))
        return obj;
    return alloc_impl(cache);
}

void
SlubAllocator::cache_free(CacheId cache, void* p)
{
    if (p == nullptr)
        return;
    if (front_.push(cache.index, p))
        return;
    free_impl(cache, p, /*from_callback=*/false);
}

void
SlubAllocator::cache_free_deferred(CacheId cache, void* p)
{
    if (p == nullptr)
        return;
    Cache& c = cache_ref(cache);
    c.pool.stats().deferred_free_calls.add();
    c.pool.stats().live_objects.sub();
    c.pool.stats().deferred_outstanding.add();
    PRUDENCE_TRACE_SPAN(defer_span, trace::HistId::kSlubDeferNs,
                        trace::EventId::kDeferSpan);
    defer_span.set_args(c.pool.geometry().object_size);
    engine_->call(&SlubAllocator::deferred_free_cb, this, p);
}

void*
SlubAllocator::alloc_impl(CacheId cache)
{
    Cache& c = cache_ref(cache);
    if (front_.capacity() > 0) {
        // Thread-local magazine (no lock, no shared atomic); stats
        // accumulate as plain per-thread deltas flushed at batch
        // boundaries. Identical accounting semantics to Prudence's
        // magazine layer so head-to-head numbers stay comparable.
        ThreadMagazines& t = front_.table();
        Magazine& m = front_.magazine(t, c.index,
                                      c.pool.geometry().cache_capacity);
        ++m.stats.alloc_calls;
        if (void* obj = m.objects.pop()) {
            ++m.stats.cache_hits;
            return obj;
        }
        PRUDENCE_TRACE_SPAN(alloc_span, trace::HistId::kSlubAllocNs,
                            trace::EventId::kAllocSpan);
        alloc_span.set_args(c.pool.geometry().object_size);
        return magazine_alloc_slow(c, t, m);
    }

    CacheStats& stats = c.pool.stats();
    stats.alloc_calls.add();
    PRUDENCE_TRACE_SPAN(alloc_span, trace::HistId::kSlubAllocNs,
                        trace::EventId::kAllocSpan);
    alloc_span.set_args(c.pool.geometry().object_size);

    PerCpu& pc = *c.cpus[cpu_registry_.cpu_id()];
    if (pc.ring) {
        // Lock-free leg: one CAS pop on the hit path. CacheStats
        // counters are atomic, so no per-CPU lock is needed anywhere
        // here — misses take only the node lock inside refill_batch.
        if (void* obj = pc.ring->pop()) {
            stats.cache_hits.add();
            stats.live_objects.add();
            PRUDENCE_TRACE_STMT({
                static Counter& hits =
                    trace::MetricsRegistry::instance().counter(
                        "slub.cache_hit");
                hits.add();
            });
            return obj;
        }
        PRUDENCE_TRACE_STMT({
            static Counter& misses =
                trace::MetricsRegistry::instance().counter(
                    "slub.cache_miss");
            misses.add();
        });
        void* batch[256];
        std::size_t want = c.pool.geometry().refill_target;
        if (want > 256)
            want = 256;
        std::size_t got = refill_batch(c, batch, want);
        if (got == 0)
            return nullptr;  // out of memory
        stats.live_objects.add();
        for (std::size_t i = 1; i < got; ++i) {
            if (!pc.ring->push(batch[i])) {
                // Concurrent frees filled the ring meanwhile: return
                // the surplus straight to the slabs.
                flush_batch(c, batch + i, got - i);
                break;
            }
        }
        return batch[0];
    }

    stats.pcpu_lock_acquisitions.add();
    std::lock_guard<SpinLock> guard(pc.lock);

    if (void* obj = pc.cache.pop()) {
        stats.cache_hits.add();
        stats.live_objects.add();
        PRUDENCE_TRACE_STMT({
            static Counter& hits =
                trace::MetricsRegistry::instance().counter(
                    "slub.cache_hit");
            hits.add();
        });
        return obj;
    }
    PRUDENCE_TRACE_STMT({
        static Counter& misses =
            trace::MetricsRegistry::instance().counter(
                "slub.cache_miss");
        misses.add();
    });

    if (!refill(c, pc.cache))
        return nullptr;  // out of memory

    void* obj = pc.cache.pop();
    assert(obj != nullptr);
    stats.live_objects.add();
    return obj;
}

bool
SlubAllocator::refill(Cache& c, ObjectCache& cache)
{
    if (PRUDENCE_FAULT_POINT(kRefillFail)) {
        // Injected refill failure: indistinguishable from every slab
        // being unusable and the page allocator refusing to grow.
        return false;
    }
    NodeLists& node = c.pool.node();
    std::size_t want = c.pool.geometry().refill_target;
    std::size_t moved = 0;

    std::unique_lock<SpinLock> node_guard(node.lock);
    while (moved < want) {
        SlabHeader* slab = node.partial.front();
        if (slab == nullptr)
            slab = node.free.front();
        if (slab == nullptr) {
            // Grow with the node lock dropped, as Linux's
            // allocate_slab does: the page allocation, init_slab's
            // walk and the first-touch faults stay out of the section
            // other refills spin on. The fresh slab is on no list
            // (invisible to validate()) until linked here.
            node_guard.unlock();
            slab = c.pool.grow();
            node_guard.lock();
            if (slab == nullptr)
                break;
            node.move_to(slab, SlabListKind::kPartial);
        }
        while (moved < want) {
            void* obj = slab->freelist_pop();
            if (obj == nullptr)
                break;
            cache.push(obj);
            ++moved;
        }
        node.move_to(slab, NodeLists::natural_kind(slab));
    }
    if (moved > 0)
        c.pool.stats().refills.add();
    return moved > 0;
}

void
SlubAllocator::free_impl(CacheId cache, void* p, bool from_callback)
{
    Cache& c = cache_ref(cache);
    if (front_.capacity() > 0 && !from_callback) {
        // Thread-local magazine. Callback-invoked frees bypass it:
        // the engine's drainer threads never exit, so objects routed
        // into their magazines would be stranded until allocator
        // shutdown.
        ThreadMagazines& t = front_.table();
        Magazine& m = front_.magazine(t, c.index,
                                      c.pool.geometry().cache_capacity);
        ++m.stats.free_calls;
        if (m.objects.full())
            magazine_flush(c, t, m, m.objects.capacity() / 2 + 1);
        m.objects.push(p);
        return;
    }

    CacheStats& stats = c.pool.stats();
    if (!from_callback) {
        stats.free_calls.add();
        stats.live_objects.sub();
    }
    PRUDENCE_TRACE_SPAN(free_span, trace::HistId::kSlubFreeNs,
                        trace::EventId::kFreeSpan);
    free_span.set_args(c.pool.geometry().object_size);

    PerCpu& pc = *c.cpus[cpu_registry_.cpu_id()];
    if (pc.ring) {
        // Lock-free leg: one CAS push on the fast path. On overflow,
        // pop the conventional half-cache batch back to the slabs and
        // retry; a bounded number of attempts covers pathological
        // races (other threads refilling the ring between our drain
        // and our push), then the object goes straight to its slab.
        for (int attempt = 0; attempt < 4; ++attempt) {
            if (pc.ring->push(p))
                return;
            void* victims[256];
            std::size_t n = pc.ring->capacity() / 2 + 1;
            if (n > 256)
                n = 256;
            std::size_t k = 0;
            while (k < n) {
                void* o = pc.ring->pop();
                if (o == nullptr)
                    break;
                victims[k++] = o;
            }
            if (k > 0) {
                stats.flushes.add();
                flush_batch(c, victims, k);
            }
        }
        flush_batch(c, &p, 1);
        return;
    }

    stats.pcpu_lock_acquisitions.add();
    std::lock_guard<SpinLock> guard(pc.lock);
    if (pc.cache.full()) {
        // Overflow: spill half the cache (the conventional policy the
        // paper cites: "normally half of the object cache is flushed
        // during the overflow").
        flush(c, pc.cache, pc.cache.capacity() / 2 + 1);
    }
    pc.cache.push(p);
}

void
SlubAllocator::flush(Cache& c, ObjectCache& cache, std::size_t n)
{
    void* victims[256];
    assert(n <= 256);
    std::size_t k = cache.take_oldest(n, victims);
    if (k == 0)
        return;
    c.pool.stats().flushes.add();
    flush_batch(c, victims, k);
}

std::size_t
SlubAllocator::refill_batch(Cache& c, void** out, std::size_t want)
{
    if (PRUDENCE_FAULT_POINT(kRefillFail))
        return 0;
    NodeLists& node = c.pool.node();
    std::size_t moved = 0;

    std::unique_lock<SpinLock> node_guard(node.lock);
    while (moved < want) {
        SlabHeader* slab = node.partial.front();
        if (slab == nullptr)
            slab = node.free.front();
        if (slab == nullptr) {
            // Grow unlocked, as in refill().
            node_guard.unlock();
            slab = c.pool.grow();
            node_guard.lock();
            if (slab == nullptr)
                break;
            node.move_to(slab, SlabListKind::kPartial);
        }
        moved += c.pool.pop_freelist_batch(slab, out + moved,
                                           want - moved);
        node.move_to(slab, NodeLists::natural_kind(slab));
    }
    if (moved > 0)
        c.pool.stats().refills.add();
    return moved;
}

void
SlubAllocator::flush_batch(Cache& c, void* const* objs, std::size_t k)
{
    if (k == 0)
        return;
    NodeLists& node = c.pool.node();
    bool maybe_shrink = false;
    {
        std::lock_guard<SpinLock> node_guard(node.lock);
        for (std::size_t i = 0; i < k; ++i) {
            SlabHeader* slab = c.pool.slab_of(objs[i]);
            slab->freelist_push(objs[i]);
            node.move_to(slab, NodeLists::natural_kind(slab));
        }
        maybe_shrink =
            node.free.size() > c.pool.geometry().free_slab_limit;
    }
    if (maybe_shrink)
        shrink(c);
}

// ---------------------------------------------------------------------
// Thread-local magazine layer (DESIGN.md §9; object side only —
// deferred frees remain per-operation callbacks)
// ---------------------------------------------------------------------

void*
SlubAllocator::magazine_alloc_slow(Cache& c, ThreadMagazines& t,
                                   Magazine& m)
{
    CacheStats& stats = c.pool.stats();
    PerCpu& pc = *c.cpus[t.cpu];
    std::size_t want = m.objects.capacity() / 2;
    if (want == 0)
        want = 1;
    std::size_t got = 0;
    bool refilled = false;
    if (pc.ring) {
        // Lock-free leg: pull the refill batch out of the ring by
        // CAS pops; stat deltas flush straight into the (atomic)
        // shared counters without touching the per-CPU lock.
        if (m.stats.any())
            m.stats.flush_into(stats);
        while (got < want) {
            void* obj = pc.ring->pop();
            if (obj == nullptr)
                break;
            m.objects.push(obj);
            ++got;
        }
        if (got == 0) {
            // Slab-side prefill: the refill takes the node lock
            // anyway, so make that ONE acquisition pull several
            // batches and park the surplus in the ring — the next
            // misses on this CPU skip the lock entirely.
            void* batch[kMaxMagazineCapacity];
            std::size_t ask = std::min(want * kRefillPrefillBatches,
                                       kMaxMagazineCapacity);
            std::size_t n = refill_batch(c, batch, ask);
            if (n == 0)
                return nullptr;  // out of memory
            got = n < want ? n : want;
            for (std::size_t i = 0; i < got; ++i)
                m.objects.push(batch[i]);
            // Surplus objects become ring stock ("cached" to
            // validate()); ring overflow goes straight back to slabs.
            void* overflow[kMaxMagazineCapacity];
            std::size_t spilled = 0;
            for (std::size_t i = got; i < n; ++i) {
                if (!pc.ring->push(batch[i]))
                    overflow[spilled++] = batch[i];
            }
            if (spilled > 0)
                flush_batch(c, overflow, spilled);
            refilled = true;
        }
        stats.live_objects.add(static_cast<std::int64_t>(got));
        if (!refilled)
            ++m.stats.cache_hits;
        PRUDENCE_TRACE_EMIT(trace::EventId::kMagRefill, got, t.cpu);
        void* obj = m.objects.pop();
        assert(obj != nullptr);
        return obj;
    }
    stats.pcpu_lock_acquisitions.add();
    {
        std::lock_guard<SpinLock> guard(pc.lock);
        if (m.stats.any())
            m.stats.flush_into(stats);
        auto take = [&] {
            while (got < want) {
                void* obj = pc.cache.pop();
                if (obj == nullptr)
                    break;
                m.objects.push(obj);
                ++got;
            }
        };
        take();
        if (got == 0) {
            if (!refill(c, pc.cache))
                return nullptr;  // out of memory
            refilled = true;
            take();
        }
        assert(got > 0);
        // live_objects counts application-held + magazine-held;
        // it moves only at batch boundaries.
        stats.live_objects.add(static_cast<std::int64_t>(got));
        if (!refilled)
            ++m.stats.cache_hits;
    }
    PRUDENCE_TRACE_EMIT(trace::EventId::kMagRefill, got, t.cpu);
    void* obj = m.objects.pop();
    assert(obj != nullptr);
    return obj;
}

void
SlubAllocator::magazine_flush(Cache& c, ThreadMagazines& t,
                              Magazine& m, std::size_t n)
{
    void* victims[kMaxMagazineCapacity];
    std::size_t k = m.objects.take_oldest(n, victims);
    if (k == 0)
        return;
    CacheStats& stats = c.pool.stats();
    PerCpu& pc = *c.cpus[t.cpu];
    if (pc.ring) {
        // Lock-free leg: CAS-push the batch; whatever the ring cannot
        // absorb goes straight back to the slabs (the ring has no
        // take_oldest, so overflow spills the newcomers, not the
        // resident objects — same net occupancy).
        if (m.stats.any())
            m.stats.flush_into(stats);
        std::size_t pushed = 0;
        while (pushed < k && pc.ring->push(victims[pushed]))
            ++pushed;
        if (pushed < k) {
            stats.flushes.add();
            flush_batch(c, victims + pushed, k - pushed);
        }
        stats.live_objects.sub(static_cast<std::int64_t>(k));
        PRUDENCE_TRACE_EMIT(trace::EventId::kMagFlush, k, t.cpu);
        return;
    }
    stats.pcpu_lock_acquisitions.add();
    {
        std::lock_guard<SpinLock> guard(pc.lock);
        if (m.stats.any())
            m.stats.flush_into(stats);
        std::size_t room = pc.cache.capacity() - pc.cache.count();
        if (room < k) {
            // Conventional half-cache spill, but never less than the
            // batch needs (k <= magazine capacity <= cache capacity,
            // so it always fits afterwards).
            std::size_t spill = pc.cache.capacity() / 2 + 1;
            if (spill < k - room)
                spill = k - room;
            flush(c, pc.cache, spill);
        }
        for (std::size_t i = 0; i < k; ++i)
            pc.cache.push(victims[i]);
        stats.live_objects.sub(static_cast<std::int64_t>(k));
    }
    PRUDENCE_TRACE_EMIT(trace::EventId::kMagFlush, k, t.cpu);
}

void
SlubAllocator::drain_table(ThreadMagazines& t)
{
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
        auto& slot = t.mags[i];
        if (!slot)
            continue;
        Magazine& m = *slot;
        Cache& c = *caches_[i];
        assert(m.defer_count == 0 &&
               "slub deferrals never enter the magazine buffer");
        if (m.objects.count() > 0)
            magazine_flush(c, t, m, m.objects.count());
        if (m.stats.any()) {
            PerCpu& pc = *c.cpus[t.cpu];
            if (pc.ring) {
                m.stats.flush_into(c.pool.stats());
            } else {
                std::lock_guard<SpinLock> guard(pc.lock);
                m.stats.flush_into(c.pool.stats());
            }
        }
    }
}

void
SlubAllocator::drain_calling_thread() const
{
    if (front_.capacity() == 0)
        return;
    ThreadMagazines* t = front_.current();
    if (t == nullptr)
        return;
    const_cast<SlubAllocator*>(this)->drain_table(*t);
}

void
SlubAllocator::shrink(Cache& c)
{
    NodeLists& node = c.pool.node();
    std::vector<SlabHeader*> victims;
    {
        std::lock_guard<SpinLock> node_guard(node.lock);
        while (node.free.size() > c.pool.geometry().free_slab_limit) {
            SlabHeader* slab = node.free.front();
            node.move_to(slab, SlabListKind::kNone);
            victims.push_back(slab);
        }
    }
    for (SlabHeader* slab : victims)
        c.pool.release_slab(slab);
}

CacheStatsSnapshot
SlubAllocator::cache_snapshot(CacheId cache) const
{
    // Documented drain point: fold the calling thread's magazine
    // contents and stat deltas in so snapshots carry exact counts.
    drain_calling_thread();
    return cache_ref(cache).pool.snapshot();
}

std::vector<CacheStatsSnapshot>
SlubAllocator::snapshots() const
{
    drain_calling_thread();
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    std::vector<CacheStatsSnapshot> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(caches_[i]->pool.snapshot());
    return out;
}

void
SlubAllocator::quiesce()
{
    drain_calling_thread();
    engine_->drain_all();
    // Documented drain point: after a quiesce the buddy free-block
    // totals are exact — no pages parked in per-CPU page caches.
    buddy_.drain_pcp();
}

void
SlubAllocator::set_deferred_admission(unsigned pct)
{
    // The baseline has no latent rings to resize — its only deferral
    // store is the callback backlog. Consume the restriction as a
    // one-shot eager drain whose width scales with severity (the
    // closest analogue the conventional path offers; the governor's
    // batch-widening actuator handles the sustained case via
    // GracePeriodDomain::paced_batch_limit()).
    if (pct >= 100)
        return;
    engine_->process_ready(static_cast<std::size_t>(100 - pct) *
                           pressure_drain_batch_);
}

std::size_t
SlubAllocator::reclaim_ready()
{
    // Invoke every grace-period-complete callback and un-park remote
    // PCP pages, without waiting on a new grace period.
    std::size_t invoked =
        engine_->process_ready(static_cast<std::size_t>(-1));
    return invoked + buddy_.drain_pcp();
}

std::string
SlubAllocator::validate()
{
    // The accounting equality below holds at quiescent points; fold
    // this thread's magazine contents and stat deltas in first, and
    // return PCP-parked pages so page-level totals are exact too.
    drain_calling_thread();
    buddy_.drain_pcp();
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
        Cache& c = *caches_[i];
        PoolValidation v = validate_pool(c.pool);
        if (!v.ok)
            return v.error;
        if (v.ring_objects != 0) {
            return c.pool.name() +
                   ": baseline slabs must not carry latent entries";
        }
        // Accounting (quiescent): every object the slabs consider
        // outstanding is either parked in a per-CPU cache, queued as
        // a callback, or held by the application.
        std::size_t cached = 0;
        for (auto& pc : c.cpus) {
            std::lock_guard<SpinLock> guard(pc->lock);
            cached += pc->cache.count();
            if (pc->ring)
                cached += pc->ring->count();
        }
        auto live = static_cast<std::size_t>(
            c.pool.stats().live_objects.get());
        auto deferred = static_cast<std::size_t>(
            c.pool.stats().deferred_outstanding.get());
        if (v.outstanding_objects != cached + live + deferred) {
            return c.pool.name() + ": object accounting mismatch (" +
                   std::to_string(v.outstanding_objects) +
                   " outstanding vs " +
                   std::to_string(cached + live + deferred) +
                   " accounted)";
        }
    }
    return {};
}

CallbackEngineStats
SlubAllocator::callback_stats() const
{
    return engine_->stats();
}

void
SlubAllocator::register_telemetry_probes(telemetry::ProbeGroup& group,
                                         const std::string& prefix)
{
    group.add(prefix + "rcu.cb_backlog", "callbacks", [this] {
        std::int64_t backlog = engine_->backlog();
        return backlog > 0 ? static_cast<std::uint64_t>(backlog) : 0;
    });
    Allocator::register_telemetry_probes(group, prefix);
}

}  // namespace prudence
