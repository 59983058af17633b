#include "core/prudence_allocator.h"

#include <algorithm>
#include <cassert>
#include <initializer_list>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "perturb/perturb.h"
#include "perturb/ref_model.h"
#include "slab/size_classes.h"
#include "slab/validate.h"
#include "telemetry/monitor.h"
#include "telemetry/telemetry.h"
#include "trace/tracer.h"

namespace prudence {

PrudenceAllocator::Cache::Cache(std::string name, std::size_t object_size,
                                BuddyAllocator& buddy,
                                PageOwnerTable& owners, unsigned ncpus)
    : pool(std::move(name), object_size, buddy, owners)
{
    pool.set_context(this);
    cpus.reserve(ncpus);
    for (unsigned i = 0; i < ncpus; ++i) {
        cpus.push_back(
            std::make_unique<PerCpu>(pool.geometry().cache_capacity));
    }
}

PrudenceAllocator::PrudenceAllocator(GracePeriodDomain& domain,
                                     const PrudenceConfig& config)
    : domain_(domain),
      config_(config),
      buddy_(BuddyConfig{config.arena_bytes, config.cpus,
                         config.pcp_batch, config.pcp_high_watermark}),
      owners_(buddy_),
      cpu_registry_(config.cpus),
      front_(config.magazine_capacity, cpu_registry_,
             [this](ThreadMagazines& t) { drain_table(t); })
{
    for (std::size_t i = 0; i < kNumSizeClasses; ++i) {
        caches_[i] = std::make_unique<Cache>(
            size_class_name(i), kSizeClasses[i], buddy_, owners_,
            cpu_registry_.max_cpus());
        caches_[i]->index = i;
        caches_[i]->depot =
            std::make_unique<MagazineDepot>(depot_budget());
    }
    cache_count_.store(kNumSizeClasses, std::memory_order_release);

    if (config_.idle_preflush &&
        config_.maintenance_interval.count() > 0) {
        running_.store(true, std::memory_order_release);
        maintenance_thread_ = std::thread([this] { maintenance_main(); });
    }
}

PrudenceAllocator::~PrudenceAllocator()
{
    running_.store(false, std::memory_order_release);
    if (maintenance_thread_.joinable())
        maintenance_thread_.join();
    // Reclaim surviving per-thread magazines while the caches they
    // drain into are still alive (members are destroyed only after
    // this body runs).
    front_.shutdown();
}

PrudenceAllocator::Cache&
PrudenceAllocator::cache_ref(CacheId id) const
{
    assert(id.valid() &&
           id.index < cache_count_.load(std::memory_order_acquire));
    return *caches_[id.index];
}

PrudenceAllocator::Cache*
PrudenceAllocator::cache_of_object(const void* p) const
{
    SlabHeader* slab = owners_.lookup(p);
    if (slab == nullptr)
        return nullptr;
    auto* pool = static_cast<SlabPool*>(slab->owner);
    return static_cast<Cache*>(pool->context());
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

void*
PrudenceAllocator::kmalloc(std::size_t size)
{
    std::size_t idx = size_class_index(size);
    if (idx >= kNumSizeClasses)
        return nullptr;
    return cache_alloc(CacheId{idx});
}

void
PrudenceAllocator::kfree(void* p)
{
    if (p == nullptr)
        return;
    Cache* c = cache_of_object(p);
    assert(c != nullptr && "kfree of a pointer this allocator does not own");
    cache_free(CacheId{c->index}, p);
}

void
PrudenceAllocator::kfree_deferred(void* p)
{
    if (p == nullptr)
        return;
    Cache* c = cache_of_object(p);
    assert(c != nullptr &&
           "kfree_deferred of a pointer this allocator does not own");
    cache_free_deferred(CacheId{c->index}, p);
}

CacheId
PrudenceAllocator::create_cache(const std::string& name,
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
        throw std::runtime_error("PrudenceAllocator: too many caches");
    caches_[count] = std::make_unique<Cache>(
        name, object_size, buddy_, owners_, cpu_registry_.max_cpus());
    caches_[count]->index = count;
    caches_[count]->depot =
        std::make_unique<MagazineDepot>(depot_budget());
    // A cache created while the governor holds admission below
    // nominal starts at the restricted boundary too.
    if (latent_admission_pct_.load(std::memory_order_relaxed) < 100) {
        for (auto& pc_ptr : caches_[count]->cpus)
            apply_admission(pc_ptr->latent);
    }
    cache_count_.store(count + 1, std::memory_order_release);
    return CacheId{count};
}

// The hit paths (DESIGN.md §9 "Leaf hit path"): a pop, push or
// deferral-buffer append on the calling thread's magazine. Every
// boundary — no magazine yet, empty, full, the push that fills the
// deferral buffer, magazine_capacity = 0 — tail-calls the out-of-line
// *_impl slow path, which counts the call itself.

void*
PrudenceAllocator::cache_alloc(CacheId cache)
{
    if (void* obj = front_.pop(cache.index))
        return obj;
    return alloc_impl(cache);
}

void
PrudenceAllocator::cache_free(CacheId cache, void* p)
{
    if (p == nullptr)
        return;
    if (front_.push(cache.index, p))
        return;
    free_impl(cache, p);
}

void
PrudenceAllocator::cache_free_deferred(CacheId cache, void* p)
{
    if (p == nullptr)
        return;
    // One more boundary than alloc/free: while a schedule session
    // runs or kMagDeferBuffer is armed, the append goes through
    // free_deferred_impl, where the model hooks and the site sit.
    Magazine* m = front_.hot(cache.index);
    if (m == nullptr || m->defer_count + 1 >= m->defer_capacity ||
        PRUDENCE_PERTURB_LIVE(kMagDeferBuffer))
        return free_deferred_impl(cache, p);
    ++m->stats.deferred_free_calls;
    m->defers[m->defer_count++] = p;
}

// ---------------------------------------------------------------------
// Allocation (Algorithm 1: MALLOC / REFILL_OBJECT_CACHE)
// ---------------------------------------------------------------------

void*
PrudenceAllocator::alloc_impl(CacheId cache)
{
    Cache& c = cache_ref(cache);
    if (config_.magazine_capacity > 0) {
        // Thread-local magazine: no lock, no shared atomic. Stats
        // accumulate in plain per-thread deltas (flushed at batch
        // boundaries) and hits skip the per-op trace span — the
        // batch-boundary events (kMagRefill/kMagFlush) carry the
        // timing story instead. A pop that hits here is a hit the
        // inline path could not see (the thread's first call, or
        // its memo named another allocator).
        ThreadMagazines& t = front_.table();
        Magazine& m = front_.magazine(t, c.index,
                                      c.pool.geometry().cache_capacity);
        ++m.stats.alloc_calls;
        if (void* obj = m.objects.pop()) {
            ++m.stats.cache_hits;
            return obj;
        }

        PRUDENCE_TRACE_SPAN(alloc_span,
                            trace::HistId::kPrudenceAllocNs,
                            trace::EventId::kAllocSpan);
        alloc_span.set_args(c.pool.geometry().object_size);
        bool oom = false;
        if (void* obj = magazine_alloc_slow(c, t, m, &oom))
            return obj;
        if (!oom || !config_.oom_deferral) {
            c.pool.stats().oom_failures.add();
            return nullptr;
        }
        // The ladder's reclaim sweeps only see deferrals that have
        // reached the latent structures; push ours there first.
        spill_all_defers(t);
        return oom_ladder(c);
    }

    CacheStats& stats = c.pool.stats();
    stats.alloc_calls.add();
    PRUDENCE_TRACE_SPAN(alloc_span, trace::HistId::kPrudenceAllocNs,
                        trace::EventId::kAllocSpan);
    alloc_span.set_args(c.pool.geometry().object_size);

    bool oom = false;
    if (void* obj = alloc_attempt(c, &oom))
        return obj;
    if (!oom || !config_.oom_deferral) {
        stats.oom_failures.add();
        return nullptr;
    }
    return oom_ladder(c);
}

void*
PrudenceAllocator::oom_ladder(Cache& c)
{
    CacheStats& stats = c.pool.stats();
    bool oom = false;

    // Rung 1 — expedite: harvest deferred
    // objects whose grace period has ALREADY completed, across every
    // cache, without waiting. Under a slow detector this alone often
    // frees whole slabs back to the buddy allocator. reclaim_ready()
    // is the same harvest the governor runs at its critical level —
    // the ladder is the terminal rungs of that one escalation story,
    // and the listener lets the governor fold us into it. Depot full
    // blocks are reclaimable capacity too (they hold whole-slab
    // memory hostage without registering as deferred), so they gate
    // the rung alongside the deferred backlog.
    if (any_cache_has_deferred() || depot_full_objects() > 0) {
        stats.oom_expedites.add();
        PRUDENCE_TRACE_EMIT(trace::EventId::kOomExpedite, 0);
        if (pressure_listener_)
            pressure_listener_(1);
        reclaim_ready();
        if (void* obj = alloc_attempt(c, &oom))
            return obj;
    }

    // Rung 2 — Algorithm 1 lines 31-32: with deferred objects waiting
    // for a grace period, waiting is cheaper than failing (or, in a
    // kernel, than the OOM killer). Consecutive waits are separated
    // by bounded exponential backoff so a thrashing allocation path
    // cannot hammer synchronize()+reclaim in a tight loop.
    std::chrono::microseconds backoff = config_.oom_backoff_initial;
    for (int attempt = 1; attempt <= config_.oom_retries; ++attempt) {
        if (!any_cache_has_deferred())
            break;  // nothing will ever become safe; fail now
        stats.oom_waits.add();
        if (pressure_listener_)
            pressure_listener_(2);
        {
            // The stall covers the grace period AND pulling the now-
            // safe objects back — both gate the retry.
            PRUDENCE_TRACE_SPAN(oom_span, trace::HistId::kOomWaitNs,
                                trace::EventId::kOomWait);
            domain_.synchronize();
            // Everything deferred before the wait is now reclaimable;
            // pull it back so the retry can find memory.
            reclaim_ready();
        }
        if (void* obj = alloc_attempt(c, &oom))
            return obj;
        if (attempt < config_.oom_retries && backoff.count() > 0) {
            PRUDENCE_TRACE_EMIT(
                trace::EventId::kOomBackoff,
                static_cast<std::uint64_t>(attempt),
                static_cast<std::uint64_t>(backoff.count()));
            std::this_thread::sleep_for(backoff);
            backoff = std::min(backoff * 2, config_.oom_backoff_max);
        }
    }

    // Rung 3 — clean failure: nullptr to the caller, never an abort.
    stats.oom_failures.add();
    if (pressure_listener_)
        pressure_listener_(3);
    return nullptr;
}

std::size_t
PrudenceAllocator::reclaim_ready()
{
    // The shared expedite rung (governor critical level + OOM ladder
    // rung 1/2): pull every grace-period-complete deferral back into
    // circulation and un-park remote PCP pages, without waiting for a
    // new grace period.
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    std::int64_t before = 0;
    for (std::size_t i = 0; i < count; ++i)
        before += caches_[i]->pool.stats().deferred_outstanding.get();
    for (std::size_t i = 0; i < count; ++i)
        reclaim_cache(*caches_[i], /*fill_caches=*/true);
    // Memory-pressure hook: pages parked in remote per-CPU page
    // caches are free capacity too — pull them back (the buddy also
    // self-drains on exhaustion, but doing it here lets whole-slab
    // grows of any order succeed).
    std::size_t drained = buddy_.drain_pcp();
    std::int64_t after = 0;
    for (std::size_t i = 0; i < count; ++i)
        after += caches_[i]->pool.stats().deferred_outstanding.get();
    std::int64_t merged = before - after;
    return (merged > 0 ? static_cast<std::size_t>(merged) : 0) +
           drained;
}

void
PrudenceAllocator::apply_admission(LatentRing& ring) const
{
    unsigned pct = latent_admission_pct_.load(std::memory_order_relaxed);
    // set_limit clamps to [1, capacity], so pct rounding to 0 is safe.
    ring.set_limit(ring.capacity() * pct / 100);
}

void
PrudenceAllocator::set_deferred_admission(unsigned pct)
{
    if (pct > 100)
        pct = 100;
    unsigned floor = config_.latent_admission_floor_pct;
    if (floor > 100)
        floor = 100;
    if (pct < floor)
        pct = floor;
    latent_admission_pct_.store(pct, std::memory_order_relaxed);
    // Apply eagerly under each per-CPU lock so the hot paths keep
    // consulting a plain member (at_limit()) with no extra loads.
    // Rings above the new boundary are not force-spilled here; the
    // next deferral on that CPU spills them down (or reclaim does).
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
        for (auto& pc_ptr : caches_[i]->cpus) {
            PerCpu& pc = *pc_ptr;
            std::lock_guard<SpinLock> guard(pc.lock);
            apply_admission(pc.latent);
        }
    }
}

bool
PrudenceAllocator::any_cache_has_deferred() const
{
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
        if (caches_[i]->pool.stats().deferred_outstanding.get() > 0)
            return true;
    }
    return false;
}

void*
PrudenceAllocator::alloc_attempt(Cache& c, bool* oom)
{
    *oom = false;
    CacheStats& stats = c.pool.stats();
    PerCpu& pc = *c.cpus[cpu_registry_.cpu_id()];
    stats.pcpu_lock_acquisitions.add();
    std::lock_guard<SpinLock> guard(pc.lock);
    ++pc.alloc_events;

    // Injected slow-path forcing: skip the object-cache hit so the
    // merge/refill machinery is exercised even when the cache is hot.
    const bool force_slow = PRUDENCE_FAULT_POINT(kSlowPath);

    if (!force_slow) {
        if (void* obj = pc.cache.pop()) {
            stats.cache_hits.add();
            stats.live_objects.add();
            PRUDENCE_TRACE_STMT({
                static Counter& hits =
                    trace::MetricsRegistry::instance().counter(
                        "prudence.cache_hit");
                hits.add();
            });
            return obj;
        }
    }

    if (config_.merge_on_alloc &&
        merge_caches(c, pc, domain_.completed_epoch()) > 0) {
        // Algorithm 1 lines 8-11: safe latent objects become the
        // allocation — still served from the object cache.
        void* obj = pc.cache.pop();
        assert(obj != nullptr);
        stats.cache_hits.add();
        stats.latent_merge_hits.add();
        stats.live_objects.add();
        PRUDENCE_TRACE_STMT({
            static Counter& merge_hits =
                trace::MetricsRegistry::instance().counter(
                    "prudence.cache_merge_hit");
            merge_hits.add();
        });
        return obj;
    }
    if (force_slow) {
        // End of the forced detour: refill() requires an empty object
        // cache (its pushes assert on overflow), so serve from the
        // cache if the skipped fast path would have.
        if (void* obj = pc.cache.pop()) {
            stats.cache_hits.add();
            stats.live_objects.add();
            return obj;
        }
    }
    PRUDENCE_TRACE_STMT({
        static Counter& misses =
            trace::MetricsRegistry::instance().counter(
                "prudence.cache_miss");
        misses.add();
    });

    if (!refill(c, pc, domain_.completed_epoch())) {
        *oom = true;
        return nullptr;
    }
    void* obj = pc.cache.pop();
    assert(obj != nullptr);
    stats.live_objects.add();
    return obj;
}

std::size_t
PrudenceAllocator::merge_caches(Cache& c, PerCpu& pc, GpEpoch completed)
{
    if (PRUDENCE_FAULT_POINT(kLatentStarve)) {
        // Injected latent-ring starvation: pretend no deferred object
        // is safe yet, as under a stalled grace-period detector.
        return 0;
    }
    std::size_t merged = 0;
    // Telemetry stamp (raw steady ns), not the session clock: defer_ts
    // is stamped the same way, and only the difference is consumed.
    PRUDENCE_TELEM_STAMP(merge_now);
    // The `completed` value was read before this call: a delay here
    // makes it maximally stale, which a correct merge must tolerate
    // (stale completed is smaller — conservative).
    PRUDENCE_PERTURB_POINT(kLatentMerge);
    // FIFO appends of a monotone epoch keep the ring mostly ordered;
    // stopping at the first unsafe entry never merges an unsafe one
    // and at worst delays later safe entries by one grace period.
    while (!pc.latent.empty() && !pc.cache.full() &&
           pc.latent.front().epoch <= completed) {
        const LatentRing::Entry& e = pc.latent.front();
        PRUDENCE_MODEL_STMT(perturb::model_on_reuse(e.object));
        pc.cache.push(e.object);
        PRUDENCE_TRACE_STMT({
            if (e.defer_ts != 0 && merge_now >= e.defer_ts) {
                std::uint64_t residency = merge_now - e.defer_ts;
                trace::MetricsRegistry::instance()
                    .histogram(trace::HistId::kLatentResidencyNs)
                    .record(residency);
                trace::emit(trace::EventId::kLatentExit,
                            reinterpret_cast<std::uintptr_t>(e.object),
                            residency);
            }
        });
        PRUDENCE_TELEM_STMT({
            if (e.defer_ts != 0 && merge_now >= e.defer_ts) {
                trace::MetricsRegistry::instance()
                    .histogram(trace::HistId::kDeferredAgeNs)
                    .record(merge_now - e.defer_ts);
            }
        });
        pc.latent.pop_front();
        ++merged;
    }
    if (merged > 0) {
        c.pool.stats().deferred_outstanding.sub(
            static_cast<std::int64_t>(merged));
    }
    return merged;
}

bool
PrudenceAllocator::refill(Cache& c, PerCpu& pc, GpEpoch completed)
{
    if (PRUDENCE_FAULT_POINT(kRefillFail)) {
        // Injected refill failure: indistinguishable from every slab
        // being unusable and the page allocator refusing to grow.
        return false;
    }
    const SlabGeometry& g = c.pool.geometry();
    std::size_t want = g.refill_target;
    if (config_.partial_refill) {
        // Algorithm 1 line 14: leave room for the deferred objects
        // that will merge into this cache. We count only the latent
        // entries whose grace period has completed — they are the
        // ones that can merge before the next refill; subtracting
        // entries still inside their grace period degenerates to
        // one-object refills under high defer rates, putting the
        // node lock on every allocation.
        std::size_t safe = pc.latent.count_safe(completed, want);
        want = safe >= want ? 1 : want - safe;
    }

    NodeLists& node = c.pool.node();
    std::size_t moved = 0;
    {
        std::unique_lock<SpinLock> node_guard(node.lock);
        while (moved < want) {
            SlabHeader* slab = select_slab(c, completed);
            if (slab == nullptr) {
                // Grow with the node lock dropped, as Linux's
                // allocate_slab does: the page allocation, init_slab's
                // walk and the first-touch faults stay out of the
                // section other refills spin on. The fresh slab is on
                // no list (invisible to validate()) until linked here.
                node_guard.unlock();
                slab = c.pool.grow();
                node_guard.lock();
                if (slab == nullptr)
                    break;
                node.move_to_partial_front(slab);
            }
            while (moved < want) {
                void* obj = slab->freelist_pop();
                if (obj == nullptr)
                    break;
                pc.cache.push(obj);
                ++moved;
            }
            node.move_to(slab, NodeLists::deferred_aware_kind(slab));
        }
    }
    if (moved > 0)
        c.pool.stats().refills.add();
    return moved > 0;
}

SlabHeader*
PrudenceAllocator::select_slab(Cache& c, GpEpoch completed)
{
    // §4.2 "Reduces total fragmentation": oldest-first first fit over
    // the partial list, then the free list, merging each slab's ripe
    // latent entries on the way. A slab still unusable after its
    // merge (no free object, deferrals inside their grace period)
    // rotates to the tail, so the next scan starts at the slab
    // checked longest ago instead of re-walking the same unusable
    // prefix; one pass per list bounds the call. The slab returned
    // (like a slab refill grows) heads the partial list, ahead of
    // every slab just passed over, so the refills that drain it find
    // it first.
    NodeLists& node = c.pool.node();
    for (SlabList* list : {&node.partial, &node.free}) {
        SlabHeader* found = nullptr;
        list->for_each([&](SlabHeader* slab) {
            merge_slab_latent(c, slab, completed);
            if (slab->free_count == 0)
                return true;
            found = slab;
            return false;
        });
        if (found != nullptr) {
            list->rotate_to_front(found);
            node.move_to_partial_front(found);
            return found;
        }
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// Immediate free
// ---------------------------------------------------------------------

void
PrudenceAllocator::free_impl(CacheId cache, void* p)
{
    Cache& c = cache_ref(cache);
    if (config_.magazine_capacity > 0) {
        // Thread-local magazine. The live_objects gauge is NOT
        // decremented here: it counts application-held plus
        // magazine-held objects and moves only at batch boundaries
        // (magazine_alloc_slow adds, magazine_flush subtracts).
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
    stats.free_calls.add();
    stats.live_objects.sub();
    PRUDENCE_TRACE_SPAN(free_span, trace::HistId::kPrudenceFreeNs,
                        trace::EventId::kFreeSpan);
    free_span.set_args(c.pool.geometry().object_size);

    PerCpu& pc = *c.cpus[cpu_registry_.cpu_id()];
    stats.pcpu_lock_acquisitions.add();
    std::lock_guard<SpinLock> guard(pc.lock);
    ++pc.free_events;
    if (pc.cache.full()) {
        // §4.2 "Object cache flush": flush more when the latent cache
        // is fuller — its objects will also land in this cache after
        // their grace period.
        std::size_t n = pc.cache.capacity() / 2 + 1;
        if (config_.sized_flush)
            n += pc.latent.count();
        flush(c, pc, n);
    }
    pc.cache.push(p);
}

void
PrudenceAllocator::flush(Cache& c, PerCpu& pc, std::size_t n)
{
    void* victims[256];
    if (n > 256)
        n = 256;
    std::size_t k = pc.cache.take_oldest(n, victims);
    if (k == 0)
        return;
    c.pool.stats().flushes.add();

    NodeLists& node = c.pool.node();
    bool maybe_shrink = false;
    {
        std::lock_guard<SpinLock> node_guard(node.lock);
        for (std::size_t i = 0; i < k; ++i) {
            SlabHeader* slab = c.pool.slab_of(victims[i]);
            assert(slab->magic == SlabHeader::kMagicLive);
            slab->freelist_push(victims[i]);
            node.move_to(slab, NodeLists::deferred_aware_kind(slab));
        }
        maybe_shrink =
            node.free.size() > free_retention_limit(c);
    }
    if (maybe_shrink)
        shrink(c);
}

// ---------------------------------------------------------------------
// Deferred free (Algorithm 1: FREE_DEFERRED / PRE_MOVE_SLAB)
// ---------------------------------------------------------------------

void
PrudenceAllocator::free_deferred_impl(CacheId cache, void* p)
{
    Cache& c = cache_ref(cache);
    if (config_.magazine_capacity > 0) {
        // Thread-local magazine: buffer the object with NO epoch
        // read. The whole buffer is tagged with one defer_epoch()
        // at spill time — conservative (>= each member's true defer
        // epoch), so reuse can only be delayed, never premature.
        ThreadMagazines& t = front_.table();
        Magazine& m = front_.magazine(t, c.index,
                                      c.pool.geometry().cache_capacity);
        ++m.stats.deferred_free_calls;
        // Model bookkeeping (schedule sessions only): the defer-time epoch
        // is the floor any later spill tag must respect.
        PRUDENCE_MODEL_STMT(perturb::model_on_defer(p, domain_.defer_epoch()));
        // Deliberate bug kStaleSpillTag: remember the epoch at FIRST
        // buffer so the (buggy) spill can tag with it. See BugId.
        PRUDENCE_MODEL_STMT(
            if (m.defer_count == 0 &&
                perturb::bug_enabled(perturb::BugId::kStaleSpillTag))
                m.bug_first_epoch = domain_.defer_epoch());
        m.defers[m.defer_count++] = p;
        // The buffered-deferral window: grace periods that complete
        // between here and the spill are what make a stale batch tag
        // non-conservative.
        PRUDENCE_PERTURB_POINT(kMagDeferBuffer);
        if (m.defers_full())
            magazine_spill_defers(c, t, m);
        return;
    }

    CacheStats& stats = c.pool.stats();
    stats.deferred_free_calls.add();
    stats.live_objects.sub();
    stats.deferred_outstanding.add();
    PRUDENCE_TRACE_SPAN(defer_span, trace::HistId::kPrudenceDeferNs,
                        trace::EventId::kDeferSpan);
    defer_span.set_args(c.pool.geometry().object_size);
    PRUDENCE_TRACE_EMIT(trace::EventId::kLatentEnter,
                        reinterpret_cast<std::uintptr_t>(p));
    PRUDENCE_TELEM_STAMP(defer_ts);

    // Algorithm 1 line 35: stamp the grace-period state on the
    // object's latent entry (out of band — readers may still be
    // dereferencing the object itself).
    GpEpoch epoch = domain_.defer_epoch();
    PRUDENCE_MODEL_STMT(perturb::model_on_defer(p, epoch));
    // Between the epoch read and the latent push: the tag is fixed
    // but the object is not yet in shared custody.
    PRUDENCE_PERTURB_POINT(kLatentPush);

    PerCpu& pc = *c.cpus[cpu_registry_.cpu_id()];
    LatentRing::Entry spill[128];
    for (;;) {
        std::size_t spilled = 0;
        {
            stats.pcpu_lock_acquisitions.add();
            std::lock_guard<SpinLock> guard(pc.lock);
            ++pc.defer_events;

            // at_limit(), not full(): the admission boundary is the
            // governor-resizable spill threshold (capacity nominally).
            if (!pc.latent.at_limit()) {  // fast path (lines 39-44)
                PRUDENCE_MODEL_STMT(perturb::model_on_spill(p, epoch));
                pc.latent.push(p, epoch, defer_ts);
                if (pc.cache.count() + pc.latent.count() >
                        pc.cache.capacity() &&
                    config_.idle_preflush) {
                    // SCHEDULE_IDLE_PREFLUSH
                    pc.preflush_requested = true;
                }
                return;
            }

            // Slow path (lines 45-48): make room, merge, retry.
            if (pc.cache.full())
                flush(c, pc, pc.cache.capacity() / 2 + 1);
            merge_caches(c, pc, domain_.completed_epoch());
            if (!pc.latent.at_limit()) {
                PRUDENCE_MODEL_STMT(perturb::model_on_spill(p, epoch));
                pc.latent.push(p, epoch, defer_ts);
                return;
            }

            // Lines 49-51: saturated with objects still inside their
            // grace period — move the oldest half to their latent
            // slabs. Batching the spill amortizes the node lock over
            // many deferrals (one acquisition per half-ring instead
            // of one per object).
            std::size_t batch = pc.latent.capacity() / 2 + 1;
            if (batch > 128)
                batch = 128;
            while (spilled < batch && !pc.latent.empty()) {
                spill[spilled++] = pc.latent.front();
                pc.latent.pop_front();
            }
        }
        spill_entries(c, spill, spilled);
        // Loop: the latent cache now has room unless another thread
        // on this virtual CPU refilled it; retry.
    }
}

void
PrudenceAllocator::push_to_latent_slab(Cache& c, void* obj, GpEpoch epoch)
{
    LatentRing::Entry e{obj, epoch, 0};
    spill_entries(c, &e, 1);
}

void
PrudenceAllocator::spill_entries(Cache& c,
                                 const LatentRing::Entry* entries,
                                 std::size_t n)
{
    if (n == 0)
        return;
    PRUDENCE_TRACE_EMIT(trace::EventId::kLatentSpill, n);
    // The batch is out of the latent ring but not yet in the slab
    // rings: deferred_outstanding still counts it, but no structure
    // holds it — the window validate()'s identities must survive.
    PRUDENCE_PERTURB_POINT(kLatentSpill);
    NodeLists& node = c.pool.node();
    bool want_shrink = false;
    {
        // The ring push and the pre-movement must share one node-lock
        // critical section: the instant an entry is in the ring, a
        // concurrent refill/shrink may merge it, find the slab fully
        // free and release its pages — any later touch through `slab`
        // would be use-after-free. Until the push, the live object
        // itself pins the slab (free_count < total). This also
        // matches Algorithm 1's LOCK(current.node) in PRE_MOVE_SLAB.
        std::lock_guard<SpinLock> node_guard(node.lock);
        // Group the batch by owning slab: one slab-lock acquisition
        // and one pre-movement check per slab, not per object.
        bool done[128] = {};
        assert(n <= 128);
        for (std::size_t i = 0; i < n; ++i) {
            if (done[i])
                continue;
            SlabHeader* slab = c.pool.slab_of(entries[i].object);
            assert(slab->magic == SlabHeader::kMagicLive);
            {
                std::lock_guard<SpinLock> slab_guard(slab->slab_lock);
                for (std::size_t j = i; j < n; ++j) {
                    if (done[j] ||
                        c.pool.slab_of(entries[j].object) != slab) {
                        continue;
                    }
                    bool ok = slab->ring_push(
                        slab->index_of(entries[j].object),
                        entries[j].epoch);
                    assert(ok && "latent slab overflow implies a "
                                 "double defer");
                    (void)ok;
                    done[j] = true;
                }
            }
            if (config_.slab_premove)
                pre_move_slab(c, slab);
        }
        want_shrink =
            node.free.size() > free_retention_limit(c);
    }
    if (want_shrink)
        shrink(c);
}

void
PrudenceAllocator::pre_move_slab(Cache& c, SlabHeader* slab)
{
    std::uint32_t deferred =
        slab->deferred_count.load(std::memory_order_acquire);
    if (slab->list_kind == SlabListKind::kFull && deferred > 0) {
        // A full slab with a deferral will have space soon.
        c.pool.node().move_to(slab, SlabListKind::kPartial);
        c.pool.stats().premoves.add();
    } else if (slab->list_kind != SlabListKind::kFree &&
               slab->free_count + deferred == slab->total_objects) {
        // Every allocated object is deferred: the slab will be
        // entirely free after the grace period.
        c.pool.node().move_to(slab, SlabListKind::kFree);
        c.pool.stats().premoves.add();
    }
}

void
PrudenceAllocator::shrink(Cache& c)
{
    NodeLists& node = c.pool.node();
    std::vector<SlabHeader*> victims;
    {
        std::lock_guard<SpinLock> node_guard(node.lock);
        GpEpoch completed = domain_.completed_epoch();
        node.free.for_each([&](SlabHeader* slab) {
            if (node.free.size() <= free_retention_limit(c))
                return false;
            merge_slab_latent(c, slab, completed);
            if (slab->free_count == slab->total_objects) {
                node.move_to(slab, SlabListKind::kNone);
                victims.push_back(slab);
            }
            return true;
        });
    }
    for (SlabHeader* slab : victims)
        c.pool.release_slab(slab);
}

std::size_t
PrudenceAllocator::free_retention_limit(Cache& c) const
{
    std::size_t limit = c.pool.geometry().free_slab_limit;
    if (!config_.deferred_aware_shrink)
        return limit;
    // The hint about the future: outstanding deferred objects will
    // vacate their memory within a grace period, and the sustained
    // deferral flow implies matching allocation demand. Returning
    // that many slabs' worth of pages to the page allocator now just
    // buys a grow per shrink (the baseline's slab churn). The
    // decaying high-water hint keeps retention through the momentary
    // drain right after a grace period completes.
    std::int64_t deferred = std::max(
        c.pool.stats().deferred_outstanding.get(),
        c.retention_hint.load(std::memory_order_relaxed));
    if (deferred > 0) {
        limit += (static_cast<std::size_t>(deferred) +
                  c.pool.geometry().objects_per_slab - 1) /
                 c.pool.geometry().objects_per_slab;
    }
    return limit;
}

std::size_t
PrudenceAllocator::merge_slab_latent(Cache& c, SlabHeader* slab,
                                     GpEpoch completed)
{
    if (slab->deferred_count.load(std::memory_order_acquire) == 0)
        return 0;
    std::size_t merged = merge_safe_latent(slab, completed);
    if (merged > 0) {
        c.pool.stats().deferred_outstanding.sub(
            static_cast<std::int64_t>(merged));
    }
    return merged;
}

// ---------------------------------------------------------------------
// Thread-local magazine layer (DESIGN.md §9)
// ---------------------------------------------------------------------

GpEpoch
PrudenceAllocator::refresh_completed(ThreadMagazines& t)
{
    // Generation check: one acquire load. Only when the domain has
    // completed another grace period since our last look do we pay
    // the virtual completed_epoch() call. The domain bumps the
    // generation *after* publishing the new epoch, so a changed
    // generation guarantees we read the (at least) corresponding
    // epoch; an unchanged one gives the cached — stale but
    // conservative — value.
    std::uint64_t gen = domain_.completion_generation();
    if (gen != t.gen_seen) {
        t.gen_seen = gen;
        t.cached_completed = domain_.completed_epoch();
    }
    return t.cached_completed;
}

void
PrudenceAllocator::flush_thread_stats(PerCpu& pc, CacheStats& stats,
                                      ThreadCacheStats& ts)
{
    if (!ts.any())
        return;
    // The per-CPU event rates feed the pre-flush aggressiveness
    // decision; batched updates keep the alloc/free ratio intact.
    pc.alloc_events += ts.alloc_calls;
    pc.free_events += ts.free_calls;
    pc.defer_events += ts.deferred_free_calls;
    ts.flush_into(stats);
}

void*
PrudenceAllocator::magazine_alloc_slow(Cache& c, ThreadMagazines& t,
                                       Magazine& m, bool* oom)
{
    *oom = false;
    CacheStats& stats = c.pool.stats();
    PerCpu& pc = *c.cpus[t.cpu];

    // Lock-free refill (DESIGN.md §14): one CAS exchanges a whole
    // full (or grace-period-complete deferred) magazine block from
    // the depot — no per-CPU lock, no splice. A miss falls through
    // to the locked path.
    if (depot_enabled(c)) {
        if (DepotMagazine* blk = depot_pop_reusable(c, t, stats)) {
            std::size_t got_lf = blk->count;
            assert(got_lf > 0 && got_lf <= m.objects.capacity());
            for (std::size_t i = 0; i < got_lf; ++i)
                m.objects.push(blk->objs[i]);
            c.depot->release_empty(blk);
            // The gauge counts application-held + magazine-held:
            // these objects leave depot custody now.
            stats.live_objects.add(static_cast<std::int64_t>(got_lf));
            // Served without touching slabs: a hit, like the locked
            // path's !refilled case. Stat deltas fold through the
            // atomic counters only — the pc event rates (preflush
            // aggressiveness) are a locked-path signal.
            ++m.stats.cache_hits;
            m.stats.flush_into(stats);
            PRUDENCE_TRACE_EMIT(trace::EventId::kMagRefill, got_lf,
                                t.cpu);
            void* obj = m.objects.pop();
            assert(obj != nullptr);
            return obj;
        }
    }

    std::size_t want = m.objects.capacity() / 2;
    if (want == 0)
        want = 1;
    std::size_t got = 0;
    bool refilled = false;
    // Refill hand-off: the magazine is empty and this thread is
    // committed to pulling a batch from shared state.
    PRUDENCE_PERTURB_POINT(kMagRefill);
    {
        stats.pcpu_lock_acquisitions.add();
        std::lock_guard<SpinLock> guard(pc.lock);
        flush_thread_stats(pc, stats, m.stats);
        // Injected slow-path forcing: skip the per-CPU hit so the
        // merge/refill machinery is exercised even when hot.
        const bool force_slow = PRUDENCE_FAULT_POINT(kSlowPath);
        GpEpoch completed = refresh_completed(t);
        auto take = [&] {
            while (got < want) {
                void* obj = pc.cache.pop();
                if (obj == nullptr)
                    break;
                m.objects.push(obj);
                ++got;
            }
        };
        if (!force_slow)
            take();
        if (got < want && config_.merge_on_alloc &&
            merge_caches(c, pc, completed) > 0) {
            stats.latent_merge_hits.add();
            take();
        }
        if (force_slow)
            take();
        if (got == 0) {
            if (!refill(c, pc, completed)) {
                *oom = true;
                return nullptr;
            }
            refilled = true;
            take();
        }
        assert(got > 0);
        // The gauge counts application-held + magazine-held: these
        // objects leave shared custody now.
        stats.live_objects.add(static_cast<std::int64_t>(got));
        // The triggering allocation is a cache hit unless slabs had
        // to be touched; later pops from the refilled magazine count
        // their own hits on the fast path.
        if (!refilled)
            ++m.stats.cache_hits;
    }
    PRUDENCE_TRACE_EMIT(trace::EventId::kMagRefill, got, t.cpu);
    void* obj = m.objects.pop();
    assert(obj != nullptr);
    return obj;
}

void
PrudenceAllocator::magazine_flush(Cache& c, ThreadMagazines& t,
                                  Magazine& m, std::size_t n)
{
    void* victims[kMaxMagazineCapacity];
    std::size_t k = m.objects.take_oldest(n, victims);
    if (k == 0)
        return;
    // Flush hand-off: the victims left the magazine but have not
    // reached the per-CPU cache; live_objects still counts them.
    PRUDENCE_PERTURB_POINT(kMagFlush);
    CacheStats& stats = c.pool.stats();
    PerCpu& pc = *c.cpus[t.cpu];

    // Lock-free flush (DESIGN.md §14): hand the whole batch to the
    // depot as one full block — a single CAS publishes it to any
    // thread's next refill. Falls through to the locked splice when
    // the depot's block budget is exhausted.
    if (depot_enabled(c) && k <= kMaxMagazineCapacity) {
        if (DepotMagazine* blk = c.depot->acquire_empty()) {
            for (std::size_t i = 0; i < k; ++i)
                blk->objs[i] = victims[i];
            blk->count = k;
            // Between filling the block and the publishing CAS: the
            // batch is in nobody's shared custody (live_objects still
            // counts it) — the window validate() must survive.
            PRUDENCE_PERTURB_POINT(kDepotExchange);
            // Gauge before publish: once the CAS lands another thread
            // may pop the block and re-add these to live_objects, so
            // subtracting first keeps the peak gauge from counting
            // the batch twice (transient under-count instead).
            stats.live_objects.sub(static_cast<std::int64_t>(k));
            c.depot->push_full(blk);
            stats.depot_exchanges.add();
            m.stats.flush_into(stats);
            PRUDENCE_TRACE_EMIT(trace::EventId::kMagFlush, k, t.cpu);
            return;
        }
    }

    {
        stats.pcpu_lock_acquisitions.add();
        std::lock_guard<SpinLock> guard(pc.lock);
        flush_thread_stats(pc, stats, m.stats);
        std::size_t room = pc.cache.capacity() - pc.cache.count();
        if (room < k) {
            // Make room with the existing sized flush policy, but
            // never less than the batch needs (k <= magazine
            // capacity <= per-CPU capacity, so this always fits).
            std::size_t spill = pc.cache.capacity() / 2 + 1;
            if (config_.sized_flush)
                spill += pc.latent.count();
            if (spill < k - room)
                spill = k - room;
            flush(c, pc, spill);
        }
        for (std::size_t i = 0; i < k; ++i)
            pc.cache.push(victims[i]);
        stats.live_objects.sub(static_cast<std::int64_t>(k));
    }
    PRUDENCE_TRACE_EMIT(trace::EventId::kMagFlush, k, t.cpu);
}

void
PrudenceAllocator::magazine_spill_defers(Cache& c, ThreadMagazines& t,
                                         Magazine& m)
{
    std::size_t n = m.defer_count;
    if (n == 0)
        return;
    CacheStats& stats = c.pool.stats();
    PerCpu& pc = *c.cpus[t.cpu];

    // ONE grace-period read tags the whole batch (the point of the
    // buffering). Every member was deferred at or before this
    // instant, so the tag is >= each member's true defer epoch:
    // reuse can be delayed by up to one grace period, never early.
    GpEpoch epoch = domain_.defer_epoch();
    // Deliberate bug kStaleSpillTag: tag with the epoch observed when
    // the batch's FIRST member was buffered. Any grace period that
    // completed while the batch filled makes this tag smaller than a
    // later member's true defer epoch — the non-conservative tagging
    // the model's spill check exists to catch.
    PRUDENCE_MODEL_STMT(
        if (perturb::bug_enabled(perturb::BugId::kStaleSpillTag))
            epoch = m.bug_first_epoch);
    PRUDENCE_TRACE_EMIT(trace::EventId::kMagDeferSpill, n, epoch);
    PRUDENCE_TELEM_STAMP(defer_ts);
    // Between fixing the batch tag and publishing the entries: the
    // window a concurrent grace-period advance must not invalidate.
    PRUDENCE_PERTURB_POINT(kMagSpillTag);

    // Lock-free deferral spill (DESIGN.md §14): the batch becomes one
    // epoch-stamped deferred depot block, published with a single CAS
    // — no per-CPU lock, no latent-ring splice. The harvest side
    // (depot_pop_reusable / maintenance) enforces the grace period.
    // The buffer is only cleared once the depot path commits; on
    // fallback the locked path below consumes it instead.
    //
    // Occupancy cap: the deferred backlog scales with grace-period
    // latency, which is unbounded under oversubscription — left
    // unchecked it absorbs the entire block budget, starving
    // acquire_empty() for the flush/refill circulation that keeps the
    // hot path lock-free (the wholesale full<->deferred oscillation).
    // Deferred blocks may hold at most HALF the budget, which
    // kDepotBlockBudget sizes for the steady-state backlog; overflow
    // batches ride the latent ring instead (one lock per batch).
    if (depot_enabled(c) && n <= kMaxMagazineCapacity &&
        c.depot->deferred_blocks() * 2 < c.depot->block_budget()) {
        if (DepotMagazine* blk = c.depot->acquire_empty()) {
            for (std::size_t j = 0; j < n; ++j) {
                PRUDENCE_MODEL_STMT(
                    perturb::model_on_spill(m.defers[j], epoch));
                blk->objs[j] = m.defers[j];
            }
            blk->count = n;
            blk->epoch = epoch;
            blk->defer_ts = defer_ts;
            PRUDENCE_PERTURB_POINT(kDepotExchange);
            // Gauges before publish (same reason as the flush path):
            // a concurrent harvest must not double-count the batch.
            stats.live_objects.sub(static_cast<std::int64_t>(n));
            stats.deferred_outstanding.add(
                static_cast<std::int64_t>(n));
            c.depot->push_deferred(blk);
            stats.depot_exchanges.add();
            m.stats.flush_into(stats);
            m.defer_count = 0;
            return;
        }
    }
    m.defer_count = 0;

    LatentRing::Entry spill[128];
    std::size_t i = 0;
    bool accounted = false;
    for (;;) {
        std::size_t spilled = 0;
        {
            stats.pcpu_lock_acquisitions.add();
            std::lock_guard<SpinLock> guard(pc.lock);
            if (!accounted) {
                accounted = true;
                flush_thread_stats(pc, stats, m.stats);
                stats.live_objects.sub(
                    static_cast<std::int64_t>(n));
                stats.deferred_outstanding.add(
                    static_cast<std::int64_t>(n));
            }
            while (i < n && !pc.latent.at_limit()) {
                PRUDENCE_MODEL_STMT(
                    perturb::model_on_spill(m.defers[i], epoch));
                pc.latent.push(m.defers[i++], epoch, defer_ts);
            }
            if (i < n) {
                // Latent cache saturated: same recovery as the
                // per-op path — make room, merge, then move the
                // oldest half to latent slabs.
                if (pc.cache.full())
                    flush(c, pc, pc.cache.capacity() / 2 + 1);
                merge_caches(c, pc, refresh_completed(t));
                while (i < n && !pc.latent.at_limit()) {
                    PRUDENCE_MODEL_STMT(
                        perturb::model_on_spill(m.defers[i], epoch));
                    pc.latent.push(m.defers[i++], epoch, defer_ts);
                }
            }
            if (i == n) {
                if (pc.cache.count() + pc.latent.count() >
                        pc.cache.capacity() &&
                    config_.idle_preflush) {
                    // SCHEDULE_IDLE_PREFLUSH
                    pc.preflush_requested = true;
                }
                return;
            }
            std::size_t batch = pc.latent.capacity() / 2 + 1;
            if (batch > 128)
                batch = 128;
            while (spilled < batch && !pc.latent.empty()) {
                spill[spilled++] = pc.latent.front();
                pc.latent.pop_front();
            }
        }
        spill_entries(c, spill, spilled);
    }
}

void
PrudenceAllocator::spill_all_defers(ThreadMagazines& t)
{
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
        auto& slot = t.mags[i];
        if (slot && slot->defer_count > 0)
            magazine_spill_defers(*caches_[i], t, *slot);
    }
}

void
PrudenceAllocator::drain_table(ThreadMagazines& t)
{
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
        auto& slot = t.mags[i];
        if (!slot)
            continue;
        Magazine& m = *slot;
        Cache& c = *caches_[i];
        if (m.defer_count > 0)
            magazine_spill_defers(c, t, m);
        if (m.objects.count() > 0)
            magazine_flush(c, t, m, m.objects.count());
        if (m.stats.any()) {
            PerCpu& pc = *c.cpus[t.cpu];
            std::lock_guard<SpinLock> guard(pc.lock);
            flush_thread_stats(pc, c.pool.stats(), m.stats);
        }
    }
}

void
PrudenceAllocator::drain_calling_thread() const
{
    if (config_.magazine_capacity == 0)
        return;
    ThreadMagazines* t = front_.current();
    if (t == nullptr)
        return;
    // Logically const: moves objects between internal caches and
    // folds stat deltas the shared counters already own.
    const_cast<PrudenceAllocator*>(this)->drain_table(*t);
}

std::size_t
PrudenceAllocator::magazine_object_count(CacheId cache) const
{
    ThreadMagazines* t = front_.current();
    if (t == nullptr)
        return 0;
    auto& slot = t->mags[cache_ref(cache).index];
    return slot ? slot->objects.count() : 0;
}

std::size_t
PrudenceAllocator::magazine_defer_count(CacheId cache) const
{
    ThreadMagazines* t = front_.current();
    if (t == nullptr)
        return 0;
    auto& slot = t->mags[cache_ref(cache).index];
    return slot ? slot->defer_count : 0;
}

// ---------------------------------------------------------------------
// Lock-free magazine depot (DESIGN.md §14)
// ---------------------------------------------------------------------

namespace {

/// Feed a reclaimed deferred block into the defer->reclaim age
/// histogram. The stamp is per-block (batch granularity — the depot's
/// natural fidelity), recorded once per member so the histogram's
/// weighting matches the per-entry latent-ring stamp sites.
void
record_depot_ages(const DepotMagazine& blk)
{
    PRUDENCE_TELEM_STMT({
        if (blk.defer_ts != 0) {
            std::uint64_t now = telemetry::steady_now_ns();
            if (now > blk.defer_ts) {
                auto& hist =
                    trace::MetricsRegistry::instance().histogram(
                        trace::HistId::kDeferredAgeNs);
                for (std::size_t i = 0; i < blk.count; ++i)
                    hist.record(now - blk.defer_ts);
            }
        }
    });
    (void)blk;
}

}  // namespace

DepotMagazine*
PrudenceAllocator::depot_pop_reusable(Cache& c, ThreadMagazines& t,
                                      CacheStats& stats)
{
    MagazineDepot& d = *c.depot;
    if (DepotMagazine* blk = d.pop_full()) {
        stats.depot_exchanges.add();
        return blk;
    }

    // Deferred-block harvest: the oldest bucket whose grace period
    // completed, by the thread's cached view (which can only be
    // stale-small, so the check stays conservative).
    DepotMagazine* found = d.pop_ripe(refresh_completed(t));
    if (found == nullptr) {
        // Miss attribution (DESIGN.md §14): deferred blocks in the
        // depot mean stock EXISTS but its grace periods are still
        // open (gp_pending); with none the depot is simply cold.
        if (d.deferred_blocks() > 0)
            stats.depot_miss_gp_pending.add();
        else
            stats.depot_miss_cold.add();
        return nullptr;
    }
    for (std::size_t i = 0; i < found->count; ++i)
        PRUDENCE_MODEL_STMT(perturb::model_on_reuse(found->objs[i]));
    record_depot_ages(*found);
    stats.deferred_outstanding.sub(
        static_cast<std::int64_t>(found->count));
    stats.latent_merge_hits.add();
    stats.depot_exchanges.add();
    return found;
}

std::size_t
PrudenceAllocator::depot_harvest_safe(Cache& c)
{
    if (!depot_enabled(c))
        return 0;
    MagazineDepot& d = *c.depot;
    GpEpoch completed = domain_.completed_epoch();
    std::size_t harvested = 0;
    while (DepotMagazine* blk = d.pop_ripe(completed)) {
        for (std::size_t i = 0; i < blk->count; ++i)
            PRUDENCE_MODEL_STMT(perturb::model_on_reuse(blk->objs[i]));
        record_depot_ages(*blk);
        c.pool.stats().deferred_outstanding.sub(
            static_cast<std::int64_t>(blk->count));
        harvested += blk->count;
        blk->defer_ts = 0;  // age recorded; full blocks carry no stamp
        d.push_full(blk);  // immediately reusable from here on
    }
    return harvested;
}

std::size_t
PrudenceAllocator::depot_release_full(Cache& c,
                                      std::size_t keep_full_blocks)
{
    if (c.depot == nullptr || c.depot->blocks_created() == 0)
        return 0;
    MagazineDepot& d = *c.depot;

    // Full blocks beyond the keep allowance: members go straight back
    // to slab freelists (they were never live nor deferred — just
    // cached capacity).
    std::vector<DepotMagazine*> keep;
    std::vector<DepotMagazine*> drain;
    while (DepotMagazine* blk = d.pop_full()) {
        if (keep.size() < keep_full_blocks)
            keep.push_back(blk);
        else
            drain.push_back(blk);
    }
    for (DepotMagazine* blk : keep)
        d.push_full(blk);
    if (drain.empty())
        return 0;

    std::size_t released = 0;
    NodeLists& node = c.pool.node();
    bool want_shrink = false;
    {
        std::lock_guard<SpinLock> node_guard(node.lock);
        for (DepotMagazine* blk : drain) {
            for (std::size_t i = 0; i < blk->count; ++i) {
                SlabHeader* slab = c.pool.slab_of(blk->objs[i]);
                assert(slab->magic == SlabHeader::kMagicLive);
                slab->freelist_push(blk->objs[i]);
                node.move_to(slab,
                             NodeLists::deferred_aware_kind(slab));
            }
            released += blk->count;
        }
        want_shrink = node.free.size() > free_retention_limit(c);
    }
    for (DepotMagazine* blk : drain)
        d.release_empty(blk);
    if (want_shrink)
        shrink(c);
    return released;
}

std::size_t
PrudenceAllocator::depot_drain(Cache& c, std::size_t keep_full_blocks)
{
    if (c.depot == nullptr || c.depot->blocks_created() == 0)
        return 0;
    MagazineDepot& d = *c.depot;
    GpEpoch completed = domain_.completed_epoch();
    std::size_t released = depot_release_full(c, keep_full_blocks);

    std::vector<DepotMagazine*> ripe;
    while (DepotMagazine* blk = d.pop_ripe(completed))
        ripe.push_back(blk);

    // What is left waits on an open grace period (or behind one in a
    // shared bucket): preserve the deferral (tag and stamp intact) in
    // the members' slab latent rings.
    LatentRing::Entry entries[kMaxMagazineCapacity];
    while (DepotMagazine* blk = d.pop_deferred()) {
        for (std::size_t i = 0; i < blk->count; ++i) {
            entries[i] = LatentRing::Entry{blk->objs[i], blk->epoch,
                                           blk->defer_ts};
        }
        std::size_t n = blk->count;
        d.release_empty(blk);
        spill_entries(c, entries, n);
    }
    if (ripe.empty())
        return released;

    NodeLists& node = c.pool.node();
    bool want_shrink = false;
    {
        std::lock_guard<SpinLock> node_guard(node.lock);
        for (DepotMagazine* blk : ripe) {
            record_depot_ages(*blk);
            for (std::size_t i = 0; i < blk->count; ++i) {
                PRUDENCE_MODEL_STMT(perturb::model_on_reuse(blk->objs[i]));
                SlabHeader* slab = c.pool.slab_of(blk->objs[i]);
                assert(slab->magic == SlabHeader::kMagicLive);
                slab->freelist_push(blk->objs[i]);
                node.move_to(slab,
                             NodeLists::deferred_aware_kind(slab));
            }
            c.pool.stats().deferred_outstanding.sub(
                static_cast<std::int64_t>(blk->count));
            released += blk->count;
        }
        want_shrink = node.free.size() > free_retention_limit(c);
    }
    for (DepotMagazine* blk : ripe)
        d.release_empty(blk);
    if (want_shrink)
        shrink(c);
    return released;
}

std::size_t
PrudenceAllocator::trim_depot(std::size_t keep_blocks)
{
    // Governor actuator: make safe deferrals reclaimable first, then
    // release the cached capacity beyond the keep allowance. Unsafe
    // deferred blocks stay in the depot — draining them to slab rings
    // would free no memory, only churn the node locks.
    std::lock_guard<std::mutex> sweep(sweep_mutex_);
    std::size_t released = 0;
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
        Cache& c = *caches_[i];
        depot_harvest_safe(c);
        released += depot_release_full(c, keep_blocks);
    }
    return released;
}

std::size_t
PrudenceAllocator::depot_full_objects() const
{
    std::size_t total = 0;
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
        if (caches_[i]->depot)
            total += caches_[i]->depot->full_objects();
    }
    return total;
}

std::size_t
PrudenceAllocator::depot_deferred_objects() const
{
    std::size_t total = 0;
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
        if (caches_[i]->depot)
            total += caches_[i]->depot->deferred_objects();
    }
    return total;
}

std::size_t
PrudenceAllocator::depot_blocks_created() const
{
    std::size_t total = 0;
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
        if (caches_[i]->depot)
            total += caches_[i]->depot->blocks_created();
    }
    return total;
}

void
PrudenceAllocator::register_telemetry_probes(
    telemetry::ProbeGroup& group, const std::string& prefix)
{
    // Depot occupancy: what the governor's trim_depot scheme watches
    // (DESIGN.md §13/§14) — memory cached in full blocks, deferrals
    // parked in deferred blocks, and the arena footprint.
    group.add(prefix + "alloc.depot_full_objects", "objects", [this] {
        return static_cast<std::uint64_t>(depot_full_objects());
    });
    group.add(prefix + "alloc.depot_deferred_objects", "objects",
              [this] {
                  return static_cast<std::uint64_t>(
                      depot_deferred_objects());
              });
    group.add(prefix + "alloc.depot_blocks", "blocks", [this] {
        return static_cast<std::uint64_t>(depot_blocks_created());
    });
    // Attributed depot misses (DESIGN.md §14): cold (no stock at all)
    // vs gp_pending (stock exists but its grace periods are open).
    // Summed over caches from the per-cache counters.
    auto sum_counter = [this](const Counter CacheStats::*f) {
        std::uint64_t total = 0;
        std::size_t count =
            cache_count_.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < count; ++i)
            total += (caches_[i]->pool.stats().*f).get();
        return total;
    };
    group.add(prefix + "alloc.depot_miss_cold", "misses",
              [sum_counter] {
                  return sum_counter(&CacheStats::depot_miss_cold);
              });
    group.add(prefix + "alloc.depot_miss_gp_pending", "misses",
              [sum_counter] {
                  return sum_counter(
                      &CacheStats::depot_miss_gp_pending);
              });
    Allocator::register_telemetry_probes(group, prefix);
}

// ---------------------------------------------------------------------
// Maintenance (idle-time pre-flush, §4.2)
// ---------------------------------------------------------------------

void
PrudenceAllocator::preflush_cpu(Cache& c, PerCpu& pc)
{
    std::size_t cap = pc.cache.capacity();
    std::size_t total = pc.cache.count() + pc.latent.count();
    if (total <= cap) {
        pc.preflush_requested = false;
        return;
    }
    std::size_t excess = total - cap;

    // Aggressiveness: when frees (+deferred frees) outpace
    // allocations, the overflow will not drain by itself — move the
    // full excess. When allocations dominate, the object cache is
    // emptying anyway — move only half.
    std::uint64_t da = pc.alloc_events - pc.seen_alloc_events;
    std::uint64_t df = (pc.free_events - pc.seen_free_events) +
                       (pc.defer_events - pc.seen_defer_events);
    bool aggressive = df >= da;
    std::size_t n = aggressive ? excess : (excess + 1) / 2;
    if (n > pc.latent.count())
        n = pc.latent.count();
    if (n == 0)
        return;

    c.pool.stats().preflushes.add();
    LatentRing::Entry batch[128];
    while (n > 0) {
        std::size_t k = n > 128 ? 128 : n;
        for (std::size_t i = 0; i < k; ++i) {
            batch[i] = pc.latent.front();
            pc.latent.pop_front();
        }
        spill_entries(c, batch, k);
        n -= k;
    }
    if (pc.cache.count() + pc.latent.count() <= cap)
        pc.preflush_requested = false;
}

void
PrudenceAllocator::maintenance_pass()
{
    // Idle-time semantics: if an accounting reader (validate) or a
    // governor trim holds the sweep mutex, skip this pass entirely
    // rather than queue behind it.
    std::unique_lock<std::mutex> sweep(sweep_mutex_, std::try_to_lock);
    if (!sweep.owns_lock())
        return;
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
        Cache& c = *caches_[i];
        // Decay the retention high-water mark by 25% per pass and
        // raise it to the current backlog.
        std::int64_t deferred =
            c.pool.stats().deferred_outstanding.get();
        std::int64_t hint =
            c.retention_hint.load(std::memory_order_relaxed);
        std::int64_t new_hint = std::max(deferred, hint - hint / 4);
        c.retention_hint.store(new_hint, std::memory_order_relaxed);
        // Depot retention follows the same decayed hint: keep enough
        // full blocks to re-cache the hinted backlog, release the
        // rest to the slabs (and thence to the shrink checks below).
        // Under steady deferral traffic the hint stays high and the
        // depot keeps its working set; when the backlog drains, the
        // decay lets the cached capacity go within a few passes.
        if (depot_enabled(c)) {
            std::size_t per_block = config_.magazine_capacity > 0
                                        ? config_.magazine_capacity
                                        : 1;
            std::size_t keep =
                (static_cast<std::size_t>(new_hint) + per_block - 1) /
                per_block;
            if (c.depot->full_objects() > keep * per_block)
                depot_release_full(c, keep);
        }
        // Idle caches (no deferred objects anywhere) need no merging
        // or pre-flushing; skipping that work keeps the sweep
        // proportional to actual deferral activity. The shrink check
        // below still runs so slabs retained for a now-drained
        // backlog are eventually released.
        if (deferred == 0) {
            bool drain_excess;
            {
                std::lock_guard<SpinLock> node_guard(
                    c.pool.node().lock);
                drain_excess = c.pool.node().free.size() >
                               free_retention_limit(c);
            }
            if (drain_excess)
                shrink(c);
            continue;
        }
        // Depot blocks whose grace period completed become reusable
        // full blocks here, off the hot path — the depot analogue of
        // the latent-ring merges below.
        depot_harvest_safe(c);
        for (auto& pc_ptr : c.cpus) {
            PerCpu& pc = *pc_ptr;
            // Idle-time semantics: never contend with the owning
            // CPU's own allocation work.
            if (!pc.lock.try_lock())
                continue;
            // Merging first mirrors the paper: grace periods that
            // completed during pre-flushing are harvested before the
            // next allocation needs them.
            merge_caches(c, pc, domain_.completed_epoch());
            if (pc.preflush_requested ||
                pc.cache.count() + pc.latent.count() >
                    pc.cache.capacity()) {
                preflush_cpu(c, pc);
            }
            pc.seen_alloc_events = pc.alloc_events;
            pc.seen_free_events = pc.free_events;
            pc.seen_defer_events = pc.defer_events;
            pc.lock.unlock();
        }
        // Reclaim sweep: merge grace-period-complete latent-slab
        // entries on a bounded prefix of the partial and free lists
        // (the paper merges eligible objects whenever pre-flushing
        // notices a completed grace period). FIFO list order makes
        // the prefix the oldest — most mergeable — slabs.
        bool want_shrink;
        {
            NodeLists& node = c.pool.node();
            std::lock_guard<SpinLock> node_guard(node.lock);
            GpEpoch completed = domain_.completed_epoch();
            // Merge budget counts only slabs that actually need
            // merging — already-drained slabs at the list front must
            // not starve deferred ones behind them. A separate visit
            // cap bounds the walk itself.
            constexpr std::size_t kSweepMergeBudget = 20;
            std::size_t budget = kSweepMergeBudget;
            std::size_t visits = 256;
            auto sweep = [&](SlabHeader* slab) {
                if (budget == 0 || visits == 0)
                    return false;
                --visits;
                if (slab->deferred_count.load(
                        std::memory_order_acquire) > 0) {
                    --budget;
                    merge_slab_latent(c, slab, completed);
                    node.move_to(slab, NodeLists::deferred_aware_kind(slab));
                }
                return true;
            };
            node.partial.for_each(sweep);
            node.free.for_each(sweep);
            want_shrink = node.free.size() > free_retention_limit(c);
        }
        if (want_shrink)
            shrink(c);
    }
}

void
PrudenceAllocator::maintenance_main()
{
    while (running_.load(std::memory_order_acquire)) {
        maintenance_pass();
        std::this_thread::sleep_for(config_.maintenance_interval);
    }
}

// ---------------------------------------------------------------------
// Reclaim / quiesce
// ---------------------------------------------------------------------

void
PrudenceAllocator::reclaim_cache(Cache& c, bool fill_caches)
{
    // Serialize against background sweeps (maintenance, trim_depot):
    // a concurrent sweep could pop depot blocks this reclaim is
    // draining and re-push them after the drain, leaving the depot
    // non-empty on return. Per-cache granularity; the callers'
    // domain waits happen before this lock is taken.
    std::lock_guard<std::mutex> sweep(sweep_mutex_);
    // Full reclaim resets the retention hint: everything safe is
    // coming back right now, so there is nothing left to retain for.
    c.retention_hint.store(0, std::memory_order_relaxed);
    GpEpoch completed = domain_.completed_epoch();

    // Drain the magazine depot first: full blocks return to slab
    // freelists; deferred blocks whose grace period is still open are
    // respilled into slab latent rings, which the sweep below (and
    // later passes) preserve until safe.
    depot_drain(c, /*keep_full_blocks=*/0);

    // Per-CPU latent caches: optionally merge what fits, then spill
    // the rest of the safe prefix straight to slab freelists.
    for (auto& pc_ptr : c.cpus) {
        PerCpu& pc = *pc_ptr;
        std::vector<LatentRing::Entry> spill;
        {
            std::lock_guard<SpinLock> guard(pc.lock);
            if (fill_caches)
                merge_caches(c, pc, completed);
            while (!pc.latent.empty() &&
                   pc.latent.front().epoch <= completed) {
                spill.push_back(pc.latent.front());
                pc.latent.pop_front();
            }
        }
        if (!spill.empty()) {
            // Quiesce-driven reclaim is still defer->reclaim: feed the
            // age histogram here too, or ages would only be observed
            // on the merge-on-alloc path. One clock read covers the
            // whole spilled batch.
            PRUDENCE_TELEM_STMT({
                std::uint64_t now = telemetry::steady_now_ns();
                auto& hist =
                    trace::MetricsRegistry::instance().histogram(
                        trace::HistId::kDeferredAgeNs);
                for (const auto& e : spill) {
                    if (e.defer_ts != 0 && now > e.defer_ts)
                        hist.record(now - e.defer_ts);
                }
            });
            NodeLists& node = c.pool.node();
            std::lock_guard<SpinLock> node_guard(node.lock);
            for (const auto& e : spill) {
                SlabHeader* slab = c.pool.slab_of(e.object);
                PRUDENCE_MODEL_STMT(perturb::model_on_reuse(e.object));
                slab->freelist_push(e.object);
                node.move_to(slab, NodeLists::deferred_aware_kind(slab));
            }
            c.pool.stats().deferred_outstanding.sub(
                static_cast<std::int64_t>(spill.size()));
        }
    }

    // Latent slabs: merge every safe ring entry, restore natural list
    // membership, then shrink the excess free slabs.
    {
        NodeLists& node = c.pool.node();
        std::vector<SlabHeader*> all;
        std::lock_guard<SpinLock> node_guard(node.lock);
        auto collect = [&all](SlabHeader* s) {
            all.push_back(s);
            return true;
        };
        node.full.for_each(collect);
        node.partial.for_each(collect);
        node.free.for_each(collect);
        for (SlabHeader* slab : all) {
            merge_slab_latent(c, slab, completed);
            node.move_to(slab, NodeLists::deferred_aware_kind(slab));
        }
    }
    shrink(c);
}

void
PrudenceAllocator::quiesce()
{
    // Drain the calling thread's magazines BEFORE synchronizing so
    // the batch tags stamped by the spill complete within this very
    // grace period (other threads' magazines drain at their exit).
    drain_calling_thread();
    domain_.synchronize();
    // A quiesced allocator is back at nominal pressure: undo any
    // governor admission restriction so the next phase starts from
    // the configured knobs, not from the last excursion's.
    set_deferred_admission(100);
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i)
        reclaim_cache(*caches_[i], /*fill_caches=*/false);
    // Documented drain point (mirrors drain_calling_thread for the
    // page layer): after a quiesce, free_blocks() and the buddy
    // integrity totals are exact — no pages parked in per-CPU stashes.
    buddy_.drain_pcp();
}

std::string
PrudenceAllocator::validate()
{
    // The accounting equalities below hold at quiescent points; fold
    // this thread's magazine contents and stat deltas in first, and
    // return PCP-parked pages so page-level totals are exact too.
    drain_calling_thread();
    buddy_.drain_pcp();
    // Hold background sweeps (maintenance, governor trim_depot) out
    // of the whole accounting pass: their transfers keep objects in
    // limbo between the structures read below.
    std::lock_guard<std::mutex> sweep(sweep_mutex_);
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
        Cache& c = *caches_[i];
        PoolValidation v = validate_pool(c.pool);
        if (!v.ok)
            return v.error;
        // Accounting (quiescent): slab-level outstanding objects are
        // in per-CPU object caches, per-CPU latent caches, or held by
        // the application; the deferred gauge equals latent caches
        // plus latent-slab rings.
        std::size_t cached = 0;
        std::size_t latent = 0;
        for (auto& pc : c.cpus) {
            std::lock_guard<SpinLock> guard(pc->lock);
            cached += pc->cache.count();
            latent += pc->latent.count();
        }
        auto live = static_cast<std::size_t>(
            c.pool.stats().live_objects.get());
        auto deferred = static_cast<std::size_t>(
            c.pool.stats().deferred_outstanding.get());
        std::size_t depot_full = 0;
        std::size_t depot_deferred = 0;
        if (c.depot) {
            depot_full = c.depot->full_objects();
            depot_deferred = c.depot->deferred_objects();
        }
        if (v.outstanding_objects !=
            cached + latent + live + depot_full + depot_deferred) {
            return c.pool.name() + ": object accounting mismatch (" +
                   std::to_string(v.outstanding_objects) +
                   " outstanding vs " +
                   std::to_string(cached + latent + live + depot_full +
                                  depot_deferred) +
                   " accounted)";
        }
        if (deferred != latent + v.ring_objects + depot_deferred) {
            return c.pool.name() + ": deferred gauge " +
                   std::to_string(deferred) + " != latent caches " +
                   std::to_string(latent) + " + latent slabs " +
                   std::to_string(v.ring_objects) + " + depot " +
                   std::to_string(depot_deferred);
        }
    }
    return {};
}

CacheStatsSnapshot
PrudenceAllocator::cache_snapshot(CacheId cache) const
{
    // Documented drain point: tests and tools read snapshots for
    // exact counts, so the calling thread's pending magazine state
    // (objects, buffered deferrals, stat deltas) is folded in first.
    drain_calling_thread();
    return cache_ref(cache).pool.snapshot();
}

std::vector<CacheStatsSnapshot>
PrudenceAllocator::snapshots() const
{
    drain_calling_thread();
    std::size_t count = cache_count_.load(std::memory_order_acquire);
    std::vector<CacheStatsSnapshot> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(caches_[i]->pool.snapshot());
    return out;
}

}  // namespace prudence
