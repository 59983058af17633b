#include "slab/slab_pool.h"

#include <cassert>
#include <mutex>
#include <utility>
#include <vector>

#include "perturb/perturb.h"
#include "trace/tracer.h"

namespace prudence {

SlabPool::SlabPool(std::string name, std::size_t object_size,
                   BuddyAllocator& buddy, PageOwnerTable& owners)
    : name_(std::move(name)),
      geometry_(compute_slab_geometry(object_size)),
      buddy_(buddy),
      owners_(owners)
{
}

SlabPool::~SlabPool()
{
    // Teardown: reclaim every slab regardless of occupancy. Objects
    // still outstanding at this point are owned by code that outlives
    // its allocator — a caller bug, as with any slab allocator.
    std::vector<SlabHeader*> all;
    {
        std::lock_guard<SpinLock> guard(node_.lock);
        auto collect = [&all](SlabHeader* s) {
            all.push_back(s);
            return true;
        };
        node_.full.for_each(collect);
        node_.partial.for_each(collect);
        node_.free.for_each(collect);
        for (SlabHeader* s : all)
            node_.move_to(s, SlabListKind::kNone);
    }
    for (SlabHeader* s : all) {
        owners_.clear_range(s, geometry_.slab_bytes);
        buddy_.free_pages(s, geometry_.slab_order);
        stats_.slabs.sub();
    }
}

SlabHeader*
SlabPool::grow()
{
    if (PRUDENCE_FAULT_POINT(kSlabGrow)) {
        // Injected growth refusal: upstream this is a refill failure,
        // which the allocators must treat exactly like a buddy OOM.
        return nullptr;
    }
    void* pages = buddy_.alloc_pages(geometry_.slab_order);
    if (pages == nullptr)
        return nullptr;
    // Rotate the cache color across successive slabs (§2.3/§4.3).
    std::size_t color =
        next_color_.fetch_add(1, std::memory_order_relaxed);
    SlabHeader* slab = init_slab(pages, geometry_, this, color);
    owners_.set_range(pages, geometry_.slab_bytes, slab);
    stats_.grows.add();
    stats_.slabs.add();
    PRUDENCE_TRACE_EMIT(trace::EventId::kSlabCreate,
                        reinterpret_cast<std::uintptr_t>(slab),
                        geometry_.object_size);
    return slab;
}

void
SlabPool::release_slab(SlabHeader* slab)
{
    assert(slab->magic == SlabHeader::kMagicLive &&
           "release of a dead or corrupted slab");
    slab->magic = SlabHeader::kMagicDead;
    assert(slab->list_kind == SlabListKind::kNone);
    assert(slab->free_count == slab->total_objects);
    assert(slab->deferred_count.load(std::memory_order_relaxed) == 0);
    owners_.clear_range(slab, geometry_.slab_bytes);
    buddy_.free_pages(slab, geometry_.slab_order);
    stats_.shrinks.add();
    stats_.slabs.sub();
    PRUDENCE_TRACE_EMIT(trace::EventId::kSlabDestroy,
                        reinterpret_cast<std::uintptr_t>(slab),
                        geometry_.object_size);
}

std::size_t
SlabPool::pop_freelist_batch(SlabHeader* slab, void** out,
                             std::size_t max)
{
    assert(slab->magic == SlabHeader::kMagicLive);
    std::size_t moved = 0;
    while (moved < max) {
        void* obj = slab->freelist_pop();
        if (obj == nullptr)
            break;
        out[moved++] = obj;
    }
    return moved;
}

CacheStatsSnapshot
SlabPool::snapshot() const
{
    return snapshot_cache_stats(stats_, name_, geometry_.object_size,
                                geometry_.slab_bytes);
}

}  // namespace prudence
