#include "slab/slab_header.h"

#include <mutex>
#include <new>

#include "perturb/perturb.h"
#include "perturb/ref_model.h"
#include "sync/cacheline.h"

namespace prudence {

SlabHeader*
init_slab(void* memory, const SlabGeometry& geometry, void* owner,
          std::size_t color)
{
    auto* slab = new (memory) SlabHeader();
    auto* base = static_cast<std::byte*>(memory);

    slab->magic = SlabHeader::kMagicLive;
    slab->prev = nullptr;
    slab->next = nullptr;
    slab->owner = owner;
    slab->objects_base = base + geometry.objects_offset +
                         (color % geometry.color_slots) *
                             kCacheLineSize;
    slab->ring = reinterpret_cast<LatentSlabEntry*>(
        base + align_up(sizeof(SlabHeader), alignof(LatentSlabEntry)));
    slab->total_objects =
        static_cast<std::uint32_t>(geometry.objects_per_slab);
    slab->aligned_size = static_cast<std::uint32_t>(geometry.aligned_size);
    slab->free_count = 0;
    slab->ring_capacity =
        static_cast<std::uint32_t>(geometry.objects_per_slab);
    slab->ring_head = 0;
    slab->ring_count = 0;
    slab->deferred_count.store(0, std::memory_order_relaxed);
    slab->list_kind = SlabListKind::kNone;

    // Thread every object onto the freelist, last first, so that the
    // list hands objects out in address order.
    slab->freelist = nullptr;
    for (std::uint32_t i = slab->total_objects; i > 0; --i)
        slab->freelist_push(slab->object_at(i - 1));
    return slab;
}

std::size_t
merge_safe_latent(SlabHeader* slab, GpEpoch completed)
{
    std::lock_guard<SpinLock> guard(slab->slab_lock);
    std::size_t merged = 0;
    // Ring entries are epoch-monotone (FIFO appends of a monotone
    // counter), so the safe entries form a prefix.
    while (slab->ring_count > 0 &&
           slab->ring_front().epoch <= completed) {
        // The freelist push makes the object allocatable again: the
        // model's reuse check runs against the authoritative completed
        // epoch and the live reader set.
        PRUDENCE_MODEL_STMT(perturb::model_on_reuse(
            slab->object_at(slab->ring_front().index)));
        slab->freelist_push(slab->object_at(slab->ring_front().index));
        slab->ring_pop_front();
        ++merged;
    }
    return merged;
}

}  // namespace prudence
