/**
 * @file
 * SlabPool: the node-level core of one slab cache — geometry, node
 * lists, slab growth/release — shared verbatim by the SLUB baseline
 * and Prudence (paper §4.3: Prudence reuses the existing allocator's
 * heuristics and structure).
 */
#ifndef PRUDENCE_SLAB_SLAB_POOL_H
#define PRUDENCE_SLAB_SLAB_POOL_H

#include <atomic>
#include <string>

#include "page/buddy_allocator.h"
#include "slab/geometry.h"
#include "slab/node_lists.h"
#include "slab/page_owner.h"
#include "slab/slab_header.h"
#include "stats/cache_stats.h"

namespace prudence {

/// Node-level slab cache state (single NUMA node).
class SlabPool
{
  public:
    /**
     * @param name        cache name for reporting ("filp", ...).
     * @param object_size user object size in bytes.
     * @param buddy       backing page allocator.
     * @param owners      page → slab table shared by the allocator.
     */
    SlabPool(std::string name, std::size_t object_size,
             BuddyAllocator& buddy, PageOwnerTable& owners);

    /// Releases every remaining slab back to the page allocator.
    ~SlabPool();

    SlabPool(const SlabPool&) = delete;
    SlabPool& operator=(const SlabPool&) = delete;

    const std::string& name() const { return name_; }
    const SlabGeometry& geometry() const { return geometry_; }

    /**
     * Opaque back-pointer for the embedding allocator (its per-cache
     * structure), reachable from any object via
     * SlabHeader::owner → SlabPool → context().
     */
    void set_context(void* ctx) { context_ = ctx; }
    void* context() const { return context_; }
    CacheStats& stats() { return stats_; }
    const CacheStats& stats() const { return stats_; }
    NodeLists& node() { return node_; }
    BuddyAllocator& buddy() { return buddy_; }

    /**
     * The slab containing @p obj. Valid only for objects of *this*
     * cache (the mask uses this cache's slab size).
     */
    SlabHeader*
    slab_of(const void* obj) const
    {
        auto off = static_cast<std::size_t>(
            static_cast<const std::byte*>(obj) - buddy_.base());
        std::size_t slab_off = off & ~(geometry_.slab_bytes - 1);
        return reinterpret_cast<SlabHeader*>(buddy_.base() + slab_off);
    }

    /**
     * Allocate and initialize a fresh slab (every object on its
     * freelist, not on any node list). Does NOT require the node
     * lock — the slab is private until the caller links it.
     * @return nullptr when the page allocator is out of memory.
     */
    SlabHeader* grow();

    /**
     * Return @p slab's pages to the page allocator. The slab must be
     * fully free and already unlinked (list_kind == kNone). Does not
     * require the node lock.
     */
    void release_slab(SlabHeader* slab);

    /**
     * Pop up to @p max objects off @p slab's freelist into @p out in
     * one sweep (the batch primitive behind the SLUB baseline's
     * refill_batch). Caller holds the node lock and re-lists the
     * slab afterwards.
     * @return objects moved (stops early when the freelist drains).
     */
    std::size_t pop_freelist_batch(SlabHeader* slab, void** out,
                                   std::size_t max);

    /// Point-in-time statistics snapshot with identity metadata.
    CacheStatsSnapshot snapshot() const;

  private:
    std::string name_;
    void* context_ = nullptr;
    SlabGeometry geometry_;
    BuddyAllocator& buddy_;
    PageOwnerTable& owners_;
    NodeLists node_;
    CacheStats stats_;
    /// Rotating cache-color cursor for newly grown slabs.
    std::atomic<std::size_t> next_color_{0};
};

}  // namespace prudence

#endif  // PRUDENCE_SLAB_SLAB_POOL_H
