/**
 * @file
 * Tests for the deep-validation walker and for slab coloring.
 */
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/prudence_allocator.h"
#include "page/buddy_allocator.h"
#include "rcu/manual_domain.h"
#include "slab/validate.h"
#include "slub/slub_allocator.h"

namespace prudence {
namespace {

TEST(Validate, FreshPoolIsConsistent)
{
    BuddyAllocator buddy(16 << 20);
    PageOwnerTable owners(buddy);
    SlabPool pool("v", 128, buddy, owners);
    PoolValidation v = validate_pool(pool);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.slabs, 0u);
}

TEST(Validate, CountsMatchSlabState)
{
    BuddyAllocator buddy(16 << 20);
    PageOwnerTable owners(buddy);
    SlabPool pool("v", 128, buddy, owners);

    SlabHeader* slab = pool.grow();
    ASSERT_NE(slab, nullptr);
    void* a = slab->freelist_pop();
    void* b = slab->freelist_pop();
    {
        std::lock_guard<SpinLock> g(slab->slab_lock);
        slab->ring_push(slab->index_of(b), 3);
    }
    {
        std::lock_guard<SpinLock> g(pool.node().lock);
        pool.node().move_to(slab, SlabListKind::kPartial);
    }

    PoolValidation v = validate_pool(pool);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.slabs, 1u);
    EXPECT_EQ(v.free_objects, slab->total_objects - 2u);
    EXPECT_EQ(v.ring_objects, 1u);
    EXPECT_EQ(v.outstanding_objects, 1u);  // `a` is held by us

    // Cleanup.
    EXPECT_EQ(merge_safe_latent(slab, 3), 1u);
    slab->freelist_push(a);
    {
        std::lock_guard<SpinLock> g(pool.node().lock);
        pool.node().move_to(slab, SlabListKind::kNone);
    }
    pool.release_slab(slab);
}

TEST(Validate, DetectsListKindMismatch)
{
    BuddyAllocator buddy(16 << 20);
    PageOwnerTable owners(buddy);
    SlabPool pool("v", 128, buddy, owners);
    SlabHeader* slab = pool.grow();
    ASSERT_NE(slab, nullptr);
    {
        std::lock_guard<SpinLock> g(pool.node().lock);
        pool.node().move_to(slab, SlabListKind::kFree);
    }
    // Corrupt the marker.
    slab->list_kind = SlabListKind::kPartial;
    PoolValidation v = validate_pool(pool);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("marked"), std::string::npos) << v.error;
    // Repair and release.
    slab->list_kind = SlabListKind::kFree;
    {
        std::lock_guard<SpinLock> g(pool.node().lock);
        pool.node().move_to(slab, SlabListKind::kNone);
    }
    pool.release_slab(slab);
}

TEST(Validate, DetectsFreeCountCorruption)
{
    BuddyAllocator buddy(16 << 20);
    PageOwnerTable owners(buddy);
    SlabPool pool("v", 128, buddy, owners);
    SlabHeader* slab = pool.grow();
    ASSERT_NE(slab, nullptr);
    {
        std::lock_guard<SpinLock> g(pool.node().lock);
        pool.node().move_to(slab, SlabListKind::kFree);
    }
    slab->free_count -= 1;  // corrupt
    PoolValidation v = validate_pool(pool);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("free_count"), std::string::npos) << v.error;
    slab->free_count += 1;
    {
        std::lock_guard<SpinLock> g(pool.node().lock);
        pool.node().move_to(slab, SlabListKind::kNone);
    }
    pool.release_slab(slab);
}

TEST(Validate, AllocatorLevelAccountingBothAllocators)
{
    ManualRcuDomain domain;
    {
        SlubConfig cfg;
        cfg.arena_bytes = 32 << 20;
        cfg.cpus = 2;
        cfg.callback.background_drainer = false;
        SlubAllocator alloc(domain, cfg);
        CacheId id = alloc.create_cache("acc", 128);
        std::vector<void*> objs;
        for (int i = 0; i < 500; ++i)
            objs.push_back(alloc.cache_alloc(id));
        for (int i = 0; i < 200; ++i)
            alloc.cache_free(id, objs[i]);
        for (int i = 200; i < 300; ++i)
            alloc.cache_free_deferred(id, objs[i]);
        EXPECT_EQ(alloc.validate(), "");
        for (int i = 300; i < 500; ++i)
            alloc.cache_free(id, objs[i]);
        alloc.quiesce();
        EXPECT_EQ(alloc.validate(), "");
    }
    {
        PrudenceConfig cfg;
        cfg.arena_bytes = 32 << 20;
        cfg.cpus = 2;
        cfg.maintenance_interval = std::chrono::microseconds{0};
        PrudenceAllocator alloc(domain, cfg);
        CacheId id = alloc.create_cache("acc", 128);
        std::vector<void*> objs;
        for (int i = 0; i < 500; ++i)
            objs.push_back(alloc.cache_alloc(id));
        for (int i = 0; i < 250; ++i)
            alloc.cache_free_deferred(id, objs[i]);
        EXPECT_EQ(alloc.validate(), "");
        domain.advance();
        alloc.maintenance_pass();
        EXPECT_EQ(alloc.validate(), "");
        for (int i = 250; i < 500; ++i)
            alloc.cache_free(id, objs[i]);
        alloc.quiesce();
        EXPECT_EQ(alloc.validate(), "");
    }
}

TEST(Coloring, SuccessiveSlabsRotateOffsets)
{
    BuddyAllocator buddy(32 << 20);
    PageOwnerTable owners(buddy);
    SlabPool pool("color", 128, buddy, owners);
    const SlabGeometry& g = pool.geometry();

    std::set<std::size_t> offsets;
    std::vector<SlabHeader*> slabs;
    for (std::size_t i = 0; i < g.color_slots + 2; ++i) {
        SlabHeader* s = pool.grow();
        ASSERT_NE(s, nullptr);
        auto off = static_cast<std::size_t>(
            s->objects_base - reinterpret_cast<std::byte*>(s));
        // Offset within [objects_offset, slab_bytes), cache aligned.
        EXPECT_GE(off, g.objects_offset);
        EXPECT_EQ((off - g.objects_offset) % kCacheLineSize, 0u);
        // Objects must still fit.
        EXPECT_LE(off + g.objects_per_slab * g.aligned_size,
                  g.slab_bytes);
        offsets.insert(off);
        slabs.push_back(s);
    }
    // With more than one color slot, at least two distinct offsets
    // must appear.
    if (g.color_slots > 1) {
        EXPECT_GT(offsets.size(), 1u);
    }
    for (SlabHeader* s : slabs)
        pool.release_slab(s);
}

TEST(Coloring, EveryKmallocClassHasValidColorGeometry)
{
    for (std::size_t size :
         {8u, 64u, 192u, 256u, 1024u, 4096u, 8192u}) {
        SlabGeometry g = compute_slab_geometry(size);
        EXPECT_GE(g.color_slots, 1u) << size;
        // The largest color offset must keep objects in bounds.
        std::size_t max_shift = (g.color_slots - 1) * kCacheLineSize;
        EXPECT_LE(g.objects_offset + max_shift +
                      g.objects_per_slab * g.aligned_size,
                  g.slab_bytes)
            << size;
    }
}

}  // namespace
}  // namespace prudence
