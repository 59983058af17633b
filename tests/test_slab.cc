/**
 * @file
 * Tests for the shared slab infrastructure: header init, freelist,
 * latent ring, node lists, slab pool and page-owner table.
 */
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "page/buddy_allocator.h"
#include "slab/latent_ring.h"
#include "slab/magazine.h"
#include "slab/node_lists.h"
#include "slab/object_cache.h"
#include "slab/page_owner.h"
#include "slab/slab_pool.h"

namespace prudence {
namespace {

struct SlabFixture : ::testing::Test
{
    SlabFixture()
        : buddy(16 << 20), owners(buddy),
          pool("fixture", 128, buddy, owners)
    {
    }

    BuddyAllocator buddy;
    PageOwnerTable owners;
    SlabPool pool;
};

TEST_F(SlabFixture, InitPutsEveryObjectOnFreelist)
{
    SlabHeader* slab = pool.grow();
    ASSERT_NE(slab, nullptr);
    EXPECT_EQ(slab->free_count, slab->total_objects);
    EXPECT_EQ(slab->total_objects, pool.geometry().objects_per_slab);
    EXPECT_EQ(slab->in_use(), 0u);

    // Pop everything: all objects distinct, in-bounds, aligned.
    std::set<void*> seen;
    for (std::uint32_t i = 0; i < slab->total_objects; ++i) {
        void* obj = slab->freelist_pop();
        ASSERT_NE(obj, nullptr);
        EXPECT_TRUE(seen.insert(obj).second) << "duplicate object";
        auto off = static_cast<std::size_t>(
            static_cast<std::byte*>(obj) - slab->objects_base);
        EXPECT_EQ(off % slab->aligned_size, 0u);
        EXPECT_LT(off / slab->aligned_size, slab->total_objects);
    }
    EXPECT_EQ(slab->freelist_pop(), nullptr);
    EXPECT_EQ(slab->free_count, 0u);

    for (void* obj : seen)
        slab->freelist_push(obj);
    EXPECT_EQ(slab->free_count, slab->total_objects);
    {
        std::lock_guard<SpinLock> g(pool.node().lock);
        pool.node().move_to(slab, SlabListKind::kNone);
    }
    pool.release_slab(slab);
}

TEST_F(SlabFixture, ObjectIndexRoundTrips)
{
    SlabHeader* slab = pool.grow();
    ASSERT_NE(slab, nullptr);
    for (std::uint32_t i = 0; i < slab->total_objects; ++i) {
        void* obj = slab->object_at(i);
        EXPECT_EQ(slab->index_of(obj), i);
    }
    pool.release_slab(slab);
}

TEST_F(SlabFixture, LatentRingMergesSafePrefixOnly)
{
    SlabHeader* slab = pool.grow();
    ASSERT_NE(slab, nullptr);
    void* a = slab->freelist_pop();
    void* b = slab->freelist_pop();
    void* c = slab->freelist_pop();
    std::uint32_t free_before = slab->free_count;

    {
        std::lock_guard<SpinLock> g(slab->slab_lock);
        EXPECT_TRUE(slab->ring_push(slab->index_of(a), 5));
        EXPECT_TRUE(slab->ring_push(slab->index_of(b), 7));
        EXPECT_TRUE(slab->ring_push(slab->index_of(c), 9));
    }
    EXPECT_EQ(slab->deferred_count.load(), 3u);

    // completed == 7: entries tagged 5 and 7 merge, 9 stays.
    EXPECT_EQ(merge_safe_latent(slab, 7), 2u);
    EXPECT_EQ(slab->deferred_count.load(), 1u);
    EXPECT_EQ(slab->free_count, free_before + 2);

    EXPECT_EQ(merge_safe_latent(slab, 8), 0u);
    EXPECT_EQ(merge_safe_latent(slab, 9), 1u);
    EXPECT_EQ(slab->free_count, free_before + 3);
    EXPECT_EQ(slab->deferred_count.load(), 0u);
    pool.release_slab(slab);
}

TEST_F(SlabFixture, RingCapacityEqualsObjectsPerSlab)
{
    SlabHeader* slab = pool.grow();
    ASSERT_NE(slab, nullptr);
    std::vector<void*> objs;
    for (std::uint32_t i = 0; i < slab->total_objects; ++i)
        objs.push_back(slab->freelist_pop());
    {
        std::lock_guard<SpinLock> g(slab->slab_lock);
        for (void* o : objs)
            EXPECT_TRUE(slab->ring_push(slab->index_of(o), 1));
        // Full: one more must fail (would be a double-defer).
        EXPECT_FALSE(slab->ring_push(0, 1));
    }
    EXPECT_EQ(merge_safe_latent(slab, 1), slab->total_objects);
    EXPECT_EQ(slab->free_count, slab->total_objects);
    pool.release_slab(slab);
}

TEST_F(SlabFixture, PoolGrowTracksStatsAndOwners)
{
    auto before = pool.snapshot();
    SlabHeader* slab = pool.grow();
    ASSERT_NE(slab, nullptr);
    auto mid = pool.snapshot();
    EXPECT_EQ(mid.grows, before.grows + 1);
    EXPECT_EQ(mid.current_slabs, before.current_slabs + 1);

    // Every object of the slab resolves to it through the table.
    void* obj = slab->object_at(slab->total_objects - 1);
    EXPECT_EQ(owners.lookup(obj), slab);
    EXPECT_EQ(owners.lookup(slab), slab);

    pool.release_slab(slab);
    auto after = pool.snapshot();
    EXPECT_EQ(after.shrinks, mid.shrinks + 1);
    EXPECT_EQ(after.current_slabs, before.current_slabs);
    EXPECT_EQ(owners.lookup(obj), nullptr);
}

TEST_F(SlabFixture, SlabOfMasksCorrectly)
{
    SlabHeader* s1 = pool.grow();
    SlabHeader* s2 = pool.grow();
    ASSERT_NE(s1, nullptr);
    ASSERT_NE(s2, nullptr);
    void* o1 = s1->object_at(0);
    void* o2 = s2->object_at(s2->total_objects - 1);
    EXPECT_EQ(pool.slab_of(o1), s1);
    EXPECT_EQ(pool.slab_of(o2), s2);
    pool.release_slab(s1);
    pool.release_slab(s2);
}

TEST_F(SlabFixture, PoolDestructorReleasesListedSlabs)
{
    auto base = buddy.stats().pages_in_use;
    {
        SlabPool p2("temp", 64, buddy, owners);
        SlabHeader* a = p2.grow();
        SlabHeader* b = p2.grow();
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        std::lock_guard<SpinLock> g(p2.node().lock);
        p2.node().move_to(a, SlabListKind::kPartial);
        p2.node().move_to(b, SlabListKind::kFree);
    }
    EXPECT_EQ(buddy.stats().pages_in_use, base);
}

TEST(NodeLists, MoveBetweenLists)
{
    BuddyAllocator buddy(4 << 20);
    PageOwnerTable owners(buddy);
    SlabPool pool("lists", 64, buddy, owners);
    NodeLists& node = pool.node();
    SlabHeader* slab = pool.grow();
    ASSERT_NE(slab, nullptr);

    std::lock_guard<SpinLock> g(node.lock);
    EXPECT_EQ(slab->list_kind, SlabListKind::kNone);
    node.move_to(slab, SlabListKind::kPartial);
    EXPECT_EQ(node.partial.size(), 1u);
    node.move_to(slab, SlabListKind::kFull);
    EXPECT_EQ(node.partial.size(), 0u);
    EXPECT_EQ(node.full.size(), 1u);
    node.move_to(slab, SlabListKind::kFull);  // no-op
    EXPECT_EQ(node.full.size(), 1u);
    node.move_to(slab, SlabListKind::kNone);
    EXPECT_EQ(node.full.size(), 0u);
    pool.release_slab(slab);
}

TEST(NodeLists, NaturalKindFollowsFreeCount)
{
    BuddyAllocator buddy(4 << 20);
    PageOwnerTable owners(buddy);
    SlabPool pool("natural", 64, buddy, owners);
    SlabHeader* slab = pool.grow();
    ASSERT_NE(slab, nullptr);

    EXPECT_EQ(NodeLists::natural_kind(slab), SlabListKind::kFree);
    void* obj = slab->freelist_pop();
    EXPECT_EQ(NodeLists::natural_kind(slab), SlabListKind::kPartial);
    std::vector<void*> rest;
    while (void* o = slab->freelist_pop())
        rest.push_back(o);
    EXPECT_EQ(NodeLists::natural_kind(slab), SlabListKind::kFull);
    slab->freelist_push(obj);
    for (void* o : rest)
        slab->freelist_push(o);
    pool.release_slab(slab);
}

TEST(NodeLists, ForEachSurvivesUnlinking)
{
    BuddyAllocator buddy(8 << 20);
    PageOwnerTable owners(buddy);
    SlabPool pool("iter", 64, buddy, owners);
    NodeLists& node = pool.node();
    std::vector<SlabHeader*> slabs;
    {
        std::lock_guard<SpinLock> g(node.lock);
        for (int i = 0; i < 5; ++i) {
            SlabHeader* s = pool.grow();
            ASSERT_NE(s, nullptr);
            node.move_to(s, SlabListKind::kFree);
            slabs.push_back(s);
        }
        // Unlink every other slab during iteration.
        int idx = 0;
        node.free.for_each([&](SlabHeader* s) {
            if (idx++ % 2 == 0)
                node.move_to(s, SlabListKind::kNone);
            return true;
        });
        EXPECT_EQ(node.free.size(), 2u);
        for (SlabHeader* s : slabs)
            node.move_to(s, SlabListKind::kNone);
    }
    for (SlabHeader* s : slabs)
        pool.release_slab(s);
}

TEST(NodeLists, RotateToFrontKeepsCyclicOrder)
{
    BuddyAllocator buddy(8 << 20);
    PageOwnerTable owners(buddy);
    SlabPool pool("rotate", 64, buddy, owners);
    NodeLists& node = pool.node();
    std::vector<SlabHeader*> slabs;
    std::lock_guard<SpinLock> g(node.lock);
    for (int i = 0; i < 4; ++i) {
        SlabHeader* s = pool.grow();
        ASSERT_NE(s, nullptr);
        node.move_to(s, SlabListKind::kPartial);
        slabs.push_back(s);
    }
    auto order = [&] {
        std::vector<SlabHeader*> out;
        node.partial.for_each([&](SlabHeader* s) {
            out.push_back(s);
            return true;
        });
        return out;
    };
    using V = std::vector<SlabHeader*>;
    SlabHeader *a = slabs[0], *b = slabs[1], *c = slabs[2], *d = slabs[3];
    node.partial.rotate_to_front(c);
    EXPECT_EQ(order(), (V{c, d, a, b}));
    node.partial.rotate_to_front(b);  // the tail
    EXPECT_EQ(order(), (V{b, c, d, a}));
    node.partial.rotate_to_front(b);  // already the front: no-op
    EXPECT_EQ(order(), (V{b, c, d, a}));
    EXPECT_EQ(node.partial.size(), 4u);
    // The links stay consistent for later unlinks and appends.
    node.move_to(a, SlabListKind::kNone);
    node.move_to(a, SlabListKind::kPartial);
    EXPECT_EQ(order(), (V{b, c, d, a}));
    for (SlabHeader* s : slabs) {
        node.move_to(s, SlabListKind::kNone);
        pool.release_slab(s);
    }
}

TEST(ObjectCache, LifoWithColdEviction)
{
    ObjectCache cache(4);
    int a, b, c, d;
    cache.push(&a);
    cache.push(&b);
    cache.push(&c);
    cache.push(&d);
    EXPECT_TRUE(cache.full());

    // take_oldest removes from the cold end (&a, &b).
    void* out[2];
    EXPECT_EQ(cache.take_oldest(2, out), 2u);
    EXPECT_EQ(out[0], &a);
    EXPECT_EQ(out[1], &b);
    EXPECT_EQ(cache.count(), 2u);

    // LIFO order of the survivors is preserved.
    EXPECT_EQ(cache.pop(), &d);
    EXPECT_EQ(cache.pop(), &c);
    EXPECT_EQ(cache.pop(), nullptr);
}

TEST(ObjectCache, PopsToEmptyInLifoOrder)
{
    // Every pop reads slots_[count_ - 1] to prefetch the next object;
    // popping to empty at capacity 1 and at full capacity keeps that
    // index inside the slots (the asan preset checks the reads).
    for (std::size_t cap : {std::size_t{1}, kMaxMagazineCapacity}) {
        ObjectCache cache(cap);
        std::vector<int> objs(cap);
        EXPECT_EQ(cache.pop(), nullptr);
        for (int& o : objs)
            cache.push(&o);
        EXPECT_TRUE(cache.full());
        for (std::size_t i = cap; i-- > 0;)
            EXPECT_EQ(cache.pop(), &objs[i]);
        EXPECT_TRUE(cache.empty());
        EXPECT_EQ(cache.pop(), nullptr);
    }
}

TEST(LatentRing, FifoAndBounds)
{
    LatentRing ring(3);
    int a, b, c;
    ring.push(&a, 1);
    ring.push(&b, 2);
    ring.push(&c, 3);
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring.front().object, &a);
    EXPECT_EQ(ring.back().object, &c);
    ring.pop_front();
    EXPECT_EQ(ring.front().object, &b);
    ring.pop_back();
    EXPECT_EQ(ring.back().object, &b);
    EXPECT_EQ(ring.count(), 1u);
    // Wrap-around.
    ring.push(&c, 4);
    ring.push(&a, 5);
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring.front().epoch, 2u);
    EXPECT_EQ(ring.back().epoch, 5u);
}

TEST(PageOwner, LookupOutsideArenaIsNull)
{
    BuddyAllocator buddy(4 << 20);
    PageOwnerTable owners(buddy);
    int stack_var;
    // Outside pointers may map to an arbitrary pfn; a cleared table
    // returns null for in-range pages and null for out-of-range.
    EXPECT_EQ(owners.lookup(buddy.base()), nullptr);
    (void)stack_var;
}

}  // namespace
}  // namespace prudence
