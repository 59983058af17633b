/**
 * @file
 * Unit and property tests for the buddy page allocator.
 */
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "page/buddy_allocator.h"
#include "page/page_types.h"

namespace prudence {
namespace {

constexpr std::size_t kArena = 16 << 20;  // 16 MiB

TEST(Buddy, SinglePageRoundTrip)
{
    BuddyAllocator buddy(kArena);
    void* p = buddy.alloc_pages(0);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(buddy.stats().pages_in_use, 1);
    buddy.free_pages(p, 0);
    EXPECT_EQ(buddy.stats().pages_in_use, 0);
    EXPECT_TRUE(buddy.check_integrity());
}

TEST(Buddy, AllocationIsPageAligned)
{
    BuddyAllocator buddy(kArena);
    for (unsigned order = 0; order <= 5; ++order) {
        void* p = buddy.alloc_pages(order);
        ASSERT_NE(p, nullptr) << "order " << order;
        auto off = static_cast<std::size_t>(
            static_cast<std::byte*>(p) - buddy.base());
        EXPECT_EQ(off % order_bytes(order), 0u) << "order " << order;
        buddy.free_pages(p, order);
    }
    EXPECT_TRUE(buddy.check_integrity());
}

TEST(Buddy, WritesDoNotCorruptNeighbors)
{
    BuddyAllocator buddy(kArena);
    void* a = buddy.alloc_pages(1);
    void* b = buddy.alloc_pages(1);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    std::memset(a, 0xAA, order_bytes(1));
    std::memset(b, 0xBB, order_bytes(1));
    EXPECT_EQ(static_cast<unsigned char*>(a)[0], 0xAA);
    EXPECT_EQ(static_cast<unsigned char*>(b)[order_bytes(1) - 1], 0xBB);
    buddy.free_pages(a, 1);
    buddy.free_pages(b, 1);
    EXPECT_TRUE(buddy.check_integrity());
}

TEST(Buddy, ExhaustionReturnsNull)
{
    BuddyAllocator buddy(1 << 20);  // 256 pages
    std::vector<void*> blocks;
    for (;;) {
        void* p = buddy.alloc_pages(0);
        if (p == nullptr)
            break;
        blocks.push_back(p);
    }
    EXPECT_EQ(blocks.size(), buddy.capacity_pages());
    EXPECT_EQ(buddy.stats().failed_allocs, 1u);
    for (void* p : blocks)
        buddy.free_pages(p, 0);
    EXPECT_EQ(buddy.stats().pages_in_use, 0);
    EXPECT_TRUE(buddy.check_integrity());
}

TEST(Buddy, CoalescingRestoresMaxOrderBlocks)
{
    BuddyAllocator buddy(kArena);
    std::size_t max_before = buddy.free_blocks(kMaxPageOrder);
    ASSERT_GT(max_before, 0u);

    // Fragment: allocate every page, then free all of them.
    std::vector<void*> blocks;
    for (;;) {
        void* p = buddy.alloc_pages(0);
        if (p == nullptr)
            break;
        blocks.push_back(p);
    }
    EXPECT_EQ(buddy.free_blocks(kMaxPageOrder), 0u);
    // Free in shuffled order to exercise merge chains.
    std::mt19937 rng(42);
    std::shuffle(blocks.begin(), blocks.end(), rng);
    for (void* p : blocks)
        buddy.free_pages(p, 0);
    EXPECT_EQ(buddy.free_blocks(kMaxPageOrder), max_before);
    EXPECT_TRUE(buddy.check_integrity());
}

TEST(Buddy, MixedOrderStressKeepsIntegrity)
{
    BuddyAllocator buddy(kArena);
    std::mt19937 rng(7);
    std::vector<std::pair<void*, unsigned>> live;
    for (int i = 0; i < 20000; ++i) {
        if (live.empty() || rng() % 2 == 0) {
            unsigned order = rng() % 4;
            void* p = buddy.alloc_pages(order);
            if (p != nullptr)
                live.emplace_back(p, order);
        } else {
            std::size_t j = rng() % live.size();
            buddy.free_pages(live[j].first, live[j].second);
            live[j] = live.back();
            live.pop_back();
        }
        if (i % 4096 == 0) {
            ASSERT_TRUE(buddy.check_integrity()) << "iteration " << i;
        }
    }
    for (auto& [p, order] : live)
        buddy.free_pages(p, order);
    EXPECT_EQ(buddy.stats().pages_in_use, 0);
    EXPECT_TRUE(buddy.check_integrity());
}

TEST(Buddy, PeakTracksHighWaterMark)
{
    BuddyAllocator buddy(kArena);
    void* a = buddy.alloc_pages(3);  // 8 pages
    void* b = buddy.alloc_pages(2);  // 4 pages
    buddy.free_pages(b, 2);
    void* c = buddy.alloc_pages(0);  // 1 page
    EXPECT_EQ(buddy.stats().peak_pages_in_use, 12);
    buddy.free_pages(a, 3);
    buddy.free_pages(c, 0);
}

// Pages of [base, base + bytes) that are resident in memory.
std::size_t
resident_pages(const std::byte* base, std::size_t bytes)
{
    std::vector<unsigned char> vec(bytes / kPageSize);
    if (::mincore(const_cast<std::byte*>(base), bytes, vec.data()) != 0)
        return static_cast<std::size_t>(-1);
    return static_cast<std::size_t>(
        std::count_if(vec.begin(), vec.end(),
                      [](unsigned char v) { return (v & 1) != 0; }));
}

TEST(Buddy, ConstructionTouchesNoArenaPage)
{
    // The free-list links live out of band, so carving the arena into
    // free blocks writes none of its pages (with or without PCP).
    BuddyConfig cfg;
    cfg.capacity_bytes = 64 << 20;
    cfg.cpus = 4;
    for (std::size_t high : {std::size_t{0}, std::size_t{32}}) {
        cfg.pcp_high_watermark = high;
        BuddyAllocator buddy(cfg);
        ASSERT_TRUE(buddy.valid());
        EXPECT_EQ(resident_pages(buddy.base(),
                                 buddy.capacity_pages() * kPageSize),
                  0u)
            << "pcp_high_watermark " << high;
        EXPECT_TRUE(buddy.check_integrity());
    }
}

TEST(Buddy, ScribbledFreeBlockKeepsListsIntact)
{
    BuddyAllocator buddy(1 << 20);  // 256 pages
    void* a = buddy.alloc_pages(3);
    ASSERT_NE(a, nullptr);
    buddy.free_pages(a, 3);
    // A stray write over free memory: the freed block, then the whole
    // (now entirely free) arena.
    std::memset(a, 0xA5, order_bytes(3));
    EXPECT_TRUE(buddy.check_integrity());
    std::memset(buddy.base(), 0x5A, buddy.capacity_pages() * kPageSize);
    EXPECT_TRUE(buddy.check_integrity());

    std::vector<void*> blocks;
    while (void* p = buddy.alloc_pages(0))
        blocks.push_back(p);
    EXPECT_EQ(blocks.size(), buddy.capacity_pages());
    for (void* p : blocks)
        buddy.free_pages(p, 0);
    EXPECT_EQ(buddy.free_blocks(8), 1u);  // merged back to one block
    EXPECT_TRUE(buddy.check_integrity());
}

TEST(Buddy, ConcurrentAllocFreeIsSafe)
{
    BuddyAllocator buddy(64 << 20);
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&buddy, t] {
            std::mt19937 rng(t);
            std::vector<std::pair<void*, unsigned>> live;
            for (int i = 0; i < 5000; ++i) {
                if (live.empty() || rng() % 2 == 0) {
                    unsigned order = rng() % 3;
                    void* p = buddy.alloc_pages(order);
                    if (p != nullptr) {
                        std::memset(p, t, 64);
                        live.emplace_back(p, order);
                    }
                } else {
                    auto [p, order] = live.back();
                    live.pop_back();
                    buddy.free_pages(p, order);
                }
            }
            for (auto& [p, order] : live)
                buddy.free_pages(p, order);
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(buddy.stats().pages_in_use, 0);
    EXPECT_TRUE(buddy.check_integrity());
}

/// Property sweep: for any order, blocks are disjoint and aligned.
class BuddyOrderProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BuddyOrderProperty, BlocksAreDisjointAndAligned)
{
    unsigned order = GetParam();
    BuddyAllocator buddy(kArena);
    std::vector<void*> blocks;
    for (int i = 0; i < 32; ++i) {
        void* p = buddy.alloc_pages(order);
        if (p == nullptr)
            break;
        blocks.push_back(p);
    }
    ASSERT_FALSE(blocks.empty());
    std::sort(blocks.begin(), blocks.end());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        auto off = static_cast<std::size_t>(
            static_cast<std::byte*>(blocks[i]) - buddy.base());
        EXPECT_EQ(off % order_bytes(order), 0u);
        if (i > 0) {
            auto gap = static_cast<std::size_t>(
                static_cast<std::byte*>(blocks[i]) -
                static_cast<std::byte*>(blocks[i - 1]));
            EXPECT_GE(gap, order_bytes(order));
        }
    }
    for (void* p : blocks)
        buddy.free_pages(p, order);
    EXPECT_TRUE(buddy.check_integrity());
}

INSTANTIATE_TEST_SUITE_P(AllOrders, BuddyOrderProperty,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u));

// ---------------------------------------------------------------------
// Checked-free diagnostics: caller bugs abort with a clear message
// instead of silently corrupting the free lists (the checks are
// always on, not release-stripped asserts).
// ---------------------------------------------------------------------

using BuddyCheckedFreeDeathTest = ::testing::Test;

TEST(BuddyCheckedFreeDeathTest, DoubleFreeAborts)
{
    BuddyAllocator buddy(kArena);
    void* p = buddy.alloc_pages(0);
    ASSERT_NE(p, nullptr);
    buddy.free_pages(p, 0);
    EXPECT_DEATH(buddy.free_pages(p, 0), "buddy checked-free: double free");
}

TEST(BuddyCheckedFreeDeathTest, WrongOrderFreeAborts)
{
    BuddyAllocator buddy(kArena);
    void* p = buddy.alloc_pages(0);
    ASSERT_NE(p, nullptr);
    // Freeing a single page as an order-2 block trips either the
    // alignment check or the tail-page check depending on placement.
    EXPECT_DEATH(buddy.free_pages(p, 2), "buddy checked-free: ");
}

TEST(BuddyCheckedFreeDeathTest, ForeignPointerAborts)
{
    BuddyAllocator buddy(kArena);
    int local = 0;
    EXPECT_DEATH(buddy.free_pages(&local, 0),
                 "buddy checked-free: pointer outside the arena");
}

TEST(BuddyCheckedFreeDeathTest, MisalignedPointerAborts)
{
    BuddyAllocator buddy(kArena);
    void* p = buddy.alloc_pages(0);
    ASSERT_NE(p, nullptr);
    void* inside = static_cast<std::byte*>(p) + 8;
    EXPECT_DEATH(buddy.free_pages(inside, 0),
                 "buddy checked-free: pointer not page-aligned");
    buddy.free_pages(p, 0);
}

TEST(BuddyCheckedFreeDeathTest, OrderOutOfRangeAborts)
{
    BuddyAllocator buddy(kArena);
    void* p = buddy.alloc_pages(0);
    ASSERT_NE(p, nullptr);
    EXPECT_DEATH(buddy.free_pages(p, kMaxPageOrder + 1),
                 "buddy checked-free: order out of range");
    buddy.free_pages(p, 0);
}

}  // namespace
}  // namespace prudence
