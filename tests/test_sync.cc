/**
 * @file
 * Unit tests for the low-level concurrency kit: spinlock, alignment
 * helpers, CPU registry, thread registry.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sync/cacheline.h"
#include "sync/cpu_registry.h"
#include "sync/spinlock.h"
#include "sync/thread_registry.h"

namespace prudence {
namespace {

TEST(Cacheline, AlignUp)
{
    EXPECT_EQ(align_up(0, 8), 0u);
    EXPECT_EQ(align_up(1, 8), 8u);
    EXPECT_EQ(align_up(8, 8), 8u);
    EXPECT_EQ(align_up(9, 8), 16u);
    EXPECT_EQ(align_up(63, 64), 64u);
    EXPECT_EQ(align_up(65, 64), 128u);
}

TEST(Cacheline, Pow2Helpers)
{
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(4096));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(12));
    EXPECT_EQ(next_pow2(1), 1u);
    EXPECT_EQ(next_pow2(3), 4u);
    EXPECT_EQ(next_pow2(4096), 4096u);
    EXPECT_EQ(log2_pow2(1), 0u);
    EXPECT_EQ(log2_pow2(4096), 12u);
}

TEST(SpinLock, MutualExclusionUnderContention)
{
    SpinLock lock;
    long counter = 0;
    constexpr int kThreads = 8;
    constexpr int kIters = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                std::lock_guard<SpinLock> guard(lock);
                ++counter;
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(SpinLock, TryLockFailsWhenHeld)
{
    SpinLock lock;
    lock.lock();
    EXPECT_FALSE(lock.try_lock());
    lock.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
}

TEST(CpuRegistry, StableIdPerThread)
{
    CpuRegistry reg(4);
    unsigned id1 = reg.cpu_id();
    unsigned id2 = reg.cpu_id();
    EXPECT_EQ(id1, id2);
    EXPECT_LT(id1, 4u);
}

TEST(CpuRegistry, RoundRobinAcrossThreads)
{
    CpuRegistry reg(4);
    std::mutex m;
    std::vector<unsigned> ids;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            unsigned id = reg.cpu_id();
            std::lock_guard<std::mutex> guard(m);
            ids.push_back(id);
        });
    }
    for (auto& th : threads)
        th.join();
    // 8 threads over 4 CPUs round-robin: each CPU appears twice.
    std::vector<int> counts(4, 0);
    for (unsigned id : ids) {
        ASSERT_LT(id, 4u);
        ++counts[id];
    }
    for (int c : counts)
        EXPECT_EQ(c, 2);
}

TEST(CpuRegistry, IndependentInstancesDoNotAlias)
{
    CpuRegistry a(8);
    CpuRegistry b(8);
    // The same thread may get different ids from different
    // registries; the thread-local cache must not mix them up.
    unsigned ia = a.cpu_id();
    unsigned ib = b.cpu_id();
    EXPECT_EQ(a.cpu_id(), ia);
    EXPECT_EQ(b.cpu_id(), ib);
    EXPECT_NE(a.serial(), b.serial());
}

TEST(ThreadRegistry, SlotIsStablePerThread)
{
    ThreadRegistry reg(16);
    ThreadSlot& s1 = reg.slot();
    ThreadSlot& s2 = reg.slot();
    EXPECT_EQ(&s1, &s2);
    EXPECT_EQ(reg.registered_count(), 1u);
}

TEST(ThreadRegistry, SlotsReleasedAtThreadExit)
{
    ThreadRegistry reg(16);
    std::thread t([&] { reg.slot(); });
    t.join();
    // After the thread exits its slot is recycled: many short-lived
    // threads must not exhaust a small capacity.
    for (int i = 0; i < 64; ++i) {
        std::thread tt([&] { reg.slot().value.store(1); });
        tt.join();
    }
    EXPECT_LE(reg.registered_count(), 16u);
}

TEST(ThreadRegistry, RecycledSlotIsOrderedAfterItsLastOwner)
{
    // The next owner of a recycled slot must see the last owner's
    // owner-only writes (nesting, section stamp) as happening before
    // its own, even when nothing but the slot hand-off orders the two
    // threads: no join, only a relaxed flag and a sleep. ThreadSanitizer
    // reports a data race here if acquiring a slot does not
    // synchronize with its release.
    ThreadRegistry reg(1);
    std::atomic<bool> first_done{false};
    std::thread first([&] {
        ThreadSlot& s = reg.slot();
        s.nesting = 1;
        s.section_start_ns = 1;
        first_done.store(true, std::memory_order_relaxed);
    });
    std::thread second([&] {
        while (!first_done.load(std::memory_order_relaxed))
            std::this_thread::yield();
        // Capacity 1: this acquire waits out the first owner's exit.
        for (;;) {
            try {
                ThreadSlot& s = reg.slot();
                s.nesting = 2;
                s.section_start_ns = 2;
                break;
            } catch (const std::runtime_error&) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        }
    });
    first.join();
    second.join();
    EXPECT_LE(reg.registered_count(), 1u);
}

TEST(ThreadRegistry, CapacityExhaustionThrows)
{
    ThreadRegistry reg(1);
    reg.slot();  // main thread takes the only slot
    std::atomic<bool> threw{false};
    std::thread t([&] {
        try {
            reg.slot();
        } catch (const std::runtime_error&) {
            threw = true;
        }
    });
    t.join();
    EXPECT_TRUE(threw);
}

TEST(ThreadRegistry, ForEachVisitsLiveSlots)
{
    ThreadRegistry reg(16);
    reg.slot().value.store(42);
    std::set<std::uint64_t> seen;
    reg.for_each_slot(
        [&seen](const ThreadSlot& s) { seen.insert(s.value.load()); });
    EXPECT_TRUE(seen.count(42));
}

TEST(ThreadRegistry, RegistryDestroyedBeforeThreadExitIsSafe)
{
    std::atomic<bool> registered{false};
    std::atomic<bool> proceed{false};
    auto reg = std::make_unique<ThreadRegistry>(4);
    std::thread t([&] {
        reg->slot();
        registered = true;
        while (!proceed)
            std::this_thread::yield();
        // Thread exits after the registry is gone; the releaser must
        // detect the dead registry and skip it.
    });
    while (!registered)
        std::this_thread::yield();
    reg.reset();
    proceed = true;
    t.join();
    SUCCEED();
}

}  // namespace
}  // namespace prudence
