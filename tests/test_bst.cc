/**
 * @file
 * Tests for the RCU binary search tree: ordered-map semantics checked
 * against a std::map oracle, multi-deferral erases, and concurrent
 * reader safety on both allocators.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "api/allocator_factory.h"
#include "ds/rcu_bst.h"
#include "rcu/rcu_domain.h"

namespace prudence {
namespace {

enum class Kind { kSlub, kPrudence };

std::unique_ptr<Allocator>
make_allocator(Kind kind, RcuDomain& rcu)
{
    if (kind == Kind::kSlub) {
        SlubConfig cfg;
        cfg.arena_bytes = 128 << 20;
        cfg.cpus = 2;
        cfg.callback.inline_batch_limit = 10;
        return make_slub_allocator(rcu, cfg);
    }
    PrudenceConfig cfg;
    cfg.arena_bytes = 128 << 20;
    cfg.cpus = 2;
    return make_prudence_allocator(rcu, cfg);
}

class BstTest : public ::testing::TestWithParam<Kind>
{
  protected:
    BstTest() : rcu_(fast()), alloc_(make_allocator(GetParam(), rcu_))
    {
    }

    static RcuConfig
    fast()
    {
        RcuConfig cfg;
        cfg.gp_interval = std::chrono::microseconds{50};
        return cfg;
    }

    RcuDomain rcu_;
    std::unique_ptr<Allocator> alloc_;
};

TEST_P(BstTest, InsertLookupEraseBasics)
{
    RcuBst<std::uint64_t> tree(rcu_, *alloc_);
    EXPECT_TRUE(tree.insert(50, 500));
    EXPECT_TRUE(tree.insert(30, 300));
    EXPECT_TRUE(tree.insert(70, 700));
    EXPECT_TRUE(tree.insert(20, 200));
    EXPECT_TRUE(tree.insert(40, 400));
    EXPECT_FALSE(tree.insert(50, 999));
    EXPECT_EQ(tree.size(), 5u);

    std::uint64_t v = 0;
    EXPECT_TRUE(tree.lookup(40, &v));
    EXPECT_EQ(v, 400u);
    EXPECT_FALSE(tree.lookup(41, &v));

    // Leaf erase.
    EXPECT_TRUE(tree.erase(20));
    EXPECT_FALSE(tree.lookup(20, &v));
    // One-child erase.
    EXPECT_TRUE(tree.erase(30));
    EXPECT_TRUE(tree.lookup(40, &v));
    // Two-children erase (root).
    EXPECT_TRUE(tree.erase(50));
    EXPECT_TRUE(tree.lookup(40, &v));
    EXPECT_TRUE(tree.lookup(70, &v));
    EXPECT_FALSE(tree.erase(50));
    EXPECT_EQ(tree.size(), 2u);
}

TEST_P(BstTest, UpdateIsCopyBased)
{
    RcuBst<std::uint64_t> tree(rcu_, *alloc_);
    tree.insert(1, 10);
    EXPECT_TRUE(tree.update(1, 20));
    std::uint64_t v = 0;
    EXPECT_TRUE(tree.lookup(1, &v));
    EXPECT_EQ(v, 20u);
    EXPECT_FALSE(tree.update(2, 0));
}

TEST_P(BstTest, TwoChildEraseDefersMultipleObjects)
{
    // The paper's §3.1: one structural update can retire several
    // objects at once. Build a left-spine under the root's right
    // child and erase the root.
    RcuBst<std::uint64_t> tree(rcu_, *alloc_);
    tree.insert(100, 1);
    tree.insert(50, 2);
    for (std::uint64_t k : {200u, 190u, 180u, 170u, 160u})
        tree.insert(k, k);

    std::uint64_t before = 0;
    for (const auto& s : alloc_->snapshots()) {
        if (s.cache_name == "rcu_bst_node")
            before = s.deferred_free_calls;
    }
    EXPECT_TRUE(tree.erase(100));
    std::uint64_t after = 0;
    for (const auto& s : alloc_->snapshots()) {
        if (s.cache_name == "rcu_bst_node")
            after = s.deferred_free_calls;
    }
    // Victim + the whole cloned path to the successor (160):
    // 200, 190, 180, 170, 160 → at least 5 deferrals.
    EXPECT_GE(after - before, 5u);

    // The tree still holds everything except 100.
    std::uint64_t v;
    for (std::uint64_t k : {50u, 160u, 170u, 180u, 190u, 200u})
        EXPECT_TRUE(tree.lookup(k, &v)) << k;
    EXPECT_FALSE(tree.lookup(100, &v));
}

TEST_P(BstTest, MatchesMapOracleUnderRandomOps)
{
    RcuBst<std::uint64_t> tree(rcu_, *alloc_);
    std::map<std::uint64_t, std::uint64_t> oracle;
    std::mt19937_64 rng(99);

    for (int i = 0; i < 20000; ++i) {
        std::uint64_t key = rng() % 512;
        switch (rng() % 4) {
          case 0: {
            std::uint64_t val = rng();
            bool inserted = tree.insert(key, val);
            bool expected = oracle.emplace(key, val).second;
            ASSERT_EQ(inserted, expected) << "insert " << key;
            break;
          }
          case 1: {
            std::uint64_t val = rng();
            bool updated = tree.update(key, val);
            auto it = oracle.find(key);
            ASSERT_EQ(updated, it != oracle.end()) << "update " << key;
            if (it != oracle.end())
                it->second = val;
            break;
          }
          case 2: {
            bool erased = tree.erase(key);
            ASSERT_EQ(erased, oracle.erase(key) > 0) << "erase " << key;
            break;
          }
          default: {
            std::uint64_t v = 0;
            bool found = tree.lookup(key, &v);
            auto it = oracle.find(key);
            ASSERT_EQ(found, it != oracle.end()) << "lookup " << key;
            if (found) {
                ASSERT_EQ(v, it->second) << "value " << key;
            }
            break;
          }
        }
    }
    EXPECT_EQ(tree.size(), oracle.size());

    // Full-content check.
    for (const auto& [k, val] : oracle) {
        std::uint64_t v = 0;
        ASSERT_TRUE(tree.lookup(k, &v)) << k;
        ASSERT_EQ(v, val) << k;
    }
}

TEST_P(BstTest, ConcurrentReadersSeeConsistentValues)
{
    RcuBst<std::uint64_t> tree(rcu_, *alloc_);
    constexpr std::uint64_t kKeys = 128;
    for (std::uint64_t k = 0; k < kKeys; ++k)
        ASSERT_TRUE(tree.insert(k, k * 1000 + 1));

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> bad{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
        readers.emplace_back([&] {
            std::uint64_t k = 0;
            while (!stop) {
                std::uint64_t v = 0;
                if (tree.lookup(k % kKeys, &v)) {
                    if (v / 1000 != k % kKeys || v % 1000 == 0)
                        bad.fetch_add(1);
                }
                ++k;
            }
        });
    }

    std::mt19937_64 rng(3);
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t k = rng() % kKeys;
        switch (rng() % 3) {
          case 0:
            tree.erase(k);
            break;
          case 1:
            tree.insert(k, k * 1000 + 1 + (rng() % 500));
            break;
          default:
            tree.update(k, k * 1000 + 1 + (rng() % 500));
            break;
        }
    }
    stop = true;
    for (auto& t : readers)
        t.join();
    EXPECT_EQ(bad.load(), 0u);
}

TEST_P(BstTest, NoLeaksAfterChurnAndTeardown)
{
    {
        RcuBst<std::uint64_t> tree(rcu_, *alloc_);
        std::mt19937_64 rng(5);
        for (int i = 0; i < 5000; ++i) {
            std::uint64_t k = rng() % 256;
            if (rng() % 2)
                tree.insert(k, k);
            else
                tree.erase(k);
        }
    }
    alloc_->quiesce();
    for (const auto& s : alloc_->snapshots()) {
        if (s.cache_name == "rcu_bst_node") {
            EXPECT_EQ(s.live_objects, 0);
            EXPECT_EQ(s.deferred_outstanding, 0);
        }
    }
    EXPECT_EQ(alloc_->validate(), "");
}

INSTANTIATE_TEST_SUITE_P(BothAllocators, BstTest,
                         ::testing::Values(Kind::kSlub, Kind::kPrudence),
                         [](const auto& info) {
                             return info.param == Kind::kSlub
                                        ? "slub"
                                        : "prudence";
                         });

}  // namespace
}  // namespace prudence
