/**
 * @file
 * Property-based tests: randomized operation sequences checked
 * against an oracle that tracks, for every object, whether it is
 * live, immediately freed, or deferred with a grace-period tag.
 *
 * Invariants enforced on every single allocation (DESIGN.md §6):
 *   1. GP safety  — no allocation returns an object whose deferral
 *      tag has not completed;
 *   2. uniqueness — no object is handed out twice while live;
 *   3. accounting — counters and gauges match the oracle;
 *   4. teardown   — quiesce leaves zero live/deferred objects and an
 *      intact page allocator.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "api/allocator_factory.h"
#include "page/buddy_allocator.h"
#include "rcu/manual_domain.h"

namespace prudence {
namespace {

enum class Kind { kSlub, kPrudence };

const char*
kind_name(Kind kind)
{
    return kind == Kind::kSlub ? "slub" : "prudence";
}

struct Params
{
    Kind kind;
    std::uint64_t seed;
    std::size_t object_size;
};

// gtest prints a parameter into the discovered test name; without this
// overload it dumps Params' raw bytes, uninitialised padding included.
void
PrintTo(const Params& p, std::ostream* os)
{
    *os << "{" << kind_name(p.kind) << ", seed=" << p.seed
        << ", size=" << p.object_size << "}";
}

std::string
param_name(const ::testing::TestParamInfo<Params>& info)
{
    return std::string(kind_name(info.param.kind)) + "_seed" +
           std::to_string(info.param.seed) + "_size" +
           std::to_string(info.param.object_size);
}

class AllocatorProperty : public ::testing::TestWithParam<Params>
{
};

TEST_P(AllocatorProperty, RandomOpsPreserveInvariants)
{
    const Params& params = GetParam();
    ManualRcuDomain domain;

    std::unique_ptr<Allocator> alloc;
    if (params.kind == Kind::kSlub) {
        SlubConfig cfg;
        cfg.arena_bytes = 64 << 20;
        cfg.cpus = 1;
        cfg.callback.background_drainer = false;
        cfg.callback.inline_batch_limit = 0;
        alloc = make_slub_allocator(domain, cfg);
    } else {
        PrudenceConfig cfg;
        cfg.arena_bytes = 64 << 20;
        cfg.cpus = 1;
        cfg.maintenance_interval = std::chrono::microseconds{0};
        alloc = make_prudence_allocator(domain, cfg);
    }
    CacheId id = alloc->create_cache("prop", params.object_size);

    std::mt19937_64 rng(params.seed);
    std::set<void*> live;
    /// deferred object -> tag at defer time
    std::map<void*, GpEpoch> deferred;

    std::uint64_t allocs = 0, frees = 0, defers = 0;

    for (int step = 0; step < 30000; ++step) {
        int action = static_cast<int>(rng() % 100);
        if (action < 45 || live.empty()) {
            void* p = alloc->cache_alloc(id);
            ASSERT_NE(p, nullptr);
            ++allocs;
            // Invariant 2: never live twice.
            ASSERT_TRUE(live.insert(p).second)
                << "step " << step << ": double handout";
            // Invariant 1: if it was deferred, its tag must have
            // completed.
            auto it = deferred.find(p);
            if (it != deferred.end()) {
                ASSERT_TRUE(domain.is_safe(it->second))
                    << "step " << step
                    << ": reused inside its grace period";
                deferred.erase(it);
            }
        } else if (action < 70) {
            auto it = live.begin();
            std::advance(it, rng() % live.size());
            void* p = *it;
            live.erase(it);
            // Immediately freed objects may be re-handed instantly;
            // remove any stale deferral record (cannot exist, but
            // keeps the oracle honest).
            deferred.erase(p);
            alloc->cache_free(id, p);
            ++frees;
        } else if (action < 95) {
            auto it = live.begin();
            std::advance(it, rng() % live.size());
            void* p = *it;
            live.erase(it);
            deferred[p] = domain.defer_epoch();
            alloc->cache_free_deferred(id, p);
            ++defers;
        } else {
            domain.advance();
            // Deferred entries whose tags are now safe may be
            // recycled from here on; keep them in the map — the
            // alloc-side check handles both cases.
        }
        // Drop safe entries occasionally to bound the oracle.
        if (step % 1000 == 999) {
            for (auto it = deferred.begin(); it != deferred.end();) {
                if (domain.is_safe(it->second))
                    it = deferred.erase(it);
                else
                    ++it;
            }
        }
    }

    // Invariant 3: counters match the oracle.
    auto s = alloc->cache_snapshot(id);
    EXPECT_EQ(s.alloc_calls, allocs);
    EXPECT_EQ(s.free_calls, frees);
    EXPECT_EQ(s.deferred_free_calls, defers);
    EXPECT_EQ(s.live_objects,
              static_cast<std::int64_t>(live.size()));

    // Mid-run deep validation: the allocator is quiescent here
    // (single thread, between operations).
    EXPECT_EQ(alloc->validate(), "");

    // Invariant 4: teardown leaves nothing behind.
    for (void* p : live)
        alloc->cache_free(id, p);
    alloc->quiesce();
    s = alloc->cache_snapshot(id);
    EXPECT_EQ(s.live_objects, 0);
    EXPECT_EQ(s.deferred_outstanding, 0);
    EXPECT_TRUE(alloc->page_allocator().check_integrity());
    EXPECT_EQ(alloc->validate(), "");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllocatorProperty,
    ::testing::Values(
        Params{Kind::kSlub, 1, 64}, Params{Kind::kSlub, 2, 256},
        Params{Kind::kSlub, 3, 1024}, Params{Kind::kSlub, 4, 4096},
        Params{Kind::kPrudence, 1, 64},
        Params{Kind::kPrudence, 2, 256},
        Params{Kind::kPrudence, 3, 1024},
        Params{Kind::kPrudence, 4, 4096},
        Params{Kind::kPrudence, 5, 96},
        Params{Kind::kSlub, 5, 96}),
    param_name);

/// kmalloc-ladder property: every size routes to the smallest class
/// that fits, and round-trips bytes intact.
class KmallocProperty
    : public ::testing::TestWithParam<std::pair<Kind, std::uint64_t>>
{
};

TEST_P(KmallocProperty, SizesRouteAndRoundTrip)
{
    auto [kind, seed] = GetParam();
    ManualRcuDomain domain;
    std::unique_ptr<Allocator> alloc;
    if (kind == Kind::kSlub) {
        SlubConfig cfg;
        cfg.arena_bytes = 64 << 20;
        cfg.cpus = 1;
        cfg.callback.background_drainer = false;
        alloc = make_slub_allocator(domain, cfg);
    } else {
        PrudenceConfig cfg;
        cfg.arena_bytes = 64 << 20;
        cfg.cpus = 1;
        cfg.maintenance_interval = std::chrono::microseconds{0};
        alloc = make_prudence_allocator(domain, cfg);
    }

    std::mt19937_64 rng(seed);
    std::vector<std::pair<void*, std::size_t>> objs;
    for (int i = 0; i < 2000; ++i) {
        std::size_t size = 1 + rng() % 8192;
        void* p = alloc->kmalloc(size);
        ASSERT_NE(p, nullptr) << "size " << size;
        // Write the full requested size; any overlap with metadata or
        // a neighbor corrupts something checked later.
        std::memset(p, static_cast<int>(i & 0xFF), size);
        objs.emplace_back(p, size);
    }
    for (std::size_t i = 0; i < objs.size(); ++i) {
        auto [p, size] = objs[i];
        auto* bytes = static_cast<unsigned char*>(p);
        ASSERT_EQ(bytes[0], i & 0xFF) << "size " << size;
        ASSERT_EQ(bytes[size - 1], i & 0xFF) << "size " << size;
        if (i % 2 == 0)
            alloc->kfree(p);
        else
            alloc->kfree_deferred(p);
    }
    alloc->quiesce();
    for (const auto& s : alloc->snapshots()) {
        EXPECT_EQ(s.live_objects, 0) << s.cache_name;
        EXPECT_EQ(s.deferred_outstanding, 0) << s.cache_name;
    }
    EXPECT_EQ(alloc->validate(), "");
}

/**
 * Magazine + PCP accounting identity: random op sequences against the
 * full fast-path stack (thread-local magazines in front of the
 * per-CPU caches, per-CPU page stashes in front of the buddy lock),
 * in every on/off combination. At every drain point —
 * `drain_thread()` followed by enough GP advances to retire the
 * spilled batches — two identities must hold exactly:
 *
 *  - object accounting: `live_objects` equals the oracle's live set
 *    (magazine-held objects moved back at the batch boundary), and
 *  - page accounting: global-free + PCP-cached + used == capacity,
 *    with `check_integrity()` agreeing while the stashes are hot.
 */
struct LayerParams
{
    std::size_t magazine_capacity;
    std::size_t pcp_high_watermark;
    std::uint64_t seed;
};

class LayerAccountingProperty
    : public ::testing::TestWithParam<LayerParams>
{
};

TEST_P(LayerAccountingProperty, DrainPointIdentitiesHold)
{
    const LayerParams& params = GetParam();
    ManualRcuDomain domain;

    PrudenceConfig cfg;
    cfg.arena_bytes = 64 << 20;
    cfg.cpus = 2;
    cfg.magazine_capacity = params.magazine_capacity;
    cfg.pcp_high_watermark = params.pcp_high_watermark;
    cfg.maintenance_interval = std::chrono::microseconds{0};
    std::unique_ptr<Allocator> alloc =
        make_prudence_allocator(domain, cfg);
    CacheId id = alloc->create_cache("layer.prop", 128);
    BuddyAllocator& buddy = alloc->page_allocator();
    const std::size_t capacity = buddy.capacity_pages();

    auto check_page_identity = [&](int step) {
        BuddyStatsSnapshot bs = buddy.stats();
        std::uint64_t free_pages = 0;
        for (unsigned o = 0; o <= kMaxPageOrder; ++o)
            free_pages += buddy.free_blocks(o) << o;
        std::uint64_t cached_pages = 0;
        for (unsigned o = 0; o <= kPcpMaxOrder; ++o)
            cached_pages += buddy.pcp_cached_blocks(o) << o;
        EXPECT_EQ(cached_pages,
                  static_cast<std::uint64_t>(bs.pcp_cached_pages))
            << "step " << step;
        EXPECT_EQ(free_pages + cached_pages +
                      static_cast<std::uint64_t>(bs.pages_in_use),
                  capacity)
            << "step " << step
            << ": free+cached+used != capacity";
        EXPECT_TRUE(buddy.check_integrity()) << "step " << step;
    };

    std::mt19937_64 rng(params.seed);
    std::set<void*> live;
    std::uint64_t defers = 0;

    for (int step = 0; step < 20000; ++step) {
        int action = static_cast<int>(rng() % 100);
        if (action < 50 || live.empty()) {
            void* p = alloc->cache_alloc(id);
            ASSERT_NE(p, nullptr);
            ASSERT_TRUE(live.insert(p).second)
                << "step " << step << ": double handout";
        } else if (action < 72) {
            auto it = live.begin();
            std::advance(it, rng() % live.size());
            void* p = *it;
            live.erase(it);
            alloc->cache_free(id, p);
        } else if (action < 96) {
            auto it = live.begin();
            std::advance(it, rng() % live.size());
            void* p = *it;
            live.erase(it);
            alloc->cache_free_deferred(id, p);
            ++defers;
        } else {
            domain.advance();
        }

        if (step % 2500 == 2499) {
            // Drain point: spill the magazines (alloc-side objects
            // return to the per-CPU cache, deferred batches get their
            // conservative tag), then retire everything spillable.
            alloc->drain_thread();
            domain.advance();
            domain.advance();
            auto s = alloc->cache_snapshot(id);
            EXPECT_EQ(s.live_objects,
                      static_cast<std::int64_t>(live.size()))
                << "step " << step;
            check_page_identity(step);
            EXPECT_EQ(alloc->validate(), "") << "step " << step;
        }
    }

    for (void* p : live)
        alloc->cache_free(id, p);
    alloc->quiesce();
    auto s = alloc->cache_snapshot(id);
    EXPECT_EQ(s.deferred_free_calls, defers);
    EXPECT_EQ(s.live_objects, 0);
    EXPECT_EQ(s.deferred_outstanding, 0);
    check_page_identity(-1);
    // After quiesce the stashes are cold too: the global free lists
    // alone must account for every non-used page.
    std::uint64_t cached_after = 0;
    for (unsigned o = 0; o <= kPcpMaxOrder; ++o)
        cached_after += buddy.pcp_cached_blocks(o) << o;
    EXPECT_EQ(cached_after, 0u);
    EXPECT_EQ(alloc->validate(), "");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayerAccountingProperty,
    ::testing::Values(LayerParams{0, 0, 21}, LayerParams{8, 0, 22},
                      LayerParams{0, 8, 23}, LayerParams{8, 8, 24},
                      LayerParams{32, 32, 25}),
    [](const ::testing::TestParamInfo<LayerParams>& info) {
        return "mag" + std::to_string(info.param.magazine_capacity) +
               "_pcp" +
               std::to_string(info.param.pcp_high_watermark) +
               "_seed" + std::to_string(info.param.seed);
    });

INSTANTIATE_TEST_SUITE_P(
    Sweep, KmallocProperty,
    ::testing::Values(std::make_pair(Kind::kSlub, 11ull),
                      std::make_pair(Kind::kSlub, 12ull),
                      std::make_pair(Kind::kPrudence, 11ull),
                      std::make_pair(Kind::kPrudence, 12ull)),
    [](const auto& info) {
        return std::string(kind_name(info.param.first)) + "_seed" +
               std::to_string(info.param.second);
    });

}  // namespace
}  // namespace prudence
