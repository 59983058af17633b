/**
 * @file
 * Binary-buddy page allocator over a bounded arena, fronted by
 * optional per-CPU page caches (PCP, DESIGN.md §10).
 *
 * This stands in for the Linux page allocator beneath the slab layer:
 * slab-cache grow takes pages from here, slab-cache shrink returns
 * them, and the Figure 3 memory timeline is this allocator's
 * bytes-in-use probe.
 *
 * Properties the slab layer relies on:
 *  - An order-k block starts at an arena offset that is a multiple of
 *    2^k pages, so an object pointer can be masked down to its slab
 *    header.
 *  - Capacity is hard: when every page is handed out, alloc_pages()
 *    returns nullptr (the simulated OOM). With PCP enabled this still
 *    holds exactly: before reporting failure the allocator drains
 *    every per-CPU stash back into the global free lists and retries,
 *    so pages stranded in a remote CPU's cache can never manufacture
 *    a spurious OOM.
 *
 * The PCP layer (modeled on Linux per-CPU pagesets): per virtual CPU
 * and per order (0..kPcpMaxOrder — the orders slab geometry actually
 * uses), a stash of free blocks behind a tiny per-CPU lock. The
 * common slab grow/release hits the CPU-local list and never touches
 * the global spinlock; refill and drain move `pcp_batch` blocks under
 * ONE global-lock acquisition, amortizing the split/merge work.
 * PCP-resident pages are free-but-cached: they are excluded from
 * pages_in_use()/bytes_in_use() (the Fig. 3 probe stays honest) and
 * carry a dedicated page state so checked-free still aborts on a
 * double free of a cached page.
 */
#ifndef PRUDENCE_PAGE_BUDDY_ALLOCATOR_H
#define PRUDENCE_PAGE_BUDDY_ALLOCATOR_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "page/arena.h"
#include "page/page_types.h"
#include "stats/counters.h"
#include "sync/cacheline.h"
#include "sync/cpu_registry.h"
#include "sync/spinlock.h"

namespace prudence {

namespace telemetry {
class ProbeGroup;
}

/// Highest order served from the per-CPU page caches. Slab geometry
/// prefers orders <= 3 (SLUB's default ceiling); larger blocks are
/// rare enough that they go straight to the global free lists.
inline constexpr unsigned kPcpMaxOrder = 3;

/// Construction parameters for BuddyAllocator.
struct BuddyConfig
{
    /// Arena size; rounded down to a whole number of pages.
    std::size_t capacity_bytes = 0;
    /// Virtual CPUs (one page cache each). Threads map onto them
    /// round-robin, same as the slab layer's per-CPU object caches.
    unsigned cpus = 1;
    /// Blocks moved per PCP refill/drain (one global-lock acquisition
    /// per batch). Clamped to [1, 64] and to pcp_high_watermark.
    std::size_t pcp_batch = 8;
    /// Blocks kept per (CPU, order) before a drain batch returns the
    /// excess to the global free lists. 0 disables the PCP layer
    /// entirely (every alloc/free takes the global lock, as before).
    std::size_t pcp_high_watermark = 0;
};

/// Aggregate usage statistics for a buddy allocator instance.
struct BuddyStatsSnapshot
{
    std::uint64_t alloc_calls = 0;
    std::uint64_t free_calls = 0;
    std::uint64_t failed_allocs = 0;
    std::uint64_t split_ops = 0;
    std::uint64_t merge_ops = 0;
    /// Checked-free violations observed (the process aborts on the
    /// first one; the counter exists so the diagnostic is visible to
    /// abort handlers and post-mortem tooling).
    std::uint64_t bad_frees = 0;
    /// Global spinlock acquisitions on the alloc/free paths (the
    /// fig14 contention probe). PCP hits never touch it.
    std::uint64_t lock_acquisitions = 0;
    // ---- PCP layer (all zero when pcp_high_watermark == 0) ----
    std::uint64_t pcp_hits = 0;     ///< allocs served CPU-locally
    std::uint64_t pcp_misses = 0;   ///< allocs that needed a refill
    std::uint64_t pcp_refills = 0;  ///< batched refills performed
    std::uint64_t pcp_drains = 0;   ///< batched drains performed
    /// Pages currently free-but-cached in per-CPU stashes (excluded
    /// from pages_in_use).
    std::int64_t pcp_cached_pages = 0;
    std::int64_t pages_in_use = 0;
    std::int64_t peak_pages_in_use = 0;
    std::size_t capacity_pages = 0;
    /// Pages on the global free lists. Read under the quiesce-ordered
    /// snapshot (stats/counters.h), so
    ///   free_pages + pcp_cached_pages + pages_in_use == capacity_pages
    /// holds for every snapshot, even mid-drain.
    std::size_t free_pages = 0;
    /// Free blocks per order on the global lists (headroom probes).
    std::array<std::size_t, kMaxPageOrder + 1> free_blocks{};
};

/// Binary-buddy allocator with per-order free lists and optional
/// per-CPU page caches in front of them.
class BuddyAllocator
{
  public:
    /**
     * @param capacity_bytes arena size; rounded down to a whole
     *        number of pages. Must hold at least one page. The PCP
     *        layer is off with this constructor.
     *
     * When the arena reservation fails (mmap failure or the kArenaMap
     * fault site), the allocator constructs in a *degraded* state:
     * valid() is false, capacity_pages() is 0 and every alloc_pages()
     * call returns nullptr. Nothing throws; embedding allocators see
     * an ordinary (if immediate) out-of-memory condition.
     */
    explicit BuddyAllocator(std::size_t capacity_bytes)
        : BuddyAllocator(BuddyConfig{capacity_bytes})
    {
    }

    /// Full-configuration constructor (PCP watermarks, virtual CPUs).
    explicit BuddyAllocator(const BuddyConfig& config);
    ~BuddyAllocator();

    /// False when the backing arena could not be reserved.
    bool valid() const { return total_pages_ > 0; }

    BuddyAllocator(const BuddyAllocator&) = delete;
    BuddyAllocator& operator=(const BuddyAllocator&) = delete;

    /**
     * Allocate a block of 2^order contiguous pages.
     * @return block base, or nullptr when no block of that order can
     *         be assembled (out of memory).
     */
    void* alloc_pages(unsigned order);

    /**
     * Return a block previously obtained from alloc_pages() with the
     * same @p order.
     */
    void free_pages(void* block, unsigned order);

    /// Arena base (slab-mask arithmetic is relative to this).
    std::byte* base() const { return arena_.base(); }
    /// Total pages managed.
    std::size_t capacity_pages() const { return total_pages_; }
    /// Bytes currently handed out (Fig. 3 probe). PCP-resident pages
    /// are free-but-cached and therefore NOT counted.
    std::uint64_t bytes_in_use() const;
    /// Fraction of capacity in use, in [0, 1] (RCU pressure probe).
    double usage_fraction() const;
    /// True iff @p p lies inside the managed arena.
    bool contains(const void* p) const { return arena_.contains(p); }

    /**
     * Usage counters snapshot. The level triple (free_pages,
     * pcp_cached_pages, pages_in_use) is read under every PCP lock
     * plus the global lock — the quiesce-ordered path documented in
     * stats/counters.h — so it always sums to capacity_pages.
     */
    BuddyStatsSnapshot stats() const;

    /**
     * Register this allocator's telemetry probes (bytes in use, free
     * headroom total and per order, PCP occupancy) with @p group,
     * names prefixed by @p prefix. Probes share one coherent stats()
     * call per sampling round.
     */
    void register_telemetry_probes(telemetry::ProbeGroup& group,
                                   const std::string& prefix = "");

    /**
     * Free blocks currently on the *global* free list of @p order.
     * Excludes PCP-resident blocks; exact at quiescent points after
     * drain_pcp() (the documented accounting contract, DESIGN.md §10).
     */
    std::size_t free_blocks(unsigned order) const;

    /// Blocks of @p order currently stashed across all per-CPU
    /// caches (test introspection).
    std::size_t pcp_cached_blocks(unsigned order) const;

    /// True when the PCP layer is active (pcp_high_watermark > 0 and
    /// the arena is valid).
    bool pcp_enabled() const { return pcp_high_ > 0 && pcp_ != nullptr; }

    /**
     * Quiesce hook (mirrors Allocator::drain_thread()): return every
     * PCP-resident block to the global free lists so free_blocks()
     * and check_integrity()'s free/used totals are exact. Called from
     * allocator quiesce/validate, the OOM expedite ladder, and
     * internally before declaring allocation failure.
     * @return blocks returned to the global lists.
     */
    std::size_t drain_pcp();

    /**
     * Pressure-driven PCP trim (governor actuator, DESIGN.md §13):
     * return PCP-resident blocks to the global free lists until each
     * (cpu, order) stash holds at most @p keep_per_order blocks.
     * trim_pcp(0) is exactly drain_pcp(); a non-zero keep preserves a
     * sliver of fast-path locality while rebuilding low-order
     * headroom. Safe under concurrent traffic (same locking as the
     * overflow drain).
     * @return blocks returned to the global lists.
     */
    std::size_t trim_pcp(std::size_t keep_per_order);

    /**
     * Exhaustively verify internal invariants (test support): free
     * blocks aligned, non-overlapping, marked consistently, PCP
     * stashes consistent with the page-state array, and
     * used + free + pcp-cached == capacity. Assumes no concurrent
     * alloc/free traffic (it is a quiescent-point check).
     * @return true iff every invariant holds.
     */
    bool check_integrity() const;

  private:
    /// Free-list link of one free block, kept out of band (link())
    /// the way Linux links free pages through struct page rather than
    /// through page memory. No list operation writes the arena, so
    /// building the allocator touches no arena page, and a stray
    /// write into free block memory cannot corrupt the lists. Links
    /// hold head pfns; kNil ends a list. Global lists are doubly
    /// linked; PCP stashes use `next` only.
    struct FreeLink
    {
        std::uint32_t prev;
        std::uint32_t next;
    };
    static constexpr std::uint32_t kNil = UINT32_MAX;

    /// Deleter of the link array's private mapping.
    struct Unmap
    {
        std::size_t bytes;
        void operator()(FreeLink* p) const;
    };

    /// Per-page state: kStateAllocated, or the order of the free
    /// block whose head this page is, or kStateTail for non-head
    /// pages of free blocks, or kStatePcpBase|order for the head of
    /// a PCP-resident block (whose tail pages stay kStateAllocated).
    ///
    /// Accessed as relaxed atomics: the global lists mutate states
    /// under lock_, but PCP transitions (allocated <-> cached) happen
    /// under only the owning CPU's lock while merge scans may read
    /// the same byte under lock_. Every such racy read tolerates
    /// either value (an allocated and a PCP-resident buddy are both
    /// unmergeable), so relaxed ordering suffices.
    static constexpr std::uint8_t kStateAllocated = 0xFF;
    static constexpr std::uint8_t kStateTail = 0xFE;
    static constexpr std::uint8_t kStatePcpBase = 0x80;

    static constexpr std::uint8_t
    pcp_state(unsigned order)
    {
        return static_cast<std::uint8_t>(kStatePcpBase | order);
    }
    static constexpr bool
    is_pcp_state(std::uint8_t st)
    {
        return st >= kStatePcpBase && st < kStateTail;
    }

    /// Hard bound on the drain/refill scratch arrays.
    static constexpr std::size_t kMaxPcpBatch = 64;

    /// One CPU's page stash: per-order LIFO lists behind a tiny,
    /// almost-always-uncontended lock. Counters are plain integers
    /// guarded by the same lock (folded by stats()) — the fast path
    /// must not touch any shared atomic, or the contention this layer
    /// removes just moves into the cache-coherence fabric.
    struct alignas(kCacheLineSize) PcpCache
    {
        PcpCache() { heads.fill(kNil); }

        SpinLock lock;
        /// Head pfn of each per-order stash (kNil when empty).
        std::array<std::uint32_t, kPcpMaxOrder + 1> heads;
        std::array<std::size_t, kPcpMaxOrder + 1> counts{};
        /// Pages currently stashed on this CPU (free-but-cached).
        std::int64_t cached_pages = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t refills = 0;
        std::uint64_t drains = 0;
    };

    static_assert(alignof(PcpCache) == kCacheLineSize,
                  "adjacent per-CPU caches must not share a line");

    bool
    pcp_covers(unsigned order) const
    {
        return pcp_high_ > 0 && pcp_ != nullptr && order <= kPcpMaxOrder;
    }

    /// Link of the order-@p order block at @p pfn. Each order has its
    /// own array indexed by pfn >> order, so the links of one order's
    /// free blocks are dense: carving the arena into max-order blocks
    /// writes a page or two of links, not one per block.
    FreeLink&
    link(std::size_t pfn, unsigned order) const
    {
        return links_[link_base_[order] + (pfn >> order)];
    }

    std::uint8_t
    page_state(std::size_t pfn) const
    {
        return std::atomic_ref<std::uint8_t>(page_state_[pfn])
            .load(std::memory_order_relaxed);
    }
    void
    set_page_state(std::size_t pfn, std::uint8_t st)
    {
        std::atomic_ref<std::uint8_t>(page_state_[pfn])
            .store(st, std::memory_order_relaxed);
    }

    std::size_t pfn_of(const void* p) const;
    void* addr_of(std::size_t pfn) const;
    /// Push @p pfn onto the PCP stash of @p order in @p c.
    void pcp_push(PcpCache& c, std::size_t pfn, unsigned order);
    /// Pop the head of @p c's stash of @p order (non-empty).
    std::size_t pcp_pop(PcpCache& c, unsigned order);
    void push_free(std::size_t pfn, unsigned order);
    void remove_free(std::size_t pfn, unsigned order);
    std::size_t pop_free(unsigned order);

    /// Pop one block of @p order from the global lists, splitting as
    /// needed; marks its pages allocated. Caller holds lock_.
    /// @return pfn, or kNoBlock when no block can be assembled.
    std::size_t global_pop(unsigned order);
    /// Merge @p pfn (order @p order, pages marked allocated or
    /// PCP-head) into the global free lists. Caller holds lock_.
    void global_push(std::size_t pfn, unsigned order);

    /// PCP fast path: serve from the CPU-local stash, batch-refilling
    /// on a miss. Sets *refill_refused when the kPcpRefill fault site
    /// suppressed the refill (the caller then falls back to the
    /// global path). @return block, or nullptr.
    void* pcp_alloc(unsigned order, bool* refill_refused);
    /// PCP free path: stash the block locally, draining a batch past
    /// the high watermark. @p pfn is block's (pre-validated) frame.
    void pcp_free(void* block, unsigned order, std::size_t pfn);

    /// Checked-free diagnostic: record the violation, print a clear
    /// message and abort. Never returns.
    [[noreturn]] void bad_free(const char* what, const void* block,
                               unsigned order, std::size_t pfn);

    /// check_integrity() body; caller holds every pcp lock + lock_.
    bool check_integrity_locked() const;

    Arena arena_;
    std::size_t total_pages_ = 0;

    mutable SpinLock lock_;
    /// Head pfn of each global free list (kNil when empty).
    std::array<std::uint32_t, kMaxPageOrder + 1> free_heads_;
    std::array<std::size_t, kMaxPageOrder + 1> free_counts_{};
    /// The per-order link arrays, back to back in one private
    /// anonymous mapping (about 16 bytes per arena page), so entries
    /// of blocks that are never free are never faulted in.
    std::unique_ptr<FreeLink[], Unmap> links_;
    std::array<std::size_t, kMaxPageOrder + 1> link_base_{};
    std::unique_ptr<std::uint8_t[]> page_state_;

    // ---- PCP layer (null / zero when disabled) ----
    CpuRegistry cpu_registry_;
    std::size_t pcp_batch_ = 0;
    std::size_t pcp_high_ = 0;
    std::unique_ptr<PcpCache[]> pcp_;

    Counter alloc_calls_;
    Counter free_calls_;
    Counter failed_allocs_;
    Counter split_ops_;
    Counter merge_ops_;
    Counter bad_frees_;
    Counter lock_acquisitions_;
    PeakGauge pages_in_use_;
};

}  // namespace prudence

#endif  // PRUDENCE_PAGE_BUDDY_ALLOCATOR_H
