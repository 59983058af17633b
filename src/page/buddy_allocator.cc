#include "page/buddy_allocator.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>

#include "perturb/perturb.h"
#include "telemetry/monitor.h"
#include "telemetry/telemetry.h"
#include "trace/tracer.h"

namespace prudence {

namespace {
constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);
}  // namespace

BuddyAllocator::BuddyAllocator(const BuddyConfig& config)
    : cpu_registry_(config.cpus == 0 ? 1 : config.cpus)
{
    free_heads_.fill(kNil);

    // Links are 32-bit pfns, so the arena holds fewer than kNil pages
    // (16 TiB).
    auto arena = Arena::create(
        std::clamp(config.capacity_bytes, kPageSize,
                   (std::size_t{kNil} - 1) * kPageSize),
        order_bytes(kMaxPageOrder));
    if (!arena) {
        // Degraded state: no pages to hand out. Every alloc_pages()
        // reports OOM; the embedding allocators fail allocations
        // cleanly instead of crashing at startup.
        std::fprintf(stderr,
                     "buddy: arena reservation of %zu bytes failed; "
                     "allocator degraded (all allocations will fail)\n",
                     config.capacity_bytes);
        return;
    }
    // The link arrays get a mapping of their own rather than a heap
    // block: only the entries ever used are faulted in, and a
    // megabytes-large free does not raise malloc's mmap and trim
    // thresholds, which made the next allocator's heap blocks fault
    // in again.
    const std::size_t pages = arena->capacity() / kPageSize;
    std::size_t entries = 0;
    for (unsigned order = 0; order <= kMaxPageOrder; ++order) {
        link_base_[order] = entries;
        entries += (pages >> order) + 1;
    }
    const std::size_t link_bytes = entries * sizeof(FreeLink);
    void* map = ::mmap(nullptr, link_bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (map == MAP_FAILED) {
        std::fprintf(stderr,
                     "buddy: link array reservation of %zu bytes "
                     "failed; allocator degraded\n",
                     link_bytes);
        return;
    }
    links_ = std::unique_ptr<FreeLink[], Unmap>(
        static_cast<FreeLink*>(map), Unmap{link_bytes});
    arena_ = std::move(*arena);
    total_pages_ = pages;
    page_state_ =
        std::make_unique_for_overwrite<std::uint8_t[]>(total_pages_);

    // Carve the arena into the largest aligned blocks that fit. This
    // one pass writes every page state, and no arena page.
    std::size_t pfn = 0;
    while (pfn < total_pages_) {
        unsigned order = kMaxPageOrder;
        while (order > 0 &&
               ((pfn & (order_pages(order) - 1)) != 0 ||
                pfn + order_pages(order) > total_pages_)) {
            --order;
        }
        push_free(pfn, order);
        pfn += order_pages(order);
    }

    if (config.pcp_high_watermark > 0) {
        pcp_high_ = config.pcp_high_watermark;
        pcp_batch_ = config.pcp_batch == 0 ? 1 : config.pcp_batch;
        if (pcp_batch_ > kMaxPcpBatch)
            pcp_batch_ = kMaxPcpBatch;
        if (pcp_batch_ > pcp_high_)
            pcp_batch_ = pcp_high_;
        pcp_ = std::make_unique<PcpCache[]>(cpu_registry_.max_cpus());
    }
}

BuddyAllocator::~BuddyAllocator() = default;

void
BuddyAllocator::Unmap::operator()(FreeLink* p) const
{
    ::munmap(p, bytes);
}

std::size_t
BuddyAllocator::pfn_of(const void* p) const
{
    auto* b = static_cast<const std::byte*>(p);
    return static_cast<std::size_t>(b - arena_.base()) / kPageSize;
}

void*
BuddyAllocator::addr_of(std::size_t pfn) const
{
    return arena_.base() + pfn * kPageSize;
}

void
BuddyAllocator::pcp_push(PcpCache& c, std::size_t pfn, unsigned order)
{
    set_page_state(pfn, pcp_state(order));
    link(pfn, order).next = c.heads[order];
    c.heads[order] = static_cast<std::uint32_t>(pfn);
    ++c.counts[order];
}

std::size_t
BuddyAllocator::pcp_pop(PcpCache& c, unsigned order)
{
    std::uint32_t pfn = c.heads[order];
    c.heads[order] = link(pfn, order).next;
    --c.counts[order];
    return pfn;
}

void
BuddyAllocator::push_free(std::size_t pfn, unsigned order)
{
    set_page_state(pfn, static_cast<std::uint8_t>(order));
    for (std::size_t i = 1; i < order_pages(order); ++i)
        set_page_state(pfn + i, kStateTail);

    std::uint32_t head = free_heads_[order];
    link(pfn, order) = FreeLink{kNil, head};
    if (head != kNil)
        link(head, order).prev = static_cast<std::uint32_t>(pfn);
    free_heads_[order] = static_cast<std::uint32_t>(pfn);
    ++free_counts_[order];
}

void
BuddyAllocator::remove_free(std::size_t pfn, unsigned order)
{
    const FreeLink l = link(pfn, order);
    if (l.prev != kNil)
        link(l.prev, order).next = l.next;
    else
        free_heads_[order] = l.next;
    if (l.next != kNil)
        link(l.next, order).prev = l.prev;
    --free_counts_[order];
}

std::size_t
BuddyAllocator::pop_free(unsigned order)
{
    std::uint32_t pfn = free_heads_[order];
    if (pfn == kNil)
        return kNoBlock;
    remove_free(pfn, order);
    return pfn;
}

std::size_t
BuddyAllocator::global_pop(unsigned order)
{
    unsigned have = order;
    while (have <= kMaxPageOrder && free_counts_[have] == 0)
        ++have;
    if (have > kMaxPageOrder)
        return kNoBlock;
    std::size_t pfn = pop_free(have);
    if (pfn == kNoBlock) {
        // free_counts_ said a block exists but the list is empty:
        // the allocator's own bookkeeping is inconsistent. The links
        // live out of band, so a stray write into free block memory
        // cannot cause this. Always-on check — a silent nullptr here
        // would surface as an unrelated OOM.
        std::fprintf(stderr,
                     "buddy corruption: free list of order %u "
                     "empty with free_counts=%zu\n",
                     have, free_counts_[have]);
        std::abort();
    }
    // Split down, returning the upper buddy at each level.
    while (have > order) {
        --have;
        split_ops_.add();
        PRUDENCE_TRACE_EMIT(trace::EventId::kBuddySplit, have);
        push_free(pfn + order_pages(have), have);
    }
    for (std::size_t i = 0; i < order_pages(order); ++i)
        set_page_state(pfn + i, kStateAllocated);
    return pfn;
}

void
BuddyAllocator::global_push(std::size_t pfn, unsigned order)
{
    // Merge upward as long as the buddy is a whole free block of the
    // same order. A buddy whose head reads kStateAllocated or a PCP
    // state is unmergeable either way, so the relaxed read racing a
    // PCP transition is benign (see page_state_ in the header).
    while (order < kMaxPageOrder) {
        std::size_t buddy = pfn ^ order_pages(order);
        if (buddy + order_pages(order) > total_pages_)
            break;
        if (page_state(buddy) != static_cast<std::uint8_t>(order))
            break;
        remove_free(buddy, order);
        merge_ops_.add();
        pfn = pfn < buddy ? pfn : buddy;
        ++order;
        PRUDENCE_TRACE_EMIT(trace::EventId::kBuddyMerge, order);
    }
    push_free(pfn, order);
}

void*
BuddyAllocator::pcp_alloc(unsigned order, bool* refill_refused)
{
    PcpCache& c = pcp_[cpu_registry_.cpu_id()];
    std::lock_guard<SpinLock> cpu_guard(c.lock);

    if (c.heads[order] != kNil) {
        // CPU-local hit: no global lock, no split.
        std::size_t pfn = pcp_pop(c, order);
        ++c.hits;
        set_page_state(pfn, kStateAllocated);
        c.cached_pages -=
            static_cast<std::int64_t>(order_pages(order));
        // Inside the covering lock: a stats() holding every lock
        // observes cached/used move together (snapshot coherence
        // contract, stats/counters.h).
        pages_in_use_.add(
            static_cast<std::int64_t>(order_pages(order)));
        return addr_of(pfn);
    }

    ++c.misses;
    // Refill window: this CPU is committed to a batched global pull
    // but has taken nothing yet; a delay here lets other CPUs drain or
    // exhaust the global lists first.
    if (PRUDENCE_FAULT_POINT(kPcpRefill)) {
        // Injected refill refusal: the batch refill is suppressed and
        // the caller falls back to the plain single-block global
        // path, exercising the bypass route under load.
        *refill_refused = true;
        return nullptr;
    }

    // Batched refill: one global-lock acquisition pulls up to
    // pcp_batch_ blocks; the first goes to the caller, the rest are
    // stashed. Lock order: pcp[cpu] -> global (everywhere).
    std::size_t first = kNoBlock;
    std::size_t stashed = 0;
    {
        std::lock_guard<SpinLock> guard(lock_);
        lock_acquisitions_.add();
        for (std::size_t i = 0; i < pcp_batch_; ++i) {
            std::size_t pfn = global_pop(order);
            if (pfn == kNoBlock)
                break;
            if (first == kNoBlock) {
                first = pfn;
                continue;
            }
            pcp_push(c, pfn, order);
            ++stashed;
        }
        if (first != kNoBlock) {
            // The caller's block leaves "free" for "used" while the
            // global lock still covers it (snapshot coherence).
            pages_in_use_.add(
                static_cast<std::int64_t>(order_pages(order)));
        }
    }
    if (first == kNoBlock)
        return nullptr;  // global lists exhausted
    ++c.refills;
    c.cached_pages +=
        static_cast<std::int64_t>(stashed * order_pages(order));
    PRUDENCE_TRACE_EMIT(trace::EventId::kPcpRefill, stashed + 1, order);
    return addr_of(first);
}

void
BuddyAllocator::pcp_free(void* block, unsigned order, std::size_t pfn)
{
    PcpCache& c = pcp_[cpu_registry_.cpu_id()];
    std::lock_guard<SpinLock> cpu_guard(c.lock);

    // Checked free, PCP flavor. The block's pages belong to the
    // caller, so any state other than "allocated" is a caller bug;
    // a page already sitting in some CPU's stash gets its own
    // message so the double free is obvious in the abort.
    std::uint8_t st = page_state(pfn);
    if (st != kStateAllocated) {
        if (is_pcp_state(st))
            bad_free("double free (page resident in a per-CPU page "
                     "cache)",
                     block, order, pfn);
        bad_free("double free (head page already free)", block, order,
                 pfn);
    }
    for (std::size_t i = 1; i < order_pages(order); ++i) {
        if (page_state(pfn + i) != kStateAllocated)
            bad_free("wrong-order free (tail page already free)",
                     block, order, pfn + i);
    }

    pcp_push(c, pfn, order);
    c.cached_pages += static_cast<std::int64_t>(order_pages(order));
    // Same covering lock as the cached_pages move above (snapshot
    // coherence contract, stats/counters.h).
    pages_in_use_.sub(static_cast<std::int64_t>(order_pages(order)));

    if (c.counts[order] <= pcp_high_)
        return;

    // Past the high watermark: return a batch to the global lists
    // under one lock acquisition (merging amortized across the batch).
    std::size_t batch[kMaxPcpBatch];
    std::size_t n = 0;
    while (n < pcp_batch_ && c.heads[order] != kNil)
        batch[n++] = pcp_pop(c, order);
    // Drain window: the batch is unhooked from the stash but not yet
    // in the global lists — the span where a racing integrity walk or
    // remote drain must still see these pages as PCP-resident.
    PRUDENCE_PERTURB_POINT(kPcpDrain);
    {
        std::lock_guard<SpinLock> guard(lock_);
        lock_acquisitions_.add();
        for (std::size_t i = 0; i < n; ++i)
            global_push(batch[i], order);
    }
    ++c.drains;
    c.cached_pages -=
        static_cast<std::int64_t>(n * order_pages(order));
    PRUDENCE_TRACE_EMIT(trace::EventId::kPcpDrain, n, order);
}

std::size_t
BuddyAllocator::drain_pcp()
{
    return trim_pcp(0);
}

std::size_t
BuddyAllocator::trim_pcp(std::size_t keep_per_order)
{
    if (!pcp_enabled())
        return 0;
    std::size_t moved = 0;
    for (unsigned cpu = 0; cpu < cpu_registry_.max_cpus(); ++cpu) {
        PcpCache& c = pcp_[cpu];
        std::lock_guard<SpinLock> cpu_guard(c.lock);
        std::size_t blocks = 0;
        std::int64_t pages = 0;
        {
            std::lock_guard<SpinLock> guard(lock_);
            lock_acquisitions_.add();
            for (unsigned order = 0; order <= kPcpMaxOrder; ++order) {
                while (c.counts[order] > keep_per_order) {
                    global_push(pcp_pop(c, order), order);
                    ++blocks;
                    pages += static_cast<std::int64_t>(
                        order_pages(order));
                }
            }
        }
        if (blocks > 0) {
            ++c.drains;
            c.cached_pages -= pages;
            PRUDENCE_TRACE_EMIT(trace::EventId::kPcpDrain, blocks,
                                 cpu);
            moved += blocks;
        }
    }
    return moved;
}

void*
BuddyAllocator::alloc_pages(unsigned order)
{
    if (order > kMaxPageOrder || total_pages_ == 0)
        return nullptr;
    alloc_calls_.add();

    if (PRUDENCE_FAULT_POINT(kBuddyAlloc)) {
        // Injected page-allocation failure (failslab-style): identical
        // to a genuine OOM as far as every caller can observe.
        failed_allocs_.add();
        return nullptr;
    }

    if (pcp_covers(order)) {
        bool refill_refused = false;
        if (void* p = pcp_alloc(order, &refill_refused)) {
            // pages_in_use_ already updated under pcp_alloc's locks.
            PRUDENCE_TRACE_EMIT(trace::EventId::kBytesInUse,
                                bytes_in_use());
            return p;
        }
        (void)refill_refused;  // either way, fall back to the global
                               // single-block path below
    }

    std::size_t pfn;
    {
        std::lock_guard<SpinLock> guard(lock_);
        lock_acquisitions_.add();
        pfn = global_pop(order);
        if (pfn != kNoBlock)
            pages_in_use_.add(
                static_cast<std::int64_t>(order_pages(order)));
    }
    if (pfn == kNoBlock && pcp_enabled() && drain_pcp() > 0) {
        // The global lists are empty but pages were stranded in
        // (possibly remote) per-CPU stashes. Capacity is a hard
        // bound, so drain everything and retry before reporting OOM.
        std::lock_guard<SpinLock> guard(lock_);
        lock_acquisitions_.add();
        pfn = global_pop(order);
        if (pfn != kNoBlock)
            pages_in_use_.add(
                static_cast<std::int64_t>(order_pages(order)));
    }
    if (pfn == kNoBlock) {
        failed_allocs_.add();
        return nullptr;
    }
    PRUDENCE_TRACE_EMIT(trace::EventId::kBytesInUse, bytes_in_use());
    return addr_of(pfn);
}

void
BuddyAllocator::bad_free(const char* what, const void* block,
                         unsigned order, std::size_t pfn)
{
    bad_frees_.add();
    std::fprintf(stderr,
                 "buddy checked-free: %s (block=%p order=%u pfn=%zu "
                 "capacity_pages=%zu)\n",
                 what, block, order, pfn, total_pages_);
    std::abort();
}

void
BuddyAllocator::free_pages(void* block, unsigned order)
{
    // Checked free: these are caller bugs, so the checks are always
    // on (a release-build assert would let the corruption propagate
    // silently into the free lists).
    if (block == nullptr)
        bad_free("null block", block, order, 0);
    if (order > kMaxPageOrder)
        bad_free("order out of range", block, order, 0);
    if (!arena_.contains(block))
        bad_free("pointer outside the arena", block, order, 0);
    std::size_t byte_off = static_cast<std::size_t>(
        static_cast<const std::byte*>(block) - arena_.base());
    if (byte_off % kPageSize != 0)
        bad_free("pointer not page-aligned", block, order,
                 byte_off / kPageSize);
    free_calls_.add();

    std::size_t pfn = pfn_of(block);
    if ((pfn & (order_pages(order) - 1)) != 0)
        bad_free("pointer not aligned to its order (wrong-order free?)",
                 block, order, pfn);
    if (pfn + order_pages(order) > total_pages_)
        bad_free("block extends past the arena", block, order, pfn);

    if (pcp_covers(order)) {
        pcp_free(block, order, pfn);
    } else {
        std::lock_guard<SpinLock> guard(lock_);
        lock_acquisitions_.add();
        // bad_free aborts, so reporting while the lock is held is
        // harmless — no destructor ever needs it again.
        std::uint8_t st = page_state(pfn);
        if (st != kStateAllocated) {
            if (is_pcp_state(st))
                bad_free("double free (page resident in a per-CPU "
                         "page cache)",
                         block, order, pfn);
            bad_free("double free (head page already free)", block,
                     order, pfn);
        }
        for (std::size_t i = 1; i < order_pages(order); ++i) {
            if (page_state(pfn + i) != kStateAllocated)
                bad_free("wrong-order free (tail page already free)",
                         block, order, pfn + i);
        }
        global_push(pfn, order);
        // Only the caller's own pages leave the in-use gauge (merged
        // buddies were already counted free); the PCP branch above
        // adjusts the gauge under its own lock.
        pages_in_use_.sub(static_cast<std::int64_t>(order_pages(order)));
    }
    PRUDENCE_TRACE_EMIT(trace::EventId::kBytesInUse, bytes_in_use());
}

std::uint64_t
BuddyAllocator::bytes_in_use() const
{
    return static_cast<std::uint64_t>(pages_in_use_.get()) * kPageSize;
}

double
BuddyAllocator::usage_fraction() const
{
    if (total_pages_ == 0)
        return 0.0;
    return static_cast<double>(pages_in_use_.get()) /
           static_cast<double>(total_pages_);
}

BuddyStatsSnapshot
BuddyAllocator::stats() const
{
    BuddyStatsSnapshot s;
    // Flow counters are monotone and individually exact; they need no
    // snapshot coherence.
    s.alloc_calls = alloc_calls_.get();
    s.free_calls = free_calls_.get();
    s.failed_allocs = failed_allocs_.get();
    s.split_ops = split_ops_.get();
    s.merge_ops = merge_ops_.get();
    s.bad_frees = bad_frees_.get();
    s.lock_acquisitions = lock_acquisitions_.get();

    // Quiesce-ordered section (the snapshot coherence contract,
    // stats/counters.h): hold every PCP lock (index order) plus the
    // global lock — the same set check_integrity() freezes — so the
    // level triple (free, cached, used) is read with no mutation
    // mid-flight and always satisfies
    //   free_pages + pcp_cached_pages + pages_in_use == capacity.
    const unsigned ncpu =
        pcp_ != nullptr ? cpu_registry_.max_cpus() : 0;
    for (unsigned i = 0; i < ncpu; ++i)
        pcp_[i].lock.lock();
    lock_.lock();
    for (unsigned cpu = 0; cpu < ncpu; ++cpu) {
        const PcpCache& c = pcp_[cpu];
        s.pcp_hits += c.hits;
        s.pcp_misses += c.misses;
        s.pcp_refills += c.refills;
        s.pcp_drains += c.drains;
        s.pcp_cached_pages += c.cached_pages;
    }
    for (unsigned order = 0; order <= kMaxPageOrder; ++order) {
        s.free_blocks[order] = free_counts_[order];
        s.free_pages += free_counts_[order] * order_pages(order);
    }
    // Coherent level/peak pair — see PeakGauge::sample() for why a
    // raw get()+peak() pair could report peak < value.
    auto g = pages_in_use_.sample();
    s.pages_in_use = g.value;
    s.peak_pages_in_use = g.peak;
    lock_.unlock();
    for (unsigned i = ncpu; i > 0; --i)
        pcp_[i - 1].lock.unlock();

    s.capacity_pages = total_pages_;
    return s;
}

void
BuddyAllocator::register_telemetry_probes(telemetry::ProbeGroup& group,
                                          const std::string& prefix)
{
    // One coherent stats() per sampling round, shared by every probe:
    // probes run back-to-back on the sampler thread, so a short reuse
    // window turns up to 14 all-lock acquisitions per round into one.
    struct SharedSnap
    {
        std::mutex m;
        std::uint64_t stamp_ns = 0;
        BuddyStatsSnapshot snap;
    };
    auto shared = std::make_shared<SharedSnap>();
    auto fetch = [this, shared]() -> BuddyStatsSnapshot {
        constexpr std::uint64_t kReuseWindowNs = 500'000;
        std::lock_guard<std::mutex> guard(shared->m);
        std::uint64_t now = telemetry::steady_now_ns();
        if (shared->stamp_ns == 0 ||
            now - shared->stamp_ns > kReuseWindowNs) {
            shared->snap = stats();
            shared->stamp_ns = now;
        }
        return shared->snap;
    };

    group.add(prefix + "buddy.bytes_in_use", "bytes", [fetch] {
        return static_cast<std::uint64_t>(fetch().pages_in_use) *
               kPageSize;
    });
    group.add(prefix + "buddy.free_pages", "pages", [fetch] {
        return static_cast<std::uint64_t>(fetch().free_pages);
    });
    group.add(prefix + "buddy.pcp_cached_pages", "pages", [fetch] {
        return static_cast<std::uint64_t>(fetch().pcp_cached_pages);
    });
    for (unsigned order = 0; order <= kMaxPageOrder; ++order) {
        group.add(prefix + "buddy.free_order" + std::to_string(order),
                  "blocks", [fetch, order] {
                      return static_cast<std::uint64_t>(
                          fetch().free_blocks[order]);
                  });
    }
    // Low-order headroom: pages immediately satisfiable at orders
    // 0..kPcpMaxOrder without splitting a large block — the signal
    // the governor's "headroom(order<=3) < Z" scheme watches.
    group.add(prefix + "buddy.low_order_headroom_pages", "pages",
              [fetch] {
                  BuddyStatsSnapshot s = fetch();
                  std::uint64_t pages = 0;
                  for (unsigned order = 0; order <= kPcpMaxOrder;
                       ++order) {
                      pages += static_cast<std::uint64_t>(
                                   s.free_blocks[order])
                               << order;
                  }
                  return pages;
              });
}

std::size_t
BuddyAllocator::free_blocks(unsigned order) const
{
    std::lock_guard<SpinLock> guard(lock_);
    return free_counts_[order];
}

std::size_t
BuddyAllocator::pcp_cached_blocks(unsigned order) const
{
    if (pcp_ == nullptr || order > kPcpMaxOrder)
        return 0;
    std::size_t n = 0;
    for (unsigned cpu = 0; cpu < cpu_registry_.max_cpus(); ++cpu) {
        PcpCache& c = pcp_[cpu];
        std::lock_guard<SpinLock> cpu_guard(c.lock);
        n += c.counts[order];
    }
    return n;
}

bool
BuddyAllocator::check_integrity() const
{
    if (total_pages_ == 0)
        return true;
    // Quiescent-point check: freeze every stash and the global lists.
    // Lock order everywhere is pcp -> global; this is the one place
    // multiple pcp locks are held, always in index order.
    const unsigned ncpu = pcp_ != nullptr ? cpu_registry_.max_cpus() : 0;
    for (unsigned i = 0; i < ncpu; ++i)
        pcp_[i].lock.lock();
    lock_.lock();
    bool ok = check_integrity_locked();
    lock_.unlock();
    for (unsigned i = ncpu; i > 0; --i)
        pcp_[i - 1].lock.unlock();
    return ok;
}

bool
BuddyAllocator::check_integrity_locked() const
{
    // Walk free lists: heads must be aligned and marked with their
    // order; list lengths must match counters.
    for (unsigned order = 0; order <= kMaxPageOrder; ++order) {
        std::size_t n = 0;
        std::uint32_t prev = kNil;
        for (std::uint32_t pfn = free_heads_[order]; pfn != kNil;
             pfn = link(pfn, order).next) {
            if (pfn >= total_pages_ || n >= free_counts_[order])
                return false;
            if ((pfn & (order_pages(order) - 1)) != 0)
                return false;
            if (page_state(pfn) != static_cast<std::uint8_t>(order))
                return false;
            if (link(pfn, order).prev != prev)
                return false;
            prev = pfn;
            ++n;
        }
        if (n != free_counts_[order])
            return false;
    }

    // Walk the PCP stashes: every node must be an aligned block whose
    // head carries the PCP state and whose tails read allocated, and
    // the list lengths must match the per-stash counts.
    std::size_t pcp_blocks_total = 0;
    std::size_t pcp_pages_from_stashes = 0;
    const unsigned ncpu = pcp_ != nullptr ? cpu_registry_.max_cpus() : 0;
    for (unsigned cpu = 0; cpu < ncpu; ++cpu) {
        const PcpCache& c = pcp_[cpu];
        std::size_t cpu_pages = 0;
        for (unsigned order = 0; order <= kPcpMaxOrder; ++order) {
            std::size_t n = 0;
            for (std::uint32_t pfn = c.heads[order]; pfn != kNil;
                 pfn = link(pfn, order).next) {
                if (pfn >= total_pages_ || n >= c.counts[order])
                    return false;
                if ((pfn & (order_pages(order) - 1)) != 0)
                    return false;
                if (page_state(pfn) != pcp_state(order))
                    return false;
                for (std::size_t i = 1; i < order_pages(order); ++i) {
                    if (page_state(pfn + i) != kStateAllocated)
                        return false;
                }
                ++n;
            }
            if (n != c.counts[order])
                return false;
            pcp_blocks_total += n;
            cpu_pages += n * order_pages(order);
        }
        if (cpu_pages !=
            static_cast<std::size_t>(c.cached_pages))
            return false;
        pcp_pages_from_stashes += cpu_pages;
    }
    (void)pcp_blocks_total;

    // Walk the page-state array: free heads followed by the right
    // number of tails, no stray tails, PCP heads followed by
    // allocated-marked tails, and the free/pcp/used page totals must
    // add up to capacity.
    std::size_t free_pages_total = 0;
    std::size_t pcp_pages_total = 0;
    std::size_t pfn = 0;
    while (pfn < total_pages_) {
        std::uint8_t st = page_state(pfn);
        if (st == kStateAllocated) {
            ++pfn;
        } else if (st == kStateTail) {
            return false;  // tail without a preceding head
        } else if (is_pcp_state(st)) {
            unsigned order = st & ~kStatePcpBase;
            if (order > kPcpMaxOrder)
                return false;
            for (std::size_t i = 1; i < order_pages(order); ++i) {
                if (pfn + i >= total_pages_ ||
                    page_state(pfn + i) != kStateAllocated) {
                    return false;
                }
            }
            pcp_pages_total += order_pages(order);
            pfn += order_pages(order);
        } else {
            unsigned order = st;
            if (order > kMaxPageOrder)
                return false;
            for (std::size_t i = 1; i < order_pages(order); ++i) {
                if (pfn + i >= total_pages_ ||
                    page_state(pfn + i) != kStateTail) {
                    return false;
                }
            }
            free_pages_total += order_pages(order);
            pfn += order_pages(order);
        }
    }
    if (pcp_pages_total != pcp_pages_from_stashes)
        return false;
    std::size_t used =
        static_cast<std::size_t>(pages_in_use_.get());
    return free_pages_total + pcp_pages_total + used == total_pages_;
}

}  // namespace prudence
