#include "sync/thread_cache_registry.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

namespace prudence {

namespace detail {
constinit thread_local std::uint64_t t_tcr_last_serial = 0;
constinit thread_local void* t_tcr_last_table = nullptr;
}  // namespace detail

/// Shared between the registry and every thread that attached a
/// table; outlives the registry via shared_ptr so exiting threads can
/// always dereference it.
struct ThreadCacheRegistry::State
{
    std::mutex mutex;
    Hooks hooks;
    /// False once shutdown() ran; tables is then empty forever.
    bool alive = true;
    /// Every table not yet drained+destroyed (guarded by mutex).
    /// Membership is the single source of truth for "who reclaims":
    /// whoever removes a table from this list runs the hooks on it.
    std::vector<void*> tables;
};

namespace {

/// Global source of registry serials (0 is the "no memo" sentinel).
std::atomic<std::uint64_t> g_tcr_serial{1};

/// One thread's attachments across all registries.
struct ThreadEntry
{
    std::uint64_t serial;
    std::shared_ptr<ThreadCacheRegistry::State> state;
    void* table;
};

struct ThreadEntries
{
    std::vector<ThreadEntry> entries;

    ~ThreadEntries()
    {
        // Thread exit: drain and reclaim this thread's tables for
        // every registry that is still alive. The drain hook may take
        // per-CPU and node locks (lock order: registry mutex first);
        // it must not re-enter the registry. The tables die below;
        // later lookups from this thread must not find one memoised.
        detail::t_tcr_last_serial = 0;
        for (auto& e : entries) {
            ThreadCacheRegistry::State& st = *e.state;
            std::lock_guard<std::mutex> lock(st.mutex);
            auto it = std::find(st.tables.begin(), st.tables.end(),
                                e.table);
            if (it == st.tables.end())
                continue;  // shutdown() already reclaimed it
            st.tables.erase(it);
            if (st.alive && st.hooks.drain)
                st.hooks.drain(e.table);
            if (st.hooks.destroy)
                st.hooks.destroy(e.table);
        }
    }
};

thread_local ThreadEntries t_entries;

}  // namespace

ThreadCacheRegistry::ThreadCacheRegistry(Hooks hooks)
    : serial_(g_tcr_serial.fetch_add(1, std::memory_order_relaxed)),
      state_(std::make_shared<State>())
{
    state_->hooks = std::move(hooks);
}

ThreadCacheRegistry::~ThreadCacheRegistry()
{
    shutdown();
}

void*
ThreadCacheRegistry::lookup_slow() const
{
    for (const auto& e : t_entries.entries) {
        if (e.serial == serial_) {
            detail::t_tcr_last_serial = serial_;
            detail::t_tcr_last_table = e.table;
            return e.table;
        }
    }
    return nullptr;
}

void
ThreadCacheRegistry::attach(void* table)
{
    // Prune attachments to registries that have shut down (their
    // tables are already reclaimed) so long-lived threads do not
    // accumulate tombstones across allocator lifetimes.
    auto& entries = t_entries.entries;
    entries.erase(
        std::remove_if(entries.begin(), entries.end(),
                       [](const ThreadEntry& e) {
                           std::lock_guard<std::mutex> lock(
                               e.state->mutex);
                           return !e.state->alive;
                       }),
        entries.end());

    {
        std::lock_guard<std::mutex> lock(state_->mutex);
        state_->tables.push_back(table);
    }
    entries.push_back({serial_, state_, table});
    detail::t_tcr_last_serial = serial_;
    detail::t_tcr_last_table = table;
}

void
ThreadCacheRegistry::shutdown()
{
    if (!state_)
        return;
    // Hold the mutex across the drains: a concurrently-exiting thread
    // either reclaims its table before we swap the list (and we never
    // see it) or finds it gone and skips — never both, never neither.
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (!state_->alive)
        return;
    state_->alive = false;
    for (void* table : state_->tables) {
        if (state_->hooks.drain)
            state_->hooks.drain(table);
        if (state_->hooks.destroy)
            state_->hooks.destroy(table);
    }
    state_->tables.clear();
}

}  // namespace prudence
