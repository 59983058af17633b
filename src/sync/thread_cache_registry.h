/**
 * @file
 * Per-thread cache-table registry with drain-on-thread-exit.
 *
 * The magazine layer keeps allocator state in thread-private tables so
 * the hot paths touch no lock and no shared atomic. That privacy has
 * two bookkeeping obligations this registry discharges:
 *
 *  - when a thread exits, its tables must drain back into the shared
 *    per-CPU layer (otherwise quiesce()/validate() accounting would
 *    never balance), and
 *  - when an allocator is destroyed, tables belonging to still-live
 *    threads must be drained and reclaimed exactly once.
 *
 * The registry is deliberately type-erased (tables are void*): the
 * thread-local entry list lives in one translation unit and serves
 * every allocator instance in the process. Table lifetime is a
 * three-way handshake between the owning thread, the registry, and
 * the allocator's hooks, serialized by one mutex per registry.
 *
 * Lookup — the only per-operation call — is one thread-local read and
 * one compare in the common case (a memoized {serial, table} pair);
 * a miss falls back to a linear scan of the thread's entry list (one
 * entry per allocator instance the thread has touched).
 */
#ifndef PRUDENCE_SYNC_THREAD_CACHE_REGISTRY_H
#define PRUDENCE_SYNC_THREAD_CACHE_REGISTRY_H

#include <cstdint>
#include <functional>
#include <memory>

namespace prudence {

namespace detail {
/// Most-recently-used (registry serial → table) memo for the calling
/// thread. Serials are process-unique and never reused, so a stale
/// memo can only match a registry that no longer receives calls.
/// constinit: a reader in another translation unit loads the variable
/// directly instead of calling its TLS init wrapper.
extern constinit thread_local std::uint64_t t_tcr_last_serial;
extern constinit thread_local void* t_tcr_last_table;
}  // namespace detail

/// Registry of per-thread tables for one allocator instance.
class ThreadCacheRegistry
{
  public:
    struct Hooks
    {
        /// Flush a table's cached objects/statistics back into the
        /// shared structures. Called with the table's owning thread
        /// either being the caller (thread exit) or guaranteed quiet
        /// (allocator shutdown); must not assume the calling thread
        /// is the owner.
        std::function<void(void*)> drain;
        /// Deallocate a table.
        std::function<void(void*)> destroy;
    };

    /// Shared lifetime state; public only so the thread-exit
    /// destructor in the implementation file can reference it.
    struct State;

    explicit ThreadCacheRegistry(Hooks hooks);
    ~ThreadCacheRegistry();

    ThreadCacheRegistry(const ThreadCacheRegistry&) = delete;
    ThreadCacheRegistry& operator=(const ThreadCacheRegistry&) = delete;

    /**
     * The calling thread's table, or nullptr if it has not attached
     * one. Hot-path call: one TLS read + compare when this registry
     * was the thread's last lookup.
     */
    void*
    lookup() const
    {
        if (detail::t_tcr_last_serial == serial_)
            return detail::t_tcr_last_table;
        return lookup_slow();
    }

    /**
     * Register @p table as the calling thread's table for this
     * registry. The table must be heap-allocated; ownership passes to
     * the registry (drain+destroy run at thread exit or shutdown,
     * whichever comes first). At most one table per thread.
     */
    void attach(void* table);

    /**
     * Detach from all threads: drain and destroy every surviving
     * table, and stop thread-exit destructors from touching the
     * owner. Called from the owner's destructor while the shared
     * structures the drain hook writes to are still alive. API calls
     * into the owner must have ceased (standard destruction
     * contract); threads may still be exiting concurrently.
     */
    void shutdown();

    /// Process-unique serial of this registry instance.
    std::uint64_t serial() const { return serial_; }

  private:
    void* lookup_slow() const;

    const std::uint64_t serial_;
    std::shared_ptr<State> state_;
};

}  // namespace prudence

#endif  // PRUDENCE_SYNC_THREAD_CACHE_REGISTRY_H
