/**
 * @file
 * ContentCache: the one content-addressed cache of derived artifacts.
 *
 * Compiled programs, degradation plans and per-operating-point
 * serving models are pure functions of structure (a 64-bit content
 * key, core/structural_hash.hh), so every consumer in the process can
 * share one computation per key. ContentCache holds that contract
 * once for every value type:
 *
 *  - One locked lookup and one locked insert; the compute runs
 *    outside the lock, so a slow compile never blocks other keys.
 *  - Two threads racing on a fresh key may both compute. Purity makes
 *    the results equal, the first insert is kept, and the loser's
 *    lookup counts as a hit: every fetch is exactly one hit or one
 *    miss, and misses equal the number of stored entries.
 *  - Entries are never evicted, so returned references stay valid
 *    for the cache's lifetime.
 *  - A compute that fails (fetchOrStatus) returns its Status, stores
 *    nothing and counts nothing: the next fetch computes again.
 */

#ifndef REDEYE_CORE_CONTENT_CACHE_HH
#define REDEYE_CORE_CONTENT_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

#include "core/function_ref.hh"
#include "core/status.hh"

namespace redeye {

/** Thread-safe, never-evicting cache of V keyed by a content key. */
template <typename V>
class ContentCache
{
  public:
    /** Value under @p key, invoking @p compute on the first request. */
    const V &
    fetch(std::uint64_t key, FunctionRef<V()> compute)
    {
        if (const V *hit = lookup(key))
            return *hit;
        return insert(key, compute());
    }

    /**
     * Like fetch(), for a compute that can fail: a non-OK result is
     * returned as is and is not cached.
     */
    StatusOr<const V *>
    fetchOrStatus(std::uint64_t key,
                  FunctionRef<StatusOr<V>()> compute)
    {
        if (const V *hit = lookup(key))
            return hit;
        StatusOr<V> value = compute();
        if (!value.ok())
            return value.status();
        return &insert(key, std::move(value.value()));
    }

    /** Lookups served from the cache. */
    std::uint64_t
    hits() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hits_;
    }

    /** Lookups whose compute was stored. */
    std::uint64_t
    misses() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return misses_;
    }

    /** Cached entries. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

  private:
    const V *
    lookup(std::uint64_t key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it == entries_.end())
            return nullptr;
        ++hits_;
        return &it->second;
    }

    const V &
    insert(std::uint64_t key, V value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = entries_.emplace(key, std::move(value));
        if (inserted)
            ++misses_;
        else
            ++hits_;
        return it->second;
    }

    mutable std::mutex mutex_;
    std::map<std::uint64_t, V> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace redeye

#endif // REDEYE_CORE_CONTENT_CACHE_HH
