/**
 * @file
 * Tests for ContentCache: one compute per key, failures pass through
 * uncached, references stay valid, and racing threads agree on one
 * stored object per key with every lookup counted once. Run under
 * TSan in CI (thread-sanitizer job).
 */

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/content_cache.hh"

namespace redeye {
namespace {

TEST(ContentCacheTest, ComputesOncePerKey)
{
    ContentCache<std::string> cache;
    int computes = 0;
    auto compute = [&] {
        ++computes;
        return std::string("plan");
    };

    const std::string &first = cache.fetch(7, compute);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    const std::string &again = cache.fetch(7, compute);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(&again, &first);

    const std::string &other =
        cache.fetch(8, [] { return std::string("other"); });
    EXPECT_EQ(other, "other");
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ContentCacheTest, FailingComputeIsNotCached)
{
    ContentCache<int> cache;
    int computes = 0;
    auto fail = [&]() -> StatusOr<int> {
        ++computes;
        return Status::invalidArgument("bad key");
    };

    StatusOr<const int *> first = cache.fetchOrStatus(3, fail);
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status(), Status::invalidArgument("bad key"));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);

    // Nothing was stored, so the next fetch computes again.
    EXPECT_FALSE(cache.fetchOrStatus(3, fail).ok());
    EXPECT_EQ(computes, 2);
    EXPECT_EQ(cache.hits(), 0u);

    StatusOr<const int *> ok =
        cache.fetchOrStatus(3, []() -> StatusOr<int> { return 42; });
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(*ok.value(), 42);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);

    // A stored value is a hit on either path.
    EXPECT_EQ(&cache.fetch(3, [] { return 0; }), ok.value());
    EXPECT_EQ(cache.fetchOrStatus(3, fail).value(), ok.value());
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(computes, 2);
}

TEST(ContentCacheTest, ReferencesSurviveLaterInserts)
{
    ContentCache<std::vector<int>> cache;
    const std::vector<int> &first =
        cache.fetch(0, [] { return std::vector<int>{1, 2, 3}; });
    for (std::uint64_t key = 1; key < 256; ++key)
        cache.fetch(key, [&] {
            return std::vector<int>(8, static_cast<int>(key));
        });
    EXPECT_EQ(cache.size(), 256u);
    EXPECT_EQ(&cache.fetch(0, [] { return std::vector<int>{}; }),
              &first);
    EXPECT_EQ(first, (std::vector<int>{1, 2, 3}));
}

TEST(ContentCacheConcurrencyTest, RacingThreadsShareOneObjectPerKey)
{
    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kKeys = 16;

    ContentCache<std::uint64_t> cache;
    std::vector<std::vector<const std::uint64_t *>> seen(
        kThreads, std::vector<const std::uint64_t *>(kKeys, nullptr));

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            for (std::uint64_t k = 0; k < kKeys; ++k) {
                // Threads walk the keys in different orders so
                // first lookups of a key race.
                const std::uint64_t key = (k + t) % kKeys;
                seen[t][key] =
                    &cache.fetch(key, [key] { return key * key; });
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(cache.size(), kKeys);
    EXPECT_EQ(cache.misses(), kKeys);
    EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kKeys);
    for (std::uint64_t k = 0; k < kKeys; ++k) {
        ASSERT_NE(seen[0][k], nullptr);
        EXPECT_EQ(*seen[0][k], k * k);
        for (std::size_t t = 1; t < kThreads; ++t)
            EXPECT_EQ(seen[t][k], seen[0][k])
                << "thread " << t << " key " << k;
    }
}

} // namespace
} // namespace redeye
