#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/hex.hpp"
#include "common/lru_cache.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/sim_clock.hpp"

namespace revelio {
namespace {

TEST(Hex, RoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  const std::string hex = to_hex(data);
  EXPECT_EQ(hex, "0001abff7f");
  const auto back = from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Hex, AcceptsUpperCase) {
  const auto v = from_hex("DEADBEEF");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_hex(*v), "deadbeef");
}

TEST(Hex, RejectsOddLength) { EXPECT_FALSE(from_hex("abc").has_value()); }

TEST(Hex, RejectsNonHexCharacters) {
  EXPECT_FALSE(from_hex("zz").has_value());
  EXPECT_FALSE(from_hex("0g").has_value());
}

TEST(Hex, EmptyString) {
  const auto v = from_hex("");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->empty());
  EXPECT_EQ(to_hex(*v), "");
}

TEST(Bytes, ConcatJoinsInOrder) {
  const Bytes a = to_bytes(std::string_view("ab"));
  const Bytes b = to_bytes(std::string_view("cd"));
  EXPECT_EQ(to_string(concat(a, b)), "abcd");
  EXPECT_EQ(to_string(concat(a, b, a)), "abcdab");
}

TEST(Bytes, CtEqualBasics) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, d));
}

TEST(Bytes, BigEndianRoundTrip) {
  Bytes buf;
  append_u32be(buf, 0xdeadbeef);
  append_u64be(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(read_u32be(buf, 0), 0xdeadbeefu);
  EXPECT_EQ(read_u64be(buf, 4), 0x0123456789abcdefULL);
}

TEST(Bytes, FixedBytesFromShortInput) {
  const Bytes short_input = {0xaa, 0xbb};
  const auto fb = FixedBytes<4>::from(short_input);
  EXPECT_EQ(fb[0], 0xaa);
  EXPECT_EQ(fb[1], 0xbb);
  EXPECT_EQ(fb[2], 0x00);
  EXPECT_EQ(fb[3], 0x00);
}

TEST(Bytes, XorInto) {
  Bytes a = {0xff, 0x0f, 0x00};
  const Bytes b = {0x0f, 0x0f, 0x0f};
  xor_into(a, b);
  EXPECT_EQ(a, (Bytes{0xf0, 0x00, 0x0f}));
}

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = Error::make("x.failed", "context");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, "x.failed");
  EXPECT_EQ(err.error().to_string(), "x.failed: context");
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(Result, VoidStatus) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  Status bad = Error::make("broken");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, "broken");
}

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now_us(), 0u);
  clock.advance_us(SimClock::from_ms(1.5));
  EXPECT_EQ(clock.now_us(), 1500u);
  clock.advance_us(500);
  EXPECT_EQ(clock.now_us(), 2000u);
  clock.reset();
  EXPECT_EQ(clock.now_us(), 0u);
}

TEST(SimClock, FromMsRoundsToTheNearestMicrosecond) {
  EXPECT_EQ(SimClock::from_ms(2.01), 2010u) << "2.01 * 1000 is 2009.99...";
  EXPECT_EQ(SimClock::from_ms(0.0004), 0u);
  EXPECT_EQ(SimClock::from_ms(0.0005), 1u);
  EXPECT_EQ(SimClock::from_ms(-3.0), 0u) << "no negative durations";
}

TEST(SimClock, FormatsTimestamp) {
  SimClock clock;
  clock.advance_us(SimClock::from_ms(3723004.0));  // 1h 2m 3s 4ms
  EXPECT_EQ(clock.to_string(), "T+01:02:03.004");
}

// Regression: destroying a copied clock used to null out current() even
// though the original was still alive, silently zeroing virtual timestamps
// in the tracer. The registry must re-expose the surviving clock.
TEST(SimClock, CurrentSurvivesCopyDestruction) {
  SimClock original;
  original.advance_us(5000);
  ASSERT_EQ(SimClock::current(), &original);
  {
    SimClock copy(original);
    EXPECT_EQ(SimClock::current(), &copy);  // latest wins while alive
    EXPECT_EQ(copy.now_us(), original.now_us());
  }
  EXPECT_EQ(SimClock::current(), &original);  // not nullptr, not dangling
}

TEST(SimClock, CurrentHandlesInterleavedLifetimes) {
  auto a = std::make_unique<SimClock>();
  auto b = std::make_unique<SimClock>(*a);
  auto c = std::make_unique<SimClock>(*b);
  EXPECT_EQ(SimClock::current(), c.get());
  b.reset();  // destroying a middle clock keeps the latest survivor
  EXPECT_EQ(SimClock::current(), c.get());
  c.reset();
  EXPECT_EQ(SimClock::current(), a.get());
  a.reset();
  EXPECT_EQ(SimClock::current(), nullptr);
}

TEST(Result, ErrorTaxonomyTransientVsPermanent) {
  // Transport losses a retry can cure.
  EXPECT_TRUE(Error::make("net.timeout").is_transient());
  EXPECT_TRUE(Error::make("net.drop").is_transient());
  EXPECT_TRUE(Error::make("net.unreachable").is_transient());
  EXPECT_TRUE(Error::make("net.connection_refused").is_transient());
  EXPECT_TRUE(Error::make("acme.unavailable").is_transient());
  // Fail-closed verdicts that must never be retried.
  EXPECT_FALSE(Error::make("snp.signature_invalid").is_transient());
  EXPECT_FALSE(Error::make("snp.vcek_chain_invalid").is_transient());
  EXPECT_FALSE(Error::make("tls.untrusted_certificate").is_transient());
  EXPECT_FALSE(Error::make("extension.attestation_failed").is_transient());
  EXPECT_FALSE(Error::make("sw.verification_failed").is_transient());
  EXPECT_FALSE(Error::make("net.deadline_exceeded").is_transient());
  EXPECT_FALSE(Error::make("acme.rate_limited").is_transient());
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BytesHaveRequestedLength) {
  Rng rng(5);
  EXPECT_EQ(rng.next_bytes(0).size(), 0u);
  EXPECT_EQ(rng.next_bytes(7).size(), 7u);
  EXPECT_EQ(rng.next_bytes(64).size(), 64u);
}

// Distribution smoke check: all byte values should appear over a large draw.
TEST(Rng, BytesCoverValueSpace) {
  Rng rng(42);
  const Bytes sample = rng.next_bytes(1 << 16);
  std::array<int, 256> histogram{};
  for (auto b : sample) ++histogram[b];
  for (int count : histogram) EXPECT_GT(count, 0);
}

using common::LruCache;

TEST(LruCache, GetRefreshesRecencySoTheExactLruEntryIsEvicted) {
  LruCache<int, std::string> cache(3);
  cache.put(1, "one");
  cache.put(2, "two");
  cache.put(3, "three");
  // Touch 1: 2 becomes the least recently used entry.
  EXPECT_EQ(cache.get(1), "one");
  EXPECT_TRUE(cache.put(4, "four"));  // evicts exactly 2
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.get(1), "one");
  EXPECT_EQ(cache.get(3), "three");
  EXPECT_EQ(cache.get(4), "four");
  EXPECT_EQ(cache.size(), 3u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(LruCache, PutOnAPresentKeyKeepsOneEntryAndRefreshesIt) {
  LruCache<int, std::string> cache(2);
  cache.put(1, "first");
  cache.put(2, "two");
  EXPECT_FALSE(cache.put(1, "second"));  // present: no eviction
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get(1), "first") << "the existing value is kept";
  // The re-put refreshed 1, so the next insert evicts 2.
  cache.put(3, "three");
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(1).has_value());
}

TEST(LruCache, EraseDropsTheEntryWithoutCountingAnEviction) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.erase(1);
  cache.erase(7);  // absent: no-op
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.get(1).has_value());
  // The freed slot takes a new key without evicting 2.
  EXPECT_FALSE(cache.put(3, 30));
  EXPECT_EQ(cache.get(2), 20);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(LruCache, CapacityZeroStoresNothing) {
  LruCache<int, int> cache(0);
  EXPECT_FALSE(cache.put(1, 10));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(LruCache, ConcurrentChurnStaysBoundedAndCountsEveryGet) {
  constexpr std::size_t kCapacity = 8;
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  constexpr int kKeys = 32;
  LruCache<int, int> cache(kCapacity);
  std::atomic<bool> over_capacity{false};
  std::atomic<bool> wrong_value{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        const int key = (t * 7 + i * 13) % kKeys;
        if (const auto v = cache.get(key)) {
          if (*v != key * key) wrong_value = true;
        } else {
          cache.put(key, key * key);
        }
        if (i % 3 == 0) cache.erase((key + 1) % kKeys);
        if (cache.size() > kCapacity) over_capacity = true;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(over_capacity.load());
  EXPECT_FALSE(wrong_value.load());
  EXPECT_LE(cache.size(), kCapacity);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads * kOps));
  EXPECT_GT(stats.evictions, 0u);
}

}  // namespace
}  // namespace revelio
