// Deterministic PRNG (xoshiro256**): reproducibility and sanity of ranges,
// plus pinned regression values for the splittable per-party streams the
// round engine hands to every protocol instance.
#include "util/rng.h"

#include <gtest/gtest.h>

#include "async/async_network.h"
#include "net/sync_network.h"

namespace coca {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
    EXPECT_EQ(rng.below(1), 0u);
  }
  EXPECT_THROW(rng.below(0), Error);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  int buckets[8] = {};
  const int samples = 80000;
  for (int i = 0; i < samples; ++i) ++buckets[rng.below(8)];
  for (const int b : buckets) {
    EXPECT_GT(b, samples / 8 - samples / 40);
    EXPECT_LT(b, samples / 8 + samples / 40);
  }
}

TEST(Rng, BytesAndBitsSizes) {
  Rng rng(13);
  EXPECT_EQ(rng.bytes(33).size(), 33u);
  EXPECT_EQ(rng.bits(13).size(), 13u);
  EXPECT_EQ(rng.bits(0).size(), 0u);
}

TEST(Rng, NatBelowPow2Bounded) {
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LE(rng.nat_below_pow2(100).bit_length(), 100u);
  }
}

// ---- Stream splitting (Rng::stream / derive_stream_seed). ----
//
// These values are pinned on purpose: every per-party RNG stream in both
// network engines is derived through derive_stream_seed, and the parallel
// round engine's determinism contract says the stream depends only on
// (root seed, stream id). An accidental change to the mixing -- or to the
// seed-domain constants -- would silently shift every adversary transcript;
// this test turns that into a loud failure instead.

TEST(RngStream, DeriveStreamSeedPinned) {
  EXPECT_EQ(Rng::derive_stream_seed(0, 0), 0xded083738c47db85ULL);
  EXPECT_EQ(Rng::derive_stream_seed(42, 7), 0x6cff8ef07bf3d9f0ULL);
}

TEST(RngStream, RunnerStreamFirstValuesPinned) {
  // Party id doubling as runner index: the layout SyncNetwork uses when
  // every party is a sole protocol-running instance.
  const std::uint64_t expected[] = {
      0x435954443d1a9f02ULL,
      0x027dd86bcfe6facdULL,
      0x4ff1f10bb1b0c406ULL,
      0x8e831bb22c2030ddULL,
  };
  for (int p = 0; p < 4; ++p) {
    Rng rng = Rng::stream(net::kRunnerSeedDomain,
                          net::runner_stream_key(p, static_cast<std::size_t>(p)));
    EXPECT_EQ(rng.next_u64(), expected[p]) << "party " << p;
  }
}

TEST(RngStream, ScriptedStreamFirstValuesPinned) {
  const std::uint64_t expected[] = {
      0xe5a70bce5e27ce8bULL,
      0x43023b54e2eda4c6ULL,
      0x498bbc5fb42ee9d1ULL,
      0x8d69311c1f2f50b8ULL,
  };
  for (int p = 0; p < 4; ++p) {
    Rng rng = Rng::stream(net::kScriptedSeedDomain,
                          static_cast<std::uint64_t>(p));
    EXPECT_EQ(rng.next_u64(), expected[p]) << "party " << p;
  }
}

TEST(RngStream, AsyncStreamFirstValuesPinned) {
  Rng sched = Rng::stream(async::kSchedulerSeedDomain, 1);
  EXPECT_EQ(sched.next_u64(), 0x0ca21288a8b70916ULL);
  Rng honest2 = Rng::stream(async::kProcessSeedDomain, std::uint64_t{2} << 1);
  EXPECT_EQ(honest2.next_u64(), 0xb3fa4b82aba11cc7ULL);
}

TEST(RngStream, StreamsAreOrderIndependent) {
  // Splitting is a pure function of (seed, id): drawing from one stream
  // must not perturb a sibling, regardless of derivation or draw order.
  Rng a_first = Rng::stream(99, 0);
  (void)a_first.next_u64();
  Rng b_after = Rng::stream(99, 1);
  Rng b_alone = Rng::stream(99, 1);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(b_after.next_u64(), b_alone.next_u64());
  }
}

TEST(RngStream, SiblingAndCrossSeedStreamsDiverge) {
  Rng a = Rng::stream(5, 0);
  Rng b = Rng::stream(5, 1);    // sibling stream
  Rng c = Rng::stream(6, 0);    // same id, neighbouring seed
  int same_ab = 0, same_ac = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t va = a.next_u64();
    if (va == b.next_u64()) ++same_ab;
    if (va == c.next_u64()) ++same_ac;
  }
  EXPECT_EQ(same_ab, 0);
  EXPECT_EQ(same_ac, 0);
}

TEST(Rng, BoolIsBalanced) {
  Rng rng(19);
  int trues = 0;
  for (int i = 0; i < 10000; ++i) trues += rng.next_bool();
  EXPECT_GT(trues, 4500);
  EXPECT_LT(trues, 5500);
}

}  // namespace
}  // namespace coca
