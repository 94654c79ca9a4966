#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"

namespace charlie::util {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(99);
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.normal(10.0, 2.0));
  EXPECT_NEAR(math::mean(samples), 10.0, 0.1);
  EXPECT_NEAR(math::stddev(samples), 2.0, 0.1);
}

TEST(Rng, NormalZeroSigmaIsDeterministic) {
  Rng rng(5);
  EXPECT_DOUBLE_EQ(rng.normal(3.0, 0.0), 3.0);
}

TEST(Rng, NormalAboveRespectsFloor) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GT(rng.normal_above(100e-12, 50e-12, 1e-12), 1e-12);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == 0;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntHandlesDegenerateAndFullRanges) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
  // [INT64_MIN, INT64_MAX] spans all 2^64 values: both signs must appear.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  int negative = 0;
  for (int i = 0; i < 1000; ++i) {
    if (rng.uniform_int(kMin, kMax) < 0) ++negative;
  }
  EXPECT_NEAR(negative, 500, 80);
}

TEST(Rng, UniformIntIsUnbiasedWhereRejectionIsFrequent) {
  // A width of 3 * 2^62 rejects a quarter of the raw words (2^64 mod width
  // = 2^62); each twelfth of the interval must still get a twelfth of the
  // draws, within 4.5 standard deviations.
  Rng rng(31);
  constexpr std::int64_t kBin = std::int64_t{1} << 60;
  constexpr int kDraws = 40000;
  std::vector<int> counts(12, 0);
  // Residues mod 3: a multiply-shift without the rejection step gives
  // offsets = 2 (mod 3) two raw words each, half the draws.
  std::vector<int> residues(3, 0);
  for (int i = 0; i < kDraws; ++i) {
    const std::int64_t v = rng.uniform_int(-6 * kBin, 6 * kBin - 1);
    ASSERT_GE(v, -6 * kBin);
    ASSERT_LT(v, 6 * kBin);
    // v - lo exceeds INT64_MAX in the upper half: take it modulo 2^64.
    const std::uint64_t offset = static_cast<std::uint64_t>(v) +
                                 static_cast<std::uint64_t>(6 * kBin);
    ++counts[offset / kBin];
    ++residues[offset % 3];
  }
  const double expected = kDraws / 12.0;
  const double tolerance = 4.5 * std::sqrt(expected * (11.0 / 12.0));
  for (const int c : counts) EXPECT_NEAR(c, expected, tolerance);
  for (const int r : residues) EXPECT_NEAR(r, kDraws / 3.0, 450.0);
}

TEST(Rng, NormalPairHalvesAreUncorrelated) {
  // The polar method returns both variates of a pair; the cached second
  // one must be a fresh normal, not a function of the first.
  Rng rng(41);
  std::vector<double> first;
  std::vector<double> second;
  for (int i = 0; i < 20000; ++i) {
    first.push_back(rng.normal(0.0, 1.0));
    second.push_back(rng.normal(0.0, 1.0));
  }
  double cross = 0.0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    cross += first[i] * second[i];
  }
  EXPECT_NEAR(cross / static_cast<double>(first.size()), 0.0, 0.03);
  EXPECT_NEAR(math::stddev(second), 1.0, 0.03);
}

TEST(Rng, BernoulliProbabilityRoughlyHonored) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.bernoulli(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
  EXPECT_THROW(rng.bernoulli(1.5), AssertionError);
}

TEST(Rng, ForkedStreamsAreIndependentAndReproducible) {
  Rng parent1(42);
  Rng parent2(42);
  Rng child1 = parent1.fork();
  Rng child2 = parent2.fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(child1.uniform(0.0, 1.0), child2.uniform(0.0, 1.0));
  }
  // The fork advanced the parent identically.
  EXPECT_DOUBLE_EQ(parent1.uniform(0.0, 1.0), parent2.uniform(0.0, 1.0));
}

// Keyed (seed, stream) streams: the counter-based scheme that makes
// Monte-Carlo runs order-independent.
TEST(CounterRng, StreamIsPureFunctionOfKey) {
  Rng a(2022, 17);
  Rng b(2022, 17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(CounterRng, OrderIndependentAcrossIndices) {
  // Drawing index 5's stream must not depend on whether indices 0..4 were
  // ever touched: reconstructing the stream fresh gives identical words.
  std::vector<std::uint64_t> sequential;
  for (std::uint64_t idx = 0; idx < 8; ++idx) {
    Rng rng(7, idx);
    for (int i = 0; i < 4; ++i) sequential.push_back(rng.next_u64());
  }
  // Reverse visiting order.
  std::vector<std::uint64_t> reversed(sequential.size());
  for (std::uint64_t idx = 8; idx-- > 0;) {
    Rng rng(7, idx);
    for (int i = 0; i < 4; ++i) reversed[idx * 4 + i] = rng.next_u64();
  }
  EXPECT_EQ(sequential, reversed);
}

TEST(CounterRng, AdjacentKeysDecorrelate) {
  // (seed, index) and (seed+1, index), (seed, index+1) must all differ.
  Rng a(100, 0);
  Rng b(101, 0);
  Rng c(100, 1);
  int same_ab = 0;
  int same_ac = 0;
  for (int i = 0; i < 64; ++i) {
    const auto va = a.next_u64();
    if (va == b.next_u64()) ++same_ab;
    if (va == c.next_u64()) ++same_ac;
  }
  EXPECT_EQ(same_ab, 0);
  EXPECT_EQ(same_ac, 0);
}

TEST(CounterRng, Uniform01InUnitInterval) {
  Rng rng(1, 2);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(CounterRng, NormalMomentsApproximate) {
  Rng rng(99, 3);
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.normal(10.0, 2.0));
  EXPECT_NEAR(math::mean(samples), 10.0, 0.1);
  EXPECT_NEAR(math::stddev(samples), 2.0, 0.1);
}

TEST(CounterRng, NormalClampedRespectsTruncation) {
  Rng rng(5, 0);
  bool saw_tail = false;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.normal_clamped(0.0, 1.0, 2.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LE(v, 2.0);
    saw_tail = saw_tail || std::abs(v) > 1.5;
  }
  EXPECT_TRUE(saw_tail);  // the clamp truncates, it does not squash
}

// The first eight draws of every distribution, bit for bit (hex-float
// literals). A change to the engine or to any distribution's algorithm moves
// these values; such a change must re-pin them on purpose.
template <class Draw>
std::vector<double> first_eight(Draw draw) {
  std::vector<double> out;
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<double>(draw()));
  return out;
}

TEST(RngPins, Uniform) {
  Rng rng(2022);
  EXPECT_EQ(first_eight([&] { return rng.uniform(-1.0, 3.0); }),
            (std::vector<double>{0x1.1ba52c95a4dap+1, 0x1.0b1555f3b71c8p-1,
                                 -0x1.4db86f9415adp-3, 0x1.458ec4da4df98p-2,
                                 0x1.caca84f270cap-1, -0x1.121bb1991ba4p-3,
                                 -0x1.acc9a0c41f25p-3, 0x1.442fe8fdde27p+1}));
}

TEST(RngPins, Normal) {
  Rng rng(2022);
  EXPECT_EQ(first_eight([&] { return rng.normal(10.0, 2.0); }),
            (std::vector<double>{0x1.8db6847e977dp+3, 0x1.216db58f63f2bp+3,
                                 0x1.f553905857b56p+2, 0x1.175574a051198p+3,
                                 0x1.373b29031b5ep+3, 0x1.c0a816f017db6p+2,
                                 0x1.33b105f5fead1p+3, 0x1.4f99702cb9ee1p+3}));
}

TEST(RngPins, NormalAbove) {
  // lo sits half a sigma below the mean, so about 31% of draws resample.
  Rng rng(2022);
  EXPECT_EQ(first_eight([&] { return rng.normal_above(1.0, 1.0, 0.5); }),
            (std::vector<double>{0x1.1b6d08fd2efa1p+1, 0x1.0b6dac7b1f957p-1,
                                 0x1.b9d94818dafp-1, 0x1.9d882faff5689p-1,
                                 0x1.3e65c0b2e7b86p+0, 0x1.239ebd6bd537ap+0,
                                 0x1.0fe5d19be8ea6p-1, 0x1.8404e3104facep+1}));
}

TEST(RngPins, UniformInt) {
  Rng rng(2022);
  EXPECT_EQ(first_eight([&] { return rng.uniform_int(-3, 9); }),
            (std::vector<double>{7, 1, -1, 1, 3, -1, -1, 8}));
}

TEST(RngPins, Bernoulli) {
  Rng rng(2022);
  EXPECT_EQ(first_eight([&] { return rng.bernoulli(0.3); }),
            (std::vector<double>{0, 0, 1, 0, 0, 1, 1, 0}));
}

TEST(RngPins, Fork) {
  Rng parent(2022);
  Rng child = parent.fork();
  EXPECT_EQ(first_eight([&] { return child.uniform(0.0, 1.0); }),
            (std::vector<double>{0x1.670fa522dec3p-5, 0x1.776705a55c238p-2,
                                 0x1.83bee5194f254p-2, 0x1.2a5ff092bd11ep-2,
                                 0x1.6f01703e16d6p-2, 0x1.570b24daea244p-3,
                                 0x1.03937fe37304fp-1, 0x1.25b6ff608f868p-4}));
  EXPECT_EQ(first_eight([&] { return parent.uniform(0.0, 1.0); }),
            (std::vector<double>{0x1.858aaaf9db8e4p-2, 0x1.ac91e41afa94cp-3,
                                 0x1.5163b136937e6p-2, 0x1.e56542793865p-2,
                                 0x1.bb791399b917p-3, 0x1.94cd97cef836cp-3,
                                 0x1.c42fe8fdde27p-1, 0x1.449756cf54b4ap-1}));
}

TEST(RngPins, NormalClamped) {
  // A clamp at one sigma: the first two draws hit it.
  Rng rng(5, 0);
  EXPECT_EQ(first_eight([&] { return rng.normal_clamped(0.0, 1.0, 1.0); }),
            (std::vector<double>{-0x1p+0, -0x1p+0, -0x1.3604347cadb65p-4,
                                 -0x1.09220fc487938p-3, 0x1.68b0752c8ff2ep-1,
                                 -0x1.9bdab7a67b565p-1, -0x1.ebb03c64b33e9p-2,
                                 0x1.7c8f2cd126396p-1}));
}

TEST(RngPins, KeyedStream) {
  // The splitmix64 key schedule that derives Monte-Carlo run seeds; these
  // words predate the repo's own distributions and did not move with them.
  Rng rng(2022, 17);
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 8; ++i) words.push_back(rng.next_u64());
  EXPECT_EQ(words, (std::vector<std::uint64_t>{
                       0x4f71086717abdf57u, 0x7473960bf0d84518u,
                       0xa722376bb9cefba3u, 0x4b04746a07572c91u,
                       0x21ea2341b6205d92u, 0x8ae28b82f3bbfdd7u,
                       0x1d32da5d0fd4add8u, 0x7329630c170fca52u}));
}

}  // namespace
}  // namespace charlie::util
