#include <gtest/gtest.h>

#include <climits>
#include <cstring>
#include <random>

#include "common/breakdown.h"
#include "common/cost_model.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/stats.h"

namespace vpim {
namespace {

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.advance(5);
  clock.advance(7);
  EXPECT_EQ(clock.now(), 12u);
}

TEST(SimClock, ParallelTakesMax) {
  SimClock clock;
  clock.advance(100);
  std::vector<std::function<void()>> branches = {
      [&] { clock.advance(30); },
      [&] { clock.advance(80); },
      [&] { clock.advance(10); },
  };
  auto durations = clock.run_parallel(branches);
  EXPECT_EQ(clock.now(), 180u);
  ASSERT_EQ(durations.size(), 3u);
  EXPECT_EQ(durations[0], 30u);
  EXPECT_EQ(durations[1], 80u);
  EXPECT_EQ(durations[2], 10u);
}

TEST(SimClock, NestedParallelComposes) {
  SimClock clock;
  std::vector<std::function<void()>> inner = {
      [&] { clock.advance(5); },
      [&] { clock.advance(9); },
  };
  std::vector<std::function<void()>> outer = {
      [&] { clock.run_parallel(inner); },  // 9
      [&] { clock.advance(4); },
  };
  clock.run_parallel(outer);
  EXPECT_EQ(clock.now(), 9u);
}

TEST(SimClock, ScopedTimerAccumulates) {
  SimClock clock;
  SimNs acc = 0;
  {
    ScopedTimer t(clock, acc);
    clock.advance(42);
  }
  {
    ScopedTimer t(clock, acc);
    clock.advance(8);
  }
  EXPECT_EQ(acc, 50u);
}

TEST(CostModel, BytesTime) {
  // 1 GiB at 1 GB/s should be ~1.07 virtual seconds.
  EXPECT_EQ(CostModel::bytes_time(1'000'000'000, 1.0), 1'000'000'000u);
  EXPECT_EQ(CostModel::bytes_time(500, 0.5), 1000u);
}

TEST(CostModel, DpuCyclesTime) {
  CostModel cost;
  cost.dpu_hz = 350e6;
  // 350 cycles at 350 MHz = 1 us.
  EXPECT_EQ(cost.dpu_cycles_time(350), 1000u);
}

TEST(Breakdown, SegmentsAccumulate) {
  SimClock clock;
  TimeBreakdown bd;
  {
    SegmentScope s(clock, bd, Segment::kCpuDpu);
    clock.advance(10);
  }
  {
    SegmentScope s(clock, bd, Segment::kDpu);
    clock.advance(20);
  }
  EXPECT_EQ(bd[Segment::kCpuDpu], 10u);
  EXPECT_EQ(bd[Segment::kDpu], 20u);
  EXPECT_EQ(bd.total(), 30u);
}

TEST(Breakdown, OpBreakdownCounts) {
  OpBreakdown ops;
  ops.add(RankOp::kCi, 100);
  ops.add(RankOp::kCi, 50);
  ops.add(RankOp::kWriteToRank, 500);
  EXPECT_EQ(ops.count(RankOp::kCi), 2u);
  EXPECT_EQ(ops.time(RankOp::kCi), 150u);
  EXPECT_EQ(ops.count(RankOp::kReadFromRank), 0u);
}

TEST(Stats, MeanStddevPercentile) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(stddev(xs), 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
}

TEST(Stats, Geomean) {
  std::vector<double> xs = {1.0, 4.0};
  EXPECT_DOUBLE_EQ(geomean(xs), 2.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, FillBytesCoversBuffer) {
  Rng rng(7);
  std::vector<std::uint8_t> buf(1001, 0);
  rng.fill_bytes(buf.data(), buf.size());
  int nonzero = 0;
  for (auto b : buf) nonzero += (b != 0);
  EXPECT_GT(nonzero, 900);  // overwhelmingly likely for random bytes
}

// The engine is the standard's MT19937-64: same stream as std::mt19937_64
// for any seed, across many block refills (312 words each).
TEST(Rng, EngineMatchesStdMt19937_64AcrossRefills) {
  for (std::uint64_t seed : {0ULL, 5489ULL, 42ULL, ~0ULL}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 1'000'000; ++i) {
      const std::uint64_t got = rng.next_u64();
      const std::uint64_t want = ref();
      if (got != want) {
        ADD_FAILURE() << "seed " << seed << " draw " << i << ": " << got
                      << " != " << want;
        break;
      }
    }
  }
}

// [rand.predef]: the 10000th consecutive draw of a default-constructed
// mt19937_64 (seed 5489) is 9981545732273789042.
TEST(Rng, TenThousandthDrawFromDefaultSeedIsTheStandardsValue) {
  Rng rng(5489);
  std::uint64_t x = 0;
  for (int i = 0; i < 10000; ++i) x = rng.next_u64();
  EXPECT_EQ(x, 9981545732273789042ULL);
}

struct IntGolden {
  std::int64_t lo, hi;
  std::int64_t first[3];   // first three uniform(lo, hi) draws, seed 2024
  std::uint64_t after;     // next_u64() after 1000 such draws
};
// Generated with GCC 12's std::uniform_int_distribution<int64_t> over
// std::mt19937_64(2024). The last two ranges (2^63 + 1 and 3 * 2^62
// values) reject often, which `after` pins.
constexpr IntGolden kIntGoldens[] = {
    {5, 5, {5, 5, 5}, 9708555024968193062ULL},
    {INT64_MIN, INT64_MAX,
     {2078662967538586166LL, 5436551849943948161LL, -4322862757713255627LL},
     9708555024968193062ULL},
    {0, 1, {1, 1, 0}, 9708555024968193062ULL},
    {-1000000, 1000000, {225369, 589432, -468686}, 9708555024968193062ULL},
    {0, 1LL << 32, {2631460085LL, 3413279515LL, 1140988729LL},
     9708555024968193062ULL},
    {0, INT64_MAX,
     {5651017502196680987LL, 7329961943399361984LL, 2450254639570760090LL},
     9708555024968193062ULL},
    {INT64_MIN, 0,
     {-3572354534658094821LL, -6773117397284015718LL, -7930195025688090370LL},
     12989980189289905681ULL},
    {INT64_MIN, (1LL << 62) - 1,
     {-746845783559754328LL, 1771570878244267168LL, -5547990077498635673LL},
     379481530884685507ULL},
};

TEST(Rng, UniformMatchesGoldenDraws) {
  for (const auto& g : kIntGoldens) {
    SCOPED_TRACE(testing::Message() << "[" << g.lo << ", " << g.hi << "]");
    Rng rng(2024);
    for (std::int64_t want : g.first) EXPECT_EQ(rng.uniform(g.lo, g.hi), want);
    for (int i = 3; i < 1000; ++i) rng.uniform(g.lo, g.hi);
    EXPECT_EQ(rng.next_u64(), g.after);
  }
}

struct RealGolden {
  double lo, hi;
  double first[3];  // first three uniform_real(lo, hi) draws, seed 2024
};
// Generated with GCC 12's std::uniform_real_distribution<double> over
// std::mt19937_64(2024); compared bit for bit.
constexpr RealGolden kRealGoldens[] = {
    {0.0, 1.0, {0x1.39b1c9e957cb2p-1, 0x1.96e50634f5cdbp-1,
                0x1.10086ce6c6f19p-2}},
    {-1e6, 1e6, {0x1.b82c8b9663ef8p+17, 0x1.1fcf043eb3754p+19,
                 -0x1.c9b36e0973dbap+18}},
    {2.5, 2.5, {2.5, 2.5, 2.5}},
    {-3.25, 1e-3, {-0x1.4216f0c0bba8fp+0, -0x1.552f8194d9b9cp-1,
                   -0x1.3173df43e1c74p+1}},
};

TEST(Rng, UniformRealMatchesGoldenDraws) {
  for (const auto& g : kRealGoldens) {
    SCOPED_TRACE(testing::Message() << "[" << g.lo << ", " << g.hi << ")");
    Rng rng(2024);
    for (double want : g.first) EXPECT_EQ(rng.uniform_real(g.lo, g.hi), want);
  }
}

TEST(Rng, ZipfMatchesGoldenRanks) {
  const std::size_t want_1000[] = {54, 214, 3, 6, 0, 1, 621, 38};
  const std::size_t want_50000[] = {273, 2678, 6, 12, 0, 1, 19287, 160};
  Rng a(2024), b(2024);
  for (std::size_t w : want_1000) EXPECT_EQ(a.zipf(1000, 1.0), w);
  for (std::size_t w : want_50000) EXPECT_EQ(b.zipf(50000, 1.05), w);
}

#ifdef __GLIBCXX__
// The repo-owned draws are libstdc++'s distributions, draw for draw: same
// values and the same number of engine draws consumed.
TEST(Rng, UniformMatchesLibstdcxxDistribution) {
  for (const auto& g : kIntGoldens) {
    SCOPED_TRACE(testing::Message() << "[" << g.lo << ", " << g.hi << "]");
    Rng rng(77);
    std::mt19937_64 ref(77);
    std::uniform_int_distribution<std::int64_t> dist(g.lo, g.hi);
    for (int i = 0; i < 100'000; ++i) {
      if (rng.uniform(g.lo, g.hi) != dist(ref)) {
        ADD_FAILURE() << "draw " << i;
        break;
      }
    }
    EXPECT_EQ(rng.next_u64(), ref());
  }
}

TEST(Rng, UniformRealMatchesLibstdcxxDistribution) {
  for (const auto& g : kRealGoldens) {
    SCOPED_TRACE(testing::Message() << "[" << g.lo << ", " << g.hi << ")");
    Rng rng(77);
    std::mt19937_64 ref(77);
    std::uniform_real_distribution<double> dist(g.lo, g.hi);
    for (int i = 0; i < 100'000; ++i) {
      if (rng.uniform_real(g.lo, g.hi) != dist(ref)) {
        ADD_FAILURE() << "draw " << i;
        break;
      }
    }
    EXPECT_EQ(rng.next_u64(), ref());
  }
}

TEST(Rng, ZipfMatchesLibstdcxxCdfDraw) {
  for (auto [n, s] : {std::pair{1000UL, 1.0}, std::pair{50000UL, 1.05}}) {
    std::vector<double> cdf(n);
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf[k] = sum;
    }
    for (auto& v : cdf) v /= sum;
    Rng rng(77);
    std::mt19937_64 ref(77);
    for (int i = 0; i < 10'000; ++i) {
      const double u = std::uniform_real_distribution<double>(0.0, 1.0)(ref);
      const auto want = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      ASSERT_EQ(rng.zipf(n, s), want) << "n " << n << " draw " << i;
    }
  }
}
#endif

// fill_bytes lays the draws' bytes out in order and spends one whole draw
// on a short tail, across refill boundaries and mixed with next_u64.
TEST(Rng, FillBytesIsTheDrawStreamWithWholeDrawTails) {
  Rng rng(9);
  std::mt19937_64 ref(9);
  for (std::size_t n : {0, 1, 7, 8, 9, 15, 1001, 2493, 2496, 2501, 5000}) {
    std::vector<std::uint8_t> got(n), want(n);
    rng.fill_bytes(got.data(), n);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const std::uint64_t v = ref();
      std::memcpy(want.data() + i, &v, 8);
    }
    if (i < n) {
      const std::uint64_t v = ref();
      std::memcpy(want.data() + i, &v, n - i);
    }
    EXPECT_EQ(got, want) << "n " << n;
    EXPECT_EQ(rng.next_u64(), ref()) << "after n " << n;
  }
}

TEST(Rng, ZipfSkewsLow) {
  Rng rng(3);
  int low = 0;
  for (int i = 0; i < 1000; ++i) {
    if (rng.zipf(1000, 1.0) < 10) ++low;
  }
  // Zipf(s=1) puts a large share of mass on the first few ranks.
  EXPECT_GT(low, 200);
}

}  // namespace
}  // namespace vpim
