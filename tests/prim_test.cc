#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "prim/app.h"
#include "prim/micro.h"
#include "prim/nw_tile.h"
#include "tests/testutil.h"
#include "vpim/guest_platform.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"

namespace vpim::prim {
namespace {

core::ManagerConfig fast_manager() {
  core::ManagerConfig cfg;
  cfg.retry_wait_ns = 1 * kMs;
  cfg.max_attempts = 2;
  return cfg;
}

AppParams small_params(std::uint32_t nr_dpus = 8) {
  AppParams prm;
  prm.nr_dpus = nr_dpus;
  prm.scale = 0.02;
  return prm;
}

// ---- every PrIM app, natively and under vPIM, must be exact ------------

class PrimAppSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(PrimAppSweep, NativeResultMatchesCpu) {
  test::TestRig rig(test::small_machine());
  auto app = make_app(GetParam());
  const AppResult res = app->run(rig.native, small_params());
  EXPECT_TRUE(res.correct) << res.app;
  EXPECT_GT(res.total(), 0u);
}

TEST_P(PrimAppSweep, VpimResultMatchesCpu) {
  core::Host host(test::small_machine(), CostModel{}, fast_manager());
  core::VpimVm vm(host, {.name = "prim-vm"}, 1);
  core::GuestPlatform platform(vm);
  auto app = make_app(GetParam());
  const AppResult res = app->run(platform, small_params());
  EXPECT_TRUE(res.correct) << res.app;
}

TEST_P(PrimAppSweep, VpimMultiRankMatchesCpu) {
  core::Host host(test::small_machine(), CostModel{}, fast_manager());
  core::VpimVm vm(host, {.name = "prim-vm2"}, 2);
  core::GuestPlatform platform(vm);
  auto app = make_app(GetParam());
  const AppResult res = app->run(platform, small_params(16));
  EXPECT_TRUE(res.correct) << res.app;
}

TEST_P(PrimAppSweep, VpimNoSlowerConfigBreaksCorrectness) {
  // The unoptimized vPIM-rust data path must still be *correct*.
  core::Host host(test::small_machine(), CostModel{}, fast_manager());
  core::VpimVm vm(host, {.name = "rust-vm"}, 1, core::VpimConfig::rust());
  core::GuestPlatform platform(vm);
  auto app = make_app(GetParam());
  const AppResult res = app->run(platform, small_params());
  EXPECT_TRUE(res.correct) << res.app;
}

INSTANTIATE_TEST_SUITE_P(AllApps, PrimAppSweep,
                         ::testing::ValuesIn(app_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(PrimSuite, RegistryIsComplete) {
  EXPECT_EQ(app_names().size(), 16u);  // Table 1
  for (const auto& name : app_names()) {
    EXPECT_NO_THROW((void)make_app(name)) << name;
  }
  EXPECT_THROW((void)make_app("NOPE"), VpimError);
}

TEST(PrimSuite, BreakdownSegmentsPopulated) {
  test::TestRig rig(test::small_machine());
  auto app = make_app("RED");
  const AppResult res = app->run(rig.native, small_params());
  EXPECT_GT(res.breakdown[Segment::kCpuDpu], 0u);
  EXPECT_GT(res.breakdown[Segment::kDpu], 0u);
  EXPECT_GT(res.breakdown[Segment::kInterDpu], 0u);
}

TEST(PrimSuite, VpimSlowerThanNativeOnSmallTransferApps) {
  // NW is the paper's worst case: small-transfer dominated. Use a scale
  // with enough DP blocks (16x16) for the per-op costs to dominate.
  AppParams prm = small_params();
  prm.scale = 0.5;
  test::TestRig rig(test::small_machine());
  auto native_res = make_app("NW")->run(rig.native, prm);

  core::Host host(test::small_machine(), CostModel{}, fast_manager());
  core::VpimVm vm(host, {.name = "nw-vm"}, 1, core::VpimConfig::c_only());
  core::GuestPlatform platform(vm);
  auto vpim_res = make_app("NW")->run(platform, prm);

  ASSERT_TRUE(native_res.correct);
  ASSERT_TRUE(vpim_res.correct);
  // Without prefetch/batching the small-transfer overhead is large.
  EXPECT_GT(static_cast<double>(vpim_res.total()),
            3.0 * static_cast<double>(native_res.total()));
}

TEST(PrimSuite, OptimizationsShrinkNwOverhead) {
  AppParams prm = small_params();
  prm.scale = 0.5;  // 16x16 DP blocks: enough small ops to batch/prefetch
  auto run_with = [&](core::VpimConfig cfg) {
    core::Host host(test::small_machine(), CostModel{}, fast_manager());
    core::VpimVm vm(host, {.name = "nw"}, 1, cfg);
    core::GuestPlatform platform(vm);
    auto res = make_app("NW")->run(platform, prm);
    EXPECT_TRUE(res.correct);
    return res.total();
  };
  const SimNs plain = run_with(core::VpimConfig::c_only());
  const SimNs optimized = run_with(core::VpimConfig::with_prefetch_batching());
  EXPECT_LT(optimized, plain);
  // At this reduced test scale the common launch/poll time dilutes the
  // gain; the full-scale bench (fig14) reproduces the paper's 10.8x.
  EXPECT_GT(static_cast<double>(plain) / static_cast<double>(optimized),
            1.4);
}

TEST(PrimSuite, NwKernelKeepsNineteenBusyTaskletsInWram) {
  // 19 x 19 blocks on one DPU: the middle wavefront gives each of 19
  // tasklets a block, and their WRAM buffers must all fit the heap.
  AppParams prm = small_params(1);
  prm.scale = 19.0 / 16.0;
  prm.nr_tasklets = 19;
  test::TestRig rig(test::small_machine());
  const AppResult res = make_app("NW")->run(rig.native, prm);
  EXPECT_TRUE(res.correct);
}

// ------------------------------------------------------------ NW tiles

// The plain two-row sweep of the NW recurrence (the CPU reference before
// nw_tile), over a tile with an arbitrary boundary: the oracle.
std::pair<std::vector<std::int32_t>, std::vector<std::int32_t>> nw_rows(
    std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
    std::span<const std::int32_t> top, std::span<const std::int32_t> left) {
  const std::size_t n = b.size();
  std::vector<std::int32_t> prev(top.begin(), top.end()), cur(n + 1);
  std::vector<std::int32_t> right(a.size());
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = left[i - 1];
    for (std::size_t j = 1; j <= n; ++j) {
      const std::int32_t sub =
          prev[j - 1] + (a[i - 1] == b[j - 1] ? kNwMatch : kNwMismatch);
      cur[j] = std::max(sub, std::max(prev[j] + kNwGap, cur[j - 1] + kNwGap));
    }
    right[i - 1] = cur[n];
    std::swap(prev, cur);
  }
  return {prev, right};
}

struct NwTileCase {
  std::vector<std::uint8_t> a, b;
  std::vector<std::int32_t> top, left;
};

// Random sequences over NW's four-letter alphabet and a random boundary.
NwTileCase random_tile(std::uint32_t na, std::uint32_t nb,
                       std::uint64_t seed) {
  Rng rng(seed);
  NwTileCase c{std::vector<std::uint8_t>(na), std::vector<std::uint8_t>(nb),
               std::vector<std::int32_t>(nb + 1),
               std::vector<std::int32_t>(na)};
  for (auto& x : c.a) x = static_cast<std::uint8_t>(rng.uniform('A', 'D'));
  for (auto& x : c.b) x = static_cast<std::uint8_t>(rng.uniform('A', 'D'));
  for (auto& v : c.top) v = static_cast<std::int32_t>(rng.uniform(-500, 500));
  for (auto& v : c.left) {
    v = static_cast<std::int32_t>(rng.uniform(-500, 500));
  }
  return c;
}

// Runs nw_tile on `c` with scratch full of garbage and edges pre-filled
// with a sentinel, and checks both edges against the oracle.
void expect_tile_matches_rows(const NwTileCase& c, std::uint64_t seed) {
  const auto na = static_cast<std::uint32_t>(c.a.size());
  const auto nb = static_cast<std::uint32_t>(c.b.size());
  const std::vector<std::uint8_t> b_rev(c.b.rbegin(), c.b.rend());
  std::vector<std::int32_t> bottom(nb + 1, 0x7eadbeef);
  std::vector<std::int32_t> right(na, 0x7eadbeef);
  std::vector<std::int32_t> scratch(nw_tile_scratch(na, nb));
  Rng rng(seed ^ 0x5eed);
  for (auto& v : scratch) {
    v = static_cast<std::int32_t>(rng.uniform(-1000000, 1000000));
  }
  nw_tile(c.a, b_rev, c.top, c.left, bottom, right, scratch);
  const auto [want_bottom, want_right] = nw_rows(c.a, c.b, c.top, c.left);
  EXPECT_EQ(bottom, want_bottom) << na << "x" << nb << " seed " << seed;
  EXPECT_EQ(right, want_right) << na << "x" << nb << " seed " << seed;
}

TEST(NwTile, MatchesRowSweepOnEdgeAndOddShapes) {
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {1, 1},   {1, 2},    {2, 1},    {2, 2},    {1, 57},  {57, 1},
      {1, 200}, {200, 1},  {3, 5},    {5, 3},    {7, 13},  {17, 9},
      {31, 33}, {33, 31},  {127, 129}, {129, 127}, {5, 300}, {300, 5}};
  for (const auto& [na, nb] : shapes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      expect_tile_matches_rows(random_tile(na, nb, seed * 1000 + na + nb),
                               seed);
    }
  }
}

TEST(NwTile, MatchesRowSweepOnKernelBlocks) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_tile_matches_rows(random_tile(128, 128, seed), seed);
  }
}

TEST(NwTile, MatchesRowSweepOnWholeReferenceMatrix) {
  // The CPU reference's shape: one 2048 x 2048 tile from the matrix edge.
  NwTileCase c = random_tile(2048, 2048, 77);
  for (std::uint32_t j = 0; j < c.top.size(); ++j) {
    c.top[j] = -static_cast<std::int32_t>(j);
  }
  for (std::uint32_t i = 0; i < c.left.size(); ++i) {
    c.left[i] = -static_cast<std::int32_t>(i + 1);
  }
  expect_tile_matches_rows(c, 77);
  expect_tile_matches_rows(random_tile(2048, 2048, 91), 91);
}

// The whole matrix H[0..na][0..nb] of the tile, row-major, by the same
// plain recurrence as nw_rows.
std::vector<std::int32_t> nw_matrix(const NwTileCase& c) {
  const std::size_t na = c.a.size(), nb = c.b.size();
  std::vector<std::int32_t> h((na + 1) * (nb + 1));
  auto at = [&](std::size_t i, std::size_t j) -> std::int32_t& {
    return h[i * (nb + 1) + j];
  };
  for (std::size_t j = 0; j <= nb; ++j) at(0, j) = c.top[j];
  for (std::size_t i = 1; i <= na; ++i) {
    at(i, 0) = c.left[i - 1];
    for (std::size_t j = 1; j <= nb; ++j) {
      const std::int32_t sub = at(i - 1, j - 1) +
                               (c.a[i - 1] == c.b[j - 1] ? kNwMatch
                                                         : kNwMismatch);
      at(i, j) = std::max(
          sub, std::max(at(i - 1, j) + kNwGap, at(i, j - 1) + kNwGap));
    }
  }
  return h;
}

TEST(NwTile, CheckpointsAreEveryStrideRowAndColumn) {
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {1, 1}, {1, 9}, {9, 1}, {5, 3}, {17, 9}, {128, 128}, {300, 257}};
  for (const auto& [na, nb] : shapes) {
    const NwTileCase c = random_tile(na, nb, na * 31 + nb);
    const std::vector<std::int32_t> h = nw_matrix(c);
    const std::vector<std::uint8_t> b_rev(c.b.rbegin(), c.b.rend());
    for (std::uint32_t s : {1u, 2u, 3u, 7u, 128u}) {
      std::vector<std::int32_t> bottom(nb + 1), right(na);
      std::vector<std::int32_t> scratch(nw_tile_scratch(na, nb));
      std::vector<std::int32_t> rows(std::size_t{na / s} * (nb + 1),
                                     0x7eadbeef),
          cols(std::size_t{nb / s} * na, 0x7eadbeef);
      nw_tile(c.a, b_rev, c.top, c.left, bottom, right, scratch,
              {s, rows, cols});
      std::vector<std::int32_t> want_rows, want_cols;
      for (std::size_t i = s; i <= na; i += s) {
        const auto row = h.begin() + i * (nb + 1);
        want_rows.insert(want_rows.end(), row, row + nb + 1);
      }
      for (std::size_t j = s; j <= nb; j += s) {
        for (std::size_t i = 1; i <= na; ++i) {
          want_cols.push_back(h[i * (nb + 1) + j]);
        }
      }
      EXPECT_EQ(rows, want_rows) << na << "x" << nb << " stride " << s;
      EXPECT_EQ(cols, want_cols) << na << "x" << nb << " stride " << s;
    }
  }
}

TEST(NwTile, RejectsBoundaryOrScratchThatDoesNotFit) {
  const NwTileCase c = random_tile(6, 9, 5);
  std::vector<std::int32_t> bottom(10), right(6);
  std::vector<std::int32_t> scratch(nw_tile_scratch(6, 9));
  EXPECT_NO_THROW(nw_tile(c.a, c.b, c.top, c.left, bottom, right, scratch));
  EXPECT_THROW(nw_tile(c.a, c.b, c.top, c.left, bottom, right,
                       std::span(scratch).first(scratch.size() - 1)),
               VpimError);
  EXPECT_THROW(nw_tile(c.a, c.b, std::span(c.top).first(9), c.left, bottom,
                       right, scratch),
               VpimError);
  EXPECT_THROW(nw_tile(c.a, c.b, c.top, c.left, bottom,
                       std::span(right).first(5), scratch),
               VpimError);
  // Stride 2 over 6 x 9: three rows of 10 cells, four columns of 6.
  std::vector<std::int32_t> rows(30), cols(24);
  EXPECT_NO_THROW(nw_tile(c.a, c.b, c.top, c.left, bottom, right, scratch,
                          {2, rows, cols}));
  EXPECT_THROW(nw_tile(c.a, c.b, c.top, c.left, bottom, right, scratch,
                       {2, std::span(rows).first(29), cols}),
               VpimError);
  EXPECT_THROW(nw_tile(c.a, c.b, c.top, c.left, bottom, right, scratch,
                       {3, rows, cols}),
               VpimError);
}

// ------------------------------------------------------- microbenchmarks

TEST(Checksum, NativeAndVpimAgree) {
  ChecksumParams prm;
  prm.nr_dpus = 8;
  prm.file_bytes = 2 * kMiB;

  test::TestRig rig(test::small_machine());
  auto native = run_checksum(rig.native, prm);
  EXPECT_TRUE(native.correct);
  EXPECT_EQ(native.write_ops, 1u);  // one broadcast
  EXPECT_EQ(native.read_ops, prm.nr_dpus);
  EXPECT_GT(native.ci_ops, 2u);

  core::Host host(test::small_machine(), CostModel{}, fast_manager());
  core::VpimVm vm(host, {.name = "ck-vm"}, 1);
  core::GuestPlatform platform(vm);
  auto virt = run_checksum(platform, prm);
  EXPECT_TRUE(virt.correct);
  EXPECT_GT(virt.total, native.total);
}

TEST(Checksum, OverheadShrinksWithDataSize) {
  auto overhead_at = [&](std::uint64_t bytes) {
    ChecksumParams prm;
    prm.nr_dpus = 8;
    prm.file_bytes = bytes;
    test::TestRig rig(test::small_machine());
    auto native = run_checksum(rig.native, prm);
    core::Host host(test::small_machine(), CostModel{}, fast_manager());
    core::VpimVm vm(host, {.name = "ck"}, 1);
    core::GuestPlatform platform(vm);
    auto virt = run_checksum(platform, prm);
    return static_cast<double>(virt.total) /
           static_cast<double>(native.total);
  };
  // Fig 9c: relative overhead decreases as the transfer grows.
  EXPECT_GT(overhead_at(512 * kKiB), overhead_at(8 * kMiB));
}

TEST(IndexSearch, NativeAndVpimAgree) {
  IndexSearchParams prm;
  prm.nr_dpus = 8;
  prm.nr_documents = 200;
  prm.nr_queries = 64;
  prm.batch_size = 32;
  prm.avg_doc_words = 300;

  test::TestRig rig(test::small_machine());
  auto native = run_index_search(rig.native, prm);
  EXPECT_TRUE(native.correct);
  EXPECT_GT(native.matches, 0u);

  core::Host host(test::small_machine(), CostModel{}, fast_manager());
  core::VpimVm vm(host, {.name = "is-vm"}, 1);
  core::GuestPlatform platform(vm);
  auto virt = run_index_search(platform, prm);
  EXPECT_TRUE(virt.correct);
  EXPECT_EQ(virt.matches, native.matches);
  EXPECT_GT(virt.total, native.total);
}

TEST(IndexSearch, SingleDpuWorks) {
  IndexSearchParams prm;
  prm.nr_dpus = 1;
  prm.nr_documents = 50;
  prm.nr_queries = 16;
  prm.batch_size = 16;
  prm.avg_doc_words = 100;
  test::TestRig rig(test::small_machine());
  auto res = run_index_search(rig.native, prm);
  EXPECT_TRUE(res.correct);
}

}  // namespace
}  // namespace vpim::prim
