#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>

#include "common/rng.h"
#include "tests/testutil.h"
#include "upmem/dpu.h"
#include "upmem/interleave.h"
#include "upmem/kernel.h"
#include "upmem/mram.h"

namespace vpim::upmem {
namespace {

// ------------------------------------------------------------------ MRAM

TEST(Mram, ReadsZeroWhenUntouched) {
  MramBank bank;
  std::vector<std::uint8_t> buf(64, 0xFF);
  bank.read(1 * kMiB, buf);
  for (auto b : buf) EXPECT_EQ(b, 0);
  EXPECT_EQ(bank.resident_pages(), 0u);
}

TEST(Mram, RoundTripAcrossPageBoundary) {
  MramBank bank;
  Rng rng(1);
  std::vector<std::uint8_t> in(10000);
  rng.fill_bytes(in.data(), in.size());
  const std::uint64_t offset = kMramPageSize - 123;  // straddles pages
  bank.write(offset, in);
  std::vector<std::uint8_t> out(in.size());
  bank.read(offset, out);
  EXPECT_EQ(in, out);
}

TEST(Mram, OutOfBoundsThrows) {
  MramBank bank;
  std::vector<std::uint8_t> buf(16);
  EXPECT_THROW(bank.write(kMramSize - 8, buf), VpimError);
  EXPECT_THROW(bank.read(kMramSize, {buf.data(), 1}), VpimError);
}

TEST(Mram, SharedPagesAreCopyOnWrite) {
  MramBank a, b;
  std::vector<std::uint8_t> data(2 * kMramPageSize, 0xAB);
  auto pages = MramBank::build_pages(data);
  a.adopt_pages(0, pages);
  b.adopt_pages(0, pages);

  // Mutating bank a must not leak into bank b.
  std::vector<std::uint8_t> patch = {1, 2, 3};
  a.write(10, patch);
  std::vector<std::uint8_t> out(3);
  b.read(10, out);
  EXPECT_EQ(out, std::vector<std::uint8_t>({0xAB, 0xAB, 0xAB}));
  a.read(10, out);
  EXPECT_EQ(out, patch);
}

TEST(Mram, ClearDropsPages) {
  MramBank bank;
  std::vector<std::uint8_t> data(kMramPageSize, 1);
  bank.write(0, data);
  EXPECT_GT(bank.resident_pages(), 0u);
  bank.clear();
  EXPECT_EQ(bank.resident_pages(), 0u);
  std::vector<std::uint8_t> out(8);
  bank.read(0, out);
  for (auto b : out) EXPECT_EQ(b, 0);
}

// The page table only grows to the highest touched page; these pin that
// the bounds, zero-fill and copy-on-write contract still covers the whole
// 64 MiB bank.

TEST(Mram, LastByteWritableAndOnePastThrows) {
  MramBank bank;
  const std::vector<std::uint8_t> one = {0x7E};
  bank.write(kMramSize - 1, one);
  std::vector<std::uint8_t> out(1);
  bank.read(kMramSize - 1, out);
  EXPECT_EQ(out, one);
  EXPECT_EQ(bank.resident_pages(), 1u);
  EXPECT_THROW(bank.write(kMramSize, one), VpimError);
  std::vector<std::uint8_t> two = {1, 2};
  EXPECT_THROW(bank.write(kMramSize - 1, two), VpimError);
  EXPECT_THROW(bank.read(kMramSize - 1, two), VpimError);
}

TEST(Mram, ReadSpanningHighWaterMarkReturnsZerosPastIt) {
  MramBank bank;
  // The last written byte is the last byte of page 2.
  const std::vector<std::uint8_t> data(64, 0x5A);
  const std::uint64_t offset = 3 * kMramPageSize - data.size();
  bank.write(offset, data);
  std::vector<std::uint8_t> out(data.size() + kMramPageSize + 10, 0xFF);
  bank.read(offset, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i < data.size() ? 0x5A : 0) << "byte " << i;
  }
}

TEST(Mram, ClearReleasesTableAndBankIsReusable) {
  MramBank bank;
  const std::vector<std::uint8_t> data(16, 0x33);
  bank.write(kMramSize - kMramPageSize, data);
  bank.write(0, data);
  bank.clear();
  EXPECT_EQ(bank.resident_pages(), 0u);
  std::vector<std::uint8_t> out(16, 0xFF);
  bank.read(kMramSize - kMramPageSize, out);
  for (auto b : out) EXPECT_EQ(b, 0);
  EXPECT_TRUE(bank.export_pages().empty());

  bank.write(kMramPageSize + 5, data);
  bank.read(kMramPageSize + 5, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(bank.resident_pages(), 1u);
}

TEST(Mram, AdoptAtHighPageStaysCopyOnWrite) {
  MramBank a, b;
  const std::vector<std::uint8_t> data(2 * kMramPageSize, 0xAB);
  const auto pages = MramBank::build_pages(data);
  const std::uint64_t offset = kMramSize - 2 * kMramPageSize;
  a.adopt_pages(offset, pages);
  b.adopt_pages(offset, pages);
  EXPECT_EQ(a.resident_pages(), 2u);
  EXPECT_THROW(a.adopt_pages(offset + kMramPageSize, pages), VpimError);

  const std::vector<std::uint8_t> patch = {7};
  a.write(kMramSize - 1, patch);
  std::vector<std::uint8_t> out(1);
  b.read(kMramSize - 1, out);
  EXPECT_EQ(out[0], 0xAB);
  a.read(kMramSize - 1, out);
  EXPECT_EQ(out[0], 7);
  a.read(0, out);  // below the adopted range: never touched
  EXPECT_EQ(out[0], 0);
}

TEST(Mram, SparseBankRoundTripsThroughExportImportAndCopy) {
  MramBank src;
  const std::vector<std::uint8_t> low(32, 0x11);
  const std::vector<std::uint8_t> high(32, 0x22);
  const std::uint64_t high_offset = kMramSize - 32;
  src.write(0, low);
  src.write(high_offset, high);

  const auto exported = src.export_pages();
  ASSERT_EQ(exported.size(), 2u);
  EXPECT_EQ(exported[0].first, 0u);
  EXPECT_EQ(exported[1].first, kMramPages - 1);

  MramBank imported;
  imported.write(kMramSize / 2, low);  // replaced by the import
  imported.import_pages(exported);
  MramBank copied;
  copied.copy_from(src);

  for (const MramBank* bank : {&imported, &copied}) {
    EXPECT_EQ(bank->resident_pages(), 2u);
    std::vector<std::uint8_t> out(32);
    bank->read(0, out);
    EXPECT_EQ(out, low);
    bank->read(high_offset, out);
    EXPECT_EQ(out, high);
    bank->read(kMramSize / 2, out);
    for (auto b : out) EXPECT_EQ(b, 0);
  }
  // Imported and copied pages are shared: writes stay private.
  copied.write(0, high);
  std::vector<std::uint8_t> out(32);
  src.read(0, out);
  EXPECT_EQ(out, low);
}

// A non-empty access inside one present page is served by a single
// memcpy; these pin its edges against the page-by-page general path.

TEST(Mram, AccessEndingAtPageEndAndOneCrossingIt) {
  MramBank bank;
  const std::vector<std::uint8_t> low(16, 0x11);
  const std::vector<std::uint8_t> high(16, 0x22);
  bank.write(kMramPageSize - low.size(), low);  // ends exactly at page end
  bank.write(kMramPageSize, high);              // first bytes of page 1
  std::vector<std::uint8_t> out(16);
  bank.read(kMramPageSize - out.size(), out);
  EXPECT_EQ(out, low);

  std::vector<std::uint8_t> both(32);
  bank.read(kMramPageSize - 16, both);  // crosses into page 1
  for (std::size_t i = 0; i < both.size(); ++i) {
    ASSERT_EQ(both[i], i < 16 ? 0x11 : 0x22) << "byte " << i;
  }
  const std::vector<std::uint8_t> patch(8, 0x33);
  bank.write(kMramPageSize - 4, patch);  // crossing write
  bank.read(kMramPageSize - 16, both);
  for (std::size_t i = 0; i < both.size(); ++i) {
    const std::uint8_t want = i >= 12 && i < 20 ? 0x33
                              : i < 16          ? 0x11
                                                : 0x22;
    ASSERT_EQ(both[i], want) << "byte " << i;
  }
}

TEST(Mram, AbsentPageInsideTableReadsZero) {
  MramBank bank;
  const std::vector<std::uint8_t> data(8, 0x44);
  bank.write(3 * kMramPageSize, data);  // the table now covers pages 0..3
  std::vector<std::uint8_t> out(8, 0xFF);
  bank.read(kMramPageSize + 100, out);
  for (auto b : out) EXPECT_EQ(b, 0);
  EXPECT_EQ(bank.resident_pages(), 1u);
}

// Two banks sharing page 0 of one broadcast, with the builder's own
// references already dropped.
void share_page(MramBank& a, MramBank& b) {
  const std::vector<std::uint8_t> data(kMramPageSize, 0xAB);
  const auto pages = MramBank::build_pages(data);
  a.adopt_pages(0, pages);
  b.adopt_pages(0, pages);
}

const MramPage* page0(const MramBank& bank) {
  return bank.export_pages().at(0).second.get();
}

TEST(Mram, OneByteWriteIntoSharedPageStaysPrivate) {
  MramBank a, b;
  share_page(a, b);
  const MramPage* shared = page0(a);
  const std::vector<std::uint8_t> one = {0x01};
  a.write(5, one);
  std::vector<std::uint8_t> out(1);
  b.read(5, out);
  EXPECT_EQ(out[0], 0xAB) << "write into a shared page leaked";
  a.read(5, out);
  EXPECT_EQ(out[0], 0x01);
  EXPECT_NE(page0(a), shared);
  EXPECT_EQ(page0(b), shared);
}

TEST(Mram, OneByteWriteLandsInPlaceOnceSharerClears) {
  MramBank a, b;
  share_page(a, b);
  const MramPage* shared = page0(a);
  b.clear();
  const std::vector<std::uint8_t> one = {0x01};
  a.write(5, one);
  EXPECT_EQ(page0(a), shared) << "sole-owned page was copied";
  std::vector<std::uint8_t> out(2);
  a.read(4, out);
  EXPECT_EQ(out, std::vector<std::uint8_t>({0xAB, 0x01}));
}

// ------------------------------------------------------------ interleave

class InterleaveSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InterleaveSweep, WideMatchesNaive) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<std::uint8_t> src(n), a(n), b(n);
  rng.fill_bytes(src.data(), src.size());
  interleave_naive(src, a);
  interleave_wide(src, b);
  EXPECT_EQ(a, b) << "size " << n;
}

TEST_P(InterleaveSweep, RoundTripIdentity) {
  const std::size_t n = GetParam();
  Rng rng(n + 1);
  std::vector<std::uint8_t> src(n), wire(n), back(n);
  rng.fill_bytes(src.data(), src.size());

  interleave_wide(src, wire);
  deinterleave_wide(wire, back);
  EXPECT_EQ(src, back);

  interleave_naive(src, wire);
  deinterleave_naive(wire, back);
  EXPECT_EQ(src, back);

  // Cross pairing: naive interleave, wide deinterleave.
  interleave_naive(src, wire);
  deinterleave_wide(wire, back);
  EXPECT_EQ(src, back);
}

INSTANTIATE_TEST_SUITE_P(Sizes, InterleaveSweep,
                         ::testing::Values(8, 16, 64, 72, 128, 1000, 4096,
                                           65536, 100000));

TEST(Interleave, KnownStripePattern) {
  // 16 bytes = 2 words; byte j of word w lands at chip j, position w.
  std::vector<std::uint8_t> src(16);
  std::iota(src.begin(), src.end(), 0);
  std::vector<std::uint8_t> dst(16);
  interleave_naive(src, dst);
  // per_chip = 2; dst[c*2 + w] = src[w*8 + c]
  EXPECT_EQ(dst[0], 0);   // chip 0, word 0
  EXPECT_EQ(dst[1], 8);   // chip 0, word 1
  EXPECT_EQ(dst[2], 1);   // chip 1, word 0
  EXPECT_EQ(dst[15], 15); // chip 7, word 1
}

TEST(Interleave, RejectsMisalignedSizes) {
  std::vector<std::uint8_t> a(7), b(7);
  EXPECT_THROW(interleave_naive(a, b), VpimError);
  std::vector<std::uint8_t> c(8), d(16);
  EXPECT_THROW(interleave_wide(c, d), VpimError);
}

// ------------------------------------------------------------ DPU kernels

DpuKernel make_sum_kernel() {
  DpuKernel k;
  k.name = "test_sum";
  k.symbols = {{"result", 8}, {"n_words", 4}};
  k.stages.push_back([](DpuCtx& ctx) {
    if (ctx.me() != 0) return;
    ctx.var<std::uint64_t>("result") = 0;
  });
  k.stages.push_back([](DpuCtx& ctx) {
    const std::uint32_t n_words = ctx.var<std::uint32_t>("n_words");
    const std::uint32_t per =
        (n_words + ctx.nr_tasklets() - 1) / ctx.nr_tasklets();
    const std::uint32_t begin = ctx.me() * per;
    const std::uint32_t end = std::min(n_words, begin + per);
    if (begin >= end) return;
    // Stream the partition through a 2 KiB WRAM block, as real DPU
    // kernels do (WRAM is only 64 KiB).
    constexpr std::uint32_t kBlockWords = 256;
    auto buf = ctx.mem_alloc(kBlockWords * 8);
    std::uint64_t local = 0;
    for (std::uint32_t w = begin; w < end; w += kBlockWords) {
      const std::uint32_t n = std::min(kBlockWords, end - w);
      ctx.mram_read(w * 8, buf.first(n * 8));
      for (std::uint32_t i = 0; i < n; ++i) {
        std::uint64_t v;
        std::memcpy(&v, buf.data() + i * 8, 8);
        local += v;
      }
    }
    ctx.exec(end - begin);
    // Stage-sequential tasklets make this accumulation race-free, the
    // same way UPMEM kernels guard it with a mutex or handshake.
    ctx.var<std::uint64_t>("result") += local;
  });
  return k;
}

TEST(DpuKernel, RegistryRejectsBadKernels) {
  DpuKernel empty;
  empty.name = "no_stages";
  EXPECT_THROW(KernelRegistry::instance().add(empty), VpimError);

  DpuKernel big = make_sum_kernel();
  big.name = "too_big";
  big.iram_bytes = kIramSize + 1;
  EXPECT_THROW(KernelRegistry::instance().add(big), VpimError);
}

TEST(DpuKernel, SumKernelComputesAndTakesTime) {
  KernelRegistry::instance().add(make_sum_kernel());
  test::TestRig rig(test::small_machine());
  auto& rank = rig.machine.rank(0);
  rank.ci_load("test_sum");

  // Fill DPU 0's MRAM with 1000 words of value 3.
  std::vector<std::uint8_t> data(8000);
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = 3;
    std::memcpy(data.data() + i * 8, &v, 8);
  }
  rank.mram(0).write(0, data);
  std::uint32_t n_words = 1000;
  rank.ci_copy_to_symbol(0, "n_words", 0,
                         {reinterpret_cast<std::uint8_t*>(&n_words), 4});

  rank.ci_launch(0b1, 16);
  EXPECT_TRUE(rank.ci_any_running());
  EXPECT_THROW((void)rank.mram(0), VpimError);  // busy DPU is off limits

  rig.clock.set(rank.busy_until());
  EXPECT_FALSE(rank.ci_any_running());

  std::uint64_t result = 0;
  rank.ci_copy_from_symbol(0, "result", 0,
                           {reinterpret_cast<std::uint8_t*>(&result), 8});
  EXPECT_EQ(result, 3000u);
  EXPECT_GT(rank.busy_until(), 0u);
}

TEST(DpuKernel, PipelineModelPenalizesFewTasklets) {
  KernelRegistry::instance().add(make_sum_kernel());
  test::TestRig rig(test::small_machine());
  auto& rank0 = rig.machine.rank(0);
  auto& rank1 = rig.machine.rank(1);

  std::vector<std::uint8_t> data(80000, 1);
  rank0.mram(0).write(0, data);
  rank1.mram(0).write(0, data);
  std::uint32_t n_words = 10000;

  rank0.ci_load("test_sum");
  rank0.ci_copy_to_symbol(0, "n_words", 0,
                          {reinterpret_cast<std::uint8_t*>(&n_words), 4});
  rank0.ci_launch(0b1, 1);  // single tasklet: pipeline underutilized
  const SimNs t1 = rank0.busy_until();

  rank1.ci_load("test_sum");
  rank1.ci_copy_to_symbol(0, "n_words", 0,
                          {reinterpret_cast<std::uint8_t*>(&n_words), 4});
  rank1.ci_launch(0b1, 16);  // >= 11 tasklets: full pipeline
  const SimNs t16 = rank1.busy_until();

  // The 11-cycle issue constraint makes the single-tasklet run several
  // times slower.
  EXPECT_GT(t1, 5 * t16);
}

TEST(DpuKernel, WramHeapExhaustionThrows) {
  DpuKernel k;
  k.name = "test_hog";
  k.stages.push_back([](DpuCtx& ctx) {
    if (ctx.me() == 0) ctx.mem_alloc(kWramSize + 1);
  });
  KernelRegistry::instance().add(k);

  test::TestRig rig(test::small_machine());
  auto& rank = rig.machine.rank(0);
  rank.ci_load("test_hog");
  EXPECT_THROW(rank.ci_launch(0b1, 1), VpimError);
}

// mem_alloc recycles its buffers across stages and launches on a host
// thread; every span must still come back zeroed, private and
// malloc-aligned, and the heap limit must stay byte-exact.

std::uint32_t nonzero_bytes(std::span<const std::uint8_t> buf) {
  return static_cast<std::uint32_t>(
      std::count_if(buf.begin(), buf.end(), [](auto b) { return b != 0; }));
}

// Every tasklet checks its fresh buffer, then dirties it for whoever
// gets the buffer next. Counts land in the "dirty"/"misaligned" symbols.
DpuKernel make_wram_recycle_kernel() {
  DpuKernel k;
  k.name = "test_wram_recycle";
  k.symbols = {{"dirty", 4}, {"misaligned", 4}};
  const StageFn stage = [](DpuCtx& ctx) {
    auto buf = ctx.mem_alloc(4096);
    ctx.var<std::uint32_t>("dirty") += nonzero_bytes(buf);
    const auto addr = reinterpret_cast<std::uintptr_t>(buf.data());
    if (addr % alignof(std::max_align_t) != 0) {
      ++ctx.var<std::uint32_t>("misaligned");
    }
    std::fill(buf.begin(), buf.end(), 0xFF);
  };
  k.stages = {stage, stage};
  return k;
}

std::uint32_t read_u32_symbol(Rank& rank, const std::string& name) {
  std::uint32_t v = 0;
  rank.ci_copy_from_symbol(0, name, 0,
                           {reinterpret_cast<std::uint8_t*>(&v), 4});
  return v;
}

TEST(DpuKernel, RecycledWramBuffersComeBackZeroed) {
  KernelRegistry::instance().add(make_wram_recycle_kernel());
  test::TestRig rig(test::small_machine());
  auto& rank = rig.machine.rank(0);
  rank.ci_load("test_wram_recycle");
  for (int launch = 0; launch < 2; ++launch) {
    rank.ci_launch(0b1, 4);
    rig.clock.set(rank.busy_until());
    EXPECT_EQ(read_u32_symbol(rank, "dirty"), 0u) << "launch " << launch;
    EXPECT_EQ(read_u32_symbol(rank, "misaligned"), 0u);
  }
}

TEST(DpuKernel, WramAllocationsInOneStageDoNotAlias) {
  DpuKernel k;
  k.name = "test_wram_alias";
  k.symbols = {{"bad", 4}};
  const StageFn stage = [](DpuCtx& ctx) {
    auto a = ctx.mem_alloc(1024);
    auto b = ctx.mem_alloc(1024);
    std::fill(a.begin(), a.end(), 0xAA);
    std::fill(b.begin(), b.end(), 0x55);
    const bool disjoint = a.data() + a.size() <= b.data() ||
                          b.data() + b.size() <= a.data();
    const auto stray = std::count_if(a.begin(), a.end(),
                                     [](auto v) { return v != 0xAA; });
    ctx.var<std::uint32_t>("bad") +=
        (disjoint ? 0u : 1u) + static_cast<std::uint32_t>(stray);
  };
  k.stages = {stage, stage};
  KernelRegistry::instance().add(k);

  test::TestRig rig(test::small_machine());
  auto& rank = rig.machine.rank(0);
  rank.ci_load("test_wram_alias");
  rank.ci_launch(0b1, 8);
  rig.clock.set(rank.busy_until());
  EXPECT_EQ(read_u32_symbol(rank, "bad"), 0u);
}

TEST(DpuKernel, WramHeapExactFitSucceedsOneMoreByteThrows) {
  // An 8-byte symbol leaves kWramSize - 8 bytes of heap.
  constexpr std::uint32_t kHeap = kWramSize - 8;
  const auto fill_heap = [](DpuCtx& ctx) {
    if (ctx.me() != 0) return;
    ctx.mem_alloc(kHeap - 100);
    ctx.mem_alloc(100);
  };
  DpuKernel fit;
  fit.name = "test_wram_exact_fit";
  fit.symbols = {{"pad", 8}};
  fit.stages = {fill_heap, fill_heap};  // released at the barrier
  KernelRegistry::instance().add(fit);
  const StageFn overfill = [fill_heap](DpuCtx& ctx) {
    fill_heap(ctx);
    if (ctx.me() == 0) ctx.mem_alloc(1);
  };
  DpuKernel over = fit;
  over.name = "test_wram_one_over";
  over.stages = {overfill};
  KernelRegistry::instance().add(over);

  test::TestRig rig(test::small_machine());
  auto& rank = rig.machine.rank(0);
  rank.ci_load("test_wram_exact_fit");
  EXPECT_NO_THROW(rank.ci_launch(0b1, 1));
  rig.clock.set(rank.busy_until());
  rank.ci_load("test_wram_one_over");
  EXPECT_THROW(rank.ci_launch(0b1, 1), VpimError);
}

// ------------------------------------------------------------------ rank

// One DMA charges a fixed 64 cycles plus floor(cycles_per_byte * n), with
// cycles_per_byte = dpu_hz / (mram_dma_gbps * 1e9): 0.35 at the defaults.
TEST(DpuKernel, DmaChargesFixedPlusStreamingCycles) {
  const CostModel cost;
  const double cycles_per_byte = cost.dpu_hz / (cost.mram_dma_gbps * 1e9);
  Dpu dpu;
  std::vector<std::uint8_t> buf(2048);
  dpu.mram().write(0, buf);
  for (const auto& [bytes, cycles] :
       {std::pair<std::size_t, std::uint64_t>{1, 64},
        {16, 69},
        {2048, 780}}) {
    const auto streaming = static_cast<std::uint64_t>(
        std::floor(cycles_per_byte * static_cast<double>(bytes)));
    EXPECT_EQ(cycles, 64 + streaming) << bytes << " bytes";
    for (const bool write : {false, true}) {
      DpuCtx ctx(dpu, 1, cost);
      ctx.begin_stage();
      ctx.set_tasklet(0);
      const std::span<std::uint8_t> wram(buf.data(), bytes);
      if (write) {
        ctx.mram_write(wram, 0);
      } else {
        ctx.mram_read(0, wram);
      }
      // One busy tasklet: its instructions issue kPipelineDepth apart.
      EXPECT_EQ(ctx.stage_cycles(), kPipelineDepth * cycles)
          << bytes << (write ? "-byte write" : "-byte read");
    }
  }
}

TEST(Rank, MaskValidation) {
  test::TestRig rig(test::small_machine());  // 8 DPUs per rank
  auto& rank = rig.machine.rank(0);
  KernelRegistry::instance().add(make_sum_kernel());
  rank.ci_load("test_sum");
  EXPECT_THROW(rank.ci_launch(1ULL << 8), VpimError);  // beyond DPU count
}

TEST(Rank, ResetClearsEverything) {
  test::TestRig rig(test::small_machine());
  auto& rank = rig.machine.rank(0);
  std::vector<std::uint8_t> data(64, 9);
  rank.mram(0).write(0, data);
  rank.reset_memory();
  std::vector<std::uint8_t> out(64, 1);
  rank.mram(0).read(0, out);
  for (auto b : out) EXPECT_EQ(b, 0);
}

TEST(Machine, PaperGeometry) {
  test::TestRig rig;  // defaults: 8 ranks x 60 DPUs
  EXPECT_EQ(rig.machine.nr_ranks(), 8u);
  EXPECT_EQ(rig.machine.total_dpus(), 480u);
}

}  // namespace
}  // namespace vpim::upmem
