// The paper's pathological small-transfer workloads.
//
// NW (Needleman-Wunsch): wavefront-blocked dynamic programming where every
// block exchanges ~520-byte boundaries with the host — the workload with
// the paper's headline 53x unoptimized overhead (Fig 14).
//
// TRNS (matrix transposition): tile-by-tile transposition driven by a
// large number of ~1 KiB writes and reads (§5.2 fifth observation).
#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "prim/apps.h"
#include "prim/nw_tile.h"
#include "prim/util.h"
#include "upmem/kernel.h"

namespace vpim::prim {
namespace {

using driver::XferDirection;
using sdk::DpuSet;
using sdk::Target;
using upmem::DpuCtx;
using upmem::DpuKernel;
using upmem::KernelRegistry;

// ------------------------------------------------------------------- NW

constexpr std::uint32_t kNwBlock = 128;  // DP block edge (cells)

struct NwArgs {
  std::uint64_t a_off = 0;
  std::uint64_t b_off = 0;
  std::uint64_t in_off = 0;
  std::uint64_t out_off = 0;
  // The per-wavefront slot count is NOT a WRAM symbol: the host writes it
  // into MRAM alongside the boundary data so it rides the batched small
  // writes instead of costing a CI round trip per DPU per wavefront.
  std::uint64_t nblocks_off = 0;
};

// ~524-byte input boundary per block; ~516-byte output.
struct NwSlotIn {
  std::uint32_t a_base = 0;  // row block origin in A
  std::uint32_t b_base = 0;  // col block origin in B
  std::int32_t top[kNwBlock + 1];  // H[row0][col0 .. col0+B]
  std::int32_t left[kNwBlock];     // H[row0+1 .. row0+B][col0]
};
struct NwSlotOut {
  std::int32_t bottom[kNwBlock + 1];  // H[row0+B][col0 .. col0+B]
  std::int32_t right[kNwBlock];       // H[row0+1 .. row0+B][col0+B]
};

// One anti-diagonal run of n cells. cur[t] holds the cell's diagonal
// neighbour H[i-1][j-1] and receives H[i][j]; prev[t] and prev[t + 1] are
// its upper and left neighbours H[i-1][j] and H[i][j-1].
void nw_diagonal(std::int32_t* __restrict cur,
                 const std::int32_t* __restrict prev,
                 const std::uint8_t* __restrict a,
                 const std::uint8_t* __restrict b_rev, std::size_t n) {
  for (std::size_t t = 0; t < n; ++t) {
    const std::int32_t sub =
        cur[t] + (a[t] == b_rev[t] ? kNwMatch : kNwMismatch);
    cur[t] = std::max(sub, std::max(prev[t], prev[t + 1]) + kNwGap);
  }
}

void nw_load_nblocks(DpuCtx& ctx) {
  if (ctx.me() != 0) return;
  const auto args = ctx.var<NwArgs>("nw_args");
  std::uint32_t n = 0;
  ctx.mram_read(args.nblocks_off, bytes_of(n));
  ctx.var<std::uint32_t>("nw_nblocks") = n;
}

void nw_stage(DpuCtx& ctx) {
  const std::uint32_t nblocks = ctx.var<std::uint32_t>("nw_nblocks");
  const auto [sb, se] = partition(nblocks, ctx.nr_tasklets(), ctx.me());
  if (sb >= se) return;
  const auto args = ctx.var<NwArgs>("nw_args");
  auto in_buf = ctx.mem_alloc(sizeof(NwSlotIn));
  auto out_buf = ctx.mem_alloc(sizeof(NwSlotOut));
  auto a_buf = ctx.mem_alloc(kNwBlock);
  auto b_buf = ctx.mem_alloc(kNwBlock);
  // Two anti-diagonals, 1032 B. Every busy tasklet holds all five buffers,
  // and 19 busy tasklets must still fit the WRAM heap.
  auto scratch = as<std::int32_t>(ctx.mem_alloc(
      nw_tile_scratch(kNwBlock, kNwBlock) * sizeof(std::int32_t)));

  for (std::uint64_t s = sb; s < se; ++s) {
    ctx.mram_read(args.in_off + s * sizeof(NwSlotIn), in_buf);
    NwSlotIn in;
    std::memcpy(&in, in_buf.data(), sizeof(in));
    ctx.mram_read(args.a_off + in.a_base, a_buf);
    ctx.mram_read(args.b_off + in.b_base, b_buf);
    std::reverse(b_buf.begin(), b_buf.end());  // nw_tile takes b reversed

    NwSlotOut out;
    nw_tile(a_buf, b_buf, in.top, in.left, out.bottom, out.right, scratch);
    ctx.exec(std::uint64_t{kNwBlock} * kNwBlock);
    std::memcpy(out_buf.data(), &out, sizeof(out));
    ctx.mram_write(out_buf, args.out_off + s * sizeof(NwSlotOut));
  }
}

class NwApp final : public PrimApp {
 public:
  std::string_view name() const override { return "NW"; }

  AppResult run(sdk::Platform& p, const AppParams& prm) override {
    register_heavy_kernels();
    AppResult res;
    res.app = "NW";
    const std::uint32_t nb = std::max<std::uint32_t>(
        2, static_cast<std::uint32_t>(
               detail::scaled_elems(16, prm.scale, 1, 1)));
    const std::uint32_t n = nb * kNwBlock;  // sequence length

    Rng rng(prm.seed);
    auto a = p.alloc(n);
    auto b = p.alloc(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      a[i] = static_cast<std::uint8_t>(rng.uniform('A', 'D'));
      b[i] = static_cast<std::uint8_t>(rng.uniform('A', 'D'));
    }

    auto set = DpuSet::allocate(p, prm.nr_dpus);
    set.load("prim_nw");
    const std::uint64_t a_off = 0;
    const std::uint64_t b_off = round_up8(n);
    const std::uint64_t in_off = b_off + round_up8(n);
    const std::uint32_t max_slots =
        (nb + prm.nr_dpus - 1) / prm.nr_dpus;
    const std::uint64_t out_off =
        in_off + round_up8(std::uint64_t{max_slots} * sizeof(NwSlotIn));
    const std::uint64_t nblocks_off =
        out_off + round_up8(std::uint64_t{max_slots} * sizeof(NwSlotOut));

    {
      SegmentScope s(p.clock(), res.breakdown, Segment::kCpuDpu);
      set.broadcast(Target::mram(a_off), a);
      set.broadcast(Target::mram(b_off), b);
      std::vector<NwArgs> args(
          prm.nr_dpus, {a_off, b_off, in_off, out_off, nblocks_off});
      push_symbol(set, "nw_args", args);
    }

    // Host-side boundary store.
    std::vector<std::vector<std::int32_t>> bottom(
        std::uint64_t{nb} * nb), right(std::uint64_t{nb} * nb);
    auto idx = [&](std::uint32_t bi, std::uint32_t bj) {
      return std::uint64_t{bi} * nb + bj;
    };

    auto in_stage = p.alloc(sizeof(NwSlotIn));
    auto out_stage = p.alloc(sizeof(NwSlotOut));

    // PrIM's NW moves boundaries element-wise: >650k operations of ~160
    // bytes at full scale. We transfer each slot in 160-byte chunks to
    // reproduce that op-size distribution.
    const std::uint64_t kChunk = std::max<std::uint64_t>(
        8, static_cast<std::uint64_t>(104 * prm.xfer_grain) / 8 * 8);
    auto chunked_write = [&](std::uint32_t dpu, std::uint64_t off,
                             std::span<const std::uint8_t> data) {
      for (std::uint64_t o = 0; o < data.size(); o += kChunk) {
        const std::uint64_t n = std::min(kChunk, data.size() - o);
        std::memcpy(in_stage.data(), data.data() + o, n);
        set.copy_to(dpu, Target::mram(off + o), in_stage.first(n));
      }
    };
    auto chunked_read = [&](std::uint32_t dpu, std::uint64_t off,
                            std::span<std::uint8_t> out) {
      for (std::uint64_t o = 0; o < out.size(); o += kChunk) {
        const std::uint64_t n = std::min(kChunk, out.size() - o);
        set.copy_from(dpu, Target::mram(off + o), out_stage.first(n));
        std::memcpy(out.data() + o, out_stage.data(), n);
      }
    };

    for (std::uint32_t d = 0; d <= 2 * (nb - 1); ++d) {
      // Blocks on this anti-diagonal, assigned round-robin to DPUs.
      std::vector<std::pair<std::uint32_t, std::uint32_t>> blocks;
      for (std::uint32_t bi = 0; bi < nb; ++bi) {
        if (d < bi || d - bi >= nb) continue;
        blocks.emplace_back(bi, d - bi);
      }
      std::vector<std::uint32_t> slots(prm.nr_dpus, 0);
      std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
          assigned(prm.nr_dpus);
      {
        SegmentScope s(p.clock(), res.breakdown, Segment::kInterDpu);
        for (std::size_t k = 0; k < blocks.size(); ++k) {
          const auto [bi, bj] = blocks[k];
          const auto dpu =
              static_cast<std::uint32_t>(k % prm.nr_dpus);
          const std::uint32_t slot = slots[dpu]++;
          assigned[dpu].push_back(blocks[k]);

          NwSlotIn in;
          in.a_base = bi * kNwBlock;
          in.b_base = bj * kNwBlock;
          for (std::uint32_t j = 0; j <= kNwBlock; ++j) {
            in.top[j] = bi == 0 ? -static_cast<std::int32_t>(
                                      in.b_base + j) * 1
                                : bottom[idx(bi - 1, bj)][j];
          }
          for (std::uint32_t i = 0; i < kNwBlock; ++i) {
            in.left[i] = bj == 0 ? -static_cast<std::int32_t>(
                                       in.a_base + i + 1) * 1
                                 : right[idx(bi, bj - 1)][i];
          }
          // Several small write-to-rank operations per block (~160 B
          // each), like the element-wise PrIM implementation.
          chunked_write(dpu, in_off + slot * sizeof(NwSlotIn),
                        {reinterpret_cast<const std::uint8_t*>(&in),
                         sizeof(in)});
        }
        // Per-DPU slot counts travel as small MRAM writes (batched).
        for (std::uint32_t dpu = 0; dpu < prm.nr_dpus; ++dpu) {
          std::memcpy(in_stage.data(), &slots[dpu], 4);
          set.copy_to(dpu, Target::mram(nblocks_off), in_stage.first(4));
        }
      }
      {
        SegmentScope s(p.clock(), res.breakdown, Segment::kDpu);
        set.launch(prm.nr_tasklets);
      }
      {
        SegmentScope s(p.clock(), res.breakdown, Segment::kDpuCpu);
        for (std::uint32_t dpu = 0; dpu < prm.nr_dpus; ++dpu) {
          for (std::uint32_t slot = 0; slot < slots[dpu]; ++slot) {
            // Several small read-from-rank operations per block.
            NwSlotOut out;
            chunked_read(dpu, out_off + slot * sizeof(NwSlotOut),
                         {reinterpret_cast<std::uint8_t*>(&out),
                          sizeof(out)});
            const auto [bi, bj] = assigned[dpu][slot];
            bottom[idx(bi, bj)].assign(out.bottom,
                                       out.bottom + kNwBlock + 1);
            right[idx(bi, bj)].assign(out.right, out.right + kNwBlock);
          }
        }
      }
    }
    set.free();

    // CPU reference: the whole (n+1)^2 matrix as one tile, so it never
    // shares the kernel's block decomposition. Its sweep checkpoints every
    // block-boundary row and column of H.
    const std::vector<std::uint8_t> b_rev(b.rbegin(), b.rend());
    std::vector<std::int32_t> top(n + 1), left(n), last_row(n + 1),
        last_col(n), scratch(nw_tile_scratch(n, n));
    for (std::uint32_t j = 0; j <= n; ++j) {
      top[j] = -static_cast<std::int32_t>(j);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      left[i] = -static_cast<std::int32_t>(i + 1);
    }
    // The checkpoints take 2 nb n cells (256 KiB at full scale); a buffer
    // kept per thread spares each run an mmap and its page faults. The
    // sweep overwrites every cell.
    thread_local std::vector<std::int32_t> checkpoints;
    checkpoints.resize(std::uint64_t{nb} * (2 * n + 1));
    const std::span<std::int32_t> rows =
        std::span(checkpoints).first(std::uint64_t{nb} * (n + 1));
    const std::span<std::int32_t> cols =
        std::span(checkpoints).subspan(rows.size());
    nw_tile(a, b_rev, top, left, last_row, last_col, scratch,
            {kNwBlock, rows, cols});
    // Every block's bottom and right edges are cells of the reference's
    // checkpoint rows and columns.
    res.correct = true;
    for (std::uint32_t bi = 0; bi < nb; ++bi) {
      for (std::uint32_t bj = 0; bj < nb; ++bj) {
        const auto row = rows.begin() + std::uint64_t{bi} * (n + 1) +
                         std::uint64_t{bj} * kNwBlock;
        const auto col = cols.begin() + std::uint64_t{bj} * n +
                         std::uint64_t{bi} * kNwBlock;
        const auto& kernel_row = bottom[idx(bi, bj)];
        const auto& kernel_col = right[idx(bi, bj)];
        res.correct &= std::equal(kernel_row.begin(), kernel_row.end(), row,
                                  row + kNwBlock + 1) &&
                       std::equal(kernel_col.begin(), kernel_col.end(), col,
                                  col + kNwBlock);
      }
    }
    return res;
  }
};

// ------------------------------------------------------------------ TRNS

constexpr std::uint32_t kTile = 16;  // 16x16 i32 tiles (1 KiB)

struct TrnsArgs {
  std::uint32_t ntiles = 0;
  std::uint64_t tiles_off = 0;
};

void trns_stage(DpuCtx& ctx) {
  const auto args = ctx.var<TrnsArgs>("trns_args");
  const auto [tb, te] = partition(args.ntiles, ctx.nr_tasklets(), ctx.me());
  if (tb >= te) return;
  constexpr std::uint32_t kTileBytes = kTile * kTile * 4;
  auto in_buf = ctx.mem_alloc(kTileBytes);
  auto out_buf = ctx.mem_alloc(kTileBytes);
  for (std::uint64_t t = tb; t < te; ++t) {
    ctx.mram_read(args.tiles_off + t * kTileBytes, in_buf);
    auto in = as<std::int32_t>(in_buf);
    auto out = as<std::int32_t>(out_buf);
    for (std::uint32_t r = 0; r < kTile; ++r) {
      for (std::uint32_t c = 0; c < kTile; ++c) {
        out[c * kTile + r] = in[r * kTile + c];
      }
    }
    ctx.exec(kTile * kTile);
    ctx.mram_write(out_buf, args.tiles_off + t * kTileBytes);
  }
}

class TrnsApp final : public PrimApp {
 public:
  std::string_view name() const override { return "TRNS"; }

  AppResult run(sdk::Platform& p, const AppParams& prm) override {
    register_heavy_kernels();
    AppResult res;
    res.app = "TRNS";
    const auto dim = static_cast<std::uint32_t>(detail::scaled_elems(
        2048, std::sqrt(prm.scale), 1, kTile));
    const std::uint32_t tiles_per_side = dim / kTile;
    const std::uint64_t ntiles =
        std::uint64_t{tiles_per_side} * tiles_per_side;
    constexpr std::uint32_t kTileBytes = kTile * kTile * 4;

    Rng rng(prm.seed);
    auto in = as<std::int32_t>(
        p.alloc(std::uint64_t{dim} * dim * 4));
    auto out = as<std::int32_t>(
        p.alloc(std::uint64_t{dim} * dim * 4));
    for (auto& v : in) {
      v = static_cast<std::int32_t>(rng.uniform(-100000, 100000));
    }

    auto set = DpuSet::allocate(p, prm.nr_dpus);
    set.load("prim_trns");

    auto stage = p.alloc(kTileBytes);
    std::vector<std::uint32_t> slots(prm.nr_dpus, 0);
    {
      // One ~1 KiB write-to-rank per tile (the paper's 980k x 512 B
      // pattern at full scale).
      SegmentScope s(p.clock(), res.breakdown, Segment::kCpuDpu);
      for (std::uint64_t t = 0; t < ntiles; ++t) {
        const std::uint32_t ti =
            static_cast<std::uint32_t>(t / tiles_per_side);
        const std::uint32_t tj =
            static_cast<std::uint32_t>(t % tiles_per_side);
        auto tile = as<std::int32_t>(stage);
        for (std::uint32_t r = 0; r < kTile; ++r) {
          std::memcpy(&tile[r * kTile],
                      &in[(std::uint64_t{ti} * kTile + r) * dim +
                          std::uint64_t{tj} * kTile],
                      kTile * 4);
        }
        const auto dpu = static_cast<std::uint32_t>(t % prm.nr_dpus);
        set.copy_to(dpu,
                    Target::mram(std::uint64_t{slots[dpu]} * kTileBytes),
                    stage);
        slots[dpu]++;
      }
      std::vector<TrnsArgs> args(prm.nr_dpus);
      for (std::uint32_t dpu = 0; dpu < prm.nr_dpus; ++dpu) {
        args[dpu] = {slots[dpu], 0};
      }
      push_symbol(set, "trns_args", args);
    }
    {
      SegmentScope s(p.clock(), res.breakdown, Segment::kDpu);
      set.launch(prm.nr_tasklets);
    }
    {
      // One ~1 KiB read-from-rank per tile.
      SegmentScope s(p.clock(), res.breakdown, Segment::kDpuCpu);
      std::fill(slots.begin(), slots.end(), 0);
      for (std::uint64_t t = 0; t < ntiles; ++t) {
        const std::uint32_t ti =
            static_cast<std::uint32_t>(t / tiles_per_side);
        const std::uint32_t tj =
            static_cast<std::uint32_t>(t % tiles_per_side);
        const auto dpu = static_cast<std::uint32_t>(t % prm.nr_dpus);
        set.copy_from(
            dpu, Target::mram(std::uint64_t{slots[dpu]} * kTileBytes),
            stage);
        slots[dpu]++;
        auto tile = as<std::int32_t>(stage);
        for (std::uint32_t r = 0; r < kTile; ++r) {
          std::memcpy(&out[(std::uint64_t{tj} * kTile + r) * dim +
                           std::uint64_t{ti} * kTile],
                      &tile[r * kTile], kTile * 4);
        }
      }
    }
    set.free();

    res.correct = true;
    for (std::uint32_t r = 0; r < dim && res.correct; ++r) {
      for (std::uint32_t c = 0; c < dim; ++c) {
        if (out[std::uint64_t{c} * dim + r] !=
            in[std::uint64_t{r} * dim + c]) {
          res.correct = false;
          break;
        }
      }
    }
    return res;
  }
};

}  // namespace

void nw_tile(std::span<const std::uint8_t> a,
             std::span<const std::uint8_t> b_rev,
             std::span<const std::int32_t> top,
             std::span<const std::int32_t> left,
             std::span<std::int32_t> bottom, std::span<std::int32_t> right,
             std::span<std::int32_t> scratch,
             const NwCheckpoints& checkpoints) {
  const auto na = static_cast<std::uint32_t>(a.size());
  const auto nb = static_cast<std::uint32_t>(b_rev.size());
  VPIM_CHECK(na >= 1 && nb >= 1 && top.size() == nb + 1 &&
                 left.size() == na && bottom.size() == nb + 1 &&
                 right.size() == na &&
                 scratch.size() >= nw_tile_scratch(na, nb),
             "nw_tile: boundary or scratch does not fit the tile");
  const std::uint32_t s = checkpoints.stride;
  VPIM_CHECK(s == 0 || (checkpoints.rows.size() ==
                            std::size_t{na / s} * (nb + 1) &&
                        checkpoints.cols.size() == std::size_t{nb / s} * na),
             "nw_tile: checkpoints do not fit the tile");
  // Anti-diagonal k holds the cells H[i][k-i]. It lives in the scratch half
  // of k's parity, with H[i][k-i] at element i - k/2 + nb/2. So each new
  // cell overwrites its own diagonal neighbour H[i-1][k-i-1], which no
  // later cell reads, and two diagonals fit in the space of two rows.
  std::int32_t* const diag[2] = {scratch.data(),
                                 scratch.data() + nw_tile_scratch(na, nb) / 2};
  const std::ptrdiff_t mid = nb / 2;
  diag[0][mid] = top[0];
  bottom[0] = left[na - 1];
  for (std::uint32_t k = 1; k <= na + nb; ++k) {
    // H[i][k-i] is cur[i + at]; H[i][k-1-i] is prev[i + prev_at].
    std::int32_t* const cur = diag[k % 2];
    const std::int32_t* const prev = diag[(k + 1) % 2];
    const std::ptrdiff_t at = mid - k / 2;
    const std::ptrdiff_t prev_at = mid - (k - 1) / 2;
    // Interior cells of this diagonal: rows lo..hi.
    const std::uint32_t lo = k > nb ? k - nb : 1;
    const std::uint32_t hi = std::min(na, k - 1);
    if (lo <= hi) {
      nw_diagonal(cur + (lo + at), prev + (lo - 1 + prev_at),
                  a.data() + lo - 1, b_rev.data() + (lo + nb - k),
                  hi - lo + 1);
    }
    if (k <= nb) cur[at] = top[k];
    if (k <= na) cur[k + at] = left[k - 1];
    if (k > nb) right[k - nb - 1] = cur[k - nb + at];
    if (k > na) bottom[k - na] = cur[na + at];
    if (s == 0) continue;
    // Checkpoint rows i = s*r crossing this diagonal at column k - i in
    // [0, nb], and checkpoint columns j = s*c at row k - j in [1, na].
    const std::uint32_t row_lo = k > nb ? k - nb : 1;
    for (std::uint32_t i = (row_lo + s - 1) / s * s; i <= std::min(na, k);
         i += s) {
      checkpoints.rows[std::size_t{i / s - 1} * (nb + 1) + (k - i)] =
          cur[i + at];
    }
    const std::uint32_t col_lo = k > na ? k - na : 1;
    for (std::uint32_t j = (col_lo + s - 1) / s * s;
         j <= std::min(nb, k - 1); j += s) {
      checkpoints.cols[std::size_t{j / s - 1} * na + (k - j - 1)] =
          cur[k - j + at];
    }
  }
}

void register_heavy_kernels() {
  auto& registry = KernelRegistry::instance();
  if (registry.contains("prim_nw")) return;

  DpuKernel nw;
  nw.name = "prim_nw";
  nw.symbols = {{"nw_args", sizeof(NwArgs)}, {"nw_nblocks", 4}};
  nw.stages = {nw_load_nblocks, nw_stage};
  registry.add(std::move(nw));

  DpuKernel trns;
  trns.name = "prim_trns";
  trns.symbols = {{"trns_args", sizeof(TrnsArgs)}};
  trns.stages = {trns_stage};
  registry.add(std::move(trns));
}

std::unique_ptr<PrimApp> make_nw() { return std::make_unique<NwApp>(); }
std::unique_ptr<PrimApp> make_trns() { return std::make_unique<TrnsApp>(); }

}  // namespace vpim::prim
