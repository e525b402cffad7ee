// The Needleman-Wunsch dynamic program of the NW application, shared by its
// DPU kernel (one 128 x 128 block at a time) and its host CPU reference
// (the whole matrix as a single tile).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace vpim::prim {

inline constexpr std::int32_t kNwMatch = 1, kNwMismatch = -1, kNwGap = -1;

// int32 scratch elements nw_tile needs for an na x nb tile: two rolling
// anti-diagonals. For 128 x 128 that is 258, the size of two rows.
constexpr std::size_t nw_tile_scratch(std::uint32_t na, std::uint32_t nb) {
  return 2 * (std::size_t{(na + 1) / 2} + nb / 2 + 1);
}

// Fills the tile H[1..na][1..nb] of the NW score matrix, where
//   H[i][j] = max(H[i-1][j-1] + (a[i-1] == b[j-1] ? kNwMatch : kNwMismatch),
//                 H[i-1][j] + kNwGap, H[i][j-1] + kNwGap),
// from its boundary top = H[0][0..nb] and left = H[1..na][0], and writes
// its edges bottom = H[na][0..nb] and right = H[1..na][nb].
//
// na = a.size() and nb = b_rev.size(), both at least 1; b_rev holds b
// reversed. The sweep goes by anti-diagonals, whose cells are independent,
// so the inner loop runs over contiguous a, b_rev and diagonal elements and
// vectorizes. `scratch` holds at least nw_tile_scratch(na, nb) elements.
//
// With stride s > 0, the sweep also copies out every s-th row and column:
// rows receives H[s*r][0..nb] for r = 1..na/s, nb + 1 cells each, and cols
// receives H[1..na][s*c] for c = 1..nb/s, na cells each. Each anti-diagonal
// crosses each of them once.
struct NwCheckpoints {
  std::uint32_t stride = 0;
  std::span<std::int32_t> rows;
  std::span<std::int32_t> cols;
};

void nw_tile(std::span<const std::uint8_t> a,
             std::span<const std::uint8_t> b_rev,
             std::span<const std::int32_t> top,
             std::span<const std::int32_t> left,
             std::span<std::int32_t> bottom, std::span<std::int32_t> right,
             std::span<std::int32_t> scratch,
             const NwCheckpoints& checkpoints = {});

}  // namespace vpim::prim
