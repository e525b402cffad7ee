#include "common/rng.h"

namespace vpim {
namespace {

// MT19937-64 parameters ([rand.predef] mt19937_64).
constexpr std::size_t kM = 156;
constexpr unsigned kR = 31;
constexpr std::uint64_t kA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kD = 0x5555555555555555ULL;
constexpr std::uint64_t kB = 0x71d67fffeda60000ULL;
constexpr std::uint64_t kC = 0xfff7eee000000000ULL;
constexpr std::uint64_t kF = 6364136223846793005ULL;
constexpr std::uint64_t kUpper = ~std::uint64_t{0} << kR;
constexpr std::uint64_t kLower = ~kUpper;

inline std::uint64_t twist(std::uint64_t hi, std::uint64_t lo,
                           std::uint64_t far) {
  const std::uint64_t y = (hi & kUpper) | (lo & kLower);
  // A mask, not a branch: the low bit is a coin flip, so a branch would
  // mispredict half the time, and the mask lets the loops vectorize.
  return far ^ (y >> 1) ^ (kA & (0 - (y & 1)));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i)
    state_[i] = kF * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
}

void Rng::refill() {
  // Three straight segments, so each loop has fixed strides: the first
  // reads words m ahead that are not yet twisted, the second reads words
  // n - m behind that already are, the last wraps to word 0.
  std::size_t k = 0;
  for (; k < kN - kM; ++k)
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kM]);
  for (; k < kN - 1; ++k)
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kM - kN]);
  state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);

  for (std::size_t i = 0; i < kN; ++i) {
    std::uint64_t z = state_[i];
    z ^= (z >> 29) & kD;
    z ^= (z << 17) & kB;
    z ^= (z << 37) & kC;
    z ^= z >> 43;
    out_[i] = z;
  }
  next_ = 0;
}

}  // namespace vpim
