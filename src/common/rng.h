// Seeded deterministic RNG helpers. All workload generators take an explicit
// seed so every experiment is reproducible run to run.
//
// The engine is MT19937-64, whose output for a given seed the C++ standard
// fully specifies ([rand.eng.mers]; the same stream as std::mt19937_64).
// It refills a block of 312 tempered words at a time, so a draw is a load
// and an index bump. The bounded and real draws are written here too, and
// match GCC 12's libstdc++ uniform_int_distribution<int64_t> and
// uniform_real_distribution<double> draw for draw, so every dataset is the
// one those distributions produced without depending on the standard
// library's choice of algorithm. tests/common_test.cc pins both.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace vpim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t next_u64() {
    if (next_ == kN) refill();
    return out_[next_++];
  }

  // Uniform integer in [lo, hi] inclusive: Lemire's nearly-divisionless
  // draw with a 128-bit product. A full 64-bit range is the raw draw.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t range =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    const std::uint64_t r = range == UINT64_MAX ? next_u64() : below(range + 1);
    return static_cast<std::int64_t>(r + static_cast<std::uint64_t>(lo));
  }

  // Uniform double in [lo, hi): a 53-bit-rounded draw · 2⁻⁶⁴, kept below 1,
  // scaled into the range.
  double uniform_real(double lo, double hi) {
    double u = static_cast<double>(next_u64()) * 0x1p-64;
    if (u >= 1.0) u = 0x1.fffffffffffffp-1;
    return u * (hi - lo) + lo;
  }

  // Fills `out` with pseudo-random bytes: the draws' bytes in order, with a
  // whole draw spent on a tail shorter than eight bytes.
  void fill_bytes(std::uint8_t* out, std::size_t n) {
    while (n >= 8) {
      if (next_ == kN) refill();
      const std::size_t words = std::min(n / 8, kN - next_);
      std::memcpy(out, out_ + next_, words * 8);
      next_ += words;
      out += words * 8;
      n -= words * 8;
    }
    if (n > 0) {
      const std::uint64_t v = next_u64();
      std::memcpy(out, &v, n);
    }
  }

  // Zipfian rank in [0, n) with exponent `s`; used by the synthetic
  // Wikipedia corpus so term frequencies look like natural language.
  std::size_t zipf(std::size_t n, double s = 1.0) {
    // Rejection-inversion would be overkill for corpus generation; a
    // cached-CDF draw is fine at our corpus sizes.
    if (cdf_.size() != n || cdf_s_ != s) {
      cdf_.resize(n);
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = sum;
      }
      for (auto& v : cdf_) v /= sum;
      cdf_s_ = s;
    }
    double u = uniform_real(0.0, 1.0);
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  static constexpr std::size_t kN = 312;  // state words

  // Uniform in [0, n), n > 0.
  std::uint64_t below(std::uint64_t n) {
    unsigned __int128 product =
        static_cast<unsigned __int128>(next_u64()) * n;
    auto low = static_cast<std::uint64_t>(product);
    if (low < n) {
      const std::uint64_t threshold = -n % n;
      while (low < threshold) {
        product = static_cast<unsigned __int128>(next_u64()) * n;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

  // Twists the state once and tempers all of it into out_.
  void refill();

  std::uint64_t state_[kN];
  std::uint64_t out_[kN] = {};
  std::size_t next_ = kN;
  std::vector<double> cdf_;
  double cdf_s_ = 0.0;
};

}  // namespace vpim
