#include "util/rng.hpp"

#include <cmath>

#include "util/error.hpp"

namespace charlie::util {
namespace {

// splitmix64 finalizer (Steele/Lea/Flood): full-avalanche 64-bit mix.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    // Two mix rounds keyed by (seed, stream) decorrelate adjacent streams and
    // adjacent seeds; without the second round, streams for (s, i) and
    // (s+1, i-1) style key pairs would share long prefixes.
    : state_(mix64(mix64(seed + kGamma) ^ (stream * kGamma + 1))) {}

std::uint64_t Rng::next_u64() {
  state_ += kGamma;
  return mix64(state_);
}

double Rng::uniform01() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  CHARLIE_ASSERT(lo <= hi);
  // For many (lo, hi), e.g. [0.5, 1), the largest uniform01() rounds to hi.
  const double r = lo + (hi - lo) * uniform01();
  return r < hi ? r : std::nextafter(hi, lo);
}

double Rng::normal(double mu, double sigma) {
  CHARLIE_ASSERT(sigma >= 0.0);
  if (sigma == 0.0) return mu;
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mu + sigma * cached_normal_;
  }
  // Marsaglia's polar method: a point uniform in the unit disc (rejection
  // from the square, acceptance pi/4) maps to two independent standard
  // normals u * f and v * f.
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = 2.0 * uniform01() - 1.0;
    v = 2.0 * uniform01() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * f;
  has_cached_normal_ = true;
  return mu + sigma * (u * f);
}

double Rng::normal_above(double mu, double sigma, double lo) {
  CHARLIE_ASSERT_MSG(lo < mu + 8.0 * sigma || sigma == 0.0,
                     "truncation bound too far in the tail");
  if (sigma == 0.0) return mu > lo ? mu : lo;
  for (int attempt = 0; attempt < 10000; ++attempt) {
    const double v = normal(mu, sigma);
    if (v > lo) return v;
  }
  return lo + (mu > lo ? mu - lo : sigma);  // pathological sigma: clamp
}

double Rng::normal_clamped(double mu, double sigma, double max_sigma) {
  CHARLIE_ASSERT(max_sigma > 0.0);
  double z = normal(0.0, 1.0);
  if (z < -max_sigma) z = -max_sigma;
  if (z > max_sigma) z = max_sigma;
  return mu + sigma * z;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CHARLIE_ASSERT(lo <= hi);
  // Width of [lo, hi] modulo 2^64; 0 means all 2^64 values.
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());
  // The high word of word * range is uniform on [0, range) once the low
  // word's first (2^64 mod range) values are rejected.
  unsigned __int128 m = static_cast<unsigned __int128>(next_u64()) * range;
  auto low = static_cast<std::uint64_t>(m);
  if (low < range) {
    const std::uint64_t threshold = (0 - range) % range;  // 2^64 mod range
    while (low < threshold) {
      m = static_cast<unsigned __int128>(next_u64()) * range;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   static_cast<std::uint64_t>(m >> 64));
}

bool Rng::bernoulli(double p) {
  CHARLIE_ASSERT(p >= 0.0 && p <= 1.0);
  return uniform01() < p;
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace charlie::util
