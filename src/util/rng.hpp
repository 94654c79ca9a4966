// Deterministic random number generation.
//
// All stochastic components (trace generators, generated netlists, process
// samples, fitting restarts, Monte-Carlo benches) draw from one explicitly
// seeded generator, so experiments are exactly reproducible run-to-run. The
// engine and every distribution are written out in rng.cpp, so a stream is a
// function of its key alone, not of the C++ standard library it is built
// with.
#pragma once

#include <cstdint>

namespace charlie::util {

/// Counter-based stream keyed by (seed, stream): a splitmix64 generator
/// (Steele, Lea and Flood, OOPSLA 2014) whose state is a mix of the key, so
/// the stream for key k is a pure function of k and never depends on how many
/// other streams were drawn first. This is what makes Monte-Carlo sample k's
/// draws order-independent: any worker, on any thread, at any time
/// reconstructs exactly the same stream from (base_seed, run_index).
class Rng {
 public:
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0);

  /// Next raw 64-bit word: splitmix64 (a Weyl sequence by the golden-ratio
  /// increment, finished by a full-avalanche mix).
  std::uint64_t next_u64();

  /// Uniform double in [0, 1): the top 53 bits of one word.
  double uniform01();

  /// Uniform double in [lo, hi): lo + (hi - lo) * uniform01(), or the
  /// largest double below hi where that rounds to hi (lo == hi returns lo).
  double uniform(double lo, double hi);

  /// Normal with mean `mu` and standard deviation `sigma` (sigma >= 0) by
  /// Marsaglia's polar method. Each accepted pair yields two variates; the
  /// second is cached and returned by the next call. sigma == 0 returns mu
  /// and draws nothing.
  double normal(double mu, double sigma);

  /// Normal truncated to values > lo: normal() resampled until a draw clears
  /// lo (lo must be < mu + 8 sigma).
  double normal_above(double mu, double sigma, double lo);

  /// Normal(mu, sigma) with the standard score clamped to [-max_sigma,
  /// +max_sigma]; truncation keeps sampled process points inside the span a
  /// collocation grid was built for. Always draws one standard normal, so
  /// the stream layout does not depend on sigma.
  double normal_clamped(double mu, double sigma, double max_sigma);

  /// Uniform integer in [lo, hi] inclusive, by Lemire's nearly-divisionless
  /// multiply-and-reject ("Fast random integer generation in an interval",
  /// ACM TOMACS 2019): unbiased, and a division only on the rare reject path.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with probability `p` of true: uniform01() < p.
  bool bernoulli(double p);

  /// Fork an independent, deterministically derived stream (for per-run
  /// streams inside repeated experiments): the child is keyed by the
  /// parent's next word, so the fork advances the parent by one word.
  Rng fork();

 private:
  std::uint64_t state_;
  double cached_normal_ = 0.0;  // second variate of the last polar pair
  bool has_cached_normal_ = false;
};

}  // namespace charlie::util
