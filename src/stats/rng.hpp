#pragma once

// Deterministic random number generation for the simulator.
//
// Every scenario in this reproduction takes a 64-bit seed and must produce
// bit-identical traces for identical seeds (tests depend on this). We use
// xoshiro256** seeded through splitmix64, following the reference
// implementations by Blackman & Vigna, instead of std::mt19937 so that the
// stream is well-defined across standard library implementations.

#include <array>
#include <cstdint>
#include <cassert>
#include <iterator>
#include <span>
#include <vector>

namespace wtr::stats {

/// splitmix64 step; used for seeding and for cheap hash-like sub-stream
/// derivation (e.g. one independent stream per device id).
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless mix of two 64-bit values into one; used to derive per-entity
/// seeds from (scenario seed, entity id) pairs.
[[nodiscard]] std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept;

/// xoshiro256** pseudo random generator with convenience sampling helpers.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements so it can also
/// be handed to <random> distributions, although the samplers in
/// distributions.hpp are preferred (they are deterministic across
/// implementations).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept { return next(); }

  /// Raw 64 random bits.
  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's method to
  /// avoid modulo bias.
  std::uint64_t below(std::uint64_t n) noexcept;

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Index sampled proportionally to the (non-negative) weights.
  /// Requires a non-empty span with a positive total weight.
  std::size_t weighted_index(std::span<const double> weights) noexcept;

  /// Derive an independent generator for a sub-entity; deterministic in
  /// (current seed material, tag). Does not consume this generator's stream.
  [[nodiscard]] Rng fork(std::uint64_t tag) const noexcept;

  /// Raw xoshiro256** state for checkpoint/restore. A restored generator
  /// continues the stream bit-exactly from where the saved one stopped.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }
  /// Restore a previously captured state. The all-zero state is invalid for
  /// xoshiro (it is a fixed point); only feed states captured via state().
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    assert(state[0] != 0 || state[1] != 0 || state[2] != 0 || state[3] != 0);
    state_ = state;
  }

  /// Fisher-Yates shuffle of any indexable range with a size (a vector, a
  /// span, a fixed-capacity list).
  template <typename Range>
  void shuffle(Range&& items) noexcept {
    for (std::size_t i = std::size(items); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// Precomputed alias-free cumulative sampler for repeatedly drawing from a
/// fixed discrete distribution (binary search over the CDF).
class DiscreteSampler {
 public:
  DiscreteSampler() = default;
  /// Weights must be non-negative with a positive sum.
  explicit DiscreteSampler(std::span<const double> weights);

  [[nodiscard]] bool empty() const noexcept { return cdf_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

  /// Draw an index in [0, size()).
  [[nodiscard]] std::size_t sample(Rng& rng) const noexcept;

 private:
  std::vector<double> cdf_;  // normalized, strictly increasing to 1.0
};

}  // namespace wtr::stats
