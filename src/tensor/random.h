#ifndef BENCHTEMP_TENSOR_RANDOM_H_
#define BENCHTEMP_TENSOR_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

#include "base/splitmix.h"

namespace benchtemp::tensor {

/// SplitMix64 finalizer: the repo-wide keying primitive behind every
/// "per-X stream" determinism contract (per-root walk streams, per-batch
/// negative sampling / prefetch seeds): the derived value depends only on
/// (seed, index), never on call order or thread count. The implementation
/// lives in base/splitmix.h (the bottom layer) so the fault injector and
/// I/O shim can draw from the same streams without an upward include.
using base::SplitMix64;

/// Deterministic pseudo-random number source.
///
/// Every stochastic component in the library (dataset generation, negative
/// edge sampling, parameter initialization, walk sampling) draws from an
/// explicitly seeded Rng so experiments are reproducible run to run; this is
/// one of the paper's standardization points (seeded edge samplers).
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);
  /// Uniform real in [lo, hi).
  float UniformReal(float lo, float hi);
  /// Normal with the given mean and stddev.
  float Normal(float mean, float stddev);
  /// Exponential with the given rate.
  double Exponential(double rate);
  /// Bernoulli with probability p of returning true.
  bool Bernoulli(double p);
  /// Zipf-distributed integer in [0, n) with exponent s (s = 0 is uniform).
  /// Implemented by inverse-CDF over precomputed weights is too costly for
  /// large n, so uses rejection sampling.
  int64_t Zipf(int64_t n, double s);
  /// Samples an index proportional to the (non-negative) weights.
  int64_t Categorical(const std::vector<double>& weights);

  /// Serializes the engine state (textual mt19937_64 dump) so a resumed job
  /// replays exactly the draws an uninterrupted run would have made.
  std::string SaveState() const;
  /// Restores a state produced by SaveState(). Returns false (engine
  /// untouched) when the string does not parse.
  bool LoadState(const std::string& state);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace benchtemp::tensor

#endif  // BENCHTEMP_TENSOR_RANDOM_H_
