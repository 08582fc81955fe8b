#include "tensor/random.h"

#include <cmath>
#include <sstream>

#include "tensor/tensor.h"

namespace benchtemp::tensor {

int64_t Rng::UniformInt(int64_t n) {
  CheckOrDie(n > 0, "UniformInt: n must be positive");
  std::uniform_int_distribution<int64_t> dist(0, n - 1);
  return dist(engine_);
}

float Rng::UniformReal(float lo, float hi) {
  std::uniform_real_distribution<float> dist(lo, hi);
  return dist(engine_);
}

float Rng::Normal(float mean, float stddev) {
  std::normal_distribution<float> dist(mean, stddev);
  return dist(engine_);
}

double Rng::Exponential(double rate) {
  std::exponential_distribution<double> dist(rate);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

int64_t Rng::Zipf(int64_t n, double s) {
  CheckOrDie(n > 0, "Zipf: n must be positive");
  if (s <= 0.0 || n == 1) return UniformInt(n);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  if (s > 1.0 + 1e-9) {
    // Exact rejection sampling (Devroye's method); valid only for s > 1
    // where the envelope constant b = 2^(s-1) exceeds 1.
    const double b = std::pow(2.0, s - 1.0);
    for (;;) {
      const double u = uniform(engine_);
      const double v = uniform(engine_);
      const double x = std::floor(std::pow(static_cast<double>(n) + 1.0, u));
      if (x > static_cast<double>(n)) continue;
      const double t = std::pow(1.0 + 1.0 / x, s - 1.0);
      if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
        return static_cast<int64_t>(x) - 1;
      }
    }
  }
  // 0 < s <= 1: continuous inverse-CDF approximation of p(x) ∝ x^{-s}.
  // For s == 1 the CDF is logarithmic (x = (n+1)^u); otherwise it is the
  // truncated power law inversion. Accurate enough for workload skew.
  const double u = uniform(engine_);
  double x;
  if (std::fabs(s - 1.0) < 1e-9) {
    x = std::pow(static_cast<double>(n) + 1.0, u);
  } else {
    const double top = std::pow(static_cast<double>(n) + 1.0, 1.0 - s);
    x = std::pow(1.0 + u * (top - 1.0), 1.0 / (1.0 - s));
  }
  int64_t out = static_cast<int64_t>(std::floor(x)) - 1;
  if (out < 0) out = 0;
  if (out >= n) out = n - 1;
  return out;
}

std::string Rng::SaveState() const {
  std::ostringstream out;
  out << engine_;
  return out.str();
}

bool Rng::LoadState(const std::string& state) {
  std::istringstream in(state);
  std::mt19937_64 restored;
  in >> restored;
  if (in.fail()) return false;
  engine_ = restored;
  return true;
}

int64_t Rng::Categorical(const std::vector<double>& weights) {
  CheckOrDie(!weights.empty(), "Categorical: empty weights");
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return UniformInt(static_cast<int64_t>(weights.size()));
  std::uniform_real_distribution<double> dist(0.0, total);
  double r = dist(engine_);
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return static_cast<int64_t>(i);
  }
  return static_cast<int64_t>(weights.size()) - 1;
}

}  // namespace benchtemp::tensor
