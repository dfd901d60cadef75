#include "util/random.h"

#include <cmath>

#include "util/logging.h"

namespace oipa {

double Rng::NextGaussian() {
  // Box-Muller; guard against log(0).
  double u1 = NextDouble();
  while (u1 <= 0.0) u1 = NextDouble();
  const double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

double Rng::NextExponential() {
  double u = NextDouble();
  while (u <= 0.0) u = NextDouble();
  return -std::log(u);
}

double Rng::NextGamma(double shape) {
  OIPA_CHECK_GT(shape, 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia-Tsang trick).
    double u = NextDouble();
    while (u <= 0.0) u = NextDouble();
    return NextGamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = NextGaussian();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<double> Rng::NextDirichlet(int dim, double alpha) {
  OIPA_CHECK_GT(dim, 0);
  std::vector<double> out(dim);
  NextDirichlet(alpha, out);
  return out;
}

void Rng::NextDirichlet(double alpha, std::span<double> out) {
  OIPA_CHECK(!out.empty());
  double sum = 0.0;
  for (double& x : out) {
    x = NextGamma(alpha);
    sum += x;
  }
  if (sum <= 0.0) {
    // Degenerate draw (can happen for very small alpha); fall back to a
    // random vertex of the simplex.
    const size_t j = NextBounded(out.size());
    for (size_t i = 0; i < out.size(); ++i) out[i] = (i == j) ? 1.0 : 0.0;
    return;
  }
  for (double& x : out) x /= sum;
}

int SampleDiscrete(const std::vector<double>& weights, Rng* rng) {
  double total = 0.0;
  for (double w : weights) {
    OIPA_CHECK_GE(w, 0.0);
    total += w;
  }
  OIPA_CHECK_GT(total, 0.0);
  double r = rng->NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

}  // namespace oipa
