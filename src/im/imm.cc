#include "im/imm.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "rrset/mrr_collection.h"
#include "util/logging.h"
#include "util/math.h"

namespace oipa {

namespace {

/// lambda' of IMM Theorem 2 (sampling phase batch sizes).
double LambdaPrime(double eps_prime, int k, double ell, double n) {
  const double log_nck = LogBinomial(static_cast<int64_t>(n), k);
  return (2.0 + 2.0 / 3.0 * eps_prime) *
         (log_nck + ell * std::log(n) + std::log(std::log2(n))) * n /
         (eps_prime * eps_prime);
}

/// lambda* of IMM Equation (6) (selection phase size).
double LambdaStar(double eps, int k, double ell, double n) {
  const double log_nck = LogBinomial(static_cast<int64_t>(n), k);
  const double alpha = std::sqrt(ell * std::log(n) + std::log(2.0));
  const double beta =
      std::sqrt((1.0 - 1.0 / M_E) * (log_nck + ell * std::log(n) +
                                     std::log(2.0)));
  const double inv = 2.0 * n *
                     ((1.0 - 1.0 / M_E) * alpha + beta) *
                     ((1.0 - 1.0 / M_E) * alpha + beta) /
                     (eps * eps);
  return inv;
}

/// `ig` as the one-piece span whose MRR samples are plain RR sets.
std::span<const InfluenceGraph> OnePiece(const InfluenceGraph& ig) {
  return {&ig, 1};
}

}  // namespace

ImmResult Imm(const InfluenceGraph& ig, int k, const ImmOptions& options) {
  const double n = static_cast<double>(ig.graph().num_vertices());
  OIPA_CHECK_GE(k, 1);
  OIPA_CHECK_GT(n, 1.0);
  OIPA_CHECK_GT(options.epsilon, 0.0);

  // Boost ell so the union bound over the sampling phase holds (IMM
  // Section 4.2 sets l' = l * (1 + log 2 / log n)).
  const double ell =
      options.failure_exponent * (1.0 + std::log(2.0) / std::log(n));
  const double eps = options.epsilon;
  const double eps_prime = std::sqrt(2.0) * eps;

  MrrCollection rr = MrrCollection::Generate(OnePiece(ig), 0, options.seed);
  double lb = 1.0;
  const int max_rounds =
      std::max(1, static_cast<int>(std::log2(n)) - 1);
  const double lambda_p = LambdaPrime(eps_prime, k, ell, n);

  for (int i = 1; i <= max_rounds; ++i) {
    const double x = n / std::pow(2.0, i);
    const int64_t theta_i = std::min<int64_t>(
        options.max_theta,
        static_cast<int64_t>(std::ceil(lambda_p / x)));
    rr.Extend(OnePiece(ig), theta_i);  // no-op when theta_i <= theta
    const MaxCoverResult cover = GreedyMaxCover(rr, k);
    const double frac =
        static_cast<double>(cover.covered) /
        static_cast<double>(rr.theta());
    if (n * frac >= (1.0 + eps_prime) * x) {
      lb = n * frac / (1.0 + eps_prime);
      break;
    }
  }

  const double lambda_s = LambdaStar(eps, k, ell, n);
  const int64_t theta = std::min<int64_t>(
      options.max_theta,
      static_cast<int64_t>(std::ceil(lambda_s / lb)));
  rr.Extend(OnePiece(ig), theta);

  const MaxCoverResult cover = CelfMaxCover(rr, k);
  ImmResult result;
  result.seeds = cover.seeds;
  result.spread_estimate = cover.spread_estimate;
  result.theta_used = rr.theta();
  result.opt_lower_bound = lb;
  return result;
}

ImmResult FixedThetaRis(const InfluenceGraph& ig, int k, int64_t theta,
                        uint64_t seed,
                        const std::vector<VertexId>& candidates) {
  const MrrCollection rr = MrrCollection::Generate(OnePiece(ig), theta, seed);
  const MaxCoverResult cover = CelfMaxCover(rr, k, candidates);
  ImmResult result;
  result.seeds = cover.seeds;
  result.spread_estimate = cover.spread_estimate;
  result.theta_used = theta;
  result.opt_lower_bound = 0.0;
  return result;
}

}  // namespace oipa
