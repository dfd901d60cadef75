#ifndef OIPA_IM_IMM_H_
#define OIPA_IM_IMM_H_

#include <cstdint>
#include <vector>

#include "im/max_cover.h"
#include "topic/influence_graph.h"

namespace oipa {

/// Parameters for IMM (Tang, Shi, Xiao: "Influence Maximization in
/// Near-Linear Time: A Martingale Approach", SIGMOD 2015).
struct ImmOptions {
  /// Approximation slack: the output is a (1 - 1/e - epsilon)
  /// approximation with probability >= 1 - n^-failure_exponent.
  double epsilon = 0.5;
  double failure_exponent = 1.0;  // "l" in the paper
  uint64_t seed = 1;
  /// Safety cap on the total number of RR sets; far below the sample
  /// store's 32-bit ceiling, MrrCollection::kMaxSamples (2^32 - 1).
  int64_t max_theta = 10'000'000;
};

struct ImmResult {
  std::vector<VertexId> seeds;
  double spread_estimate = 0.0;
  /// RR sets generated across all phases (sampling + selection).
  int64_t theta_used = 0;
  /// The lower bound LB on OPT found by the sampling phase.
  double opt_lower_bound = 0.0;
};

/// Full IMM: the sampling phase estimates a lower bound on OPT via
/// geometrically increasing RR batches and martingale concentration
/// bounds, then the selection phase runs greedy max cover on
/// theta = lambda* / LB sets. The RR sets are one growing one-piece
/// MrrCollection over `ig` (im/max_cover.h): each batch extends it in
/// place. Used as the "state-of-the-art IM algorithm" the paper's
/// baselines are built from.
ImmResult Imm(const InfluenceGraph& ig, int k, const ImmOptions& options);

/// Fixed-theta RIS (Borgs et al., SODA 2014): samples exactly `theta` RR
/// sets over `ig` as a one-piece MrrCollection and CELF-covers them,
/// choosing seeds from `candidates` (empty = every vertex). This is the
/// paper's experimental configuration (theta fixed at 1e6 for all
/// compared approaches) and the seed selection of its IM and TIM
/// baselines (oipa/baselines.h).
ImmResult FixedThetaRis(const InfluenceGraph& ig, int k, int64_t theta,
                        uint64_t seed,
                        const std::vector<VertexId>& candidates = {});

}  // namespace oipa

#endif  // OIPA_IM_IMM_H_
