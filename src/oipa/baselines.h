#ifndef OIPA_OIPA_BASELINES_H_
#define OIPA_OIPA_BASELINES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "oipa/assignment_plan.h"
#include "oipa/logistic_model.h"
#include "rrset/mrr_collection.h"
#include "topic/campaign.h"
#include "topic/edge_topic_probs.h"
#include "topic/influence_graph.h"

namespace oipa {

/// Result of a baseline run (same reporting shape as BabResult where it
/// makes sense).
struct BaselineResult {
  AssignmentPlan plan{1};
  double utility = 0.0;
  /// Piece the baseline ended up assigning its seeds to.
  int chosen_piece = -1;
  double seconds = 0.0;
};

/// Evaluates assigning `per_piece_seeds[j]` to piece j alone (for every
/// j) and returns the best single-piece plan under the MRR-estimated
/// adoption utility. Shared tail of the IM/TIM baselines and the
/// heuristic solvers. `per_piece_seeds` must have one entry per piece.
BaselineResult BestSinglePieceAssignment(
    const MrrCollection& mrr, const LogisticAdoptionModel& model,
    const std::vector<std::vector<VertexId>>& per_piece_seeds);

/// The paper's IM baseline (Section VI-A): run the state-of-the-art IM
/// algorithm once on the topic-blind graph G (mean edge probability over
/// topics) to get k seeds S, then evaluate assigning S to each piece t_j
/// alone and keep the best. Ignores per-piece influence heterogeneity.
/// The IM run is FixedThetaRis over `pool` with `theta` RR sets.
BaselineResult ImBaseline(const Graph& graph, const EdgeTopicProbs& probs,
                          const Campaign& campaign,
                          const MrrCollection& mrr,
                          const LogisticAdoptionModel& model,
                          const std::vector<VertexId>& pool, int k,
                          int64_t theta, uint64_t seed);

/// The paper's TIM baseline: run IM on every piece's influence graph
/// G_{t_j} (`pieces`, the graphs `mrr` was sampled over) to get k seeds
/// S_j, then pick the single (S_j -> t_j) assignment with the best
/// adoption utility. Topic-aware but single-piece. Piece j's IM run is
/// FixedThetaRis over `pool` with `theta` RR sets and seed seed + j + 1.
BaselineResult TimBaseline(std::span<const InfluenceGraph> pieces,
                           const MrrCollection& mrr,
                           const LogisticAdoptionModel& model,
                           const std::vector<VertexId>& pool, int k,
                           int64_t theta, uint64_t seed);

}  // namespace oipa

#endif  // OIPA_OIPA_BASELINES_H_
