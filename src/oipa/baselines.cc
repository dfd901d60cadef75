#include "oipa/baselines.h"

#include "im/imm.h"
#include "oipa/adoption.h"
#include "util/logging.h"
#include "util/timer.h"

namespace oipa {

BaselineResult BestSinglePieceAssignment(
    const MrrCollection& mrr, const LogisticAdoptionModel& model,
    const std::vector<std::vector<VertexId>>& per_piece_seeds) {
  OIPA_CHECK_EQ(static_cast<int>(per_piece_seeds.size()),
                mrr.num_pieces());
  BaselineResult best;
  best.plan = AssignmentPlan(mrr.num_pieces());
  best.utility = -1.0;
  for (int j = 0; j < mrr.num_pieces(); ++j) {
    AssignmentPlan plan(mrr.num_pieces());
    for (VertexId v : per_piece_seeds[j]) plan.Add(j, v);
    const double utility = EstimateAdoptionUtility(mrr, model, plan);
    if (utility > best.utility) {
      best.utility = utility;
      best.plan = plan;
      best.chosen_piece = j;
    }
  }
  return best;
}

BaselineResult ImBaseline(const Graph& graph, const EdgeTopicProbs& probs,
                          const Campaign& campaign,
                          const MrrCollection& mrr,
                          const LogisticAdoptionModel& model,
                          const std::vector<VertexId>& pool, int k,
                          int64_t theta, uint64_t seed) {
  WallTimer timer;
  OIPA_CHECK_EQ(campaign.num_pieces(), mrr.num_pieces());
  // One IM run on the topic-blind graph.
  const InfluenceGraph blind = InfluenceGraph::TopicBlind(graph, probs);
  const ImmResult im = FixedThetaRis(blind, k, theta, seed, pool);

  // Try the same seed set on every piece; keep the best.
  std::vector<std::vector<VertexId>> per_piece(
      campaign.num_pieces(), im.seeds);
  BaselineResult result = BestSinglePieceAssignment(mrr, model, per_piece);
  result.seconds = timer.Seconds();
  return result;
}

BaselineResult TimBaseline(std::span<const InfluenceGraph> pieces,
                           const MrrCollection& mrr,
                           const LogisticAdoptionModel& model,
                           const std::vector<VertexId>& pool, int k,
                           int64_t theta, uint64_t seed) {
  WallTimer timer;
  OIPA_CHECK_EQ(static_cast<int>(pieces.size()), mrr.num_pieces());
  // One IM run per piece on that piece's influence graph.
  std::vector<std::vector<VertexId>> per_piece(pieces.size());
  for (size_t j = 0; j < pieces.size(); ++j) {
    per_piece[j] = FixedThetaRis(pieces[j], k, theta, seed + j + 1, pool).seeds;
  }
  BaselineResult result = BestSinglePieceAssignment(mrr, model, per_piece);
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace oipa
