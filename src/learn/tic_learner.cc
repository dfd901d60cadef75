#include "learn/tic_learner.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "util/logging.h"

namespace oipa {

namespace {

/// Per-item activation table: user -> timestamp.
using ActivationMap = std::unordered_map<VertexId, int>;

}  // namespace

EdgeTopicProbs LearnTicProbabilities(const Graph& graph,
                                     const ActionLog& log, int num_topics,
                                     const TicLearnerOptions& options) {
  OIPA_CHECK_GT(num_topics, 0);
  OIPA_CHECK_GE(options.iterations, 1);
  const EdgeId m = graph.num_edges();

  // Group events per item.
  std::vector<ActivationMap> activations(log.num_items());
  for (const ActionEvent& ev : log.events) {
    OIPA_CHECK_GE(ev.item, 0);
    OIPA_CHECK_LT(ev.item, log.num_items());
    activations[ev.item].emplace(ev.user, ev.timestamp);
  }

  // Current estimate, dense per (edge, topic); starts uniform small.
  std::vector<double> prob(static_cast<size_t>(m) * num_topics, 0.1);

  std::vector<double> success(static_cast<size_t>(m) * num_topics);
  std::vector<double> trial(static_cast<size_t>(m) * num_topics);

  for (int iter = 0; iter < options.iterations; ++iter) {
    std::fill(success.begin(), success.end(), 0.0);
    std::fill(trial.begin(), trial.end(), 0.0);

    for (int item = 0; item < log.num_items(); ++item) {
      const ActivationMap& act = activations[item];
      const TopicVector& topics = log.item_topics[item];
      for (const auto& [v, tv] : act) {
        // Collect potential influencers: in-neighbors active exactly one
        // round earlier (IC semantics). Seeds (round 0) have no parents.
        const auto nbrs = graph.InNeighbors(v);
        const auto eids = graph.InEdgeIds(v);
        // First pass: total explanation weight for credit splitting.
        double total_weight = 0.0;
        for (size_t i = 0; i < nbrs.size(); ++i) {
          auto it = act.find(nbrs[i]);
          if (it == act.end() || it->second != tv - 1) continue;
          double pe = 0.0;
          for (int z = 0; z < num_topics; ++z) {
            pe += topics[z] *
                  prob[static_cast<size_t>(eids[i]) * num_topics + z];
          }
          total_weight += pe;
        }
        for (size_t i = 0; i < nbrs.size(); ++i) {
          auto it = act.find(nbrs[i]);
          if (it == act.end()) continue;
          const int tu = it->second;
          if (tu >= tv) continue;  // no chance to influence
          // Every earlier-active parent had one chance (trial); only
          // parents active at tv-1 can carry credit for the success.
          double pe = 0.0;
          for (int z = 0; z < num_topics; ++z) {
            pe += topics[z] *
                  prob[static_cast<size_t>(eids[i]) * num_topics + z];
          }
          double credit = 0.0;
          if (tu == tv - 1 && total_weight > 0.0) {
            credit = pe / total_weight;
          }
          for (int z = 0; z < num_topics; ++z) {
            const size_t idx =
                static_cast<size_t>(eids[i]) * num_topics + z;
            trial[idx] += topics[z];
            success[idx] += credit * topics[z];
          }
        }
        // Failed attempts: active parents whose target v never activated
        // are handled below (v not in act), so nothing to do here.
      }
      // Trials from parents whose activation never converted the child.
      for (EdgeId e = 0; e < m; ++e) {
        const Edge& edge = graph.edge(e);
        auto itu = act.find(edge.src);
        if (itu == act.end()) continue;
        if (act.count(edge.dst)) continue;  // handled above
        for (int z = 0; z < num_topics; ++z) {
          trial[static_cast<size_t>(e) * num_topics + z] += topics[z];
        }
      }
    }

    for (size_t idx = 0; idx < prob.size(); ++idx) {
      prob[idx] =
          (success[idx] + options.smoothing) /
          (trial[idx] + options.smoothing + options.prior_failures);
      prob[idx] = std::clamp(prob[idx], 0.0, 1.0);
    }
  }

  // Emit sparse output, dropping negligible entries.
  EdgeTopicProbs learned(m, num_topics);
  for (EdgeId e = 0; e < m; ++e) {
    std::vector<TopicProb> entries;
    for (int z = 0; z < num_topics; ++z) {
      const double p = prob[static_cast<size_t>(e) * num_topics + z];
      if (p >= options.min_prob) {
        entries.push_back({z, static_cast<float>(p)});
      }
    }
    learned.SetEdge(e, entries);
  }
  return learned;
}

}  // namespace oipa
