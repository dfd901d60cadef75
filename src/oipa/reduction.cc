#include "oipa/reduction.h"

#include <cmath>

#include "graph/graph_builder.h"
#include "util/logging.h"

namespace oipa {

namespace {

Graph BuildReductionGraph(int n,
                          const std::vector<std::vector<char>>& adj) {
  GraphBuilder builder(3 * n);
  for (int i = 0; i < n; ++i) {
    // x_i -> r_j for j == i or (v_i, v_j) an edge.
    for (int j = 0; j < n; ++j) {
      if (j == i || adj[i][j]) {
        builder.AddEdge(i, 2 * n + j);
      }
    }
    // y_i -> r_j for all j != i.
    for (int j = 0; j < n; ++j) {
      if (j != i) {
        builder.AddEdge(n + i, 2 * n + j);
      }
    }
  }
  builder.ReserveVertices(3 * n);
  return builder.Build();
}

}  // namespace

MaxCliqueReduction::MaxCliqueReduction(
    int n, const std::vector<std::pair<int, int>>& edges)
    : n_(n),
      adj_(n, std::vector<char>(n, 0)),
      graph_(Graph::Empty(0)),
      probs_(0, 1) {
  OIPA_CHECK_GE(n, 2);
  for (const auto& [u, v] : edges) {
    OIPA_CHECK_GE(u, 0);
    OIPA_CHECK_LT(u, n);
    OIPA_CHECK_GE(v, 0);
    OIPA_CHECK_LT(v, n);
    OIPA_CHECK_NE(u, v);
    adj_[u][v] = adj_[v][u] = 1;
  }
  graph_ = BuildReductionGraph(n, adj_);

  // Every edge carries exactly its promoter's topic with probability 1:
  // edges out of x_i or y_i are pure topic i.
  probs_ = EdgeTopicProbs(graph_.num_edges(), n);
  for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
    const VertexId src = graph_.edge(e).src;
    const int topic = src < n_ ? src : src - n_;
    OIPA_CHECK_GE(topic, 0);
    OIPA_CHECK_LT(topic, n_);
    const TopicProb entry{topic, 1.0f};
    probs_.SetEdge(e, {&entry, 1});
  }

  std::vector<ViralPiece> pieces;
  for (int i = 0; i < n; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    pieces.push_back({std::move(name), TopicVector::PureTopic(n, i)});
  }
  campaign_ = Campaign(std::move(pieces));
}

LogisticAdoptionModel MaxCliqueReduction::model() const {
  const double log2n = std::log(2.0 * n_);
  return LogisticAdoptionModel(2.0 * n_ * log2n, 2.0 * log2n);
}

std::vector<std::vector<VertexId>> MaxCliqueReduction::PromoterPools()
    const {
  std::vector<std::vector<VertexId>> pools(n_);
  for (int i = 0; i < n_; ++i) {
    pools[i] = {XVertex(i), YVertex(i)};
  }
  return pools;
}

std::vector<InfluenceGraph> MaxCliqueReduction::PieceGraphs() const {
  return BuildPieceGraphs(graph_, probs_, campaign_);
}

double MaxCliqueReduction::UtilityOfCliquePlan(
    const std::vector<int>& clique_vertices) const {
  std::vector<char> in_clique(n_, 0);
  for (int v : clique_vertices) in_clique[v] = 1;
  const LogisticAdoptionModel m = model();

  // The instance is deterministic (all probabilities 1), so piece i
  // reaches r_j iff its promoter has the edge. Each chosen promoter is a
  // seed and therefore receives exactly its own piece (x/y vertices have
  // no incoming edges), contributing n * f(1) in total — a quantity the
  // Lemma 1 slack absorbs, since f(1) <= 1/(1+(2n)^2).
  double utility = n_ * m.AdoptionProb(1);
  for (int j = 0; j < n_; ++j) {
    int received = 0;
    for (int i = 0; i < n_; ++i) {
      const bool via_x = (j == i) || adj_[i][j];
      const bool via_y = (j != i);
      received += in_clique[i] ? via_x : via_y;
    }
    utility += m.AdoptionProb(received);
  }
  return utility;
}

int MaxCliqueReduction::ExactMaxClique() const {
  OIPA_CHECK_LE(n_, 20) << "exact max clique is exponential";
  int best = 0;
  for (uint32_t mask = 0; mask < (1u << n_); ++mask) {
    int size = 0;
    bool is_clique = true;
    for (int u = 0; u < n_ && is_clique; ++u) {
      if (!((mask >> u) & 1u)) continue;
      ++size;
      for (int v = u + 1; v < n_; ++v) {
        if (((mask >> v) & 1u) && !adj_[u][v]) {
          is_clique = false;
          break;
        }
      }
    }
    if (is_clique) best = std::max(best, size);
  }
  return best;
}

double MaxCliqueReduction::ExactOipaOpt() const {
  OIPA_CHECK_LE(n_, 20) << "exact OIPA opt is exponential";
  // Any budget-feasible plan that propagates all n pieces picks exactly
  // one of {x_i, y_i} per piece; plans that drop a piece are dominated
  // (shown in Lemma 1), but we enumerate the full choice space anyway.
  double best = 0.0;
  for (uint32_t mask = 0; mask < (1u << n_); ++mask) {
    std::vector<int> clique_vertices;
    for (int i = 0; i < n_; ++i) {
      if ((mask >> i) & 1u) clique_vertices.push_back(i);
    }
    best = std::max(best, UtilityOfCliquePlan(clique_vertices));
  }
  return best;
}

}  // namespace oipa
