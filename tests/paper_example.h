#ifndef OIPA_TESTS_PAPER_EXAMPLE_H_
#define OIPA_TESTS_PAPER_EXAMPLE_H_

#include <memory>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "oipa/logistic_model.h"
#include "topic/campaign.h"
#include "topic/edge_topic_probs.h"
#include "topic/influence_graph.h"

namespace oipa {
namespace testing_support {

/// The paper's Figure-1 running example. Vertices a..e are 0..4. Piece t1
/// is pure topic 0 and flows a -> b -> c -> d; piece t2 is pure topic 1
/// and flows e -> d -> c -> b. All non-zero probabilities are 1, so every
/// quantity is deterministic. With alpha = 3, beta = 1, the plan
/// {S1={a}, S2={e}} has adoption utility 1.05 (Example 1): users a and e
/// receive one piece each (p = 0.12) and b, c, d receive both (p = 0.27).
struct PaperExample {
  static constexpr VertexId kA = 0, kB = 1, kC = 2, kD = 3, kE = 4;

  PaperExample() : probs(6, 2) {
    GraphBuilder builder(5);
    // Topic-0 chain.
    builder.AddEdge(kA, kB);
    builder.AddEdge(kB, kC);
    builder.AddEdge(kC, kD);
    // Topic-1 chain.
    builder.AddEdge(kE, kD);
    builder.AddEdge(kD, kC);
    builder.AddEdge(kC, kB);
    graph = std::make_unique<Graph>(builder.Build());

    for (EdgeId e = 0; e < graph->num_edges(); ++e) {
      const Edge& edge = graph->edge(e);
      // Edges of the a->b->c->d chain are topic 0; the rest topic 1.
      const bool topic0 =
          (edge.src == kA && edge.dst == kB) ||
          (edge.src == kB && edge.dst == kC) ||
          (edge.src == kC && edge.dst == kD);
      const TopicProb entry{topic0 ? 0 : 1, 1.0f};
      probs.SetEdge(e, {&entry, 1});
    }

    campaign.AddPiece({"t1", TopicVector::PureTopic(2, 0)});
    campaign.AddPiece({"t2", TopicVector::PureTopic(2, 1)});
    pieces = BuildPieceGraphs(*graph, probs, campaign);
  }

  LogisticAdoptionModel model() const {
    return LogisticAdoptionModel(3.0, 1.0);
  }

  std::unique_ptr<Graph> graph;
  EdgeTopicProbs probs;
  Campaign campaign;
  std::vector<InfluenceGraph> pieces;
};

}  // namespace testing_support
}  // namespace oipa

#endif  // OIPA_TESTS_PAPER_EXAMPLE_H_
