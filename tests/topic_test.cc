#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "data/datasets.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "topic/campaign.h"
#include "topic/edge_topic_probs.h"
#include "topic/influence_graph.h"
#include "topic/prob_models.h"
#include "topic/topic_vector.h"
#include "util/random.h"

namespace oipa {
namespace {

// ----------------------------------------------------------- TopicVector

TEST(TopicVectorTest, PureTopicIsOneHot) {
  const TopicVector v = TopicVector::PureTopic(5, 2);
  EXPECT_EQ(v.num_topics(), 5);
  EXPECT_EQ(v[2], 1.0);
  EXPECT_EQ(v.Sum(), 1.0);
  EXPECT_EQ(v.NumNonZero(), 1);
}

TEST(TopicVectorTest, UniformSumsToOne) {
  const TopicVector v = TopicVector::Uniform(4);
  EXPECT_NEAR(v.Sum(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
}

TEST(TopicVectorTest, NormalizeRescales) {
  TopicVector v(3);
  v[0] = 2.0;
  v[1] = 2.0;
  v.Normalize();
  EXPECT_NEAR(v.Sum(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(v[0], 0.5);
}

TEST(TopicVectorTest, NormalizeZeroVectorIsNoop) {
  TopicVector v(3);
  v.Normalize();
  EXPECT_EQ(v.Sum(), 0.0);
}

TEST(TopicVectorTest, SampleSparseRespectsNonZeroCount) {
  Rng rng(3);
  for (int nz = 1; nz <= 4; ++nz) {
    const TopicVector v = TopicVector::SampleSparse(10, nz, &rng);
    EXPECT_EQ(v.NumNonZero(), nz);
    EXPECT_NEAR(v.Sum(), 1.0, 1e-9);
  }
}

TEST(TopicVectorTest, SampleDirichletOnSimplex) {
  Rng rng(5);
  const TopicVector v = TopicVector::SampleDirichlet(6, 0.5, &rng);
  EXPECT_NEAR(v.Sum(), 1.0, 1e-9);
  for (int z = 0; z < 6; ++z) EXPECT_GE(v[z], 0.0);
}

// ------------------------------------------------------- EdgeTopicProbs

TEST(EdgeTopicProbsTest, SetAndQuery) {
  EdgeTopicProbs probs(2, 4);
  probs.SetEdge(0, std::vector<TopicProb>{{1, 0.5f}, {3, 0.25f}});
  probs.SetEdge(1, {});
  EXPECT_EQ(probs.num_edges(), 2);
  EXPECT_EQ(probs.num_entries(), 2);
  EXPECT_FLOAT_EQ(probs.Prob(0, 1), 0.5f);
  EXPECT_FLOAT_EQ(probs.Prob(0, 3), 0.25f);
  EXPECT_EQ(probs.Prob(0, 0), 0.0);
  EXPECT_EQ(probs.Prob(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(probs.AverageNonZeros(), 1.0);
}

TEST(EdgeTopicProbsTest, EntriesSortedByTopic) {
  EdgeTopicProbs probs(1, 4);
  probs.SetEdge(0, std::vector<TopicProb>{{3, 0.1f}, {0, 0.2f}});
  const auto entries = probs.EdgeEntries(0);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].topic, 0);
  EXPECT_EQ(entries[1].topic, 3);
}

TEST(EdgeTopicProbsTest, ReusedBufferSortsOnlyTheAppendedEdge) {
  EdgeTopicProbs probs(2, 4);
  std::vector<TopicProb> entries = {{3, 0.1f}, {1, 0.2f}};
  probs.SetEdge(0, entries);
  entries = {{2, 0.3f}, {0, 0.4f}};
  probs.SetEdge(1, entries);
  const auto first = probs.EdgeEntries(0);
  const auto second = probs.EdgeEntries(1);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(first[0].topic, 1);
  EXPECT_EQ(first[1].topic, 3);
  EXPECT_EQ(second[0].topic, 0);
  EXPECT_FLOAT_EQ(second[0].prob, 0.4f);
  EXPECT_EQ(second[1].topic, 2);
}

TEST(EdgeTopicProbsTest, PieceProbIsDotProduct) {
  EdgeTopicProbs probs(1, 3);
  probs.SetEdge(0, std::vector<TopicProb>{{0, 0.4f}, {2, 0.8f}});
  TopicVector piece(3);
  piece[0] = 0.5;
  piece[2] = 0.5;
  EXPECT_NEAR(probs.PieceProb(0, piece), 0.5 * 0.4 + 0.5 * 0.8, 1e-6);
  EXPECT_EQ(probs.PieceProbs(piece),
            std::vector<float>{static_cast<float>(probs.PieceProb(0, piece))});
  EXPECT_NEAR(probs.MeanProb(0), (0.4 + 0.8) / 3.0, 1e-6);
}

TEST(EdgeTopicProbsTest, PieceProbClampedToOne) {
  EdgeTopicProbs probs(1, 1);
  probs.SetEdge(0, std::vector<TopicProb>{{0, 1.0f}});
  TopicVector piece(1);
  piece[0] = 1.0;
  EXPECT_DOUBLE_EQ(probs.PieceProb(0, piece), 1.0);
}

TEST(EdgeTopicProbsTest, CsrPartsMatchEdgeByEdgeBuilds) {
  EdgeTopicProbs built(3, 4);
  built.SetEdge(0, std::vector<TopicProb>{{3, 0.1f}, {1, 0.2f}});
  built.SetEdge(1, {});
  built.SetEdge(2, std::vector<TopicProb>{{0, 1.0f}});
  const EdgeTopicProbs parts(
      4, {0, 2, 2, 3}, {{1, 0.2f}, {3, 0.1f}, {0, 1.0f}});
  ASSERT_EQ(parts.num_edges(), built.num_edges());
  ASSERT_EQ(parts.num_entries(), built.num_entries());
  for (EdgeId e = 0; e < built.num_edges(); ++e) {
    const auto a = built.EdgeEntries(e);
    const auto b = parts.EdgeEntries(e);
    ASSERT_EQ(a.size(), b.size()) << e;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].topic, b[i].topic) << e;
      EXPECT_EQ(a[i].prob, b[i].prob) << e;
    }
  }
}

TEST(EdgeTopicProbsDeathTest, CsrPartsAreCheckedLikeSetEdge) {
  const auto build = [](std::vector<int64_t> offsets,
                        std::vector<TopicProb> entries) {
    EdgeTopicProbs probs(4, std::move(offsets), std::move(entries));
  };
  EXPECT_DEATH(build({0, 2}, {{3, 0.1f}, {1, 0.2f}}), "topic");  // unsorted
  EXPECT_DEATH(build({0, 2}, {{1, 0.1f}, {1, 0.2f}}), "topic");  // repeated
  EXPECT_DEATH(build({0, 1}, {{4, 0.1f}}), "num_topics");
  EXPECT_DEATH(build({0, 1}, {{0, 1.5f}}), "prob");
  EXPECT_DEATH(build({0, 2, 1}, {{0, 0.1f}}), "is_sorted");
  EXPECT_DEATH(build({0, 1}, {{0, 0.1f}, {1, 0.1f}}), "size");
  EXPECT_DEATH(build({1, 1}, {{0, 0.1f}}), "front");
}

// ---------------------------------------------------------- Campaign

TEST(CampaignTest, UniformPiecesAreOneHot) {
  Rng rng(7);
  const Campaign c = Campaign::SampleUniformPieces(5, 10, &rng);
  EXPECT_EQ(c.num_pieces(), 5);
  for (int j = 0; j < 5; ++j) {
    EXPECT_EQ(c.piece(j).topics.NumNonZero(), 1);
    EXPECT_NEAR(c.piece(j).topics.Sum(), 1.0, 1e-12);
  }
}

TEST(CampaignTest, SparsePiecesHaveRequestedSupport) {
  Rng rng(7);
  const Campaign c = Campaign::SampleSparsePieces(3, 10, 4, &rng);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(c.piece(j).topics.NumNonZero(), 4);
  }
}

// ------------------------------------------------------ InfluenceGraph

TEST(InfluenceGraphTest, ForPieceCollapsesProbabilities) {
  const Graph g = MakePath(3);  // edges 0->1, 1->2
  EdgeTopicProbs probs(2, 2);
  probs.SetEdge(0, std::vector<TopicProb>{{0, 1.0f}});
  probs.SetEdge(1, std::vector<TopicProb>{{1, 0.5f}});
  const InfluenceGraph ig0 =
      InfluenceGraph::ForPiece(g, probs, TopicVector::PureTopic(2, 0));
  EXPECT_FLOAT_EQ(ig0.EdgeProb(0), 1.0f);
  EXPECT_FLOAT_EQ(ig0.EdgeProb(1), 0.0f);
  const InfluenceGraph ig1 =
      InfluenceGraph::ForPiece(g, probs, TopicVector::PureTopic(2, 1));
  EXPECT_FLOAT_EQ(ig1.EdgeProb(0), 0.0f);
  EXPECT_FLOAT_EQ(ig1.EdgeProb(1), 0.5f);
}

TEST(InfluenceGraphTest, TopicBlindIsMean) {
  const Graph g = MakePath(2);
  EdgeTopicProbs probs(1, 4);
  probs.SetEdge(0, std::vector<TopicProb>{{0, 0.8f}, {1, 0.4f}});
  const InfluenceGraph blind = InfluenceGraph::TopicBlind(g, probs);
  EXPECT_NEAR(blind.EdgeProb(0), (0.8 + 0.4) / 4.0, 1e-6);
}

TEST(InfluenceGraphTest, WeightedCascadeInverseInDegree) {
  const Graph g = MakeStar(4);  // all edges point at distinct leaves
  const InfluenceGraph wc = InfluenceGraph::WeightedCascade(g);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_FLOAT_EQ(wc.EdgeProb(e), 1.0f);
  }
  // Two parents -> probability 1/2.
  GraphBuilder b;
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  const Graph g2 = b.Build();
  const InfluenceGraph wc2 = InfluenceGraph::WeightedCascade(g2);
  EXPECT_FLOAT_EQ(wc2.EdgeProb(0), 0.5f);
}

TEST(InfluenceGraphTest, BuildPieceGraphsOnePerPiece) {
  const Graph g = MakeCycle(4);
  Rng rng(9);
  const Campaign c = Campaign::SampleUniformPieces(3, 5, &rng);
  EdgeTopicProbs probs = AssignWeightedCascadeTopics(g, 5, 2.0, 11);
  const std::vector<InfluenceGraph> pieces = BuildPieceGraphs(g, probs, c);
  EXPECT_EQ(pieces.size(), 3u);
  for (const auto& ig : pieces) {
    EXPECT_EQ(&ig.graph(), &g);
  }
}

TEST(InfluenceGraphTest, BuildPieceGraphsIsThreadCountInvariant) {
  // Each piece built alone is the reference for the pieces built
  // together on 1, 2, 3 and 8 workers.
  const Dataset ds = MakeLastFmLike(1);
  Rng rng(3);
  const Campaign c = Campaign::SampleUniformPieces(5, ds.num_topics, &rng);
  for (const int workers : {1, 2, 3, 8}) {
    const std::vector<InfluenceGraph> pieces =
        BuildPieceGraphs(*ds.graph, *ds.probs, c, workers);
    ASSERT_EQ(pieces.size(), 5u);
    for (size_t j = 0; j < pieces.size(); ++j) {
      const InfluenceGraph alone = InfluenceGraph::ForPiece(
          *ds.graph, *ds.probs, c.piece(static_cast<int>(j)).topics);
      EXPECT_EQ(&pieces[j].graph(), ds.graph.get());
      EXPECT_EQ(alone.edge_probs(), pieces[j].edge_probs())
          << j << ", " << workers << " workers";
      for (VertexId v = 0; v < ds.graph->num_vertices(); ++v) {
        const auto a = alone.LiveInEdges(v);
        const auto b = pieces[j].LiveInEdges(v);
        ASSERT_EQ(a.size(), b.size()) << j << "," << v;
        for (size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].src, b[i].src) << j << "," << v;
          EXPECT_EQ(a[i].prob, b[i].prob) << j << "," << v;
        }
      }
    }
  }
}

// --------------------------------------------------------- Prob models

TEST(ProbModelsTest, WeightedCascadeAverageNonZeros) {
  const Graph g = GenerateErdosRenyi(300, 0.03, 13);
  const EdgeTopicProbs probs =
      AssignWeightedCascadeTopics(g, 10, 2.5, 17);
  EXPECT_EQ(probs.num_edges(), g.num_edges());
  EXPECT_NEAR(probs.AverageNonZeros(), 2.5, 0.2);
}

/// True when both models hold the same entries, bit for bit.
bool SameProbs(const EdgeTopicProbs& a, const EdgeTopicProbs& b) {
  if (a.num_topics() != b.num_topics() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    const auto x = a.EdgeEntries(e);
    const auto y = b.EdgeEntries(e);
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].topic != y[i].topic ||
          std::bit_cast<uint32_t>(x[i].prob) !=
              std::bit_cast<uint32_t>(y[i].prob)) {
        return false;
      }
    }
  }
  return true;
}

TEST(ProbModelsTest, WeightedCascadeStreamIsTheSequentialBuild) {
  // The stream draws `arrives` edges and waits; another thread then
  // hands it the graph and writes its batches. The graph arrives before
  // the first edge, inside the first batch, exactly at a batch boundary,
  // midway, at the last edge and after it (the draws past the end are
  // dropped); the entries are checked on 1, 2, 3 and 8 workers.
  const Graph g = GenerateHolmeKim(3'000, 4, 0.4, 7);
  const EdgeId m = g.num_edges();
  const EdgeTopicProbs sequential = AssignWeightedCascadeTopics(g, 10, 2.5, 8);
  ASSERT_EQ(sequential.num_edges(), m);
  ASSERT_GT(m / 2, 2 * GraphHandoff::kBatchEdges);
  for (const EdgeId arrives : {EdgeId{0}, EdgeId{5}, GraphHandoff::kBatchEdges,
                               m / 2, m, m + 7}) {
    for (const int workers : {1, 2, 3, 8}) {
      GraphHandoff handoff(arrives);
      std::thread graph_task([&] {
        while (!handoff.stream_waiting()) std::this_thread::yield();
        handoff.Publish(&g);
      });
      const EdgeTopicProbs streamed =
          AssignWeightedCascadeTopics(&handoff, 10, 2.5, 8, workers);
      graph_task.join();
      EXPECT_TRUE(SameProbs(streamed, sequential))
          << "graph at edge " << arrives << ", " << workers << " workers";
    }
  }
}

TEST(ProbModelsTest, WeightedCascadeStreamWaitsForAHandedOffGraph) {
  // The handoff makes the stream wait after 50 edges until the graph is
  // published from another thread.
  const Graph g = GenerateHolmeKim(2'000, 4, 0.4, 3);
  const EdgeTopicProbs sequential = AssignWeightedCascadeTopics(g, 6, 2.0, 5);
  GraphHandoff handoff(50);
  EdgeTopicProbs streamed(0, 1);
  std::thread stream([&] {
    streamed = AssignWeightedCascadeTopics(&handoff, 6, 2.0, 5, 2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  handoff.Publish(&g);
  stream.join();
  EXPECT_TRUE(SameProbs(streamed, sequential));
}

TEST(ProbModelsTest, AffinityIsTheSameAtAnyWorkerCount) {
  const Graph g = GenerateErdosRenyi(300, 0.03, 43);
  const auto profiles = SampleNodeTopicProfiles(300, 9, 0.25, 3, 47);
  const EdgeTopicProbs one = AssignAffinityTopics(g, profiles, 3, 1.0, 0.2);
  for (const int workers : {2, 3, 8}) {
    EXPECT_TRUE(SameProbs(
        AssignAffinityTopics(g, profiles, 3, 1.0, 0.2, workers), one))
        << workers << " workers";
  }
  // More workers than edges.
  const Graph tiny = MakePath(4);
  const auto tiny_profiles = SampleNodeTopicProfiles(4, 9, 0.25, 3, 53);
  EXPECT_TRUE(SameProbs(AssignAffinityTopics(tiny, tiny_profiles, 3, 1.0, 0.0,
                                             8),
                        AssignAffinityTopics(tiny, tiny_profiles, 3, 1.0)));
}

TEST(ProbModelsTest, TrivalencyUsesOnlyThreeLevels) {
  const Graph g = GenerateErdosRenyi(100, 0.05, 13);
  const EdgeTopicProbs probs = AssignTrivalencyTopics(g, 5, 1.5, 19);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (const TopicProb& tp : probs.EdgeEntries(e)) {
      EXPECT_TRUE(tp.prob == 0.1f || tp.prob == 0.01f ||
                  tp.prob == 0.001f);
    }
  }
}

TEST(ProbModelsTest, AffinityRespectsTopK) {
  const Graph g = GenerateErdosRenyi(200, 0.04, 23);
  const auto profiles = SampleNodeTopicProfiles(200, 8, 0.5, 4, 29);
  const EdgeTopicProbs probs = AssignAffinityTopics(g, profiles, 2, 1.0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LE(probs.EdgeEntries(e).size(), 2u);
  }
}

TEST(ProbModelsTest, NodeProfilesTruncatedAndNormalized) {
  const auto profiles = SampleNodeTopicProfiles(50, 10, 0.3, 3, 31);
  EXPECT_EQ(profiles.size(), 50u);
  for (const TopicVector& p : profiles) {
    EXPECT_LE(p.NumNonZero(), 3);
    EXPECT_NEAR(p.Sum(), 1.0, 1e-9);
  }
}

TEST(ProbModelsTest, ProbabilitiesAlwaysInUnitRange) {
  const Graph g = GenerateBarabasiAlbert(400, 3, 37);
  const EdgeTopicProbs probs =
      AssignWeightedCascadeTopics(g, 6, 1.5, 41);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (const TopicProb& tp : probs.EdgeEntries(e)) {
      EXPECT_GE(tp.prob, 0.0f);
      EXPECT_LE(tp.prob, 1.0f);
    }
  }
}

}  // namespace
}  // namespace oipa
