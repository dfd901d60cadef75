#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <set>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "util/random.h"
#include "util/stats.h"

namespace oipa {
namespace {

// ------------------------------------------------------------------ CSR

TEST(GraphTest, EmptyGraph) {
  const Graph g = Graph::Empty(5);
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 0);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(g.OutDegree(v), 0);
    EXPECT_EQ(g.InDegree(v), 0);
  }
}

TEST(GraphTest, ForwardAndReverseAdjacencyAgree) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  const Graph g = b.Build();
  ASSERT_EQ(g.num_edges(), 4);

  // Every (edge id, endpoints) triple visible forward must be visible in
  // reverse, and vice versa.
  std::set<std::tuple<VertexId, VertexId, EdgeId>> fwd, rev;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.OutNeighbors(v);
    const auto eids = g.OutEdgeIds(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      fwd.insert({v, nbrs[i], eids[i]});
    }
    const auto in_nbrs = g.InNeighbors(v);
    const auto in_eids = g.InEdgeIds(v);
    for (size_t i = 0; i < in_nbrs.size(); ++i) {
      rev.insert({in_nbrs[i], v, in_eids[i]});
    }
  }
  EXPECT_EQ(fwd, rev);
  EXPECT_EQ(fwd.size(), 4u);
}

TEST(GraphTest, EdgeIdsIndexEdgeList) {
  GraphBuilder b;
  b.AddEdge(2, 0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  const Graph g = b.Build();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.OutNeighbors(v);
    const auto eids = g.OutEdgeIds(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(g.edge(eids[i]).src, v);
      EXPECT_EQ(g.edge(eids[i]).dst, nbrs[i]);
    }
  }
}

TEST(GraphTest, DegreesAndAverage) {
  const Graph g = MakeStar(4);  // 0 -> 1..4
  EXPECT_EQ(g.OutDegree(0), 4);
  EXPECT_EQ(g.InDegree(0), 0);
  EXPECT_EQ(g.InDegree(3), 1);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 4.0 / 5.0);
  const std::vector<double> seq = g.OutDegreeSequence();
  EXPECT_EQ(seq[0], 4.0);
  EXPECT_EQ(seq[1], 0.0);
}

// -------------------------------------------------------------- Builder

TEST(GraphBuilderTest, DeduplicatesAndDropsSelfLoops) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);  // duplicate
  b.AddEdge(1, 1);  // self loop
  b.AddEdge(1, 0);
  const Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(GraphBuilderTest, GrowsVertexCountFromEndpoints) {
  GraphBuilder b;
  b.AddEdge(0, 9);
  const Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 10);
}

TEST(GraphBuilderTest, ReserveVerticesKeepsIsolated) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.ReserveVertices(100);
  const Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 100);
}

TEST(GraphBuilderTest, UndirectedAddsBothDirections) {
  GraphBuilder b;
  b.AddUndirectedEdge(0, 1);
  const Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.OutDegree(0), 1);
  EXPECT_EQ(g.OutDegree(1), 1);
}

TEST(GraphBuilderTest, BuilderResetsAfterBuild) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  (void)b.Build();
  EXPECT_EQ(b.num_pending_edges(), 0u);
  const Graph g2 = b.Build();
  EXPECT_EQ(g2.num_vertices(), 0);
}

TEST(GraphBuilderTest, MatchesSortUniqueDropSelfLoops) {
  // Reference: a full sort, then unique, then dropping self-loops.
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId n = 1 + static_cast<VertexId>(rng.NextBounded(60));
    // Trailing vertices past every endpoint stay isolated.
    const VertexId endpoints = 1 + static_cast<VertexId>(rng.NextBounded(n));
    const int m = static_cast<int>(rng.NextBounded(400));
    GraphBuilder builder(n);
    std::vector<Edge> reference;
    for (int i = 0; i < m; ++i) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(endpoints));
      // One edge in four is a self-loop, one a repeat of an earlier edge.
      VertexId v = static_cast<VertexId>(rng.NextBounded(endpoints));
      if (i % 4 == 1) v = u;
      if (i % 4 == 3 && !reference.empty()) {
        const Edge& again = reference[rng.NextBounded(reference.size())];
        builder.AddEdge(again.src, again.dst);
        reference.push_back(again);
        continue;
      }
      builder.AddEdge(u, v);
      reference.push_back({u, v});
    }
    std::sort(reference.begin(), reference.end());
    reference.erase(std::unique(reference.begin(), reference.end()),
                    reference.end());
    reference.erase(
        std::remove_if(reference.begin(), reference.end(),
                       [](const Edge& e) { return e.src == e.dst; }),
        reference.end());

    const Graph g = builder.Build();
    EXPECT_EQ(g.num_vertices(), n) << trial;
    EXPECT_EQ(g.edges(), reference) << trial;
  }
}

// --------------------------------------------------------- Fixed shapes

TEST(ShapesTest, Path) {
  const Graph g = MakePath(4);
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.OutDegree(3), 0);
}

TEST(ShapesTest, Cycle) {
  const Graph g = MakeCycle(5);
  EXPECT_EQ(g.num_edges(), 5);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(g.OutDegree(v), 1);
    EXPECT_EQ(g.InDegree(v), 1);
  }
}

TEST(ShapesTest, CompleteDigraph) {
  const Graph g = MakeCompleteDigraph(4);
  EXPECT_EQ(g.num_edges(), 12);
}

TEST(ShapesTest, Grid) {
  const Graph g = MakeGrid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12);
  // 2 * (3*3 + 2*4) = 34 directed edges.
  EXPECT_EQ(g.num_edges(), 34);
}

// ------------------------------------------------------------ Generators

TEST(GeneratorsTest, ErdosRenyiEdgeCountNearExpectation) {
  const VertexId n = 500;
  const double p = 0.01;
  const Graph g = GenerateErdosRenyi(n, p, 77);
  const double expected = p * n * (n - 1);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected,
              4.0 * std::sqrt(expected));
}

TEST(GeneratorsTest, ErdosRenyiDeterministic) {
  const Graph a = GenerateErdosRenyi(100, 0.05, 5);
  const Graph b = GenerateErdosRenyi(100, 0.05, 5);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(GeneratorsTest, ErdosRenyiExtremes) {
  EXPECT_EQ(GenerateErdosRenyi(50, 0.0, 1).num_edges(), 0);
  EXPECT_EQ(GenerateErdosRenyi(10, 1.0, 1).num_edges(), 90);
}

TEST(GeneratorsTest, BarabasiAlbertSizeAndPowerLaw) {
  const VertexId n = 3000;
  const int m_per = 4;
  const Graph g = GenerateBarabasiAlbert(n, m_per, 3);
  EXPECT_EQ(g.num_vertices(), n);
  // Each new node adds m_per undirected edges (2*m_per directed).
  const int64_t expected =
      2 * (m_per * (m_per + 1) / 2 + (n - m_per - 1) * m_per);
  EXPECT_EQ(g.num_edges(), expected);
  // Degree-distribution tail should fit a power law with exponent ~3.
  const double alpha =
      PowerLawExponentMle(g.OutDegreeSequence(), 2.0 * m_per);
  EXPECT_GT(alpha, 2.0);
  EXPECT_LT(alpha, 4.0);
}

TEST(GeneratorsTest, HolmeKimSizeMatchesBa) {
  const Graph g = GenerateHolmeKim(2000, 5, 0.5, 9);
  EXPECT_EQ(g.num_vertices(), 2000);
  EXPECT_GT(g.num_edges(), 2 * 5 * 1900);  // allow a few skipped links
  const double alpha = PowerLawExponentMle(g.OutDegreeSequence(), 10.0);
  EXPECT_GT(alpha, 1.8);
  EXPECT_LT(alpha, 4.5);
}

TEST(GeneratorsTest, WattsStrogatzDegreeRegular) {
  const Graph g = GenerateWattsStrogatz(500, 3, 0.0, 4);
  // No rewiring: every vertex has exactly 2*k_ring undirected neighbors.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.OutDegree(v), 6) << "v=" << v;
  }
}

TEST(GeneratorsTest, WattsStrogatzRewiredStillConnectedish) {
  const Graph g = GenerateWattsStrogatz(500, 3, 0.2, 4);
  EXPECT_GT(g.num_edges(), 500 * 4);  // most edges survive as pairs
}

TEST(GeneratorsTest, RetweetForestSparseWithHeavyTail) {
  const Graph g = GenerateRetweetForest(20'000, 1.2, 19);
  EXPECT_EQ(g.num_vertices(), 20'000);
  EXPECT_NEAR(g.AverageDegree(), 1.2, 0.15);
  // Celebrity in-degrees dominate: max in-degree far above the average.
  int64_t max_in = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_in = std::max(max_in, g.InDegree(v));
  }
  EXPECT_GT(max_in, 200);
}

// -------------------------------------------------------------------- IO

TEST(GraphIoTest, ParseEdgeListBasic) {
  auto g = ParseEdgeList("# comment\n0 1\n1 2\n\n2 0\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 3);
  EXPECT_EQ(g->num_edges(), 3);
}

TEST(GraphIoTest, ParseRemapsSparseIds) {
  auto g = ParseEdgeList("100 200\n200 300\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 3);  // dense remap
  EXPECT_EQ(g->num_edges(), 2);
}

TEST(GraphIoTest, ParseRejectsMissingTarget) {
  auto g = ParseEdgeList("0 1\n2\n");
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoTest, ParseRejectsNegativeIds) {
  auto g = ParseEdgeList("0 -1\n");
  EXPECT_FALSE(g.ok());
}

TEST(GraphIoTest, LoadMissingFileFails) {
  auto g = LoadEdgeListFile("/nonexistent/definitely/missing.txt");
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

TEST(GraphIoTest, SaveLoadRoundtrip) {
  const Graph g = GenerateErdosRenyi(50, 0.1, 6);
  const std::string path = testing::TempDir() + "/graph_roundtrip.txt";
  ASSERT_TRUE(SaveEdgeListFile(g, path).ok());
  auto loaded = LoadEdgeListFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace oipa
