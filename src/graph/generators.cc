#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/graph_builder.h"
#include "util/logging.h"
#include "util/random.h"

namespace oipa {

Graph GenerateErdosRenyi(VertexId n, double p, uint64_t seed) {
  OIPA_CHECK_GE(n, 0);
  OIPA_CHECK_GE(p, 0.0);
  OIPA_CHECK_LE(p, 1.0);
  GraphBuilder builder(n);
  if (n <= 1 || p <= 0.0) return builder.Build();

  Rng rng(seed);
  // Geometric skipping over the n*(n-1) candidate ordered pairs.
  const double log_1mp = std::log1p(-p);
  const int64_t total = static_cast<int64_t>(n) * (n - 1);
  int64_t idx = -1;
  for (;;) {
    if (p >= 1.0) {
      ++idx;
    } else {
      double u = rng.NextDouble();
      while (u <= 0.0) u = rng.NextDouble();
      idx += 1 + static_cast<int64_t>(std::floor(std::log(u) / log_1mp));
    }
    if (idx >= total) break;
    // Decode pair index -> (u, v) skipping the diagonal.
    const VertexId src = static_cast<VertexId>(idx / (n - 1));
    VertexId dst = static_cast<VertexId>(idx % (n - 1));
    if (dst >= src) ++dst;
    builder.AddEdge(src, dst);
  }
  return builder.Build();
}

Graph GenerateBarabasiAlbert(VertexId n, int m_per_node, uint64_t seed) {
  OIPA_CHECK_GE(m_per_node, 1);
  OIPA_CHECK_GE(n, m_per_node + 1);
  Rng rng(seed);
  GraphBuilder builder(n);

  // Repeated-endpoint list: sampling uniformly from it is sampling
  // proportionally to degree.
  std::vector<VertexId> endpoint_pool;
  const VertexId seed_size = static_cast<VertexId>(m_per_node + 1);
  for (VertexId u = 0; u < seed_size; ++u) {
    for (VertexId v = 0; v < seed_size; ++v) {
      if (u < v) {
        builder.AddUndirectedEdge(u, v);
        endpoint_pool.push_back(u);
        endpoint_pool.push_back(v);
      }
    }
  }
  std::vector<VertexId> targets;
  for (VertexId v = seed_size; v < n; ++v) {
    targets.clear();
    while (static_cast<int>(targets.size()) < m_per_node) {
      const VertexId t =
          endpoint_pool[rng.NextBounded(endpoint_pool.size())];
      if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
        targets.push_back(t);
      }
    }
    for (VertexId t : targets) {
      builder.AddUndirectedEdge(v, t);
      endpoint_pool.push_back(v);
      endpoint_pool.push_back(t);
    }
  }
  return builder.Build();
}

Graph GenerateHolmeKim(VertexId n, int m_per_node, double triad_p,
                       uint64_t seed) {
  OIPA_CHECK_GE(m_per_node, 1);
  OIPA_CHECK_GE(n, m_per_node + 1);
  OIPA_CHECK_GE(triad_p, 0.0);
  OIPA_CHECK_LE(triad_p, 1.0);
  Rng rng(seed);
  GraphBuilder builder(n);
  // Each link is two directed edges and two pool endpoints.
  const size_t max_edges =
      static_cast<size_t>(HolmeKimMaxEdges(n, m_per_node));
  builder.ReserveEdges(max_edges);

  std::vector<VertexId> endpoint_pool;
  endpoint_pool.reserve(max_edges);
  std::vector<std::vector<VertexId>> adj(n);
  auto connect = [&](VertexId a, VertexId b) {
    builder.AddUndirectedEdge(a, b);
    endpoint_pool.push_back(a);
    endpoint_pool.push_back(b);
    adj[a].push_back(b);
    adj[b].push_back(a);
  };

  const VertexId seed_size = static_cast<VertexId>(m_per_node + 1);
  for (VertexId u = 0; u < seed_size; ++u) {
    for (VertexId v = static_cast<VertexId>(u + 1); v < seed_size; ++v) {
      connect(u, v);
    }
  }

  std::vector<VertexId> chosen;
  for (VertexId v = seed_size; v < n; ++v) {
    chosen.clear();
    VertexId last_target = -1;
    int added = 0;
    int guard = 0;
    while (added < m_per_node && guard++ < 50 * m_per_node) {
      VertexId t = -1;
      // Triad closure: link to a random neighbor of the previous target.
      if (last_target >= 0 && rng.NextBernoulli(triad_p) &&
          !adj[last_target].empty()) {
        t = adj[last_target][rng.NextBounded(adj[last_target].size())];
      }
      if (t < 0 || t == v ||
          std::find(chosen.begin(), chosen.end(), t) != chosen.end()) {
        t = endpoint_pool[rng.NextBounded(endpoint_pool.size())];
      }
      if (t == v ||
          std::find(chosen.begin(), chosen.end(), t) != chosen.end()) {
        continue;
      }
      chosen.push_back(t);
      connect(v, t);
      last_target = t;
      ++added;
    }
  }
  return builder.Build();
}

EdgeId HolmeKimMaxEdges(VertexId n, int m_per_node) {
  const EdgeId m = m_per_node;
  return 2 * (m * (m + 1) / 2 + (static_cast<EdgeId>(n) - m - 1) * m);
}

Graph GenerateWattsStrogatz(VertexId n, int k_ring, double rewire_p,
                            uint64_t seed) {
  OIPA_CHECK_GE(k_ring, 1);
  OIPA_CHECK_GT(n, 2 * k_ring);
  Rng rng(seed);
  GraphBuilder builder(n);
  for (VertexId u = 0; u < n; ++u) {
    for (int d = 1; d <= k_ring; ++d) {
      VertexId v = static_cast<VertexId>((u + d) % n);
      if (rng.NextBernoulli(rewire_p)) {
        // Rewire to a uniform random non-self target.
        do {
          v = static_cast<VertexId>(rng.NextBounded(n));
        } while (v == u);
      }
      builder.AddUndirectedEdge(u, v);
    }
  }
  return builder.Build();
}

Graph GenerateRetweetForest(VertexId n, double avg_degree, uint64_t seed) {
  OIPA_CHECK_GT(n, 1);
  OIPA_CHECK_GT(avg_degree, 0.0);
  Rng rng(seed);
  GraphBuilder builder(n);

  // A small celebrity set receives a Zipf-like share of all edges; the
  // remainder land on uniform random targets. This reproduces the key
  // regime of the paper's tweet graph: avg degree ~1.2 with a heavy tail.
  const VertexId num_celebrities = std::max<VertexId>(
      1, static_cast<VertexId>(std::sqrt(static_cast<double>(n))));
  const int64_t target_edges = static_cast<int64_t>(avg_degree * n);
  std::vector<double> celebrity_weight(num_celebrities);
  for (VertexId i = 0; i < num_celebrities; ++i) {
    celebrity_weight[i] = 1.0 / static_cast<double>(i + 1);  // Zipf(1)
  }
  for (int64_t e = 0; e < target_edges; ++e) {
    const VertexId src = static_cast<VertexId>(rng.NextBounded(n));
    VertexId dst = 0;
    if (rng.NextBernoulli(0.35)) {
      dst = static_cast<VertexId>(SampleDiscrete(celebrity_weight, &rng));
    } else {
      dst = static_cast<VertexId>(rng.NextBounded(n));
    }
    if (src != dst) builder.AddEdge(src, dst);
  }
  builder.ReserveVertices(n);
  return builder.Build();
}

Graph MakePath(VertexId n) {
  GraphBuilder builder(n);
  for (VertexId v = 0; v + 1 < n; ++v) builder.AddEdge(v, v + 1);
  builder.ReserveVertices(n);
  return builder.Build();
}

Graph MakeCycle(VertexId n) {
  OIPA_CHECK_GE(n, 2);
  GraphBuilder builder(n);
  for (VertexId v = 0; v < n; ++v) {
    builder.AddEdge(v, static_cast<VertexId>((v + 1) % n));
  }
  return builder.Build();
}

Graph MakeStar(VertexId leaves) {
  GraphBuilder builder(leaves + 1);
  for (VertexId v = 1; v <= leaves; ++v) builder.AddEdge(0, v);
  builder.ReserveVertices(leaves + 1);
  return builder.Build();
}

Graph MakeCompleteDigraph(VertexId n) {
  GraphBuilder builder(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (u != v) builder.AddEdge(u, v);
    }
  }
  builder.ReserveVertices(n);
  return builder.Build();
}

Graph MakeGrid(VertexId rows, VertexId cols) {
  OIPA_CHECK_GE(rows, 1);
  OIPA_CHECK_GE(cols, 1);
  GraphBuilder builder(rows * cols);
  auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (c + 1 < cols) builder.AddUndirectedEdge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) builder.AddUndirectedEdge(id(r, c), id(r + 1, c));
    }
  }
  return builder.Build();
}

}  // namespace oipa
