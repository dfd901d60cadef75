#ifndef OIPA_DATA_DATASETS_H_
#define OIPA_DATA_DATASETS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "topic/edge_topic_probs.h"

namespace oipa {

/// A ready-to-use experimental dataset: social graph, learned/synthetic
/// topic-aware probabilities, and the promoter pool V_p (the paper draws
/// V_p as 10% of users).
struct Dataset {
  std::string name;
  std::unique_ptr<Graph> graph;
  std::unique_ptr<EdgeTopicProbs> probs;
  int num_topics = 0;
  std::vector<VertexId> promoter_pool;
};

// Every builder below takes `num_threads` workers (ResolveThreadCount;
// 0 is the GetNumThreads() default). It generates the graph and draws
// the topic model side by side on two of them, and writes the per-edge
// work that needs both on all of them. Graph, topics and pool come from
// independent seeds (seed, seed + 1, seed + 2), so a dataset is
// bit-identical at any worker count; one worker builds the graph first.

/// Deterministically samples `fraction` of all vertices as promoters.
std::vector<VertexId> SamplePromoterPool(VertexId n, double fraction,
                                         uint64_t seed);

/// lastfm-like (Table III row 1): ~1.3K vertices, ~15K directed edges,
/// 20 topics. Clustered power-law social graph; weighted-cascade style
/// topic probabilities. The paper learns these with TIC from the lastfm
/// action log, which the repo does not ship; planning reads only each
/// edge's topic mixture, so a generated one exercises the same paths,
/// and examples/learning_pipeline.cpp runs the generate->log->learn
/// pipeline end to end.
Dataset MakeLastFmLike(uint64_t seed = 7, int num_threads = 1);

/// dblp-like (Table III row 2): co-authorship-style clustered power-law
/// graph with 9 research-field topics derived from per-author field
/// profiles. Paper scale is 0.5M/6M; `scale` shrinks vertex count
/// (default 0.1 => ~50K vertices) to keep bench defaults laptop-sized.
Dataset MakeDblpLike(double scale = 0.1, uint64_t seed = 11,
                     int num_threads = 1);

/// tweet-like (Table III row 3): extremely sparse retweet graph (average
/// degree ~1.2), 50 topics, ~1.5 non-zero topic probabilities per edge.
/// Paper scale is 10M/12M; `scale` shrinks vertex count (default 0.01 =>
/// ~100K vertices).
Dataset MakeTweetLike(double scale = 0.01, uint64_t seed = 13,
                      int num_threads = 1);

/// Smallest vertex count MakeSynthetic accepts: its Holme-Kim graph
/// grows from a clique of 4 + 1 vertices.
inline constexpr VertexId kMinSyntheticVertices = 5;

/// Free-form synthetic dataset (the CLI's and the serve daemon's
/// default): clustered power-law Holme-Kim graph with weighted-cascade
/// topic probabilities and a `pool_fraction` promoter pool. Requires
/// n >= kMinSyntheticVertices.
Dataset MakeSynthetic(VertexId n, int num_topics, double pool_fraction,
                      uint64_t seed, int num_threads = 1);

/// Looks up a dataset by name ("lastfm", "dblp", "tweet") at the given
/// scale (ignored for lastfm, which is already full-scale).
Dataset MakeDatasetByName(const std::string& name, double scale,
                          uint64_t seed, int num_threads = 1);

}  // namespace oipa

#endif  // OIPA_DATA_DATASETS_H_
