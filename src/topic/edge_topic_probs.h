#ifndef OIPA_TOPIC_EDGE_TOPIC_PROBS_H_
#define OIPA_TOPIC_EDGE_TOPIC_PROBS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "topic/topic_vector.h"

namespace oipa {

/// A (topic, probability) pair on an edge: p(e | z).
struct TopicProb {
  int32_t topic;
  float prob;
};

/// Sparse per-edge topic-aware influence probabilities: for each edge e and
/// topic z, p(e|z) is the probability that e transmits a pure-topic-z piece
/// (the TIC model of Barbieri et al.). Stored CSR-style over EdgeIds since
/// real-world edges carry only a few non-zero topics (the paper reports an
/// average of 1.5 on tweet).
class EdgeTopicProbs {
 public:
  EdgeTopicProbs(EdgeId num_edges, int num_topics);

  /// Takes a whole CSR layout at once: edge e's entries are
  /// entries[offsets[e], offsets[e + 1]), sorted by topic. `offsets`
  /// starts at 0, never decreases and ends at entries.size(); every
  /// entry passes SetEdge's checks (valid topic, distinct within its
  /// edge, probability in [0, 1]), which run over edge ranges on
  /// `num_threads` workers (ResolveThreadCount).
  EdgeTopicProbs(int num_topics, std::vector<int64_t> offsets,
                 std::vector<TopicProb> entries, int num_threads = 1);

  /// Builder-style population: call once per edge in increasing EdgeId
  /// order; entries must have valid, distinct topic ids and probs in
  /// [0, 1]. They are appended and sorted by topic in place, so callers
  /// can pass one reused buffer for every edge.
  void SetEdge(EdgeId e, std::span<const TopicProb> entries);

  /// Reserves room for `entries` (topic, probability) pairs in total,
  /// so a builder that knows an upper bound never reallocates.
  void Reserve(int64_t entries) {
    entries_.reserve(static_cast<size_t>(entries));
  }

  EdgeId num_edges() const {
    return static_cast<EdgeId>(offsets_.size()) - 1;
  }
  int num_topics() const { return num_topics_; }
  int64_t num_entries() const { return static_cast<int64_t>(entries_.size()); }

  /// Average number of non-zero topic probabilities per edge.
  double AverageNonZeros() const;

  std::span<const TopicProb> EdgeEntries(EdgeId e) const {
    return {entries_.data() + offsets_[e], entries_.data() + offsets_[e + 1]};
  }

  /// p(e | z): 0 if the topic is not present on the edge.
  double Prob(EdgeId e, int topic) const;

  /// p(t, e) = t . p(e): probability that piece `t` crosses edge e,
  /// clamped to [0, 1].
  double PieceProb(EdgeId e, const TopicVector& piece) const;

  /// PieceProb of every edge, as floats (a piece's influence graph);
  /// the piece's topic count is checked once, not per edge.
  std::vector<float> PieceProbs(const TopicVector& piece) const;

  /// PieceProb of edges [begin, end) for several pieces at once:
  /// out[j][e] for pieces[j], reading each edge's entries once. Each
  /// piece's topic count is checked once per call.
  void PieceProbs(std::span<const TopicVector* const> pieces, EdgeId begin,
                  EdgeId end, std::span<float* const> out) const;

  /// Topic-blind probability: mean of p(e|z) over all |Z| topics (zeros
  /// included). This is the edge weight the topic-agnostic IM baseline
  /// sees.
  double MeanProb(EdgeId e) const;

 private:
  /// SetEdge's per-entry checks on one edge's topic-sorted entries.
  void CheckEdgeEntries(std::span<const TopicProb> entries) const;

  int num_topics_;
  std::vector<int64_t> offsets_;
  std::vector<TopicProb> entries_;
  EdgeId next_edge_ = 0;  // SetEdge must be called in order
};

}  // namespace oipa

#endif  // OIPA_TOPIC_EDGE_TOPIC_PROBS_H_
