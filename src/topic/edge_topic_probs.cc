#include "topic/edge_topic_probs.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/threading.h"

namespace oipa {

EdgeTopicProbs::EdgeTopicProbs(EdgeId num_edges, int num_topics)
    : num_topics_(num_topics) {
  OIPA_CHECK_GE(num_edges, 0);
  OIPA_CHECK_GT(num_topics, 0);
  offsets_.assign(num_edges + 1, 0);
}

EdgeTopicProbs::EdgeTopicProbs(int num_topics, std::vector<int64_t> offsets,
                               std::vector<TopicProb> entries,
                               int num_threads)
    : num_topics_(num_topics),
      offsets_(std::move(offsets)),
      entries_(std::move(entries)) {
  OIPA_CHECK_GT(num_topics, 0);
  OIPA_CHECK(!offsets_.empty() && offsets_.front() == 0);
  OIPA_CHECK(std::is_sorted(offsets_.begin(), offsets_.end()));
  OIPA_CHECK_EQ(offsets_.back(), static_cast<int64_t>(entries_.size()));
  ParallelFor(num_edges(), num_threads, [this](int, int64_t begin,
                                               int64_t end) {
    for (EdgeId e = begin; e < end; ++e) CheckEdgeEntries(EdgeEntries(e));
  });
  next_edge_ = num_edges();
}

void EdgeTopicProbs::SetEdge(EdgeId e, std::span<const TopicProb> entries) {
  OIPA_CHECK_EQ(e, next_edge_) << "SetEdge must be called in EdgeId order";
  OIPA_CHECK_LT(e, num_edges());
  const auto first =
      entries_.insert(entries_.end(), entries.begin(), entries.end());
  std::sort(first, entries_.end(),
            [](const TopicProb& a, const TopicProb& b) {
              return a.topic < b.topic;
            });
  CheckEdgeEntries(std::span<const TopicProb>(entries_).last(entries.size()));
  offsets_[e + 1] = static_cast<int64_t>(entries_.size());
  ++next_edge_;
}

void EdgeTopicProbs::CheckEdgeEntries(
    std::span<const TopicProb> entries) const {
  for (size_t i = 0; i < entries.size(); ++i) {
    OIPA_CHECK_GE(entries[i].topic, 0);
    OIPA_CHECK_LT(entries[i].topic, num_topics_);
    OIPA_CHECK_GE(entries[i].prob, 0.0f);
    OIPA_CHECK_LE(entries[i].prob, 1.0f);
    if (i > 0) OIPA_CHECK_LT(entries[i - 1].topic, entries[i].topic);
  }
}

double EdgeTopicProbs::AverageNonZeros() const {
  if (num_edges() == 0) return 0.0;
  return static_cast<double>(entries_.size()) /
         static_cast<double>(num_edges());
}

double EdgeTopicProbs::Prob(EdgeId e, int topic) const {
  for (const TopicProb& tp : EdgeEntries(e)) {
    if (tp.topic == topic) return tp.prob;
  }
  return 0.0;
}

namespace {

/// t . p(e) over one edge's entries, clamped to [0, 1]; the caller has
/// checked that `piece` spans the model's topics.
double ClampedDot(std::span<const TopicProb> entries,
                  const TopicVector& piece) {
  double p = 0.0;
  for (const TopicProb& tp : entries) {
    p += piece[tp.topic] * static_cast<double>(tp.prob);
  }
  return std::clamp(p, 0.0, 1.0);
}

}  // namespace

double EdgeTopicProbs::PieceProb(EdgeId e, const TopicVector& piece) const {
  OIPA_CHECK_EQ(piece.num_topics(), num_topics_);
  return ClampedDot(EdgeEntries(e), piece);
}

std::vector<float> EdgeTopicProbs::PieceProbs(
    const TopicVector& piece) const {
  std::vector<float> out(static_cast<size_t>(num_edges()));
  const TopicVector* pieces[] = {&piece};
  float* outs[] = {out.data()};
  PieceProbs(pieces, 0, num_edges(), outs);
  return out;
}

void EdgeTopicProbs::PieceProbs(std::span<const TopicVector* const> pieces,
                                EdgeId begin, EdgeId end,
                                std::span<float* const> out) const {
  OIPA_CHECK_EQ(pieces.size(), out.size());
  for (const TopicVector* piece : pieces) {
    OIPA_CHECK_EQ(piece->num_topics(), num_topics_);
  }
  for (EdgeId e = begin; e < end; ++e) {
    const std::span<const TopicProb> entries = EdgeEntries(e);
    for (size_t j = 0; j < pieces.size(); ++j) {
      out[j][e] = static_cast<float>(ClampedDot(entries, *pieces[j]));
    }
  }
}

double EdgeTopicProbs::MeanProb(EdgeId e) const {
  double sum = 0.0;
  for (const TopicProb& tp : EdgeEntries(e)) sum += tp.prob;
  return sum / static_cast<double>(num_topics_);
}

}  // namespace oipa
