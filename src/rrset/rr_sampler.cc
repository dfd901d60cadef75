#include "rrset/rr_sampler.h"

#include <algorithm>

#include "util/default_init_allocator.h"
#include "util/logging.h"

namespace oipa {

RrSampler::RrSampler(VertexId num_vertices)
    : visit_epoch_(num_vertices, 0) {}

template <typename Members>
void RrSampler::Sample(const InfluenceGraph& ig, VertexId root,
                       uint64_t seed, Members* out) {
  const Graph& g = ig.graph();
  OIPA_CHECK_EQ(static_cast<VertexId>(visit_epoch_.size()),
                g.num_vertices());
  OIPA_CHECK_GE(root, 0);
  OIPA_CHECK_LT(root, g.num_vertices());

  size_t head = out->size();
  out->push_back(root);
  if (ig.LiveInEdges(root).empty()) return;

  ++epoch_;
  if (epoch_ == 0) {  // wrapped: reset stamps
    std::fill(visit_epoch_.begin(), visit_epoch_.end(), 0u);
    epoch_ = 1;
  }
  visit_epoch_[root] = epoch_;
  Rng rng(seed);
  // Indexed, not iterated: push_back may move the buffer.
  for (; head < out->size(); ++head) {
    const VertexId u = (*out)[head];
    for (const InfluenceGraph::LiveInEdge& e : ig.LiveInEdges(u)) {
      const VertexId w = e.src;
      if (visit_epoch_[w] == epoch_) continue;
      if (rng.NextFloat() < e.prob) {
        visit_epoch_[w] = epoch_;
        out->push_back(w);
      }
    }
  }
}

template void RrSampler::Sample(const InfluenceGraph&, VertexId, uint64_t,
                                std::vector<VertexId>*);
template void RrSampler::Sample(const InfluenceGraph&, VertexId, uint64_t,
                                DefaultInitVector<VertexId>*);

uint64_t PerSampleSeed(uint64_t base_seed, int64_t sample, int piece) {
  uint64_t state = base_seed ^ (0x9e3779b97f4a7c15ULL *
                                (static_cast<uint64_t>(sample) + 1));
  state ^= 0xbf58476d1ce4e5b9ULL * (static_cast<uint64_t>(piece) + 1);
  return SplitMix64Next(&state);
}

}  // namespace oipa
