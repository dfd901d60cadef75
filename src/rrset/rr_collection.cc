#include "rrset/rr_collection.h"

#include <algorithm>

#include "rrset/rr_sampler.h"
#include "util/logging.h"
#include "util/threading.h"

namespace oipa {

RrCollection RrCollection::Generate(const InfluenceGraph& ig, int64_t theta,
                                    uint64_t seed) {
  OIPA_CHECK_GE(theta, 0);
  RrCollection rc(ig.graph().num_vertices(), seed);
  rc.Extend(ig, theta);
  return rc;
}

void RrCollection::Extend(const InfluenceGraph& ig, int64_t extra) {
  OIPA_CHECK_GE(extra, 0);
  OIPA_CHECK_EQ(ig.graph().num_vertices(), num_vertices_);
  if (extra == 0) return;
  const int64_t begin_sample = theta();
  const VertexId n = num_vertices_;

  // Shard-local buffers, stitched afterwards so results are independent of
  // the number of threads (per-sample seeds fix the randomness).
  const int shards = GetNumThreads();
  std::vector<std::vector<VertexId>> shard_roots(shards);
  std::vector<std::vector<int32_t>> shard_sizes(shards);
  std::vector<std::vector<VertexId>> shard_nodes(shards);

  ParallelFor(extra, [&](int shard, int64_t lo, int64_t hi) {
    RrSampler sampler(n);
    auto& roots = shard_roots[shard];
    auto& sizes = shard_sizes[shard];
    auto& nodes = shard_nodes[shard];
    for (int64_t s = lo; s < hi; ++s) {
      const int64_t sample = begin_sample + s;
      Rng root_rng(PerSampleSeed(base_seed_, sample, -1));
      const VertexId root = static_cast<VertexId>(root_rng.NextBounded(n));
      const size_t before = nodes.size();
      sampler.Sample(ig, root, PerSampleSeed(base_seed_, sample, 0), &nodes);
      roots.push_back(root);
      sizes.push_back(static_cast<int32_t>(nodes.size() - before));
    }
  });

  for (int shard = 0; shard < shards; ++shard) {
    roots_.insert(roots_.end(), shard_roots[shard].begin(),
                  shard_roots[shard].end());
    for (int32_t size : shard_sizes[shard]) {
      offsets_.push_back(offsets_.back() + size);
    }
    nodes_.insert(nodes_.end(), shard_nodes[shard].begin(),
                  shard_nodes[shard].end());
  }
  index_valid_ = false;
}

void RrCollection::BuildInvertedIndex() const {
  inv_offsets_.assign(num_vertices_ + 1, 0);
  for (VertexId v : nodes_) ++inv_offsets_[v + 1];
  for (VertexId v = 0; v < num_vertices_; ++v) {
    inv_offsets_[v + 1] += inv_offsets_[v];
  }
  inv_samples_.resize(nodes_.size());
  std::vector<int64_t> fill(inv_offsets_.begin(), inv_offsets_.end() - 1);
  for (int64_t i = 0; i < theta(); ++i) {
    for (VertexId v : Set(i)) {
      inv_samples_[fill[v]++] = i;
    }
  }
  index_valid_ = true;
}

std::span<const int64_t> RrCollection::SamplesContaining(VertexId v) const {
  if (!index_valid_) BuildInvertedIndex();
  return {inv_samples_.data() + inv_offsets_[v],
          inv_samples_.data() + inv_offsets_[v + 1]};
}

double RrCollection::EstimateSpread(
    const std::vector<VertexId>& seeds) const {
  if (theta() == 0) return 0.0;
  std::vector<uint8_t> covered(theta(), 0);
  for (VertexId s : seeds) {
    for (int64_t i : SamplesContaining(s)) covered[i] = 1;
  }
  int64_t count = 0;
  for (uint8_t c : covered) count += c;
  return static_cast<double>(num_vertices_) * static_cast<double>(count) /
         static_cast<double>(theta());
}

}  // namespace oipa
