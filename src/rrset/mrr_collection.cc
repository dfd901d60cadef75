#include "rrset/mrr_collection.h"

#include <algorithm>
#include <atomic>

#include "diffusion/lt_cascade.h"
#include "rrset/rr_sampler.h"
#include "util/logging.h"
#include "util/threading.h"

namespace oipa {

namespace {

std::atomic<int64_t> g_generated_samples{0};

/// Index shards for one segment over `samples` samples holding
/// `postings` memberships under `keys` index keys: at most `threads`, at
/// most one per sample, and few enough that the shards' key-count
/// arrays (one int64 per key each) take no more words than the segment
/// itself (keys + 1 offsets plus one id per posting). Without the last
/// cap the scratch would grow as threads * l * (n+1) however small the
/// segment.
int IndexShards(int threads, int64_t samples, int64_t keys,
                int64_t postings) {
  const int64_t fit = (keys + 1 + postings) / keys;
  return static_cast<int>(
      std::max<int64_t>(1, std::min({int64_t{threads}, samples, fit})));
}

/// Cuts [begin, end) into `shards` contiguous ranges, non-empty when
/// shards <= end - begin: shard s covers [bounds[s], bounds[s+1]).
std::vector<int64_t> ShardBounds(int64_t begin, int64_t end, int shards) {
  std::vector<int64_t> bounds(shards + 1);
  for (int s = 0; s <= shards; ++s) {
    bounds[s] = begin + (end - begin) * s / shards;
  }
  return bounds;
}

/// Resizes `v` to `size` elements, reserving max(size, 2 * capacity)
/// when it runs out of room: a fresh collection's arrays come out exact,
/// and a run of small in-place Extends stays amortised O(new samples).
/// New slots are left unwritten (DefaultInitVector).
template <typename T>
void GrowTo(DefaultInitVector<T>* v, size_t size) {
  if (size > v->capacity()) v->reserve(std::max(size, 2 * v->capacity()));
  v->resize(size);
}

/// One Extend shard's RR-set members, staged until the shards before it
/// are sized. Each shard sits on its own cache lines: every push_back
/// writes its vector's header, and headers of neighbouring shards
/// sharing a line would bounce it between cores (false sharing).
struct alignas(64) SampleShard {
  std::vector<VertexId> nodes;
  int64_t node_base = 0;  // where `nodes` lands in nodes_
};

}  // namespace

int64_t MrrCollection::GeneratedSampleCount() {
  return g_generated_samples.load(std::memory_order_relaxed);
}

MrrCollection MrrCollection::Generate(
    const std::vector<InfluenceGraph>& piece_graphs, int64_t theta,
    uint64_t seed, DiffusionModel model, int num_threads) {
  OIPA_CHECK_GE(theta, 0);
  OIPA_CHECK(!piece_graphs.empty());
  const VertexId n = piece_graphs[0].graph().num_vertices();

  MrrCollection mc;
  mc.theta_ = 0;
  mc.num_pieces_ = static_cast<int>(piece_graphs.size());
  mc.num_vertices_ = n;
  mc.base_seed_ = seed;
  mc.model_ = model;
  mc.extendable_ = true;
  mc.Extend(piece_graphs, theta, num_threads);
  return mc;
}

void MrrCollection::Extend(const std::vector<InfluenceGraph>& piece_graphs,
                           int64_t new_theta, int num_threads) {
  OIPA_CHECK(extendable_)
      << "Extend on a collection without sampling provenance";
  OIPA_CHECK_EQ(static_cast<int>(piece_graphs.size()), num_pieces_);
  const VertexId n = num_vertices_;
  for (const InfluenceGraph& ig : piece_graphs) {
    OIPA_CHECK_EQ(ig.graph().num_vertices(), n)
        << "all pieces must share the social graph";
  }
  if (new_theta <= theta_) return;
  const int64_t begin = theta_;
  const int64_t extra = new_theta - begin;
  const int ell = num_pieces_;
  if (n == 0) {
    // No vertices: every sample is empty and there is nothing to index.
    theta_ = new_theta;
    return;
  }

  // Precompute LT weights once per piece when sampling under LT.
  std::vector<std::vector<float>> lt_weights;
  if (model_ == DiffusionModel::kLinearThreshold) {
    lt_weights.reserve(ell);
    for (const InfluenceGraph& ig : piece_graphs) {
      lt_weights.push_back(LtWeights(ig));
    }
  }

  const int workers = ResolveThreadCount(num_threads);
  const int shard_count =
      static_cast<int>(std::min<int64_t>(workers, extra));
  const std::vector<int64_t> bounds =
      ShardBounds(begin, new_theta, shard_count);
  std::vector<SampleShard> shards(shard_count);
  GrowTo(&roots_, new_theta);
  GrowTo(&offsets_, new_theta * ell + 1);

  // Sample. Sample i draws only from PerSampleSeed(base_seed_, i, .), so
  // the shard layout never changes a bit of the output. Roots go straight
  // to roots_[i] and each RR set's end within its shard's `nodes` to
  // offsets_[i*l+j+1]; the stitch rebases the ends.
  ParallelFor(shard_count, shard_count, [&](int, int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      std::vector<VertexId>& nodes = shards[s].nodes;
      nodes.reserve((bounds[s + 1] - bounds[s]) * ell);
      RrSampler sampler(n);
      std::vector<VertexId> lt_set;
      for (int64_t i = bounds[s]; i < bounds[s + 1]; ++i) {
        Rng root_rng(PerSampleSeed(base_seed_, i, -1));
        const VertexId root =
            static_cast<VertexId>(root_rng.NextBounded(n));
        roots_[i] = root;
        int64_t* set_ends = offsets_.data() + i * ell + 1;
        for (int j = 0; j < ell; ++j) {
          const uint64_t seed = PerSampleSeed(base_seed_, i, j);
          if (model_ == DiffusionModel::kLinearThreshold) {
            Rng rng(seed);
            SampleLtRrSet(piece_graphs[j].graph(), lt_weights[j], root,
                          &rng, &lt_set);
            nodes.insert(nodes.end(), lt_set.begin(), lt_set.end());
          } else {
            sampler.Sample(piece_graphs[j], root, seed, &nodes);
          }
          set_ends[j] = static_cast<int64_t>(nodes.size());
        }
      }
    }
  });

  // Stitch: every shard rebases its ends and copies its members to
  // positions fixed by the shards before it.
  int64_t total_nodes = static_cast<int64_t>(nodes_.size());
  for (SampleShard& shard : shards) {
    shard.node_base = total_nodes;
    total_nodes += static_cast<int64_t>(shard.nodes.size());
  }
  GrowTo(&nodes_, total_nodes);
  ParallelFor(shard_count, shard_count, [&](int, int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      const SampleShard& shard = shards[s];
      int64_t* ends = offsets_.data() + bounds[s] * ell + 1;
      int64_t* const ends_end = offsets_.data() + bounds[s + 1] * ell + 1;
      for (; ends != ends_end; ++ends) *ends += shard.node_base;
      std::copy(shard.nodes.begin(), shard.nodes.end(),
                nodes_.begin() + shard.node_base);
    }
  });
  theta_ = new_theta;
  shards.clear();  // frees the shard buffers before the index is built

  AppendIndexSegment(begin, new_theta, workers);
  g_generated_samples.fetch_add(extra, std::memory_order_relaxed);
}

MrrCollection MrrCollection::FromParts(
    int64_t theta, int num_pieces, VertexId num_vertices,
    DefaultInitVector<VertexId> roots, DefaultInitVector<int64_t> offsets,
    DefaultInitVector<VertexId> nodes, uint64_t base_seed,
    DiffusionModel model, bool extendable) {
  OIPA_CHECK_GE(theta, 0);
  OIPA_CHECK_GT(num_pieces, 0);
  OIPA_CHECK_GE(num_vertices, 0);
  OIPA_CHECK_EQ(static_cast<int64_t>(roots.size()), theta);
  OIPA_CHECK_EQ(static_cast<int64_t>(offsets.size()),
                theta * num_pieces + 1);
  OIPA_CHECK(offsets.empty() || offsets.front() == 0);
  OIPA_CHECK(offsets.empty() ||
             offsets.back() == static_cast<int64_t>(nodes.size()));
  for (size_t i = 1; i < offsets.size(); ++i) {
    OIPA_CHECK_LE(offsets[i - 1], offsets[i]);
  }
  for (VertexId v : nodes) {
    OIPA_CHECK_GE(v, 0);
    OIPA_CHECK_LT(v, num_vertices);
  }
  for (VertexId r : roots) {
    OIPA_CHECK_GE(r, 0);
    OIPA_CHECK_LT(r, num_vertices);
  }
  MrrCollection mc;
  mc.theta_ = theta;
  mc.num_pieces_ = num_pieces;
  mc.num_vertices_ = num_vertices;
  mc.base_seed_ = base_seed;
  mc.model_ = model;
  mc.extendable_ = extendable;
  mc.roots_ = std::move(roots);
  mc.offsets_ = std::move(offsets);
  mc.nodes_ = std::move(nodes);
  if (theta > 0 && num_vertices > 0) {
    mc.AppendIndexSegment(0, theta, GetNumThreads());
  }
  return mc;
}

void MrrCollection::AppendIndexSegment(int64_t begin, int64_t end,
                                       int workers) {
  const int64_t keys = IndexKey(num_pieces_, 0);
  const int64_t postings =
      offsets_[end * num_pieces_] - offsets_[begin * num_pieces_];
  const int shard_count =
      IndexShards(workers, end - begin, keys, postings);
  const std::vector<int64_t> bounds = ShardBounds(begin, end, shard_count);

  // cursors[s][key]: shard s's memberships under `key`.
  std::vector<std::vector<int64_t>> cursors(shard_count);
  ParallelFor(shard_count, shard_count, [&](int, int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      std::vector<int64_t>& counts = cursors[s];
      counts.assign(keys, 0);
      for (int64_t i = bounds[s]; i < bounds[s + 1]; ++i) {
        for (int j = 0; j < num_pieces_; ++j) {
          int64_t* piece_counts = counts.data() + IndexKey(j, 0);
          for (const VertexId v : Set(i, j)) ++piece_counts[v];
        }
      }
    }
  });

  IndexSegment seg;
  seg.begin_sample = begin;
  seg.end_sample = end;
  seg.offsets.resize(keys + 1);
  // Exclusive prefix sum in (key, shard) order: each count becomes the
  // shard's first write position under that key.
  int64_t next = 0;
  for (int64_t key = 0; key < keys; ++key) {
    seg.offsets[key] = next;
    for (std::vector<int64_t>& shard_cursors : cursors) {
      const int64_t count = shard_cursors[key];
      shard_cursors[key] = next;
      next += count;
    }
  }
  seg.offsets[keys] = next;
  OIPA_CHECK_EQ(next, postings);
  seg.samples.resize(static_cast<size_t>(next));
  ParallelFor(shard_count, shard_count, [&](int, int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      for (int64_t i = bounds[s]; i < bounds[s + 1]; ++i) {
        for (int j = 0; j < num_pieces_; ++j) {
          int64_t* piece_cursors = cursors[s].data() + IndexKey(j, 0);
          for (const VertexId v : Set(i, j)) {
            seg.samples[piece_cursors[v]++] = i;
          }
        }
      }
    }
  });
  segments_.push_back(std::move(seg));
}

int64_t MrrCollection::MemoryBytes() const {
  auto bytes = [](const auto& v) {
    return static_cast<int64_t>(v.capacity() * sizeof(v[0]));
  };
  int64_t total = bytes(roots_) + bytes(offsets_) + bytes(nodes_);
  for (const IndexSegment& seg : segments_) {
    total += bytes(seg.offsets) + bytes(seg.samples);
  }
  return total;
}

std::vector<int64_t> MrrCollection::SamplesContaining(int piece,
                                                      VertexId v) const {
  std::vector<int64_t> out;
  ForEachSampleContaining(piece, v,
                          [&out](int64_t i) { out.push_back(i); });
  return out;
}

}  // namespace oipa
