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

/// Free member slots a direct sampling pass keeps ahead of its next
/// sample (at least; it also keeps twice the largest sample seen), so
/// that no sample's push_backs run out of room mid-set and let the
/// vector double on its own.
constexpr size_t kMinHeadroom = 1024;

/// Index shards for one segment over `samples` samples holding
/// `members` memberships under `keys` index keys: at most `threads`, at
/// most one per sample, and few enough that the shards' key-count
/// arrays (one word per key each) take no more words than the keys'
/// offsets plus one word per membership scanned. Without the last cap
/// the scratch would grow as threads * l * (n+1) however small the
/// segment.
int IndexShards(int threads, int64_t samples, int64_t keys,
                int64_t members) {
  const int64_t fit = (keys + 1 + members) / keys;
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

/// Makes room for `size` elements in `v`. Amortised growth reserves at
/// least twice the old capacity, so a run of small in-place Extends
/// stays O(new samples); otherwise exactly `size`, so a collection built
/// for its final size holds no slack.
template <typename Vector>
void Reserve(Vector* v, size_t size, bool amortised) {
  if (size <= v->capacity()) return;
  v->reserve(amortised ? std::max(size, 2 * v->capacity()) : size);
}

/// Member slots for `samples` more samples at `mean` members each: the
/// expectation, a 1/64 margin, and `headroom`.
size_t ExpectedMembers(double mean, int64_t samples, size_t headroom) {
  const double rest = mean * static_cast<double>(samples);
  return static_cast<size_t>(rest + rest / 64) + headroom;
}

/// Appends sample i's l RR sets to `out`, each root first, and stores
/// each set's end (`out`'s size after it) to set_ends[j]. Sample i draws
/// only from PerSampleSeed(base_seed, i, .), so where and on which
/// worker it is drawn never changes a bit of it. `lt_weights` is empty
/// under IC.
template <typename Members>
void AppendSample(std::span<const InfluenceGraph> piece_graphs,
                  const std::vector<std::vector<float>>& lt_weights,
                  uint64_t base_seed, int64_t i, RrSampler* sampler,
                  std::vector<VertexId>* lt_set, Members* out,
                  uint32_t* set_ends) {
  const VertexId n = piece_graphs[0].graph().num_vertices();
  Rng root_rng(PerSampleSeed(base_seed, i, -1));
  const VertexId root = static_cast<VertexId>(root_rng.NextBounded(n));
  for (size_t j = 0; j < piece_graphs.size(); ++j) {
    const uint64_t seed = PerSampleSeed(base_seed, i, static_cast<int>(j));
    if (!lt_weights.empty()) {
      Rng rng(seed);
      SampleLtRrSet(piece_graphs[j].graph(), lt_weights[j], root, &rng,
                    lt_set);
      out->insert(out->end(), lt_set->begin(), lt_set->end());
    } else {
      sampler->Sample(piece_graphs[j], root, seed, out);
    }
    OIPA_CHECK_LE(out->size(),
                  static_cast<size_t>(MrrCollection::kMaxMembers))
        << "MRR memberships exceed the 32-bit offset layout";
    set_ends[j] = static_cast<uint32_t>(out->size());
  }
}

/// One sharded pass's RR-set members, staged until the shards before it
/// are sized. Each shard sits on its own cache lines: every push_back
/// writes its vector's header, and headers of neighbouring shards
/// sharing a line would bounce it between cores (false sharing).
struct alignas(64) SampleShard {
  std::vector<VertexId> nodes;
  int64_t node_base = 0;  // where `nodes` lands in nodes_
  std::vector<uint32_t> pool_samples;
};

}  // namespace

int64_t MrrCollection::GeneratedSampleCount() {
  return g_generated_samples.load(std::memory_order_relaxed);
}

MrrCollection MrrCollection::Generate(
    std::span<const InfluenceGraph> piece_graphs, int64_t theta,
    uint64_t seed, DiffusionModel model, int num_threads, bool indexed,
    std::span<const VertexId> index_pool) {
  OIPA_CHECK_GE(theta, 0);
  OIPA_CHECK(!piece_graphs.empty());
  OIPA_CHECK_LE(piece_graphs.size(), static_cast<size_t>(kMaxPieces))
      << "more pieces than the uint8_t coverage counts hold";
  MrrCollection mc;
  mc.num_pieces_ = static_cast<int>(piece_graphs.size());
  mc.num_vertices_ = piece_graphs[0].graph().num_vertices();
  mc.base_seed_ = seed;
  mc.model_ = model;
  mc.extendable_ = true;
  mc.indexed_ = indexed;
  if (indexed && !index_pool.empty()) {
    auto in_pool = std::make_shared<std::vector<uint8_t>>(mc.num_vertices_);
    for (const VertexId v : index_pool) {
      OIPA_CHECK(v >= 0 && v < mc.num_vertices_) << "pool vertex " << v;
      (*in_pool)[v] = 1;
    }
    mc.index_pool_ = std::move(in_pool);
  }
  mc.Append(piece_graphs, theta, ResolveThreadCount(num_threads),
            /*amortised=*/false);
  return mc;
}

void MrrCollection::Extend(std::span<const InfluenceGraph> piece_graphs,
                           int64_t new_theta, int num_threads) {
  Append(piece_graphs, new_theta, ResolveThreadCount(num_threads),
         /*amortised=*/true);
}

MrrCollection MrrCollection::ExtendedCopy(
    std::span<const InfluenceGraph> piece_graphs, int64_t new_theta,
    int num_threads) const {
  OIPA_CHECK_LE(new_theta, kMaxSamples);
  const int64_t target = std::max(new_theta, theta_);
  MrrCollection grown;
  grown.theta_ = theta_;
  grown.num_pieces_ = num_pieces_;
  grown.num_vertices_ = num_vertices_;
  grown.base_seed_ = base_seed_;
  grown.model_ = model_;
  grown.extendable_ = extendable_;
  grown.indexed_ = indexed_;
  grown.segments_ = segments_;
  grown.index_pool_ = index_pool_;
  grown.offsets_.reserve(static_cast<size_t>(target * num_pieces_ + 1));
  grown.offsets_.assign(offsets_.begin(), offsets_.end());
  // This collection's mean members per sample predicts the new samples'.
  const double mean =
      theta_ > 0 ? static_cast<double>(nodes_.size()) / theta_ : 0.0;
  grown.nodes_.reserve(nodes_.size() +
                       ExpectedMembers(mean, target - theta_, kMinHeadroom));
  grown.nodes_.assign(nodes_.begin(), nodes_.end());
  grown.Append(piece_graphs, target, ResolveThreadCount(num_threads),
               /*amortised=*/false);
  return grown;
}

void MrrCollection::Append(std::span<const InfluenceGraph> piece_graphs,
                           int64_t new_theta, int workers, bool amortised) {
  OIPA_CHECK(extendable_)
      << "Extend on a collection without sampling provenance";
  OIPA_CHECK_EQ(static_cast<int>(piece_graphs.size()), num_pieces_);
  const VertexId n = num_vertices_;
  for (const InfluenceGraph& ig : piece_graphs) {
    OIPA_CHECK_EQ(ig.graph().num_vertices(), n)
        << "all pieces must share the social graph";
  }
  OIPA_CHECK_LE(new_theta, kMaxSamples)
      << "theta exceeds the 32-bit sample-id layout";
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

  const size_t offsets_size = static_cast<size_t>(new_theta * ell + 1);
  Reserve(&offsets_, offsets_size, amortised);
  offsets_.resize(offsets_size);
  // A pool index reads only the samples with a pool member, which the
  // sampling passes list while the members are in cache.
  std::vector<uint32_t> pool_samples;
  std::vector<uint32_t>* listed =
      indexed_ && index_pool_ != nullptr ? &pool_samples : nullptr;
  const int shard_count = static_cast<int>(std::min<int64_t>(workers, extra));
  if (shard_count <= 1) {
    SamplePass(piece_graphs, lt_weights, begin, new_theta, amortised,
               &nodes_, listed);
  } else {
    SampleSharded(piece_graphs, lt_weights, begin, new_theta, shard_count,
                  amortised, listed);
  }
  theta_ = new_theta;
  if (indexed_) AppendIndexSegment(begin, new_theta, workers, listed);
  g_generated_samples.fetch_add(extra, std::memory_order_relaxed);
}

template <typename Members>
void MrrCollection::SamplePass(
    std::span<const InfluenceGraph> piece_graphs,
    const std::vector<std::vector<float>>& lt_weights, int64_t begin,
    int64_t end, bool amortised, Members* out,
    std::vector<uint32_t>* pool_samples) {
  const int ell = num_pieces_;
  const size_t pass_base = out->size();
  size_t headroom = kMinHeadroom;
  // A member buffer must not reallocate on every doubling (nodes_ grows
  // in place; a shard's buffer is copied again by the stitch): reserve
  // for the whole pass at the collection's own mean — nodes_ and theta_
  // still describe the samples before this growth step — or, for a
  // fresh collection, for a pilot of 1/8 of the pass at one member per
  // set, and let the first refill below extrapolate from what the pilot
  // drew.
  if (theta_ > 0) {
    const double mean =
        static_cast<double>(nodes_.size()) / static_cast<double>(theta_);
    Reserve(out, pass_base + ExpectedMembers(mean, end - begin, headroom),
            amortised);
  } else {
    Reserve(out,
            pass_base + ExpectedMembers(
                            ell, std::max<int64_t>(1, (end - begin) / 8),
                            headroom),
            amortised);
  }
  const uint8_t* in_pool =
      pool_samples == nullptr ? nullptr : index_pool_->data();
  RrSampler sampler(num_vertices_);
  std::vector<VertexId> lt_set;
  for (int64_t i = begin; i < end; ++i) {
    if (out->capacity() - out->size() < headroom) {
      const int64_t done = i - begin;
      const double mean =
          done > 0 ? static_cast<double>(out->size() - pass_base) /
                         static_cast<double>(done)
                   : ell;
      Reserve(out, out->size() + ExpectedMembers(mean, end - i, headroom),
              amortised);
    }
    const size_t sample_begin = out->size();
    AppendSample(piece_graphs, lt_weights, base_seed_, i, &sampler, &lt_set,
                 out, offsets_.data() + i * ell + 1);
    headroom = std::max(headroom, 2 * (out->size() - sample_begin));
    if (pool_samples != nullptr &&
        std::any_of(out->begin() + sample_begin, out->end(),
                    [in_pool](VertexId v) { return in_pool[v] != 0; })) {
      pool_samples->push_back(static_cast<uint32_t>(i));
    }
  }
}

void MrrCollection::SampleSharded(
    std::span<const InfluenceGraph> piece_graphs,
    const std::vector<std::vector<float>>& lt_weights, int64_t begin,
    int64_t end, int workers, bool amortised,
    std::vector<uint32_t>* pool_samples) {
  const int ell = num_pieces_;
  const std::vector<int64_t> bounds = ShardBounds(begin, end, workers);
  std::vector<SampleShard> shards(workers);

  // Sample: each RR set's end within its shard's `nodes` goes straight
  // to offsets_[i*l+j+1]; the stitch rebases the ends.
  ParallelFor(workers, workers, [&](int, int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      SamplePass(piece_graphs, lt_weights, bounds[s], bounds[s + 1],
                 /*amortised=*/false, &shards[s].nodes,
                 pool_samples == nullptr ? nullptr : &shards[s].pool_samples);
    }
  });
  if (pool_samples != nullptr) {
    for (const SampleShard& shard : shards) {
      pool_samples->insert(pool_samples->end(), shard.pool_samples.begin(),
                           shard.pool_samples.end());
    }
  }

  // Stitch: every shard rebases its ends and copies its members to
  // positions fixed by the shards before it.
  int64_t total_nodes = static_cast<int64_t>(nodes_.size());
  for (SampleShard& shard : shards) {
    shard.node_base = total_nodes;
    total_nodes += static_cast<int64_t>(shard.nodes.size());
  }
  OIPA_CHECK_LE(total_nodes, kMaxMembers)
      << "MRR memberships exceed the 32-bit offset layout";
  Reserve(&nodes_, static_cast<size_t>(total_nodes), amortised);
  nodes_.resize(static_cast<size_t>(total_nodes));
  ParallelFor(workers, workers, [&](int, int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      const SampleShard& shard = shards[s];
      const uint32_t base = static_cast<uint32_t>(shard.node_base);
      uint32_t* ends = offsets_.data() + bounds[s] * ell + 1;
      uint32_t* const ends_end = offsets_.data() + bounds[s + 1] * ell + 1;
      for (; ends != ends_end; ++ends) *ends += base;
      std::copy(shard.nodes.begin(), shard.nodes.end(),
                nodes_.begin() + shard.node_base);
    }
  });
}

MrrCollection MrrCollection::FromParts(
    int64_t theta, int num_pieces, VertexId num_vertices,
    DefaultInitVector<uint32_t> offsets, DefaultInitVector<VertexId> nodes,
    uint64_t base_seed, DiffusionModel model, bool extendable,
    bool indexed) {
  OIPA_CHECK_GE(theta, 0);
  OIPA_CHECK_LE(theta, kMaxSamples);
  OIPA_CHECK_GT(num_pieces, 0);
  OIPA_CHECK_LE(num_pieces, kMaxPieces)
      << "more pieces than the uint8_t coverage counts hold";
  OIPA_CHECK_GE(num_vertices, 0);
  OIPA_CHECK_EQ(static_cast<int64_t>(offsets.size()),
                theta * num_pieces + 1);
  OIPA_CHECK_EQ(offsets.front(), 0u);
  OIPA_CHECK_EQ(static_cast<size_t>(offsets.back()), nodes.size());
  for (size_t i = 1; i < offsets.size(); ++i) {
    OIPA_CHECK_LT(offsets[i - 1], offsets[i]) << "empty RR set";
  }
  for (VertexId v : nodes) {
    OIPA_CHECK_GE(v, 0);
    OIPA_CHECK_LT(v, num_vertices);
  }
  for (int64_t i = 0; i < theta; ++i) {
    const VertexId root = nodes[offsets[i * num_pieces]];
    for (int j = 1; j < num_pieces; ++j) {
      OIPA_CHECK_EQ(nodes[offsets[i * num_pieces + j]], root)
          << "sample " << i << "'s sets disagree on the root";
    }
  }
  MrrCollection mc;
  mc.theta_ = theta;
  mc.num_pieces_ = num_pieces;
  mc.num_vertices_ = num_vertices;
  mc.base_seed_ = base_seed;
  mc.model_ = model;
  mc.extendable_ = extendable;
  mc.indexed_ = indexed;
  mc.offsets_ = std::move(offsets);
  mc.nodes_ = std::move(nodes);
  if (indexed && theta > 0 && num_vertices > 0) {
    mc.AppendIndexSegment(0, theta, GetNumThreads());
  }
  return mc;
}

void MrrCollection::AppendIndexSegment(int64_t begin, int64_t end,
                                       int workers,
                                       const std::vector<uint32_t>* listed) {
  const int64_t keys = IndexKey(num_pieces_, 0);
  const int64_t members =
      static_cast<int64_t>(offsets_[end * num_pieces_]) -
      offsets_[begin * num_pieces_];
  // The passes visit samples sample_at(0 .. visits).
  const int64_t visits =
      listed == nullptr ? end - begin : static_cast<int64_t>(listed->size());
  auto sample_at = [listed, begin](int64_t k) -> int64_t {
    return listed == nullptr ? begin + k : (*listed)[k];
  };
  const int shard_count = IndexShards(workers, visits, keys, members);
  const std::vector<int64_t> bounds = ShardBounds(0, visits, shard_count);
  const uint8_t* in_pool =
      index_pool_ == nullptr ? nullptr : index_pool_->data();
  auto indexed = [in_pool](VertexId v) {
    return in_pool == nullptr || in_pool[v] != 0;
  };

  // cursors[s][key]: shard s's memberships under `key`.
  std::vector<std::vector<uint32_t>> cursors(shard_count);
  ParallelFor(shard_count, shard_count, [&](int, int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      std::vector<uint32_t>& counts = cursors[s];
      counts.assign(keys, 0);
      for (int64_t k = bounds[s]; k < bounds[s + 1]; ++k) {
        const int64_t i = sample_at(k);
        for (int j = 0; j < num_pieces_; ++j) {
          uint32_t* piece_counts = counts.data() + IndexKey(j, 0);
          for (const VertexId v : Set(i, j)) {
            if (indexed(v)) ++piece_counts[v];
          }
        }
      }
    }
  });

  auto seg = std::make_shared<IndexSegment>();
  seg->begin_sample = begin;
  seg->end_sample = end;
  seg->offsets.resize(keys + 1);
  // Exclusive prefix sum in (key, shard) order: each count becomes the
  // shard's first write position under that key. Every position is
  // below `members`, which the member ceiling keeps within 32 bits.
  uint32_t next = 0;
  for (int64_t key = 0; key < keys; ++key) {
    seg->offsets[key] = next;
    for (std::vector<uint32_t>& shard_cursors : cursors) {
      const uint32_t count = shard_cursors[key];
      shard_cursors[key] = next;
      next += count;
    }
  }
  seg->offsets[keys] = next;
  OIPA_CHECK_LE(static_cast<int64_t>(next), members);
  seg->samples.resize(static_cast<size_t>(next));
  ParallelFor(shard_count, shard_count, [&](int, int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      for (int64_t k = bounds[s]; k < bounds[s + 1]; ++k) {
        const int64_t i = sample_at(k);
        for (int j = 0; j < num_pieces_; ++j) {
          uint32_t* piece_cursors = cursors[s].data() + IndexKey(j, 0);
          for (const VertexId v : Set(i, j)) {
            if (indexed(v)) {
              seg->samples[piece_cursors[v]++] = static_cast<uint32_t>(i);
            }
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
  int64_t total = bytes(offsets_) + bytes(nodes_);
  for (const std::shared_ptr<const IndexSegment>& seg : segments_) {
    total += bytes(seg->offsets) + bytes(seg->samples);
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
