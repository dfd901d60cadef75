#ifndef OIPA_RRSET_MRR_COLLECTION_H_
#define OIPA_RRSET_MRR_COLLECTION_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "topic/influence_graph.h"
#include "util/default_init_allocator.h"

namespace oipa {

/// Multi-RR (MRR) sets — the paper's Section V-A extension of RR sets to
/// multifaceted campaigns. Each of the `theta` samples draws one uniform
/// root v_i and, for every piece j, one RR set R_i^j on that piece's
/// influence graph, all rooted at v_i. A plan S̄ covers piece j of sample
/// i iff S_j intersects R_i^j; the adoption-utility estimator of Lemma 2
/// is (n/theta) * sum_i f(#covered pieces of sample i).
/// Which diffusion model the reverse-reachable sets are sampled under.
enum class DiffusionModel {
  kIndependentCascade,  // the paper's model
  kLinearThreshold,     // extension: LT live-edge path sampling
};

/// A growable collection of MRR samples. Sample i's randomness depends
/// only on (base seed, i, piece) — PerSampleSeed — so the collection can
/// be grown in place: Generate(theta1) followed by Extend(theta2) is
/// bit-identical (sets, roots, and inverted-index queries) to a fresh
/// Generate(theta2), regardless of thread count. Growth appends an
/// inverted-index segment covering only the new samples, so an Extend
/// costs amortised O(new samples), never a full index rebuild.
///
/// Layout: the RR sets live in one flat member array, sample-major and
/// piece-minor, cut by 32-bit offsets; index postings are 32-bit sample
/// ids. A sample's root is not stored: every set lists its root first,
/// so root(i) reads R_i^0's first member. A collection holds at most
/// kMaxSamples samples and kMaxMembers memberships. An unindexed
/// collection (the holdout, which only scores finished plans) skips the
/// inverted index altogether.
///
/// On one worker, sampling appends straight to the flat arrays. On
/// several, each contiguous sample range is sampled into its own shard,
/// the shards are stitched into the flat arrays, and the segment's index
/// is built sharded too.
class MrrCollection {
 public:
  /// Ceilings of the 32-bit layout: sample ids and RR-set offsets are
  /// uint32_t, so theta and the total membership count stay at or below
  /// these. Input surfaces (wire, CLI, API) reject a larger theta.
  static constexpr int64_t kMaxSamples =
      std::numeric_limits<uint32_t>::max();
  static constexpr int64_t kMaxMembers =
      std::numeric_limits<uint32_t>::max();
  /// The largest l whose per-sample covered-piece counts 0..l all fit in
  /// the uint8_t counters of CoverageState, the coverage kernels and
  /// EstimateAdoptionUtility. Input surfaces reject more pieces.
  static constexpr int kMaxPieces = std::numeric_limits<uint8_t>::max();

  /// Generates theta samples over `piece_graphs` (all sharing one social
  /// graph; at most kMaxPieces of them). Over one graph the samples are
  /// plain RR sets, as RIS and IMM use (im/imm.h). Deterministic given
  /// `seed`, independent of thread count: sample i's randomness is
  /// PerSampleSeed(seed, i, piece), so any `num_threads` (0 = the
  /// GetNumThreads() default, N > 0 = exactly N workers) yields
  /// bit-identical samples. With `indexed` false no
  /// inverted index is built, now or on growth: the collection can be
  /// scanned (Set, root) and scored (EstimateAdoptionUtility) but not
  /// searched (ForEachSample*, CoverageState, BoundEvaluator). A
  /// non-empty `index_pool` restricts the index, now and on growth, to
  /// those vertices' keys: every index reader keys on a promoter, so a
  /// search over that pool reads exactly what a full index would give
  /// it, and a vertex outside the pool reads as in no sample.
  /// Under kLinearThreshold, each piece's edge probabilities are first
  /// normalized to LT weights (see diffusion/lt_cascade.h) and RR sets
  /// are reverse live-edge paths; everything downstream (estimators,
  /// bounds, solvers) works unchanged, so OIPA can be solved under LT.
  static MrrCollection Generate(
      std::span<const InfluenceGraph> piece_graphs, int64_t theta,
      uint64_t seed,
      DiffusionModel model = DiffusionModel::kIndependentCascade,
      int num_threads = 0, bool indexed = true,
      std::span<const VertexId> index_pool = {});

  /// Grows the collection in place to `new_theta` samples (no-op when
  /// new_theta <= theta()). `piece_graphs` must be the graphs the
  /// collection was generated over; sampling continues from the stored
  /// base seed under the stored diffusion model, so the result is
  /// bit-identical to a fresh Generate(new_theta) — at any
  /// `num_threads` (same convention as Generate). Arrays that run out of
  /// room at least double, so runs of small extends stay amortised.
  /// CHECK-fails on collections without sampling provenance
  /// (FromParts-built ones with extendable() == false) and past
  /// kMaxSamples.
  void Extend(std::span<const InfluenceGraph> piece_graphs,
              int64_t new_theta, int num_threads = 0);

  /// A copy of this collection grown to max(new_theta, theta()): what
  /// copying it and calling Extend yields, but every existing member and
  /// offset is copied once, into storage sized for the grown collection,
  /// and the (immutable) index segments are shared rather than copied.
  /// The copy-on-grow step of SampleStore::Grow. Same preconditions as
  /// Extend.
  MrrCollection ExtendedCopy(std::span<const InfluenceGraph> piece_graphs,
                             int64_t new_theta, int num_threads = 0) const;

  /// Rebuilds a collection from raw storage (deserialization path; see
  /// rrset/mrr_io.h). `offsets` has theta*num_pieces+1 entries indexing
  /// into `nodes`; num_pieces is at most kMaxPieces, all vertex ids must
  /// lie in [0, num_vertices), and every set must be non-empty (its
  /// first member is the sample's root, and a sample's sets share it).
  /// The inverted index is rebuilt (as one segment) unless `indexed` is
  /// false. CHECK-fails on malformed
  /// input — callers (the loader) validate untrusted bytes first. When
  /// `extendable` is true, `base_seed`/`model` record the sampling
  /// provenance so the rebuilt collection keeps growing bit-identically
  /// to the original (the append-aware IO path).
  static MrrCollection FromParts(int64_t theta, int num_pieces,
                                 VertexId num_vertices,
                                 DefaultInitVector<uint32_t> offsets,
                                 DefaultInitVector<VertexId> nodes,
                                 uint64_t base_seed = 0,
                                 DiffusionModel model =
                                     DiffusionModel::kIndependentCascade,
                                 bool extendable = false,
                                 bool indexed = true);

  int64_t theta() const { return theta_; }
  int num_pieces() const { return num_pieces_; }
  VertexId num_vertices() const { return num_vertices_; }

  /// Sampling provenance: true when the collection knows its base seed
  /// and diffusion model, i.e. Extend is allowed.
  bool extendable() const { return extendable_; }
  uint64_t base_seed() const { return base_seed_; }
  DiffusionModel model() const { return model_; }

  /// True when the collection carries an inverted index (see Generate).
  bool indexed() const { return indexed_; }

  /// True when the index holds v's postings: an indexed collection
  /// built without an index pool, or v in that pool.
  bool IndexesVertex(VertexId v) const {
    return indexed_ && (index_pool_ == nullptr || (*index_pool_)[v] != 0);
  }

  /// Sample i's root: the first member of each of its sets.
  VertexId root(int64_t i) const {
    return nodes_[offsets_[i * num_pieces_]];
  }

  /// Members of RR set R_i^j, root first.
  std::span<const VertexId> Set(int64_t i, int piece) const {
    const int64_t s = i * num_pieces_ + piece;
    return {nodes_.data() + offsets_[s], nodes_.data() + offsets_[s + 1]};
  }

  /// The flat layout, for whole-collection scans: every member,
  /// sample-major and piece-minor, and the theta*l+1 set offsets into
  /// it — set s = i*l + j spans [set_offsets()[s], set_offsets()[s+1]).
  std::span<const VertexId> members() const { return nodes_; }
  std::span<const uint32_t> set_offsets() const { return offsets_; }

  /// Invokes fn(sample_id) for every sample i with v in R_i^piece whose
  /// id is >= min_sample, in ascending id order. `min_sample` must be a
  /// growth boundary (0, or a theta at which Extend was called) — the
  /// index is segmented at exactly those boundaries, which is what lets
  /// incremental consumers (CoverageState::ExtendToCollection) bind only
  /// the appended samples in O(new samples). Visits nothing on an
  /// unindexed collection.
  template <typename Fn>
  void ForEachSampleContaining(int piece, VertexId v, Fn&& fn,
                               int64_t min_sample = 0) const {
    ForEachSampleSpan(
        piece, v,
        [&fn](std::span<const uint32_t> ids) {
          for (const uint32_t i : ids) fn(i);
        },
        min_sample);
  }

  /// Span-granular variant of ForEachSampleContaining: invokes
  /// fn(std::span<const uint32_t>) once per non-empty index segment with
  /// the contiguous ascending sample ids of that segment's posting
  /// list, in segment order. Concatenated, the spans are exactly the
  /// ForEachSampleContaining iteration — this is the entry point of the
  /// batched coverage kernels (rrset/coverage_kernels.h), which need
  /// contiguous blocks rather than a per-id callback.
  template <typename Fn>
  void ForEachSampleSpan(int piece, VertexId v, Fn&& fn,
                         int64_t min_sample = 0) const {
    const int64_t key = IndexKey(piece, v);
    for (const std::shared_ptr<const IndexSegment>& seg : segments_) {
      if (seg->end_sample <= min_sample) continue;
      const uint32_t* p = seg->samples.data() + seg->offsets[key];
      const uint32_t* end = seg->samples.data() + seg->offsets[key + 1];
      if (p != end) fn(std::span<const uint32_t>(p, end));
    }
  }

  /// Materialized sample ids i such that v is in R_i^piece, ascending.
  /// Convenience for tests and cold paths; hot loops should use
  /// ForEachSampleContaining (no allocation).
  std::vector<int64_t> SamplesContaining(int piece, VertexId v) const;

  /// Inverted-index segments currently held: one per Generate/Extend
  /// growth step, none on an unindexed collection (exposed for tests and
  /// diagnostics).
  int num_index_segments() const {
    return static_cast<int>(segments_.size());
  }

  /// Total number of (sample, piece, vertex) memberships.
  int64_t TotalSize() const { return static_cast<int64_t>(nodes_.size()); }

  /// Heap bytes held by this collection: offsets, members, and every
  /// inverted-index segment (capacity, not size — what the allocator
  /// actually handed out). A segment shared with another generation
  /// (ExtendedCopy) counts in both. Store telemetry; O(#segments).
  int64_t MemoryBytes() const;

  /// Scaling factor n/theta that converts per-sample sums to utilities.
  double UtilityScale() const {
    return theta_ == 0 ? 0.0
                       : static_cast<double>(num_vertices_) /
                             static_cast<double>(theta_);
  }

  /// Process-wide count of MRR samples drawn by Generate/Extend since
  /// startup (one unit = one root plus its l RR sets). Benches and tests
  /// diff it around a call to prove no sample is ever generated twice.
  static int64_t GeneratedSampleCount();

 private:
  /// Inverted-index postings for one contiguous growth step
  /// [begin_sample, end_sample): offsets is keyed by piece*(n+1)+v and
  /// samples holds ascending sample ids. Segments are immutable once
  /// built — growing the collection never touches earlier segments, so
  /// grown copies share them.
  struct IndexSegment {
    int64_t begin_sample = 0;
    int64_t end_sample = 0;
    DefaultInitVector<uint32_t> offsets;  // l*(n+1) + 1
    DefaultInitVector<uint32_t> samples;
  };

  MrrCollection() = default;

  /// Inverted-index key of (piece, v): keys run over
  /// [0, num_pieces * (n+1)).
  int64_t IndexKey(int piece, VertexId v) const {
    return static_cast<int64_t>(piece) * (num_vertices_ + 1) + v;
  }

  /// Samples [theta_, new_theta) on `workers` workers and indexes them.
  /// `amortised` selects the capacity policy of arrays that run out of
  /// room: at least double (in-place Extend) or just what the grown
  /// collection needs (Generate, ExtendedCopy).
  void Append(std::span<const InfluenceGraph> piece_graphs,
              int64_t new_theta, int workers, bool amortised);

  /// Appends samples [begin, end) to `out`, writing each RR set's end
  /// (out's size after it) to offsets_[i*l+j+1]. One worker's pass:
  /// straight into nodes_, or into one shard's buffer. A non-null
  /// `pool_samples` receives, ascending, every sample with a member in
  /// the index pool: the only samples a pool index build reads.
  template <typename Members>
  void SamplePass(std::span<const InfluenceGraph> piece_graphs,
                  const std::vector<std::vector<float>>& lt_weights,
                  int64_t begin, int64_t end, bool amortised, Members* out,
                  std::vector<uint32_t>* pool_samples);

  /// Several workers: samples [begin, end) into per-shard member
  /// buffers, then stitches them into nodes_ (and the shards'
  /// pool_samples, in order, into `pool_samples`).
  void SampleSharded(std::span<const InfluenceGraph> piece_graphs,
                     const std::vector<std::vector<float>>& lt_weights,
                     int64_t begin, int64_t end, int workers,
                     bool amortised, std::vector<uint32_t>* pool_samples);

  /// The one index-segment builder. Appends the segment for samples
  /// [begin, end), which must already be stored; only vertices in the
  /// index pool get postings, and a non-null `listed` names (ascending)
  /// the only samples of the range that hold any, so the passes read
  /// just those. The samples read are cut into at most `workers`
  /// contiguous shards, few enough that their per-shard key counts
  /// (l*(n+1) each) together take no more words than the segment's
  /// members. Each shard counts its memberships per key, an exclusive
  /// prefix sum over (key, shard) turns the counts into write cursors,
  /// and the shards scatter their postings in parallel; every posting
  /// list stays ascending because shard s's samples precede shard
  /// s+1's.
  void AppendIndexSegment(int64_t begin, int64_t end, int workers,
                          const std::vector<uint32_t>* listed = nullptr);

  int64_t theta_ = 0;
  int num_pieces_ = 0;
  VertexId num_vertices_ = 0;
  uint64_t base_seed_ = 0;
  DiffusionModel model_ = DiffusionModel::kIndependentCascade;
  bool extendable_ = false;
  bool indexed_ = true;
  // Grown without a zero-fill: the sampling and stitch passes write
  // every new slot (and touch its page first) before anything reads it.
  DefaultInitVector<uint32_t> offsets_{0};  // theta*l + 1
  DefaultInitVector<VertexId> nodes_;
  std::vector<std::shared_ptr<const IndexSegment>> segments_;
  /// The index pool as a membership byte per vertex; null indexes every
  /// vertex. Shared by grown copies.
  std::shared_ptr<const std::vector<uint8_t>> index_pool_;
};

}  // namespace oipa

#endif  // OIPA_RRSET_MRR_COLLECTION_H_
