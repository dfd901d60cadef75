#ifndef OIPA_RRSET_MRR_COLLECTION_H_
#define OIPA_RRSET_MRR_COLLECTION_H_

#include <cstdint>
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
/// bit-identical (roots, offsets, nodes, and inverted-index queries) to a
/// fresh Generate(theta2), regardless of thread count. Growth appends an
/// inverted-index segment covering only the new samples, so an Extend
/// costs amortised O(new samples), never a full index rebuild. Sampling,
/// the stitch into the flat arrays, and the segment's index build all
/// run sharded over contiguous sample ranges. Sampling writes roots and
/// RR-set ends in place; only the members are staged per shard.
class MrrCollection {
 public:
  /// Generates theta samples over `piece_graphs` (all sharing one social
  /// graph). Deterministic given `seed`, independent of thread count:
  /// sample i's randomness is PerSampleSeed(seed, i, piece), so any
  /// `num_threads` (0 = the GetNumThreads() default, N > 0 = exactly N
  /// workers) yields bit-identical samples.
  /// Under kLinearThreshold, each piece's edge probabilities are first
  /// normalized to LT weights (see diffusion/lt_cascade.h) and RR sets
  /// are reverse live-edge paths; everything downstream (estimators,
  /// bounds, solvers) works unchanged, so OIPA can be solved under LT.
  static MrrCollection Generate(
      const std::vector<InfluenceGraph>& piece_graphs, int64_t theta,
      uint64_t seed,
      DiffusionModel model = DiffusionModel::kIndependentCascade,
      int num_threads = 0);

  /// Grows the collection in place to `new_theta` samples (no-op when
  /// new_theta <= theta()). `piece_graphs` must be the graphs the
  /// collection was generated over; sampling continues from the stored
  /// base seed under the stored diffusion model, so the result is
  /// bit-identical to a fresh Generate(new_theta) — at any
  /// `num_threads` (same convention as Generate). CHECK-fails on
  /// collections without sampling provenance (FromParts-built ones with
  /// extendable() == false).
  void Extend(const std::vector<InfluenceGraph>& piece_graphs,
              int64_t new_theta, int num_threads = 0);

  /// Rebuilds a collection from raw storage (deserialization path; see
  /// rrset/mrr_io.h). `offsets` has theta*num_pieces+1 entries indexing
  /// into `nodes`; all vertex ids must lie in [0, num_vertices). The
  /// inverted index is rebuilt (as one segment). CHECK-fails on malformed
  /// input — callers (the loader) validate untrusted bytes first. When
  /// `extendable` is true, `base_seed`/`model` record the sampling
  /// provenance so the rebuilt collection keeps growing bit-identically
  /// to the original (the append-aware IO path).
  static MrrCollection FromParts(int64_t theta, int num_pieces,
                                 VertexId num_vertices,
                                 DefaultInitVector<VertexId> roots,
                                 DefaultInitVector<int64_t> offsets,
                                 DefaultInitVector<VertexId> nodes,
                                 uint64_t base_seed = 0,
                                 DiffusionModel model =
                                     DiffusionModel::kIndependentCascade,
                                 bool extendable = false);

  int64_t theta() const { return theta_; }
  int num_pieces() const { return num_pieces_; }
  VertexId num_vertices() const { return num_vertices_; }

  /// Sampling provenance: true when the collection knows its base seed
  /// and diffusion model, i.e. Extend is allowed.
  bool extendable() const { return extendable_; }
  uint64_t base_seed() const { return base_seed_; }
  DiffusionModel model() const { return model_; }

  VertexId root(int64_t i) const { return roots_[i]; }

  /// Members of RR set R_i^j.
  std::span<const VertexId> Set(int64_t i, int piece) const {
    const int64_t s = i * num_pieces_ + piece;
    return {nodes_.data() + offsets_[s], nodes_.data() + offsets_[s + 1]};
  }

  /// Invokes fn(sample_id) for every sample i with v in R_i^piece whose
  /// id is >= min_sample, in ascending id order. `min_sample` must be a
  /// growth boundary (0, or a theta at which Extend was called) — the
  /// index is segmented at exactly those boundaries, which is what lets
  /// incremental consumers (CoverageState::ExtendToCollection) bind only
  /// the appended samples in O(new samples).
  template <typename Fn>
  void ForEachSampleContaining(int piece, VertexId v, Fn&& fn,
                               int64_t min_sample = 0) const {
    const int64_t key = IndexKey(piece, v);
    for (const IndexSegment& seg : segments_) {
      if (seg.end_sample <= min_sample) continue;
      const int64_t* p = seg.samples.data() + seg.offsets[key];
      const int64_t* end = seg.samples.data() + seg.offsets[key + 1];
      for (; p != end; ++p) fn(*p);
    }
  }

  /// Span-granular variant of ForEachSampleContaining: invokes
  /// fn(std::span<const int64_t>) once per non-empty index segment with
  /// the contiguous ascending sample ids of that segment's posting
  /// list, in segment order. Concatenated, the spans are exactly the
  /// ForEachSampleContaining iteration — this is the entry point of the
  /// batched coverage kernels (rrset/coverage_kernels.h), which need
  /// contiguous blocks rather than a per-id callback.
  template <typename Fn>
  void ForEachSampleSpan(int piece, VertexId v, Fn&& fn,
                         int64_t min_sample = 0) const {
    const int64_t key = IndexKey(piece, v);
    for (const IndexSegment& seg : segments_) {
      if (seg.end_sample <= min_sample) continue;
      const int64_t* p = seg.samples.data() + seg.offsets[key];
      const int64_t* end = seg.samples.data() + seg.offsets[key + 1];
      if (p != end) fn(std::span<const int64_t>(p, end));
    }
  }

  /// Materialized sample ids i such that v is in R_i^piece, ascending.
  /// Convenience for tests and cold paths; hot loops should use
  /// ForEachSampleContaining (no allocation).
  std::vector<int64_t> SamplesContaining(int piece, VertexId v) const;

  /// Inverted-index segments currently held: one per Generate/Extend
  /// growth step (exposed for tests and diagnostics).
  int num_index_segments() const {
    return static_cast<int>(segments_.size());
  }

  /// Total number of (sample, piece, vertex) memberships.
  int64_t TotalSize() const { return static_cast<int64_t>(nodes_.size()); }

  /// Heap bytes held by this collection: roots, offsets, members, and
  /// every inverted-index segment (capacity, not size — what the
  /// allocator actually handed out). Store telemetry; O(#segments).
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
  /// samples holds ascending sample ids. Segments are append-only —
  /// growing the collection never touches earlier segments.
  struct IndexSegment {
    int64_t begin_sample = 0;
    int64_t end_sample = 0;
    DefaultInitVector<int64_t> offsets;  // l*(n+1) + 1
    DefaultInitVector<int64_t> samples;
  };

  MrrCollection() = default;

  /// Inverted-index key of (piece, v): keys run over
  /// [0, num_pieces * (n+1)).
  int64_t IndexKey(int piece, VertexId v) const {
    return static_cast<int64_t>(piece) * (num_vertices_ + 1) + v;
  }

  /// The one index-segment builder. Appends the segment for samples
  /// [begin, end), which must already be stored. The range is cut into
  /// at most `workers` contiguous shards, few enough that their
  /// per-shard key counts (l*(n+1) int64 each) together take no more
  /// words than the segment itself. Each shard counts its memberships
  /// per key, an exclusive prefix sum over (key, shard) turns the counts
  /// into write cursors, and the shards scatter their postings in
  /// parallel; every posting list stays ascending because shard s's
  /// samples precede shard s+1's.
  void AppendIndexSegment(int64_t begin, int64_t end, int workers);

  int64_t theta_ = 0;
  int num_pieces_ = 0;
  VertexId num_vertices_ = 0;
  uint64_t base_seed_ = 0;
  DiffusionModel model_ = DiffusionModel::kIndependentCascade;
  bool extendable_ = false;
  // Grown without a zero-fill: Extend's parallel passes write every new
  // slot (and touch its page first) before anything reads it.
  DefaultInitVector<VertexId> roots_;
  DefaultInitVector<int64_t> offsets_{0};  // theta*l + 1
  DefaultInitVector<VertexId> nodes_;
  std::vector<IndexSegment> segments_;
};

}  // namespace oipa

#endif  // OIPA_RRSET_MRR_COLLECTION_H_
