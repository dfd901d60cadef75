#ifndef OIPA_RRSET_RR_SAMPLER_H_
#define OIPA_RRSET_RR_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "topic/influence_graph.h"
#include "util/random.h"

namespace oipa {

/// Generates single random reverse-reachable (RR) sets under the IC model.
/// An RR set for root x contains every vertex that reaches x in a randomly
/// sampled live-edge world; a seed set S activates x with probability
/// P[S intersects RR(x)] (Borgs et al.).
///
/// The sampler is reusable: it keeps an epoch-stamped visited array sized
/// to the graph so repeated calls do not reallocate or clear.
class RrSampler {
 public:
  explicit RrSampler(VertexId num_vertices);

  /// Samples the RR set of `root` on `ig` and appends its members, root
  /// first, to `out`; the appended range doubles as the BFS queue. Edge
  /// (u -> v) is live with probability ig.EdgeProb(e), drawn lazily
  /// during the reverse BFS from an Rng seeded with `seed` — equivalent
  /// to sampling the world up front. The BFS walks ig.LiveInEdges: a
  /// p = 0 edge can never fire and draws nothing, so skipping it leaves
  /// the draw stream unchanged. A root without live in-edges yields
  /// {root} without seeding the Rng at all. `Members` is
  /// std::vector<VertexId> or DefaultInitVector<VertexId> (the MRR
  /// collection's flat member array).
  template <typename Members>
  void Sample(const InfluenceGraph& ig, VertexId root, uint64_t seed,
              Members* out);

 private:
  std::vector<uint32_t> visit_epoch_;
  uint32_t epoch_ = 0;
};

/// Derives the deterministic per-sample RNG seed used by the collection
/// generators: depends only on (base_seed, sample_index, piece), so results
/// are reproducible regardless of thread count.
uint64_t PerSampleSeed(uint64_t base_seed, int64_t sample, int piece);

}  // namespace oipa

#endif  // OIPA_RRSET_RR_SAMPLER_H_
