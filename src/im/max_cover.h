#ifndef OIPA_IM_MAX_COVER_H_
#define OIPA_IM_MAX_COVER_H_

#include <vector>

#include "rrset/mrr_collection.h"

namespace oipa {

/// Result of a maximum-coverage seed selection over RR sets.
struct MaxCoverResult {
  std::vector<VertexId> seeds;
  /// Number of RR sets covered by `seeds`.
  int64_t covered = 0;
  /// Spread estimate n * covered / theta.
  double spread_estimate = 0.0;
};

/// Plain greedy maximum coverage over the RR sets of `rr`, a one-piece
/// indexed MrrCollection (MrrCollection::Generate over one influence
/// graph), whose piece-0 posting lists say which sets hold a vertex:
/// k rounds, each scanning all candidates for the vertex covering the
/// most yet-uncovered RR sets. `candidates` empty means "all vertices".
/// The classical (1 - 1/e) max-cover greedy. The collection's 32-bit
/// layout holds at most MrrCollection::kMaxSamples sets and kMaxMembers
/// memberships.
MaxCoverResult GreedyMaxCover(const MrrCollection& rr, int k,
                              const std::vector<VertexId>& candidates = {});

/// CELF lazy greedy: identical output to GreedyMaxCover (ties broken by
/// vertex id in both), typically far fewer marginal evaluations.
MaxCoverResult CelfMaxCover(const MrrCollection& rr, int k,
                            const std::vector<VertexId>& candidates = {});

}  // namespace oipa

#endif  // OIPA_IM_MAX_COVER_H_
