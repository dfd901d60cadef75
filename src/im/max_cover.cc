#include "im/max_cover.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <span>

#include "util/logging.h"

namespace oipa {

namespace {

std::vector<VertexId> AllVertices(VertexId n) {
  std::vector<VertexId> out(n);
  std::iota(out.begin(), out.end(), 0);
  return out;
}

/// The candidate pool of a selection over `rr`, which must be a
/// one-piece indexed collection.
std::vector<VertexId> Pool(const MrrCollection& rr,
                           const std::vector<VertexId>& candidates) {
  OIPA_CHECK_EQ(rr.num_pieces(), 1) << "max cover runs on plain RR sets";
  OIPA_CHECK(rr.indexed()) << "max cover searches the inverted index";
  return candidates.empty() ? AllVertices(rr.num_vertices()) : candidates;
}

/// Number of RR sets containing v.
int64_t Postings(const MrrCollection& rr, VertexId v) {
  int64_t count = 0;
  rr.ForEachSampleSpan(0, v, [&count](std::span<const uint32_t> ids) {
    count += static_cast<int64_t>(ids.size());
  });
  return count;
}

/// Number of RR sets containing v that `covered` does not mark yet.
int64_t UncoveredGain(const MrrCollection& rr, VertexId v,
                      const std::vector<uint8_t>& covered) {
  int64_t gain = 0;
  rr.ForEachSampleSpan(0, v, [&](std::span<const uint32_t> ids) {
    for (const uint32_t i : ids) gain += !covered[i];
  });
  return gain;
}

/// Marks every RR set containing v covered.
void Cover(const MrrCollection& rr, VertexId v,
           std::vector<uint8_t>* covered) {
  rr.ForEachSampleSpan(0, v, [covered](std::span<const uint32_t> ids) {
    for (const uint32_t i : ids) (*covered)[i] = 1;
  });
}

}  // namespace

MaxCoverResult GreedyMaxCover(const MrrCollection& rr, int k,
                              const std::vector<VertexId>& candidates) {
  OIPA_CHECK_GE(k, 0);
  const std::vector<VertexId> pool = Pool(rr, candidates);
  std::vector<uint8_t> covered(rr.theta(), 0);
  std::vector<uint8_t> taken(rr.num_vertices(), 0);

  MaxCoverResult result;
  for (int round = 0; round < k; ++round) {
    VertexId best = -1;
    int64_t best_gain = 0;
    for (VertexId v : pool) {
      if (taken[v]) continue;
      const int64_t gain = UncoveredGain(rr, v, covered);
      // Ties broken toward the smaller vertex id (strict > keeps first).
      if (gain > best_gain) {
        best_gain = gain;
        best = v;
      }
    }
    if (best < 0) break;  // no positive marginal gain left
    taken[best] = 1;
    result.seeds.push_back(best);
    result.covered += best_gain;
    Cover(rr, best, &covered);
  }
  result.spread_estimate =
      static_cast<double>(result.covered) * rr.UtilityScale();
  return result;
}

MaxCoverResult CelfMaxCover(const MrrCollection& rr, int k,
                            const std::vector<VertexId>& candidates) {
  OIPA_CHECK_GE(k, 0);
  const std::vector<VertexId> pool = Pool(rr, candidates);
  std::vector<uint8_t> covered(rr.theta(), 0);

  // Entries ordered by (gain desc, vertex asc) to match plain greedy's
  // tie-breaking exactly.
  struct Entry {
    int64_t gain;
    VertexId v;
    int round;  // round at which gain was computed
  };
  auto cmp = [](const Entry& a, const Entry& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.v > b.v;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  for (VertexId v : pool) {
    const int64_t gain = Postings(rr, v);  // nothing is covered yet
    if (gain > 0) heap.push({gain, v, 0});
  }

  MaxCoverResult result;
  int round = 0;
  while (static_cast<int>(result.seeds.size()) < k && !heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (top.round != round) {
      // Stale: recompute marginal gain under current coverage.
      const int64_t gain = UncoveredGain(rr, top.v, covered);
      if (gain > 0) heap.push({gain, top.v, round});
      continue;
    }
    if (top.gain <= 0) break;
    result.seeds.push_back(top.v);
    result.covered += top.gain;
    Cover(rr, top.v, &covered);
    ++round;
  }
  result.spread_estimate =
      static_cast<double>(result.covered) * rr.UtilityScale();
  return result;
}

}  // namespace oipa
