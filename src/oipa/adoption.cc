#include "oipa/adoption.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <utility>

#include "diffusion/cascade.h"
#include "util/logging.h"
#include "util/random.h"

namespace oipa {

// The scorer scans the collection's members once instead of walking
// an inverted index, so it also scores unindexed collections (the
// holdout). It is bit-identical to a CoverageState walk over the same
// samples — AddSeed(v, j) for each (j, v) in Assignments() order, then
// Utility():
//
//  * That walk visits, assignment by assignment, the samples whose set
//    R_i^j holds the seed, in ascending order. Piece j of sample i adds
//    to the sum only at its first cover, i.e. at a_ij, the first
//    assignment of piece j whose seed lies in R_i^j, and it adds
//    delta_f[c] with c = cover_count[i], the number of sample i's
//    pieces covered earlier: those j' with a_ij' < a_ij. Assignments()
//    is piece-major, so those are exactly the covered pieces j' < j.
//  * The scan scores the samples in ascending order and, within one,
//    the pieces in order: it finds each a_ij from the set itself, and
//    counting the sample's covered pieces so far gives each c. Filing c
//    under a_ij lists every bucket's samples in ascending order, so
//    summing the buckets in assignment order replays exactly the walk's
//    additions, in exactly its order.
//
// Floating-point addition is deterministic for a fixed sequence of
// operands, so both sums — and the scaled utilities — agree bit for
// bit. Counts are stored as uint8_t, like CoverageState's.
double EstimateAdoptionUtility(const MrrCollection& mrr,
                               const LogisticAdoptionModel& model,
                               const AssignmentPlan& plan) {
  OIPA_CHECK_EQ(plan.num_pieces(), mrr.num_pieces());
  const int ell = mrr.num_pieces();
  const int64_t n = mrr.num_vertices();
  const std::vector<double> f = model.AdoptionTable(ell);
  std::vector<double> delta_f(ell);
  for (int c = 0; c < ell; ++c) delta_f[c] = f[c + 1] - f[c];

  // seeds[j]: piece j's (vertex, assignment index) pairs, sorted by
  // vertex. Two maps keep the scan cheap: is_seed marks vertices seeded
  // for some piece, piece_seed each (piece, vertex). A vertex outside
  // [0, n) lies in no set and covers nothing.
  const std::vector<Assignment> assignments = plan.Assignments();
  std::vector<std::vector<std::pair<VertexId, uint32_t>>> seeds(ell);
  std::vector<uint8_t> is_seed(n, 0);
  std::vector<uint64_t> piece_seed((static_cast<size_t>(ell) * n + 63) / 64);
  for (size_t a = 0; a < assignments.size(); ++a) {
    const auto [j, v] = assignments[a];
    if (v < 0 || v >= n) continue;
    is_seed[v] = 1;
    const size_t bit = static_cast<size_t>(j) * n + v;
    piece_seed[bit >> 6] |= uint64_t{1} << (bit & 63);
    seeds[j].emplace_back(v, static_cast<uint32_t>(a));
  }
  for (auto& piece_seeds : seeds) {
    std::sort(piece_seeds.begin(), piece_seeds.end());
  }

  // replay[a]: the cover-count index c of every first cover made by
  // assignment a, in ascending sample order.
  std::vector<std::vector<uint8_t>> replay(assignments.size());
  const std::span<const VertexId> members = mrr.members();
  const std::span<const uint32_t> ends = mrr.set_offsets();
  const size_t samples = (ends.size() - 1) / ell;
  constexpr uint32_t kUncovered = std::numeric_limits<uint32_t>::max();
  size_t sample = 0;  // the sample last scored
  size_t scored = 0;  // members before this position are scored
  const auto score_sample_at = [&](size_t pos) {
    // Advance to the sample holding pos: up to 64 linear steps, which
    // dense hits need, then a gallop, so sparse hits read O(log gap)
    // offsets rather than every offset between them.
    for (int step = 0; step < 64 && ends[(sample + 1) * ell] <= pos; ++step) {
      ++sample;
    }
    if (ends[(sample + 1) * ell] <= pos) {
      size_t lo = sample + 1;
      size_t stride = 1;
      while (lo + stride < samples && ends[(lo + stride) * ell] <= pos) {
        lo += stride;
        stride *= 2;
      }
      size_t hi = std::min(lo + stride, samples - 1);
      while (lo < hi) {
        const size_t mid = lo + (hi - lo + 1) / 2;
        if (ends[mid * ell] <= pos) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      sample = lo;
    }
    // Score every piece of the sample, in piece order.
    const uint32_t* set_ends = ends.data() + sample * ell;
    int covered = 0;
    for (int j = 0; j < ell; ++j) {
      uint32_t first = kUncovered;
      for (uint32_t k = set_ends[j]; k < set_ends[j + 1]; ++k) {
        const VertexId v = members[k];
        const size_t bit = static_cast<size_t>(j) * n + v;
        if (((piece_seed[bit >> 6] >> (bit & 63)) & 1) == 0) continue;
        const auto& piece_seeds = seeds[j];
        const auto it =
            std::lower_bound(piece_seeds.begin(), piece_seeds.end(),
                             std::pair<VertexId, uint32_t>(v, 0));
        first = std::min(first, it->second);
      }
      if (first != kUncovered) {
        replay[first].push_back(static_cast<uint8_t>(covered++));
      }
    }
    scored = set_ends[ell];
  };
  // Members are tested 64 at a time into a branch-free hit mask (is the
  // member seeded for some piece?); each sample holding a hit is scored
  // once, at its first hit.
  for (size_t base = 0; base < members.size(); base += 64) {
    const size_t len = std::min<size_t>(64, members.size() - base);
    const VertexId* block = members.data() + base;
    uint64_t hits = 0;
    for (size_t k = 0; k < len; ++k) {
      hits |= static_cast<uint64_t>(is_seed[block[k]]) << k;
    }
    for (; hits != 0; hits &= hits - 1) {
      const size_t pos = base + static_cast<size_t>(std::countr_zero(hits));
      if (pos >= scored) score_sample_at(pos);
    }
  }

  double sum = 0.0;
  for (const std::vector<uint8_t>& bucket : replay) {
    for (const uint8_t c : bucket) sum += delta_f[c];
  }
  return sum * mrr.UtilityScale();
}

double SimulateAdoptionUtility(const std::vector<InfluenceGraph>& pieces,
                               const LogisticAdoptionModel& model,
                               const AssignmentPlan& plan, int trials,
                               uint64_t seed) {
  OIPA_CHECK_EQ(plan.num_pieces(), static_cast<int>(pieces.size()));
  OIPA_CHECK_GT(trials, 0);
  const VertexId n = pieces.empty() ? 0 : pieces[0].graph().num_vertices();
  Rng rng(seed);
  std::vector<int> receive_count(n);
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    std::fill(receive_count.begin(), receive_count.end(), 0);
    for (int j = 0; j < plan.num_pieces(); ++j) {
      if (plan.SeedSet(j).empty()) continue;
      const std::vector<uint8_t> active =
          SimulateCascade(pieces[j], plan.SeedSet(j), &rng);
      for (VertexId v = 0; v < n; ++v) receive_count[v] += active[v];
    }
    for (VertexId v = 0; v < n; ++v) {
      total += model.AdoptionProb(receive_count[v]);
    }
  }
  return total / trials;
}

double ExpectationOverCountDistribution(const std::vector<double>& probs,
                                        const std::vector<double>& f_table) {
  const int l = static_cast<int>(probs.size());
  OIPA_CHECK_EQ(static_cast<int>(f_table.size()), l + 1);
  // DP over the count distribution of independent Bernoullis.
  std::vector<double> dist(l + 1, 0.0);
  dist[0] = 1.0;
  for (int j = 0; j < l; ++j) {
    const double q = probs[j];
    OIPA_CHECK_GE(q, -1e-12);
    OIPA_CHECK_LE(q, 1.0 + 1e-12);
    for (int c = j + 1; c >= 1; --c) {
      dist[c] = dist[c] * (1.0 - q) + dist[c - 1] * q;
    }
    dist[0] *= (1.0 - q);
  }
  double expectation = 0.0;
  for (int c = 0; c <= l; ++c) expectation += dist[c] * f_table[c];
  return expectation;
}

double ExactAdoptionUtility(const std::vector<InfluenceGraph>& pieces,
                            const LogisticAdoptionModel& model,
                            const AssignmentPlan& plan) {
  OIPA_CHECK_EQ(plan.num_pieces(), static_cast<int>(pieces.size()));
  const int l = plan.num_pieces();
  const VertexId n = pieces.empty() ? 0 : pieces[0].graph().num_vertices();

  // Per-piece exact reach probabilities (pieces propagate independently).
  std::vector<std::vector<double>> reach(l);
  for (int j = 0; j < l; ++j) {
    reach[j] = ExactReachProbabilities(pieces[j], plan.SeedSet(j));
  }

  const std::vector<double> f_table = model.AdoptionTable(l);
  double utility = 0.0;
  std::vector<double> probs(l);
  for (VertexId v = 0; v < n; ++v) {
    for (int j = 0; j < l; ++j) probs[j] = reach[j][v];
    utility += ExpectationOverCountDistribution(probs, f_table);
  }
  return utility;
}

}  // namespace oipa
