#ifndef OIPA_RRSET_COVERAGE_STATE_H_
#define OIPA_RRSET_COVERAGE_STATE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "rrset/mrr_collection.h"

namespace oipa {

/// Incremental coverage bookkeeping for an assignment plan over an
/// MrrCollection, with a pluggable per-count value function f (for OIPA, f
/// is the logistic adoption probability; f(0) must be 0 for the "no piece
/// received" case unless a caller deliberately overrides it).
///
/// Maintains, per sample i: how many seeds of piece j hit R_i^j
/// (multiplicity), the covered-piece count c_i, and the running sum of
/// f(c_i) — so AddSeed / RemoveSeed are O(|inverted list|) and the
/// branch-and-bound engine can move between plans by diffing. The
/// marginal table delta_f[c] = f[c+1] - f[c] is precomputed so every
/// touched sample costs one flat-array lookup, not two.
///
/// The state binds the collection's theta at construction. If the
/// collection is grown (MrrCollection::Extend), call
/// ExtendToCollection() before the next mutation or gain query — every
/// entry point CHECK-fails on a stale binding.
class CoverageState {
 public:
  /// `f_by_count` has num_pieces()+1 entries: f[c] is the value of a
  /// sample covered on c distinct pieces. Not owned; copied.
  CoverageState(const MrrCollection* mrr, std::vector<double> f_by_count);

  /// Registers one more seed `v` for piece `j`. Multiple seeds covering
  /// the same (sample, piece) are counted, so removal is exact.
  void AddSeed(VertexId v, int piece);

  /// Reverses a prior AddSeed(v, piece).
  void RemoveSeed(VertexId v, int piece);

  /// Rebinds the state to its (grown) collection after MrrCollection::
  /// Extend: per-sample arrays are appended (not rebuilt) and every seed
  /// in `applied` — which must list exactly the AddSeed calls currently
  /// in effect, duplicates included — is bound to the NEW samples only,
  /// so the whole call costs O(new samples' index lists). Afterwards the
  /// state is exactly what a fresh CoverageState over the grown
  /// collection plus the same AddSeed calls would be. Must not be called
  /// inside an open Snapshot.
  void ExtendToCollection(
      const std::vector<std::pair<int, VertexId>>& applied = {});

  /// Removes all seeds (O(#touched samples), not O(theta)). Must not be
  /// called while a Snapshot is open.
  void Clear();

  /// Marginal utility (in utility units, i.e. scaled by n/theta) of adding
  /// seed v for piece j, without mutating the state.
  double GainOfAdding(VertexId v, int piece) const;

  /// GainOfAdding plus a forward-valid upper bound on that same gain:
  /// while only AddSeed is applied (a greedy run), coverage counts only
  /// grow, so the bound — built from suffix maxima of delta_f — can only
  /// shrink. Lets CELF-lazy selection stay exact even when f has
  /// increasing marginals (the paper's non-submodular regime).
  std::pair<double, double> GainAndBoundOfAdding(VertexId v,
                                                 int piece) const;

  /// Opens a checkpoint: every subsequent AddSeed/RemoveSeed is journaled
  /// until the matching Restore. Checkpoints nest (LIFO).
  void Snapshot();

  /// Rewinds to the most recent Snapshot in O(#journaled touches) — no
  /// inverted-list re-traversal, no full Clear+rebuild.
  void Restore();

  /// Depth of open Snapshot() checkpoints.
  int snapshot_depth() const { return static_cast<int>(marks_.size()); }

  /// Current adoption-utility estimate: (n/theta) * sum_i f(c_i).
  double Utility() const { return sum_f_ * mrr_->UtilityScale(); }

  /// Raw per-sample sum (unscaled).
  double RawSum() const { return sum_f_; }

  int CoverCount(int64_t sample) const { return cover_count_[sample]; }
  bool IsCovered(int64_t sample, int piece) const {
    return multiplicity_[piece][sample] > 0;
  }

  /// Flat per-sample rows for the batched kernels
  /// (rrset/coverage_kernels.h): seed multiplicities of one piece, and
  /// the covered-piece counts. Piece-major storage keeps each row
  /// contiguous over samples, which is what the kernels gather from.
  const uint16_t* MultiplicityRow(int piece) const {
    return multiplicity_[piece].data();
  }
  const uint8_t* CoverCounts() const { return cover_count_.data(); }

  /// Histogram over coverage counts: entry c is the number of samples
  /// currently covered on exactly c pieces. Size num_pieces()+1.
  const std::vector<int64_t>& CountHistogram() const { return count_hist_; }

  const MrrCollection& mrr() const { return *mrr_; }
  const std::vector<double>& f_by_count() const { return f_by_count_; }

 private:
  /// One journaled touch: sample `sample` had its multiplicity for
  /// `piece` moved by `delta` (+1 for AddSeed, -1 for RemoveSeed).
  struct JournalEntry {
    int64_t sample;
    int32_t piece;
    int32_t delta;
  };

  bool journaling() const { return !marks_.empty(); }

  /// The collection must not have grown past this state's arrays.
  void CheckSynced() const;

  const MrrCollection* mrr_;  // not owned
  int num_pieces_;
  std::vector<double> f_by_count_;
  /// delta_f_[c] = f[c+1] - f[c] and its suffix max, for c < l. A
  /// sample is read at its cover count only while some piece leaves it
  /// uncovered, so that count is below l.
  std::vector<double> delta_f_;
  std::vector<double> delta_f_sufmax_;
  /// Piece-major seed multiplicities: multiplicity_[j][i] counts the
  /// seeds of piece j hitting R_i^j. One contiguous theta-sized row per
  /// piece, so the kernels index rows by sample id directly and
  /// ExtendToCollection appends per row in O(new samples).
  std::vector<std::vector<uint16_t>> multiplicity_;  // l x theta
  std::vector<uint8_t> cover_count_;                 // theta
  std::vector<int64_t> touched_;        // samples with any multiplicity
  std::vector<int64_t> count_hist_;     // l + 1
  std::vector<JournalEntry> journal_;   // touches since the first Snapshot
  std::vector<size_t> marks_;           // journal sizes at open Snapshots
  double sum_f_ = 0.0;
};

}  // namespace oipa

#endif  // OIPA_RRSET_COVERAGE_STATE_H_
