#include "rrset/coverage_state.h"

#include <algorithm>

#include "rrset/coverage_kernels.h"
#include "util/logging.h"

namespace oipa {

CoverageState::CoverageState(const MrrCollection* mrr,
                             std::vector<double> f_by_count)
    : mrr_(mrr),
      num_pieces_(mrr->num_pieces()),
      f_by_count_(std::move(f_by_count)) {
  OIPA_CHECK_EQ(static_cast<int>(f_by_count_.size()), num_pieces_ + 1);
  OIPA_CHECK(mrr_->indexed()) << "CoverageState needs an indexed collection";
  delta_f_.assign(num_pieces_, 0.0);
  for (int c = 0; c < num_pieces_; ++c) {
    delta_f_[c] = f_by_count_[c + 1] - f_by_count_[c];
  }
  delta_f_sufmax_.assign(num_pieces_, 0.0);
  double running = 0.0;
  for (int c = num_pieces_ - 1; c >= 0; --c) {
    running = c == num_pieces_ - 1 ? delta_f_[c]
                                   : std::max(delta_f_[c], running);
    delta_f_sufmax_[c] = running;
  }
  multiplicity_.resize(num_pieces_);
  for (auto& row : multiplicity_) row.assign(mrr_->theta(), 0);
  cover_count_.assign(mrr_->theta(), 0);
  count_hist_.assign(num_pieces_ + 1, 0);
  count_hist_[0] = mrr_->theta();
}

void CoverageState::CheckSynced() const {
  OIPA_CHECK_EQ(static_cast<int64_t>(cover_count_.size()), mrr_->theta())
      << "collection grew; call ExtendToCollection() first";
}

void CoverageState::AddSeed(VertexId v, int piece) {
  OIPA_CHECK_GE(piece, 0);
  OIPA_CHECK_LT(piece, num_pieces_);
  CheckSynced();
  const bool journal = journaling();
  std::vector<uint16_t>& row = multiplicity_[piece];
  mrr_->ForEachSampleContaining(piece, v, [&](int64_t i) {
    uint16_t& mult = row[i];
    OIPA_CHECK_LT(mult, UINT16_MAX);
    if (journal) journal_.push_back({i, piece, +1});
    if (mult++ == 0) {
      const int c = cover_count_[i]++;
      sum_f_ += delta_f_[c];
      --count_hist_[c];
      ++count_hist_[c + 1];
      if (c == 0) touched_.push_back(i);
    }
  });
}

void CoverageState::RemoveSeed(VertexId v, int piece) {
  OIPA_CHECK_GE(piece, 0);
  OIPA_CHECK_LT(piece, num_pieces_);
  CheckSynced();
  const bool journal = journaling();
  std::vector<uint16_t>& row = multiplicity_[piece];
  mrr_->ForEachSampleContaining(piece, v, [&](int64_t i) {
    uint16_t& mult = row[i];
    OIPA_CHECK_GT(mult, 0) << "RemoveSeed without matching AddSeed";
    if (journal) journal_.push_back({i, piece, -1});
    if (--mult == 0) {
      const int c = cover_count_[i]--;
      sum_f_ -= delta_f_[c - 1];
      --count_hist_[c];
      ++count_hist_[c - 1];
    }
  });
}

void CoverageState::ExtendToCollection(
    const std::vector<std::pair<int, VertexId>>& applied) {
  OIPA_CHECK(!journaling())
      << "ExtendToCollection() inside an open Snapshot";
  const int64_t old_theta = static_cast<int64_t>(cover_count_.size());
  const int64_t new_theta = mrr_->theta();
  OIPA_CHECK_GE(new_theta, old_theta);
  if (new_theta == old_theta) return;
  for (auto& row : multiplicity_) row.resize(new_theta, 0);
  cover_count_.resize(new_theta, 0);
  count_hist_[0] += new_theta - old_theta;
  // Bind the active seeds to the appended samples only; samples below
  // old_theta already carry them.
  for (const auto& [piece, v] : applied) {
    OIPA_CHECK_GE(piece, 0);
    OIPA_CHECK_LT(piece, num_pieces_);
    std::vector<uint16_t>& row = multiplicity_[piece];
    mrr_->ForEachSampleContaining(
        piece, v,
        [&](int64_t i) {
          uint16_t& mult = row[i];
          OIPA_CHECK_LT(mult, UINT16_MAX);
          if (mult++ == 0) {
            const int c = cover_count_[i]++;
            sum_f_ += delta_f_[c];
            --count_hist_[c];
            ++count_hist_[c + 1];
            if (c == 0) touched_.push_back(i);
          }
        },
        /*min_sample=*/old_theta);
  }
}

void CoverageState::Clear() {
  OIPA_CHECK(!journaling()) << "Clear() inside an open Snapshot";
  // touched_ may contain duplicates and samples whose count has already
  // returned to zero; both are harmless to re-clear.
  for (int64_t i : touched_) {
    cover_count_[i] = 0;
    for (int j = 0; j < num_pieces_; ++j) multiplicity_[j][i] = 0;
  }
  touched_.clear();
  sum_f_ = 0.0;
  std::fill(count_hist_.begin(), count_hist_.end(), 0);
  // The bound theta, not mrr_->theta(): the collection may have grown
  // since the last ExtendToCollection.
  count_hist_[0] = static_cast<int64_t>(cover_count_.size());
}

void CoverageState::Snapshot() { marks_.push_back(journal_.size()); }

void CoverageState::Restore() {
  OIPA_CHECK(!marks_.empty()) << "Restore() without an open Snapshot";
  const size_t mark = marks_.back();
  marks_.pop_back();
  // Undo in reverse journal order: at each step the state is exactly
  // what it was right after that entry was applied, so the inverse
  // per-sample step is always legal — any interleaving of adds and
  // removes inside the scope (including add-then-remove of the same
  // seed) rewinds cleanly.
  for (size_t k = journal_.size(); k-- > mark;) {
    const JournalEntry& entry = journal_[k];
    uint16_t& mult = multiplicity_[entry.piece][entry.sample];
    if (entry.delta > 0) {
      OIPA_CHECK_GT(mult, 0);
      if (--mult == 0) {
        const int c = cover_count_[entry.sample]--;
        sum_f_ -= delta_f_[c - 1];
        --count_hist_[c];
        ++count_hist_[c - 1];
      }
    } else {
      if (mult++ == 0) {
        const int c = cover_count_[entry.sample]++;
        sum_f_ += delta_f_[c];
        --count_hist_[c];
        ++count_hist_[c + 1];
        if (c == 0) touched_.push_back(entry.sample);
      }
    }
  }
  journal_.resize(mark);
}

double CoverageState::GainOfAdding(VertexId v, int piece) const {
  CheckSynced();
  // The accumulator threads through the segment spans so the reduction
  // order matches the historical per-posting loop exactly — a grown
  // (multi-segment) collection sums bit-identically to a fresh one.
  double gain = 0.0;
  const uint16_t* mult = multiplicity_[piece].data();
  const uint8_t* counts = cover_count_.data();
  mrr_->ForEachSampleSpan(piece, v, [&](std::span<const uint32_t> ids) {
    gain = CoverageGainSum(ids, mult, counts, delta_f_.data(), gain);
  });
  return gain * mrr_->UtilityScale();
}

std::pair<double, double> CoverageState::GainAndBoundOfAdding(
    VertexId v, int piece) const {
  CheckSynced();
  double gain = 0.0;
  double bound = 0.0;
  const uint16_t* mult = multiplicity_[piece].data();
  const uint8_t* counts = cover_count_.data();
  mrr_->ForEachSampleSpan(piece, v, [&](std::span<const uint32_t> ids) {
    CoverageGainBoundSum(ids, mult, counts, delta_f_.data(),
                         delta_f_sufmax_.data(), &gain, &bound);
  });
  const double scale = mrr_->UtilityScale();
  return {gain * scale, bound * scale};
}

}  // namespace oipa
