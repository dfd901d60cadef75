#include "oipa/bound_evaluator.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <span>

#include "rrset/coverage_kernels.h"
#include "util/logging.h"

namespace oipa {

BoundEvaluator::BoundEvaluator(const MrrCollection* mrr,
                               const LogisticAdoptionModel& model,
                               std::vector<std::vector<VertexId>> pools,
                               BoundVariant variant)
    : mrr_(mrr),
      model_(model),
      table_(model, mrr->num_pieces(), variant),
      pools_(std::move(pools)),
      num_vertices_(mrr->num_vertices()),
      num_pieces_(mrr->num_pieces()) {
  OIPA_CHECK_EQ(static_cast<int>(pools_.size()), num_pieces_);
  OIPA_CHECK(mrr_->indexed()) << "BoundEvaluator needs an indexed collection";
  for (const auto& pool : pools_) {
    for (VertexId v : pool) {
      OIPA_CHECK_GE(v, 0);
      OIPA_CHECK_LT(v, num_vertices_);
    }
  }
  line_epoch_.assign(mrr_->theta(), 0);
  line_value_.assign(mrr_->theta(), 0.0);
  greedy_cover_epoch_.resize(num_pieces_);
  for (auto& row : greedy_cover_epoch_) row.assign(mrr_->theta(), 0);
  excluded_flag_.assign(
      static_cast<size_t>(num_pieces_) * num_vertices_, 0);
  anchor_by_count_.resize(num_pieces_ + 1);
  slope_by_count_.resize(num_pieces_ + 1);
  for (int c = 0; c <= num_pieces_; ++c) {
    anchor_by_count_[c] = table_.line(c).value_at_anchor;
    slope_by_count_[c] = table_.line(c).slope_per_piece;
  }
}

void BoundEvaluator::SyncWithCollection() {
  const int64_t new_theta = mrr_->theta();
  OIPA_CHECK_GE(new_theta, static_cast<int64_t>(line_epoch_.size()));
  // Per-sample scratch rows grow by plain appends. New entries start at
  // epoch 0; BeginCall keeps epoch_ >= 1, so they are correctly treated
  // as stale on first touch.
  line_epoch_.resize(new_theta, 0);
  line_value_.resize(new_theta, 0.0);
  for (auto& row : greedy_cover_epoch_) row.resize(new_theta, 0);
}

BoundEvaluator::BoundEvaluator(const MrrCollection* mrr,
                               const LogisticAdoptionModel& model,
                               const std::vector<VertexId>& shared_pool,
                               BoundVariant variant)
    : BoundEvaluator(mrr, model,
                     std::vector<std::vector<VertexId>>(
                         mrr->num_pieces(), shared_pool),
                     variant) {}

double BoundEvaluator::LineValue(int64_t i, const CoverageState& state) {
  if (line_epoch_[i] != epoch_) {
    line_epoch_[i] = epoch_;
    line_value_[i] = table_.line(state.CoverCount(i)).value_at_anchor;
  }
  return line_value_[i];
}

double BoundEvaluator::SampleGain(int64_t i, const CoverageState& state) {
  const double lv = LineValue(i, state);
  const double slope = table_.line(state.CoverCount(i)).slope_per_piece;
  const double headroom = 1.0 - lv;
  if (headroom <= 0.0) return 0.0;
  return slope < headroom ? slope : headroom;
}

double BoundEvaluator::CandidateGain(int piece, VertexId v,
                                     const CoverageState& state) {
  ++total_tau_evals_;
  // The search's hot loop, batched through the tangent-gain kernel
  // (rrset/coverage_kernels.h). Read-only: unlike the historical loop
  // it does not warm the line-value cache — the cached value would be
  // exactly the anchor value the kernel reads instead, so results are
  // bit-identical and ApplyCandidate still initializes the cache.
  double gain = 0.0;
  const uint16_t* mult = state.MultiplicityRow(piece);
  const uint32_t* gepoch = greedy_cover_epoch_[piece].data();
  const uint8_t* counts = state.CoverCounts();
  mrr_->ForEachSampleSpan(piece, v, [&](std::span<const uint32_t> ids) {
    gain = TangentGainSum(ids, mult, gepoch, epoch_, line_epoch_.data(),
                          line_value_.data(), counts,
                          anchor_by_count_.data(), slope_by_count_.data(),
                          gain);
  });
  return gain;
}

double BoundEvaluator::ApplyCandidate(int piece, VertexId v,
                                      const CoverageState& state) {
  double gain = 0.0;
  std::vector<uint32_t>& marks = greedy_cover_epoch_[piece];
  mrr_->ForEachSampleContaining(piece, v, [&](int64_t i) {
    if (state.IsCovered(i, piece)) return;
    uint32_t& mark = marks[i];
    if (mark == epoch_) return;
    mark = epoch_;
    const double g = SampleGain(i, state);
    line_value_[i] += g;  // LineValue already initialized by SampleGain
    gain += g;
  });
  return gain;
}

double BoundEvaluator::BaseTau(const CoverageState& state) const {
  const std::vector<int64_t>& hist = state.CountHistogram();
  double base = 0.0;
  for (int c = 0; c <= num_pieces_; ++c) {
    base += static_cast<double>(hist[c]) * table_.line(c).value_at_anchor;
  }
  return base;
}

void BoundEvaluator::BeginCall(const std::vector<Assignment>& excluded) {
  ++epoch_;
  if (epoch_ == 0) {
    std::fill(line_epoch_.begin(), line_epoch_.end(), 0u);
    for (auto& row : greedy_cover_epoch_) {
      std::fill(row.begin(), row.end(), 0u);
    }
    epoch_ = 1;
  }
  for (const auto& [piece, v] : excluded) {
    excluded_flag_[static_cast<size_t>(piece) * num_vertices_ + v] = 1;
  }
}

void BoundEvaluator::EndCall(const std::vector<Assignment>& excluded) {
  for (const auto& [piece, v] : excluded) {
    excluded_flag_[static_cast<size_t>(piece) * num_vertices_ + v] = 0;
  }
}

bool BoundEvaluator::IsExcluded(int piece, VertexId v) const {
  return excluded_flag_[static_cast<size_t>(piece) * num_vertices_ + v] !=
         0;
}

void BoundEvaluator::FinishResult(CoverageState* state, double tau_raw,
                                  BoundResult* result) {
  // Snapshot/Restore journals the adds and rewinds them without a
  // second inverted-list traversal.
  state->Snapshot();
  for (const auto& [piece, v] : result->additions) {
    state->AddSeed(v, piece);
  }
  result->sigma = state->Utility();
  state->Restore();
  result->tau = tau_raw * mrr_->UtilityScale();
}

BoundResult BoundEvaluator::ComputeBound(
    CoverageState* state, int budget_remaining,
    const std::vector<Assignment>& excluded) {
  OIPA_CHECK_GE(budget_remaining, 0);
  BeginCall(excluded);
  const int64_t evals_before = total_tau_evals_;

  BoundResult result;
  double tau_raw = BaseTau(*state);
  // Plain greedy (Algorithm 2): each round scans every available
  // promoter-piece pair for the maximum surrogate marginal gain.
  for (int round = 0; round < budget_remaining; ++round) {
    BoundPick best;
    for (int j = 0; j < num_pieces_; ++j) {
      for (VertexId v : pools_[j]) {
        if (IsExcluded(j, v)) continue;
        const double gain = CandidateGain(j, v, *state);
        if (gain > best.gain ||
            (gain == best.gain && best.valid() && gain > 0.0 &&
             (j < best.piece || (j == best.piece && v < best.v)))) {
          best = {j, v, gain};
        }
      }
    }
    if (!best.valid() || best.gain <= 0.0) break;
    tau_raw += ApplyCandidate(best.piece, best.v, *state);
    result.additions.emplace_back(best.piece, best.v);
    if (round == 0) result.first_pick = best;
    // A selected pair is no longer a candidate.
    excluded_flag_[static_cast<size_t>(best.piece) * num_vertices_ +
                   best.v] = 1;
  }
  // Clear the selection marks (they are not caller-owned exclusions).
  for (const auto& [piece, v] : result.additions) {
    excluded_flag_[static_cast<size_t>(piece) * num_vertices_ + v] = 0;
  }

  FinishResult(state, tau_raw, &result);
  result.tau_evals = total_tau_evals_ - evals_before;
  EndCall(excluded);
  return result;
}

BoundResult BoundEvaluator::ComputeBoundLazy(
    CoverageState* state, int budget_remaining,
    const std::vector<Assignment>& excluded) {
  OIPA_CHECK_GE(budget_remaining, 0);
  BeginCall(excluded);
  const int64_t evals_before = total_tau_evals_;

  BoundResult result;
  double tau_raw = BaseTau(*state);

  // CELF heap: entries carry the round their gain was computed in; a
  // stale entry is re-evaluated and re-pushed, and a fresh top is the
  // plain scan's pick, bit for bit. Within one call the anchor counts
  // are fixed, and a sample's surrogate gain is min(slope, 1 - line),
  // where `line` only grows, by adding non-negative gains. Rounded
  // addition and subtraction are monotone and the kernel sums in
  // posting order, so a candidate's computed gain never rises from one
  // round to the next: a stale gain bounds the current one. Ties break
  // as in ComputeBound's scan: lowest piece, then lowest vertex.
  struct Entry {
    double gain;
    int piece;
    VertexId v;
    int round;
  };
  auto cmp = [](const Entry& a, const Entry& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    if (a.piece != b.piece) return a.piece > b.piece;
    return a.v > b.v;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  // With no budget left the bound is the base τ, and, as in the scan, no
  // candidate is evaluated.
  for (int j = 0; budget_remaining > 0 && j < num_pieces_; ++j) {
    for (VertexId v : pools_[j]) {
      if (IsExcluded(j, v)) continue;
      const double gain = CandidateGain(j, v, *state);
      if (gain > 0.0) heap.push({gain, j, v, 0});
    }
  }

  int round = 0;
  while (round < budget_remaining && !heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (top.round != round) {
      const double gain = CandidateGain(top.piece, top.v, *state);
      if (gain > 0.0) heap.push({gain, top.piece, top.v, round});
      continue;
    }
    if (top.gain <= 0.0) break;
    tau_raw += ApplyCandidate(top.piece, top.v, *state);
    result.additions.emplace_back(top.piece, top.v);
    if (round == 0) result.first_pick = {top.piece, top.v, top.gain};
    ++round;
  }

  FinishResult(state, tau_raw, &result);
  result.tau_evals = total_tau_evals_ - evals_before;
  EndCall(excluded);
  return result;
}

BoundResult BoundEvaluator::ComputeBoundPro(
    CoverageState* state, int budget_remaining,
    const std::vector<Assignment>& excluded, double epsilon,
    bool fill_budget) {
  OIPA_CHECK_GE(budget_remaining, 0);
  OIPA_CHECK_GT(epsilon, 0.0);
  BeginCall(excluded);
  const int64_t evals_before = total_tau_evals_;

  BoundResult result;
  double tau_raw = BaseTau(*state);

  // Line 2 of Algorithm 3: order candidates by their singleton surrogate
  // gain delta_emptyset(v).
  struct Candidate {
    double gain0;
    int piece;
    VertexId v;
  };
  std::vector<Candidate> candidates;
  // With no budget left the bound is the base τ: no singleton gain is
  // evaluated.
  for (int j = 0; budget_remaining > 0 && j < num_pieces_; ++j) {
    for (VertexId v : pools_[j]) {
      if (IsExcluded(j, v)) continue;
      const double g0 = CandidateGain(j, v, *state);
      if (g0 > 0.0) candidates.push_back({g0, j, v});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.gain0 != b.gain0) return a.gain0 > b.gain0;
              if (a.piece != b.piece) return a.piece < b.piece;
              return a.v < b.v;
            });

  if (!candidates.empty()) {
    std::vector<uint8_t> selected(candidates.size(), 0);
    // CELF-style lazy cache: the last gain computed for each candidate.
    // The surrogate is submodular within one call (line values only
    // rise), so a cached gain is an upper bound on the fresh gain — a
    // candidate whose cache is already below the threshold cannot pass
    // it and is skipped without re-evaluation. Selections are identical
    // to the eager scan; only tau_evals shrinks.
    std::vector<double> cached_gain(candidates.size());
    for (size_t idx = 0; idx < candidates.size(); ++idx) {
      cached_gain[idx] = candidates[idx].gain0;
    }
    const double maxinf = candidates[0].gain0;
    double h = maxinf;
    double tau_gains = 0.0;  // surrogate mass added by selections
    const double kE1 = std::exp(-1.0);
    // Once h falls this far below the top singleton gain, no remaining
    // candidate can have positive marginal gain worth taking.
    const double h_floor = maxinf * 1e-12;
    int taken = 0;
    bool done = false;
    bool past_cutoff = false;
    while (!done && taken < budget_remaining && h > h_floor) {
      ++result.threshold_scans;
      // One scan at threshold h, in singleton-gain order.
      for (size_t idx = 0; idx < candidates.size(); ++idx) {
        const Candidate& cand = candidates[idx];
        if (cand.gain0 < h) break;  // Lines 11-12: sorted early exit
        if (selected[idx]) continue;
        if (cached_gain[idx] < h) continue;  // lazy skip: cannot pass h
        const double gain = CandidateGain(cand.piece, cand.v, *state);
        cached_gain[idx] = gain;
        if (gain >= h) {
          const double applied = ApplyCandidate(cand.piece, cand.v, *state);
          tau_raw += applied;
          tau_gains += applied;
          selected[idx] = 1;
          result.additions.emplace_back(cand.piece, cand.v);
          if (!result.first_pick.valid()) {
            result.first_pick = {cand.piece, cand.v, gain};
          }
          if (++taken >= budget_remaining) {
            done = true;
            break;
          }
        }
      }
      if (done) break;
      h /= (1.0 + epsilon);  // Line 13
      // Line 14: early termination once the threshold is provably too
      // small to matter for the (1 - 1/e - eps) guarantee. We measure
      // tau by the selection gains (excluding the anchor base), which is
      // a smaller — hence later-firing, quality-preserving — cutoff than
      // the full surrogate value; the proof of Theorem 3 only needs the
      // inequality h <= tau * e^-1 / ((1 - e^-1) * k'), which this
      // implies. With fill_budget, scanning resumes after the cutoff
      // (top-up phase) purely to complete the candidate plan.
      if (!past_cutoff) {
        const double cutoff = tau_gains /
                              static_cast<double>(budget_remaining) * kE1 /
                              (1.0 - kE1);
        if (taken > 0 && h <= cutoff) {
          if (!fill_budget) break;
          past_cutoff = true;
        }
      }
    }
  }

  FinishResult(state, tau_raw, &result);
  result.tau_evals = total_tau_evals_ - evals_before;
  EndCall(excluded);
  return result;
}

}  // namespace oipa
