#ifndef OIPA_RRSET_COVERAGE_KERNELS_H_
#define OIPA_RRSET_COVERAGE_KERNELS_H_

#include <cstdint>
#include <span>

namespace oipa {

/// Evaluation kernels for the coverage hot loops: each call processes
/// one contiguous inverted-index posting span (the sample ids containing
/// a candidate vertex) against the flat per-sample arrays of
/// CoverageState / BoundEvaluator.
///
/// Posting-order contract: every kernel skips the postings it does not
/// count and adds the others' terms STRICTLY in posting order into the
/// carried-in accumulator. Callers thread one accumulator through the
/// spans of every index segment, so a grown (segmented) collection sums
/// in the same global order, and to the same doubles, as a fresh one.
/// A skipped posting equals adding an exact +0.0: the accumulators
/// never hold -0.0.

/// Sum of delta_f[cover_count[id]] over uncovered postings
/// (mult[id] == 0), accumulated in posting order starting from `acc`.
/// `delta_f` must be indexable at the cover_count of every uncovered
/// posting.
double CoverageGainSum(std::span<const uint32_t> ids, const uint16_t* mult,
                       const uint8_t* cover_count, const double* delta_f,
                       double acc);

/// CoverageGainSum plus the matching suffix-max bound sum: for each
/// uncovered posting adds delta_f[c] to *gain_acc and
/// delta_f_sufmax[c] to *bound_acc, both in posting order.
void CoverageGainBoundSum(std::span<const uint32_t> ids,
                          const uint16_t* mult, const uint8_t* cover_count,
                          const double* delta_f,
                          const double* delta_f_sufmax, double* gain_acc,
                          double* bound_acc);

/// The BoundEvaluator::CandidateGain inner loop: for each posting not
/// covered by the anchor plan (mult[id] == 0) and not yet greedily
/// covered this bound call (greedy_epoch[id] != epoch), adds the
/// tangent-surrogate marginal
///   lv = line_epoch[id] == epoch ? line_value[id]
///                                : anchor_by_count[cover_count[id]]
///   headroom = 1 - lv
///   term = headroom <= 0 ? 0 : min(slope_by_count[cover_count[id]],
///                                  headroom)
/// in posting order starting from `acc`. Read-only: unlike the
/// historical loop it never warms the line-value cache (the cached
/// value would equal the anchor value it reads instead, so results are
/// bit-identical; ApplyCandidate still initializes the cache).
double TangentGainSum(std::span<const uint32_t> ids, const uint16_t* mult,
                      const uint32_t* greedy_epoch, uint32_t epoch,
                      const uint32_t* line_epoch, const double* line_value,
                      const uint8_t* cover_count,
                      const double* anchor_by_count,
                      const double* slope_by_count, double acc);

}  // namespace oipa

#endif  // OIPA_RRSET_COVERAGE_KERNELS_H_
