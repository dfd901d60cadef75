#ifndef OIPA_RRSET_COVERAGE_KERNELS_H_
#define OIPA_RRSET_COVERAGE_KERNELS_H_

#include <cstdint>
#include <span>

namespace oipa {

/// Batched evaluation kernels for the coverage hot loops: each call
/// processes one contiguous inverted-index posting span (the sample ids
/// containing a candidate vertex) against the flat per-sample arrays of
/// CoverageState / BoundEvaluator.
///
/// Bit-identity contract: every kernel computes one branchless term per
/// posting (skipped postings contribute a literal 0.0, which is exact —
/// the accumulators never hold -0.0) and then reduces STRICTLY in
/// posting order into the carried-in accumulator. The floating-point
/// result is therefore bit-identical to the historical scalar
/// skip-and-add loop, to the scalar fallback kernels below, and across
/// index segmentations (a grown collection sums in the same global
/// order as a fresh one). Only the term computation is vectorized.
///
/// Dispatch: on x86-64 the dispatched entry points resolve once, at
/// first use, to AVX2+FMA clones when the CPU supports them; otherwise
/// (and on other architectures) to the scalar kernels. The scalar path
/// is forced at runtime by setting the OIPA_NO_SIMD environment
/// variable to anything but "0", or at build time with the OIPA_NO_SIMD
/// CMake option — CI exercises both sides of the seam.

/// Sum of delta_f[cover_count[id]] over uncovered postings
/// (mult[id] == 0), accumulated in posting order starting from `acc`.
/// `delta_f` must be indexable at every cover_count value that occurs
/// (callers pad it with a zero entry at index l so the branchless
/// gather never reads out of bounds).
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

/// Scalar reference implementations: always compiled, never dispatched
/// to SIMD clones. The rrset_test SIMD-vs-scalar suite asserts exact
/// (bitwise) double equality between these and the dispatched entry
/// points above.
double CoverageGainSumScalar(std::span<const uint32_t> ids,
                             const uint16_t* mult,
                             const uint8_t* cover_count,
                             const double* delta_f, double acc);
void CoverageGainBoundSumScalar(std::span<const uint32_t> ids,
                                const uint16_t* mult,
                                const uint8_t* cover_count,
                                const double* delta_f,
                                const double* delta_f_sufmax,
                                double* gain_acc, double* bound_acc);
double TangentGainSumScalar(std::span<const uint32_t> ids,
                            const uint16_t* mult,
                            const uint32_t* greedy_epoch, uint32_t epoch,
                            const uint32_t* line_epoch,
                            const double* line_value,
                            const uint8_t* cover_count,
                            const double* anchor_by_count,
                            const double* slope_by_count, double acc);

/// True when the dispatched entry points run the vectorized clones
/// (x86-64 with AVX2, not forced scalar). Telemetry/diagnostics only.
bool SimdKernelsActive();

}  // namespace oipa

#endif  // OIPA_RRSET_COVERAGE_KERNELS_H_
