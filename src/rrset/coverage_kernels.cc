#include "rrset/coverage_kernels.h"

#include <cstdlib>
#include <cstring>

namespace oipa {

namespace {

/// Per-chunk term buffer: the vectorizable half of each kernel fills it
/// branchlessly, the strictly-ordered scalar reduction drains it. Small
/// enough to stay in L1 alongside the gathered rows.
constexpr size_t kBlock = 128;

/// True when the environment forces the scalar kernels
/// (OIPA_NO_SIMD set to anything but "0"). Read exactly once, under the
/// magic-static guard, before the first kernel dispatch.
bool ScalarForcedByEnv() {
  static const bool forced = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at first use.
    const char* s = std::getenv("OIPA_NO_SIMD");
    return s != nullptr && *s != '\0' && std::strcmp(s, "0") != 0;
  }();
  return forced;
}

/// The three kernel bodies as macros so the scalar functions and the
/// AVX2-target clones compile the exact same code — elementwise
/// identical terms, identical posting-order reduction — differing only
/// in the ISA the compiler may use for the term loop.
#define OIPA_COVERAGE_GAIN_BODY                                         \
  const uint32_t* p = ids.data();                                       \
  size_t n = ids.size();                                                \
  double terms[kBlock];                                                 \
  while (n > 0) {                                                       \
    const size_t blk = n < kBlock ? n : kBlock;                         \
    for (size_t u = 0; u < blk; ++u) {                                  \
      const uint32_t id = p[u];                                         \
      const double d = delta_f[cover_count[id]];                        \
      terms[u] = mult[id] == 0 ? d : 0.0;                               \
    }                                                                   \
    for (size_t u = 0; u < blk; ++u) acc += terms[u];                   \
    p += blk;                                                           \
    n -= blk;                                                           \
  }                                                                     \
  return acc;

#define OIPA_COVERAGE_GAIN_BOUND_BODY                                   \
  const uint32_t* p = ids.data();                                       \
  size_t n = ids.size();                                                \
  double gain = *gain_acc;                                              \
  double bound = *bound_acc;                                            \
  double gain_terms[kBlock];                                            \
  double bound_terms[kBlock];                                           \
  while (n > 0) {                                                       \
    const size_t blk = n < kBlock ? n : kBlock;                         \
    for (size_t u = 0; u < blk; ++u) {                                  \
      const uint32_t id = p[u];                                         \
      const int c = cover_count[id];                                    \
      const bool uncovered = mult[id] == 0;                             \
      gain_terms[u] = uncovered ? delta_f[c] : 0.0;                     \
      bound_terms[u] = uncovered ? delta_f_sufmax[c] : 0.0;             \
    }                                                                   \
    for (size_t u = 0; u < blk; ++u) {                                  \
      gain += gain_terms[u];                                            \
      bound += bound_terms[u];                                          \
    }                                                                   \
    p += blk;                                                           \
    n -= blk;                                                           \
  }                                                                     \
  *gain_acc = gain;                                                     \
  *bound_acc = bound;

#define OIPA_TANGENT_GAIN_BODY                                          \
  const uint32_t* p = ids.data();                                       \
  size_t n = ids.size();                                                \
  double terms[kBlock];                                                 \
  while (n > 0) {                                                       \
    const size_t blk = n < kBlock ? n : kBlock;                         \
    for (size_t u = 0; u < blk; ++u) {                                  \
      const uint32_t id = p[u];                                         \
      const int c = cover_count[id];                                    \
      const bool skip = mult[id] != 0 || greedy_epoch[id] == epoch;     \
      const double lv = line_epoch[id] == epoch ? line_value[id]        \
                                                : anchor_by_count[c];   \
      const double headroom = 1.0 - lv;                                 \
      const double slope = slope_by_count[c];                           \
      const double g = slope < headroom ? slope : headroom;             \
      terms[u] = (skip || headroom <= 0.0) ? 0.0 : g;                   \
    }                                                                   \
    for (size_t u = 0; u < blk; ++u) acc += terms[u];                   \
    p += blk;                                                           \
    n -= blk;                                                           \
  }                                                                     \
  return acc;

#if defined(__x86_64__) && (defined(__clang__) || defined(__GNUC__)) && \
    !defined(OIPA_NO_SIMD_BUILD)
#define OIPA_KERNELS_HAVE_AVX2 1

__attribute__((target("avx2,fma"))) double CoverageGainSumAvx2(
    std::span<const uint32_t> ids, const uint16_t* mult,
    const uint8_t* cover_count, const double* delta_f, double acc) {
  OIPA_COVERAGE_GAIN_BODY
}

__attribute__((target("avx2,fma"))) void CoverageGainBoundSumAvx2(
    std::span<const uint32_t> ids, const uint16_t* mult,
    const uint8_t* cover_count, const double* delta_f,
    const double* delta_f_sufmax, double* gain_acc, double* bound_acc) {
  OIPA_COVERAGE_GAIN_BOUND_BODY
}

__attribute__((target("avx2,fma"))) double TangentGainSumAvx2(
    std::span<const uint32_t> ids, const uint16_t* mult,
    const uint32_t* greedy_epoch, uint32_t epoch,
    const uint32_t* line_epoch, const double* line_value,
    const uint8_t* cover_count, const double* anchor_by_count,
    const double* slope_by_count, double acc) {
  OIPA_TANGENT_GAIN_BODY
}

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2") != 0; }
#else
#define OIPA_KERNELS_HAVE_AVX2 0
#endif

bool UseSimd() {
#if OIPA_KERNELS_HAVE_AVX2
  static const bool use = !ScalarForcedByEnv() && CpuHasAvx2();
  return use;
#else
  // Keep the env probe referenced so the scalar-only build stays
  // warning-clean and the forcing knob is uniformly accepted.
  (void)ScalarForcedByEnv();
  return false;
#endif
}

}  // namespace

double CoverageGainSumScalar(std::span<const uint32_t> ids,
                             const uint16_t* mult,
                             const uint8_t* cover_count,
                             const double* delta_f, double acc) {
  OIPA_COVERAGE_GAIN_BODY
}

void CoverageGainBoundSumScalar(std::span<const uint32_t> ids,
                                const uint16_t* mult,
                                const uint8_t* cover_count,
                                const double* delta_f,
                                const double* delta_f_sufmax,
                                double* gain_acc, double* bound_acc) {
  OIPA_COVERAGE_GAIN_BOUND_BODY
}

double TangentGainSumScalar(std::span<const uint32_t> ids,
                            const uint16_t* mult,
                            const uint32_t* greedy_epoch, uint32_t epoch,
                            const uint32_t* line_epoch,
                            const double* line_value,
                            const uint8_t* cover_count,
                            const double* anchor_by_count,
                            const double* slope_by_count, double acc) {
  OIPA_TANGENT_GAIN_BODY
}

double CoverageGainSum(std::span<const uint32_t> ids, const uint16_t* mult,
                       const uint8_t* cover_count, const double* delta_f,
                       double acc) {
#if OIPA_KERNELS_HAVE_AVX2
  if (UseSimd()) {
    return CoverageGainSumAvx2(ids, mult, cover_count, delta_f, acc);
  }
#endif
  return CoverageGainSumScalar(ids, mult, cover_count, delta_f, acc);
}

void CoverageGainBoundSum(std::span<const uint32_t> ids,
                          const uint16_t* mult, const uint8_t* cover_count,
                          const double* delta_f,
                          const double* delta_f_sufmax, double* gain_acc,
                          double* bound_acc) {
#if OIPA_KERNELS_HAVE_AVX2
  if (UseSimd()) {
    CoverageGainBoundSumAvx2(ids, mult, cover_count, delta_f,
                             delta_f_sufmax, gain_acc, bound_acc);
    return;
  }
#endif
  CoverageGainBoundSumScalar(ids, mult, cover_count, delta_f,
                             delta_f_sufmax, gain_acc, bound_acc);
}

double TangentGainSum(std::span<const uint32_t> ids, const uint16_t* mult,
                      const uint32_t* greedy_epoch, uint32_t epoch,
                      const uint32_t* line_epoch, const double* line_value,
                      const uint8_t* cover_count,
                      const double* anchor_by_count,
                      const double* slope_by_count, double acc) {
#if OIPA_KERNELS_HAVE_AVX2
  if (UseSimd()) {
    return TangentGainSumAvx2(ids, mult, greedy_epoch, epoch, line_epoch,
                              line_value, cover_count, anchor_by_count,
                              slope_by_count, acc);
  }
#endif
  return TangentGainSumScalar(ids, mult, greedy_epoch, epoch, line_epoch,
                              line_value, cover_count, anchor_by_count,
                              slope_by_count, acc);
}

bool SimdKernelsActive() { return UseSimd(); }

}  // namespace oipa
