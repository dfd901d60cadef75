#include "rrset/coverage_kernels.h"

namespace oipa {

double CoverageGainSum(std::span<const uint32_t> ids, const uint16_t* mult,
                       const uint8_t* cover_count, const double* delta_f,
                       double acc) {
  for (const uint32_t id : ids) {
    if (mult[id] != 0) continue;
    acc += delta_f[cover_count[id]];
  }
  return acc;
}

void CoverageGainBoundSum(std::span<const uint32_t> ids,
                          const uint16_t* mult, const uint8_t* cover_count,
                          const double* delta_f,
                          const double* delta_f_sufmax, double* gain_acc,
                          double* bound_acc) {
  double gain = *gain_acc;
  double bound = *bound_acc;
  for (const uint32_t id : ids) {
    if (mult[id] != 0) continue;
    const int c = cover_count[id];
    gain += delta_f[c];
    bound += delta_f_sufmax[c];
  }
  *gain_acc = gain;
  *bound_acc = bound;
}

double TangentGainSum(std::span<const uint32_t> ids, const uint16_t* mult,
                      const uint32_t* greedy_epoch, uint32_t epoch,
                      const uint32_t* line_epoch, const double* line_value,
                      const uint8_t* cover_count,
                      const double* anchor_by_count,
                      const double* slope_by_count, double acc) {
  for (const uint32_t id : ids) {
    if (mult[id] != 0 || greedy_epoch[id] == epoch) continue;
    const int c = cover_count[id];
    const double lv =
        line_epoch[id] == epoch ? line_value[id] : anchor_by_count[c];
    const double headroom = 1.0 - lv;
    if (headroom <= 0.0) continue;
    const double slope = slope_by_count[c];
    acc += slope < headroom ? slope : headroom;
  }
  return acc;
}

}  // namespace oipa
