#ifndef OIPA_UTIL_FAULT_INJECTOR_H_
#define OIPA_UTIL_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace oipa {

/// Deterministic fault injection for robustness testing.
///
/// Code under test names its failure points with string-literal *sites*
/// and asks ShouldFail(site) before the fallible operation. The sites:
/// "serve.accept", "serve.read" and "serve.write" (the daemon's sockets),
/// "store.grow" (SampleStore::Grow), "io.load" and "io.save" (sample
/// snapshot files). A test or operator arms sites with
/// either a per-call probability or an exact call ordinal:
///
///     FaultInjector::Configure("serve.read=0.01,store.grow=@3", /*seed=*/7)
///
/// arms "serve.read" to fail each call with probability 1% and
/// "store.grow" to fail exactly on its 3rd call. Probability decisions
/// are a pure hash of (seed, site, per-site call index), so a run with a
/// fixed seed fires the same faults at the same per-site call ordinals
/// regardless of thread interleaving across sites.
///
/// The injector is process-global and off by default; when disabled,
/// ShouldFail is a single relaxed atomic load (zero-cost in production).
/// `oipa_serve` and `oipa_cli serve` arm it from the environment
/// (OIPA_FAULTS holds the spec, OIPA_FAULTS_SEED the seed) so the chaos
/// smoke harness can inject faults into an unmodified binary.
class FaultInjector {
 public:
  /// True when `site` should fail this call. Sites not named in the
  /// active spec never fail. Thread-safe.
  static bool ShouldFail(const char* site) {
    if (!enabled_.load(std::memory_order_relaxed)) return false;
    return ShouldFailSlow(site);
  }

  /// Arms the injector from a comma-separated spec of `site=p` (failure
  /// probability in [0,1]) and `site=@N` (fail exactly on the N-th call,
  /// 1-based) entries. Replaces any previous configuration and resets
  /// all call counters. An empty spec disables injection. Returns
  /// InvalidArgument (leaving the previous configuration armed) when the
  /// spec does not parse.
  static Status Configure(const std::string& spec, uint64_t seed);

  /// Arms from $OIPA_FAULTS / $OIPA_FAULTS_SEED (seed defaults to 1).
  /// A no-op returning OK when OIPA_FAULTS is unset or empty.
  static Status ConfigureFromEnv();

  /// Disarms every site and resets counters. ShouldFail returns to the
  /// single-atomic-load fast path.
  static void Disable();

  /// Total faults fired since the last Configure/Disable.
  static int64_t InjectedCount();

  /// Per-site telemetry since the last Configure/Disable.
  struct SiteStats {
    std::string site;
    int64_t calls = 0;    ///< ShouldFail invocations for the site.
    int64_t injected = 0; ///< How many of them returned true.
  };
  static std::vector<SiteStats> GetSiteStats();

 private:
  static bool ShouldFailSlow(const char* site);

  static std::atomic<bool> enabled_;
};

/// The canonical Status for a fault fired at `site`: every injection
/// point reports Internal("injected fault at <site>") so tests and the
/// chaos harness can recognize injected failures by message.
Status InjectedFault(const char* site);

}  // namespace oipa

#endif  // OIPA_UTIL_FAULT_INJECTOR_H_
