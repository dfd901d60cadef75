#ifndef OIPA_BENCH_E2E_WORKLOADS_H_
#define OIPA_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/status.h"

namespace oipa {
namespace e2e {

enum class RequestKind { kPlan, kHealth, kMalformed };

/// One generated wire request, exactly as sent to the daemon.
struct BenchRequest {
  /// Request id; empty for malformed lines, which the daemon answers
  /// with an empty id (matched per connection in send order).
  std::string id;
  std::string line;
  RequestKind kind = RequestKind::kPlan;
  /// Closed loop: the client (thread and connection) that sends it, in
  /// the order of `Workload::requests`. Open loop: the connection.
  int client = 0;
  /// Clients rendezvous whenever their next request's group differs
  /// from the previous one (grow-progressive tenants); 0 = no barrier.
  int group = 0;
  /// Open loop only: scheduled send time, seconds after the start.
  double at_s = 0.0;
  /// Open loop only: index into `Workload::rates_rps`.
  int phase = 0;
};

/// A seeded request stream. The daemon sees only these lines.
struct Workload {
  std::string name;
  bool open_loop = false;
  int clients = 2;
  /// Open loop: Poisson arrival rate of each equally long phase.
  std::vector<double> rates_rps;
  /// Set-up lines, sent one at a time on one connection before the
  /// measured phase (they build the workload's cached contexts).
  std::vector<std::string> warmup;
  std::vector<BenchRequest> requests;
  /// Oracle: every response must report serve.samples_generated == 0.
  bool expect_no_sampling = false;
};

/// Generates the named workload: warm-search, cold-context,
/// grow-progressive or serve-mix. Closed-loop workloads send a fixed
/// request count sized to take about `seconds` on the reference box;
/// the open loop's schedule spans exactly `seconds`. InvalidArgument
/// for an unknown name or a non-positive `seconds`.
StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                double seconds);

/// FNV-1a hash of the warm-up lines, request lines, client/group
/// assignment and arrival schedule (the generator determinism check).
uint64_t Fingerprint(const Workload& workload);

/// Calls fn(i) for every request index i, each client's requests in
/// order on that client's own thread. All clients rendezvous whenever
/// their next request's group differs from their previous one, so every
/// group must hold requests of every client.
void RunClients(const Workload& workload,
                const std::function<void(size_t)>& fn);

}  // namespace e2e
}  // namespace oipa

#endif  // OIPA_BENCH_E2E_WORKLOADS_H_
