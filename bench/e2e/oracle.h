#ifndef OIPA_BENCH_E2E_ORACLE_H_
#define OIPA_BENCH_E2E_ORACLE_H_

#include <optional>
#include <string>
#include <vector>

#include "cli/json_writer.h"
#include "workloads.h"

namespace oipa {
namespace e2e {

/// Checks every daemon response against the request that produced it.
/// `responses[i]` is the parsed answer to `workload.requests[i]`, or
/// nullopt when none arrived. Returns one entry per request: empty when
/// the answer is correct, else the reason it is not.
///
/// - A malformed line must get ok:false with code InvalidArgument; a
///   health request ok:true with a health object.
/// - A plan request must get ok:true and one result row per budget, each
///   a valid plan: one seed set per campaign piece, at most k
///   assignments, every seed from the promoter pool, none repeated.
/// - Each row is compared with a reference: the same request solved
///   in-process on the sequential engine (threads=1, no deadline)
///   against a private context sampled at exactly the row's theta_used
///   — bit-identical to the daemon's samples, since growth is.
///   With plan.threads == 1 the row must equal the reference byte for
///   byte, except solve_seconds and sampling_rounds (a progressive
///   answer is its final round; the reference solves that round once).
///   Otherwise its utility must be the plan's utility on those samples
///   and at least (1 - gap) times the reference's. Rows cut off by a
///   deadline are only checked for validity.
/// - With `workload.expect_no_sampling`, serve.samples_generated == 0.
std::vector<std::string> CheckResponses(
    const Workload& workload,
    const std::vector<std::optional<JsonValue>>& responses);

}  // namespace e2e
}  // namespace oipa

#endif  // OIPA_BENCH_E2E_ORACLE_H_
