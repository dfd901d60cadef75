#ifndef OIPA_OIPA_API_SOLVER_REGISTRY_H_
#define OIPA_OIPA_API_SOLVER_REGISTRY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "oipa/api/plan_request.h"
#include "oipa/api/planning_context.h"
#include "oipa/api/solver.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/threading.h"

namespace oipa {

/// String-keyed solver catalog. The process-wide instance
/// (SolverRegistry::Global()) comes pre-populated with every built-in
/// method — the paper's "bab", "bab-p", "im", "tim" plus "brute-force",
/// "greedy-sigma" and the classic IM heuristics "high-degree",
/// "degree-discount", "random" — and applications extend it at startup:
///
///   class MySolver : public Solver { ... };
///   OIPA_CHECK_OK(SolverRegistry::Global().Register(
///       std::make_unique<MySolver>()));
///   ...
///   StatusOr<PlanResponse> r = Solve(*ctx, {.solver = "my-solver", ...});
///
/// All methods are thread-safe; lookups return stable pointers (solvers
/// are never unregistered).
class SolverRegistry {
 public:
  SolverRegistry() = default;
  SolverRegistry(const SolverRegistry&) = delete;
  SolverRegistry& operator=(const SolverRegistry&) = delete;

  /// The process-wide registry, built-ins already registered.
  static SolverRegistry& Global();

  /// Registers `solver` under solver->name(). FailedPrecondition if the
  /// name is already taken; InvalidArgument for a null solver or an
  /// empty name.
  Status Register(std::unique_ptr<Solver> solver) OIPA_EXCLUDES(mu_);

  /// Looks a solver up by name. NotFound (message lists the registered
  /// names) when absent.
  StatusOr<const Solver*> Find(const std::string& name) const
      OIPA_EXCLUDES(mu_);

  bool Contains(const std::string& name) const OIPA_EXCLUDES(mu_);

  /// All registered names, sorted.
  std::vector<std::string> Names() const OIPA_EXCLUDES(mu_);

  /// "name1 (description1)\nname2 (description2)..." — one line per
  /// solver, sorted by name. Used by `oipa_cli --method=list`.
  std::string DescribeAll() const OIPA_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Solver>> solvers_
      OIPA_GUARDED_BY(mu_);
};

/// Solves one request (exactly one budget) against a shared context:
/// validates the request, dispatches to the named solver, and stamps the
/// response with the solver name, budget, wall time, and holdout
/// utility. With request.epsilon > 0 the solve is progressive: the
/// context's sample store grows (doubling, in place and bit-identically
/// to up-front generation) and the budget is re-solved until the
/// in-sample/holdout gap reaches epsilon or theta hits
/// request.max_theta; the response reports theta_used, sampling_rounds,
/// and the achieved sampling_gap. InvalidArgument on a malformed
/// request, NotFound on an unknown solver name.
StatusOr<PlanResponse> Solve(
    const PlanningContext& context, const PlanRequest& request,
    const SolverRegistry& registry = SolverRegistry::Global());

/// Sweeps every budget in `request.budgets` against the same context —
/// the MRR samples are generated once and reused, so a k-sweep costs one
/// sampling pass plus the solves. Responses come back in budget order.
/// If a solve is cancelled via the progress hook, the sweep stops after
/// the cancelled response.
///
/// With request.num_threads != 1 and several budgets, the sweep itself
/// is parallelized: up to num_threads workers each solve whole budgets
/// with one search worker, so fixed-theta responses are bit-identical
/// to the num_threads == 1 sweep — only faster. (To run every budget on
/// num_threads search workers instead, call Solve() once per budget, as
/// thread-scaling benches do.) Progressive requests (epsilon > 0)
/// compose with sharding: workers grow the shared store
/// cooperatively, and each response reports the theta it converged at
/// (growth interleaving may differ from a serial sweep's, so per-budget
/// theta_used can be smaller — never the plan quality contract).
StatusOr<std::vector<PlanResponse>> SolveBatch(
    const PlanningContext& context, const PlanRequest& request,
    const SolverRegistry& registry = SolverRegistry::Global());

}  // namespace oipa

#endif  // OIPA_OIPA_API_SOLVER_REGISTRY_H_
