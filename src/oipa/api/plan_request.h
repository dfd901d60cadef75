#ifndef OIPA_OIPA_API_PLAN_REQUEST_H_
#define OIPA_OIPA_API_PLAN_REQUEST_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "oipa/assignment_plan.h"
#include "oipa/tangent_bound.h"
#include "rrset/sample_store.h"

namespace oipa {

/// Solver knobs forwarded verbatim to whichever solver a request names.
/// Every solver reads the subset it understands and ignores the rest, so
/// one options block can be reused across methods in a comparison sweep.
struct SolverOptions {
  /// Relative termination gap of the branch-and-bound family.
  double gap = 0.01;
  /// BAB-P threshold decay (the paper fixes 0.5 after Figure 3).
  double epsilon = 0.5;
  /// Tangent-surrogate anchoring (see oipa/tangent_bound.h).
  BoundVariant variant = BoundVariant::kZeroAnchored;
  /// BAB only: CELF-lazy gain evaluation (identical selections).
  bool lazy_greedy = false;
  /// Scale the pruning bound by e/(e-1) for exact search.
  bool exact_pruning = false;
  /// BAB-P: keep filling candidate plans to the full budget.
  bool progressive_fill = true;
  /// Node-expansion safety cap of the branch-and-bound family.
  int64_t max_nodes = 100'000;
};

/// Progress snapshot handed to PlanRequest::progress. Every solve
/// reports one initial snapshot with zeroed counters before any work;
/// the branch-and-bound family additionally reports before each node
/// expansion (so only those solves can be cancelled mid-search —
/// counters stay zero for heuristics and baselines).
struct PlanProgress {
  /// Registered name of the solver reporting progress.
  std::string_view solver;
  /// Budget of the solve currently running (one entry of the request's
  /// budget list).
  int budget = 0;
  int64_t nodes_expanded = 0;
  /// Best utility found so far.
  double incumbent = 0.0;
  /// Current global upper bound (0 when the solver has none).
  double upper_bound = 0.0;
};

/// Periodic progress callback. Return false to cancel the solve: the
/// solver stops early and returns its incumbent with
/// PlanResponse::cancelled set (converged is false). Must be safe to call
/// from the solving thread.
using ProgressFn = std::function<bool(const PlanProgress&)>;

/// One planning question against a PlanningContext: which solver, which
/// promoter pool, which budget(s), and how the solver should be tuned.
/// Requests are cheap value types — build one per call site and pass it
/// to Solve()/SolveBatch() (solver_registry.h).
struct PlanRequest {
  /// Registered solver name; SolverRegistry::Global().Names() lists all.
  std::string solver = "bab-p";
  /// Promoter pool shared by all pieces. Must be non-empty with vertex
  /// ids inside the context's graph.
  std::vector<VertexId> pool;
  /// Assignment budgets k. Solve() requires exactly one entry;
  /// SolveBatch() sweeps every entry against the same MRR samples.
  std::vector<int> budgets = {10};
  SolverOptions options;
  /// Worker threads for solvers that can parallelize (the
  /// branch-and-bound family). 1 (default) is one search worker on the
  /// calling thread — bit-identical, deterministic responses; 0
  /// resolves to GetNumThreads(); N > 1 runs N work-stealing workers:
  /// utility stays within roughly the request's gap of the one-worker
  /// result (rigorously under options.exact_pruning) but the specific
  /// equally-good plan may differ between runs. Values above
  /// kMaxBabWorkers (branch_and_bound.h) are InvalidArgument.
  int num_threads = 1;
  /// Progressive (ε)-stopping: when > 0, each budget is re-solved on a
  /// growing sample store — the context's collections are doubled in
  /// place (PlanningContext::GrowSamples) until the relative gap between
  /// the in-sample and holdout utility estimates of the solved plan
  /// falls to `epsilon` or growth hits `max_theta`. Requires a context
  /// with a holdout and extendable samples. 0 (default) solves once on
  /// the samples as-is. Distinct from SolverOptions::epsilon (the BAB-P
  /// threshold decay).
  double epsilon = 0.0;
  /// Cap on the grown in-sample theta for progressive solving; at most
  /// MrrCollection::kMaxSamples (Solve returns InvalidArgument past it).
  int64_t max_theta = 2'000'000;
  /// Which rule ends the progressive loop (see StoppingRuleKind):
  /// kHoldoutGap stops when in-sample and holdout estimates agree
  /// within `epsilon`; kOpimBounds stops when the OPIM-style online
  /// bound pair certifies a (1 - 1/e - epsilon)-style ratio
  /// (PlanResponse::certified_ratio), typically earlier.
  StoppingRuleKind stopping = StoppingRuleKind::kHoldoutGap;
  /// Seed for solver-internal randomness (baseline RR sampling, random
  /// heuristic). Independent of the context's sampling seed.
  uint64_t seed = 1;
  /// Wall-clock deadline, measured from Solve()/SolveBatch() entry.
  /// Enforced through the progress hook: the BAB family is cancelled
  /// mid-search (per node expansion), every other solver only at its
  /// initial snapshot and between progressive rounds / sweep budgets —
  /// a non-polling solver already past its initial snapshot runs its
  /// budget to completion. A missed deadline returns the incumbent with
  /// cancelled and deadline_exceeded set, never an error. Unset
  /// (default) = no deadline; a present value must be >= 1
  /// (InvalidArgument otherwise). Composes with a caller progress hook:
  /// both can cancel.
  std::optional<int64_t> deadline_ms;
  /// Optional progress/cancellation hook (see ProgressFn).
  ProgressFn progress;
};

/// A solved plan plus everything a caller needs to judge it: quality on
/// the in-sample and holdout MRR estimates, search-effort counters, and
/// whether the solver actually converged (a tripped max_nodes cap or a
/// cancellation yields a valid but non-optimal plan).
struct PlanResponse {
  /// Registered name of the solver that produced the plan.
  std::string solver;
  /// Budget this response was solved for.
  int budget = 0;
  AssignmentPlan plan{1};
  /// In-sample MRR estimate (what the optimizer maximized).
  double utility = 0.0;
  /// Estimate on the context's independent holdout MRR collection
  /// (unbiased); 0 when the context was built without a holdout.
  double holdout_utility = 0.0;
  /// Global upper bound at termination (bounding solvers only; equals
  /// utility when the search space was exhausted).
  double upper_bound = 0.0;
  int64_t nodes_expanded = 0;
  int64_t bound_calls = 0;
  int64_t tau_evals = 0;
  double seconds = 0.0;
  /// In-sample theta the final solve ran on (grows under progressive
  /// (ε)-stopping; otherwise the context's theta at solve time). Read
  /// just before dispatch — when another thread grows the store
  /// mid-solve (sharded progressive sweeps), the solver may pick up a
  /// generation one round newer than this label.
  int64_t theta_used = 0;
  /// Solve-grow rounds performed: 1 for a plain solve; > 1 when
  /// PlanRequest::epsilon made the sample store grow.
  int sampling_rounds = 1;
  /// Relative in-sample/holdout gap of the returned plan (0 when the
  /// context has no holdout). Progressive solving under kHoldoutGap
  /// drives this to PlanRequest::epsilon unless max_theta stops growth
  /// first.
  double sampling_gap = 0.0;
  /// kOpimBounds only: the certified lower(plan)/upper(OPT) ratio of
  /// the returned plan (see StoppingRuleKind::kOpimBounds); 0 under
  /// kHoldoutGap or without a holdout.
  double certified_ratio = 0.0;
  /// False when the solver stopped early (max_nodes trip, cancellation).
  bool converged = true;
  /// True when the request's progress hook asked to stop.
  bool cancelled = false;
  /// True when the cancellation was caused by PlanRequest::deadline_ms
  /// expiring (cancelled is then also true; the partial telemetry above
  /// still describes the work done up to the cutoff).
  bool deadline_exceeded = false;
};

}  // namespace oipa

#endif  // OIPA_OIPA_API_PLAN_REQUEST_H_
