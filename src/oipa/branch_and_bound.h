#ifndef OIPA_OIPA_BRANCH_AND_BOUND_H_
#define OIPA_OIPA_BRANCH_AND_BOUND_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "oipa/assignment_plan.h"
#include "oipa/bound_evaluator.h"
#include "oipa/logistic_model.h"
#include "rrset/mrr_collection.h"

namespace oipa {

/// Safety ceiling on BabOptions::num_threads: the solver clamps larger
/// values (each worker past the first is a real std::thread plus its
/// own coverage state, so unbounded counts would exhaust OS resources);
/// the request layer rejects them as InvalidArgument.
inline constexpr int kMaxBabWorkers = 256;

/// Search-progress snapshot passed to BabOptions::on_progress.
struct BabProgress {
  int64_t nodes_expanded = 0;
  /// Best utility found so far (the incumbent L).
  double incumbent = 0.0;
  /// Current global upper bound U over all open subspaces.
  double upper_bound = 0.0;
};

/// Configuration for the OIPA branch-and-bound solvers (BAB / BAB-P).
struct BabOptions {
  /// Total assignment budget k = sum_j |S_j|.
  int budget = 10;
  /// Relative termination gap: stop once the global upper bound U and the
  /// incumbent L satisfy U <= L * (1 + gap). The paper's experiments use
  /// 1% (Section VI-A).
  double gap = 0.01;
  /// false = BAB (Algorithm 2 bound), true = BAB-P (Algorithm 3 bound).
  bool progressive = false;
  /// BAB only: use the CELF-lazy variant of Algorithm 2 (identical
  /// selections, fewer gain evaluations — our ablation, not the paper's).
  bool lazy_greedy = false;
  /// BAB-P threshold decay; the paper fixes 0.5 after Figure 3.
  double epsilon = 0.5;
  /// BAB-P: keep the threshold schedule running past the Line-14 cutoff
  /// so candidate plans always use the full budget (see
  /// BoundEvaluator::ComputeBoundPro). False reproduces Algorithm 3
  /// verbatim.
  bool progressive_fill = true;
  /// Tangent-surrogate anchoring (see tangent_bound.h).
  BoundVariant variant = BoundVariant::kZeroAnchored;
  /// If true, scale the pruning bound by e/(e-1) so pruning is lossless
  /// w.r.t. the MRR objective (exact search); the paper prunes against
  /// tau(greedy) directly, which yields the (1-1/e) guarantee instead.
  bool exact_pruning = false;
  /// Safety cap on expanded nodes; the search reports converged=false if
  /// it trips.
  int64_t max_nodes = 100'000;
  /// Search workers, each draining its own bound-ordered frontier and
  /// rebalancing by randomized work stealing. 1 (default) is one worker
  /// on the calling thread, deterministic run to run; 0 resolves to
  /// GetNumThreads(); larger values are clamped to kMaxBabWorkers.
  /// Several workers keep every quality guarantee of one — under
  /// exact_pruning each lands within `gap` of the optimum, so within
  /// ~gap of each other; default Theorem-2 pruning keeps the (1-1/e)
  /// floor — but may return a different equally-good plan and expand a
  /// different node count run to run.
  int num_threads = 1;
  /// Optional hook invoked before every node expansion (serialized
  /// across workers when num_threads > 1). Return false to cancel: the
  /// search stops and returns its incumbent with cancelled=true
  /// (converged=false).
  std::function<bool(const BabProgress&)> on_progress;
};

/// Outcome of a branch-and-bound run.
struct BabResult {
  AssignmentPlan plan{1};
  /// MRR-estimated adoption utility of `plan`.
  double utility = 0.0;
  /// Global upper bound at termination (equals utility when the search
  /// space was exhausted).
  double upper_bound = 0.0;
  int64_t nodes_expanded = 0;
  int64_t bound_calls = 0;
  int64_t tau_evals = 0;
  double seconds = 0.0;
  bool converged = false;
  /// True when BabOptions::on_progress asked to stop the search.
  bool cancelled = false;
};

/// The paper's branch-and-bound framework (Algorithm 1): a max-heap of
/// partial plans ordered by tangent-surrogate upper bound; each expansion
/// branches on the bound's first greedy pick (include vs. exclude);
/// pruning drops subspaces whose bound cannot beat the incumbent.
///
/// The search runs on BabOptions::num_threads workers. Each owns a
/// max-heap frontier plus a CoverageState + BoundEvaluator replayed by
/// plan diffing, pops its own most promising node, and — when its
/// frontier runs dry — steals the cheaper half of a randomly chosen
/// victim's. Pruning reads a lock-free exact atomic incumbent (the plan
/// is recorded under a small mutex that only winners touch). Worker 0
/// runs on the calling thread with the solver's own evaluator, so one
/// worker performs exactly the single-queue best-first search. The
/// search terminates when the open-subspace counter drains to zero.
class BabSolver {
 public:
  /// All arguments must outlive the solver. `pools[j]` is the promoter
  /// pool for piece j.
  BabSolver(const MrrCollection* mrr, const LogisticAdoptionModel& model,
            std::vector<std::vector<VertexId>> pools, BabOptions options);

  /// Shared-pool convenience constructor.
  BabSolver(const MrrCollection* mrr, const LogisticAdoptionModel& model,
            const std::vector<VertexId>& shared_pool, BabOptions options);

  BabResult Solve();

 private:
  const MrrCollection* mrr_;
  LogisticAdoptionModel model_;
  BabOptions options_;
  BoundEvaluator evaluator_;  // also owns the candidate pools
};

/// Baseline heuristic for ablations: greedy directly on the
/// (non-submodular) MRR-estimated adoption utility, no guarantee.
/// CELF-lazy selection (exact even under non-submodular f, via
/// suffix-max gain bounds); ties and zero-gain rounds still fill the
/// budget — converged is false only when the candidate space itself
/// runs out before `budget` assignments.
BabResult GreedySigmaSolve(const MrrCollection& mrr,
                           const LogisticAdoptionModel& model,
                           const std::vector<VertexId>& pool, int budget);

}  // namespace oipa

#endif  // OIPA_OIPA_BRANCH_AND_BOUND_H_
