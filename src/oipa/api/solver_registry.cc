#include "oipa/api/solver_registry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "im/heuristics.h"
#include "oipa/adoption.h"
#include "oipa/baselines.h"
#include "oipa/branch_and_bound.h"
#include "oipa/brute_force.h"
#include "util/logging.h"
#include "util/threading.h"
#include "util/timer.h"

namespace oipa {

namespace {

PlanResponse FromBabResult(const BabResult& r) {
  PlanResponse response;
  response.plan = r.plan;
  response.utility = r.utility;
  response.upper_bound = r.upper_bound;
  response.nodes_expanded = r.nodes_expanded;
  response.bound_calls = r.bound_calls;
  response.tau_evals = r.tau_evals;
  response.seconds = r.seconds;
  response.converged = r.converged;
  response.cancelled = r.cancelled;
  return response;
}

PlanResponse FromBaselineResult(const BaselineResult& r) {
  PlanResponse response;
  response.plan = r.plan;
  response.utility = r.utility;
  response.upper_bound = r.utility;
  response.seconds = r.seconds;
  return response;
}

// --------------------------------------------------- branch and bound

/// "bab" and "bab-p": the paper's branch-and-bound framework.
class BabFamilySolver : public Solver {
 public:
  BabFamilySolver(std::string_view name, std::string_view description,
                  bool progressive)
      : name_(name), description_(description), progressive_(progressive) {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override { return description_; }

  StatusOr<PlanResponse> Solve(const PlanningContext& context,
                               const SampleSnapshot& samples,
                               const PlanRequest& request,
                               int budget) const override {
    BabOptions options;
    static_cast<SolverOptions&>(options) = request.options;
    options.budget = budget;
    options.progressive = progressive_;
    options.num_threads = request.num_threads;
    if (request.progress) {
      options.on_progress = [this, &request,
                             budget](const BabProgress& p) {
        PlanProgress progress;
        progress.solver = name_;
        progress.budget = budget;
        progress.nodes_expanded = p.nodes_expanded;
        progress.incumbent = p.incumbent;
        progress.upper_bound = p.upper_bound;
        return request.progress(progress);
      };
    }
    return FromBabResult(
        BabSolver(samples.mrr.get(), context.model(), request.pool,
                  options)
            .Solve());
  }

 private:
  std::string_view name_;
  std::string_view description_;
  bool progressive_;
};

// ----------------------------------------------------- paper baselines

class ImSolver : public Solver {
 public:
  std::string_view name() const override { return "im"; }
  std::string_view description() const override {
    return "paper IM baseline: topic-blind influence maximization, best "
           "single piece";
  }

  StatusOr<PlanResponse> Solve(const PlanningContext& context,
                               const SampleSnapshot& samples,
                               const PlanRequest& request,
                               int budget) const override {
    const MrrCollection& mrr = *samples.mrr;
    return FromBaselineResult(ImBaseline(
        context.graph(), context.probs(), context.campaign(), mrr,
        context.model(), request.pool, budget, mrr.theta(),
        request.seed + 17));
  }
};

class TimSolver : public Solver {
 public:
  std::string_view name() const override { return "tim"; }
  std::string_view description() const override {
    return "paper TIM baseline: per-piece influence maximization, best "
           "single piece";
  }

  StatusOr<PlanResponse> Solve(const PlanningContext& context,
                               const SampleSnapshot& samples,
                               const PlanRequest& request,
                               int budget) const override {
    const MrrCollection& mrr = *samples.mrr;
    return FromBaselineResult(TimBaseline(
        context.pieces(), mrr, context.model(), request.pool, budget,
        mrr.theta(), request.seed + 19));
  }
};

// --------------------------------------------------------- exhaustive

class BruteForceSolver : public Solver {
 public:
  std::string_view name() const override { return "brute-force"; }
  std::string_view description() const override {
    return "exhaustive enumeration over the MRR objective (tiny "
           "instances only)";
  }

  StatusOr<PlanResponse> Solve(const PlanningContext& context,
                               const SampleSnapshot& samples,
                               const PlanRequest& request,
                               int budget) const override {
    // BruteForceSolve CHECK-fails on infeasible instances; turn that
    // into a Status here so an oversized request is an error value.
    const int64_t candidates =
        static_cast<int64_t>(request.pool.size()) *
        context.campaign().num_pieces();
    if (!BruteForceFeasible(candidates, budget)) {
      return Status::InvalidArgument(
          "brute-force instance too large: " +
          std::to_string(candidates) + " candidates at budget " +
          std::to_string(budget) + " exceed 5e7 plans");
    }
    WallTimer timer;
    const BruteForceResult r = BruteForceSolve(
        *samples.mrr, context.model(), request.pool, budget);
    PlanResponse response;
    response.plan = r.plan;
    response.utility = r.utility;
    response.upper_bound = r.utility;  // exhaustive => exact optimum
    response.nodes_expanded = r.plans_evaluated;
    response.seconds = timer.Seconds();
    return response;
  }
};

// --------------------------------------------------------- heuristics

class GreedySigmaSolver : public Solver {
 public:
  std::string_view name() const override { return "greedy-sigma"; }
  std::string_view description() const override {
    return "greedy directly on the MRR-estimated adoption utility (no "
           "guarantee)";
  }

  StatusOr<PlanResponse> Solve(const PlanningContext& context,
                               const SampleSnapshot& samples,
                               const PlanRequest& request,
                               int budget) const override {
    return FromBabResult(GreedySigmaSolve(*samples.mrr, context.model(),
                                          request.pool, budget));
  }
};

/// Shared tail of the classic-IM heuristic solvers: seeds per piece ->
/// best single-piece assignment (the same reporting path as IM/TIM).
PlanResponse HeuristicResponse(
    const PlanningContext& context, const SampleSnapshot& samples,
    const std::vector<std::vector<VertexId>>& per_piece_seeds,
    const WallTimer& timer) {
  PlanResponse response = FromBaselineResult(BestSinglePieceAssignment(
      *samples.mrr, context.model(), per_piece_seeds));
  response.seconds = timer.Seconds();
  return response;
}

class HighDegreeSolver : public Solver {
 public:
  std::string_view name() const override { return "high-degree"; }
  std::string_view description() const override {
    return "top-k out-degree seeds, best single piece (Chen et al. "
           "heuristic)";
  }

  StatusOr<PlanResponse> Solve(const PlanningContext& context,
                               const SampleSnapshot& samples,
                               const PlanRequest& request,
                               int budget) const override {
    WallTimer timer;
    const std::vector<VertexId> seeds =
        HighDegreeSeeds(context.graph(), budget, request.pool);
    return HeuristicResponse(
        context, samples,
        std::vector<std::vector<VertexId>>(
            context.campaign().num_pieces(), seeds),
        timer);
  }
};

class DegreeDiscountSolver : public Solver {
 public:
  std::string_view name() const override { return "degree-discount"; }
  std::string_view description() const override {
    return "per-piece DegreeDiscount seeds, best single piece (Chen et "
           "al. heuristic)";
  }

  StatusOr<PlanResponse> Solve(const PlanningContext& context,
                               const SampleSnapshot& samples,
                               const PlanRequest& request,
                               int budget) const override {
    WallTimer timer;
    std::vector<std::vector<VertexId>> per_piece;
    per_piece.reserve(context.pieces().size());
    for (const InfluenceGraph& piece : context.pieces()) {
      per_piece.push_back(
          DegreeDiscountSeeds(piece, budget, request.pool));
    }
    return HeuristicResponse(context, samples, per_piece, timer);
  }
};

class RandomSolver : public Solver {
 public:
  std::string_view name() const override { return "random"; }
  std::string_view description() const override {
    return "k uniform random pool seeds, best single piece (baseline "
           "floor)";
  }

  StatusOr<PlanResponse> Solve(const PlanningContext& context,
                               const SampleSnapshot& samples,
                               const PlanRequest& request,
                               int budget) const override {
    WallTimer timer;
    const std::vector<VertexId> seeds = RandomSeeds(
        context.graph(), budget, request.seed + 23, request.pool);
    return HeuristicResponse(
        context, samples,
        std::vector<std::vector<VertexId>>(
            context.campaign().num_pieces(), seeds),
        timer);
  }
};

// ----------------------------------------------------------- dispatch

Status ValidateRequest(const PlanningContext& context,
                       const PlanRequest& request) {
  if (request.pool.empty()) {
    return Status::InvalidArgument("request pool is empty");
  }
  const VertexId n = context.graph().num_vertices();
  for (const VertexId v : request.pool) {
    if (v < 0 || v >= n) {
      return Status::InvalidArgument(
          "pool vertex " + std::to_string(v) +
          " is outside the context graph [0, " + std::to_string(n) + ")");
    }
    // The in-sample index holds only the context pool's postings.
    if (!context.InPool(v)) {
      return Status::InvalidArgument("pool vertex " + std::to_string(v) +
                                     " is outside the context's pool");
    }
  }
  if (request.budgets.empty()) {
    return Status::InvalidArgument("request has no budgets");
  }
  for (const int budget : request.budgets) {
    if (budget < 1) {
      return Status::InvalidArgument("budgets must be >= 1, got " +
                                     std::to_string(budget));
    }
  }
  if (request.num_threads < 0 || request.num_threads > kMaxBabWorkers) {
    return Status::InvalidArgument(
        "num_threads must be in [0, " + std::to_string(kMaxBabWorkers) +
        "] (0 = auto), got " + std::to_string(request.num_threads));
  }
  // The wire's rules, written so that NaN fails them too: the BAB
  // family CHECKs both values once the search starts.
  if (!(request.options.gap >= 0.0)) {
    return Status::InvalidArgument("options.gap must be >= 0, got " +
                                   std::to_string(request.options.gap));
  }
  if (!(request.options.epsilon > 0.0 && request.options.epsilon < 1.0)) {
    return Status::InvalidArgument("options.epsilon must be in (0, 1), got " +
                                   std::to_string(request.options.epsilon));
  }
  if (request.epsilon < 0.0) {
    return Status::InvalidArgument(
        "epsilon must be >= 0 (0 disables progressive solving), got " +
        std::to_string(request.epsilon));
  }
  if (request.deadline_ms.has_value() && *request.deadline_ms < 1) {
    return Status::InvalidArgument(
        "deadline_ms must be >= 1 when set (got " +
        std::to_string(*request.deadline_ms) +
        "); leave it unset for no deadline");
  }
  if (request.max_theta > MrrCollection::kMaxSamples) {
    return Status::InvalidArgument(
        "max_theta must be <= " +
        std::to_string(MrrCollection::kMaxSamples) +
        " (the 32-bit sample-id ceiling), got " +
        std::to_string(request.max_theta));
  }
  if (request.epsilon > 0.0) {
    if (request.max_theta < 1) {
      return Status::InvalidArgument(
          "progressive solving needs max_theta >= 1, got " +
          std::to_string(request.max_theta));
    }
    if (!context.has_holdout()) {
      return Status::InvalidArgument(
          "progressive solving (epsilon > 0) requires a context with a "
          "holdout collection (ContextOptions::holdout_theta != 0)");
    }
    if (!context.CanGrowSamples()) {
      return Status::InvalidArgument(
          "progressive solving (epsilon > 0) requires extendable context "
          "samples (collections with sampling provenance)");
    }
  }
  return Status::Ok();
}

// ------------------------------------------------------------ deadlines

/// Rewrites request->progress so every poll also checks a wall-clock
/// deadline of deadline_ms from now. Cancellation granularity follows
/// the progress contract: the BAB family polls per node expansion, the
/// other solvers only at their initial snapshot — plus the gaps between
/// progressive rounds and sweep budgets, where SolveOne re-polls.
/// Returns the absolute deadline for StampDeadline.
std::chrono::steady_clock::time_point ComposeDeadline(PlanRequest* request) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(request->deadline_ms.value());
  const ProgressFn inner = std::move(request->progress);
  request->progress = [deadline, inner](const PlanProgress& progress) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    return inner == nullptr || inner(progress);
  };
  return deadline;
}

/// Distinguishes a deadline cancellation from a caller-hook one: a
/// response that came back cancelled after the deadline passed is
/// stamped deadline_exceeded (the caller hook may also have fired, but
/// past the deadline the solve was doomed either way).
void StampDeadline(std::chrono::steady_clock::time_point deadline,
                   PlanResponse* response) {
  if (response->cancelled &&
      std::chrono::steady_clock::now() >= deadline) {
    response->deadline_exceeded = true;
  }
}

/// Runs one budget through `solver` and stamps the uniform response
/// fields the solvers themselves leave blank. Pins one sample
/// generation for the whole solve: the solver, the holdout estimate,
/// and the stopping statistics all read the same snapshot even while
/// the store grows concurrently. The search needs only the in-sample
/// collection; the holdout, which may still be sampling beside it, is
/// waited for after the search. Every solver gets one initial progress
/// snapshot (with zeroed counters) before any work, so cancellation is
/// possible even for solvers that never poll the hook; the BAB family
/// additionally polls during the search. When the context has a
/// holdout, `stopping` (optional) receives the configured rule's full
/// verdict for the progressive loop.
StatusOr<PlanResponse> SolveOne(const PlanningContext& context,
                                const PlanRequest& request,
                                const Solver& solver, int budget,
                                StoppingVerdict* stopping = nullptr) {
  WallTimer timer;
  if (request.progress) {
    PlanProgress initial;
    initial.solver = solver.name();
    initial.budget = budget;
    if (!request.progress(initial)) {
      PlanResponse cancelled;
      cancelled.solver = std::string(solver.name());
      cancelled.budget = budget;
      cancelled.plan = AssignmentPlan(context.campaign().num_pieces());
      cancelled.converged = false;
      cancelled.cancelled = true;
      cancelled.seconds = timer.Seconds();
      return cancelled;
    }
  }
  const SampleSnapshot samples = context.samples();
  const int64_t theta_used = samples.mrr->theta();
  StatusOr<PlanResponse> response =
      solver.Solve(context, samples, request, budget);
  if (!response.ok()) return response.status();
  response->solver = std::string(solver.name());
  response->budget = budget;
  if (response->seconds == 0.0) response->seconds = timer.Seconds();
  const std::shared_ptr<const MrrCollection> holdout = samples.holdout();
  response->holdout_utility =
      holdout == nullptr ? 0.0
                         : EstimateAdoptionUtility(*holdout, context.model(),
                                                   response->plan);
  response->theta_used = theta_used;
  response->sampling_rounds = 1;
  if (holdout != nullptr) {
    StoppingInputs inputs;
    inputs.utility = response->utility;
    inputs.upper_bound = response->upper_bound;
    inputs.holdout_utility = response->holdout_utility;
    inputs.theta = theta_used;
    inputs.holdout_theta = holdout->theta();
    inputs.num_vertices = context.graph().num_vertices();
    inputs.epsilon = request.epsilon;
    const StoppingVerdict verdict =
        GetStoppingRule(request.stopping).Evaluate(inputs);
    response->sampling_gap = verdict.sampling_gap;
    response->certified_ratio = verdict.certified_ratio;
    if (stopping != nullptr) *stopping = verdict;
  }
  return response;
}

/// Progressive (ε)-stopping around SolveOne: solve, ask the request's
/// StoppingRule whether the round certifies (kHoldoutGap: in-sample and
/// holdout estimates agree within request.epsilon; kOpimBounds: the
/// online bound pair certifies a (1-1/e-ε)-style ratio), and grow the
/// context's sample store (doubling) until it does or growth hits
/// request.max_theta. Thanks to copy-on-grow + per-sample seeding, the
/// final round is bit-identical to a one-shot solve against a context
/// generated at the final theta.
StatusOr<PlanResponse> SolveOneProgressive(const PlanningContext& context,
                                           const PlanRequest& request,
                                           const Solver& solver,
                                           int budget) {
  WallTimer total_timer;
  int rounds = 0;
  int64_t drawn = 0;
  for (;;) {
    StoppingVerdict stopping;
    StatusOr<PlanResponse> response =
        SolveOne(context, request, solver, budget, &stopping);
    if (!response.ok()) return response.status();
    ++rounds;
    response->sampling_rounds = rounds;
    response->samples_drawn = drawn;
    if (response->cancelled) return response;
    if (stopping.satisfied) {
      response->seconds = total_timer.Seconds();
      return response;
    }
    // The store may have been grown further by a concurrent budget
    // worker; double whatever is current.
    const int64_t current = context.sample_store().theta();
    const int64_t target =
        std::min(request.max_theta,
                 current > request.max_theta / 2 ? request.max_theta
                                                 : current * 2);
    if (target <= current) {
      // Cannot grow any further: report the best achievable gap.
      response->seconds = total_timer.Seconds();
      return response;
    }
    OIPA_RETURN_IF_ERROR(context.GrowSamples(target, &drawn));
  }
}

/// Dispatches one budget through the progressive wrapper when the
/// request asks for (ε)-stopping, else plain SolveOne.
StatusOr<PlanResponse> SolveBudget(const PlanningContext& context,
                                   const PlanRequest& request,
                                   const Solver& solver, int budget) {
  if (request.epsilon > 0.0) {
    return SolveOneProgressive(context, request, solver, budget);
  }
  return SolveOne(context, request, solver, budget);
}

/// SolveBatch fan-out: num_threads sweep workers pull budgets off a
/// shared counter; every individual solve runs one deterministic search
/// worker, so the sweep's responses are bit-identical to the serial
/// num_threads == 1 sweep. Progress hooks are serialized.
StatusOr<std::vector<PlanResponse>> SolveBatchSharded(
    const PlanningContext& context, const PlanRequest& request,
    const Solver& solver) {
  const int workers = std::min(ResolveThreadCount(request.num_threads),
                               static_cast<int>(request.budgets.size()));

  PlanRequest worker_request = request;
  worker_request.num_threads = 1;
  Mutex progress_mu;
  std::atomic<bool> stop{false};
  if (request.progress) {
    worker_request.progress = [&](const PlanProgress& p) {
      MutexLock lock(&progress_mu);
      const bool keep_going = request.progress(p);
      if (!keep_going) stop.store(true, std::memory_order_relaxed);
      return keep_going;
    };
  }

  // nullopt = budget never attempted (a worker saw the stop flag first).
  std::vector<std::optional<StatusOr<PlanResponse>>> results(
      request.budgets.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (;;) {
      const size_t idx = next.fetch_add(1, std::memory_order_relaxed);
      if (idx >= request.budgets.size()) return;
      if (stop.load(std::memory_order_relaxed)) return;
      results[idx] = SolveBudget(context, worker_request, solver,
                                 request.budgets[idx]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (int w = 1; w < workers; ++w) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();

  // Stitch in budget order; mirror the serial contract — propagate the
  // first error, stop after a cancelled response (later budgets may have
  // solved already; they are dropped for contract parity).
  std::vector<PlanResponse> responses;
  responses.reserve(request.budgets.size());
  for (std::optional<StatusOr<PlanResponse>>& result : results) {
    if (!result.has_value()) break;
    if (!result->ok()) return result->status();
    const bool cancelled = (*result)->cancelled;
    responses.push_back(*std::move(*result));
    if (cancelled) break;
  }
  return responses;
}

}  // namespace

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    auto add = [r](std::unique_ptr<Solver> solver) {
      const Status status = r->Register(std::move(solver));
      // Startup bootstrap: a duplicate builtin name is a programmer
      // error and there is no caller to hand a Status.
      // lint:allow(api-check): process-init invariant, not a request path
      OIPA_CHECK(status.ok()) << status.ToString();
    };
    add(std::make_unique<BabFamilySolver>(
        "bab", "paper branch-and-bound (Algorithm 1 + Algorithm 2 bound)",
        /*progressive=*/false));
    add(std::make_unique<BabFamilySolver>(
        "bab-p",
        "paper progressive branch-and-bound (Algorithm 3 bound)",
        /*progressive=*/true));
    add(std::make_unique<ImSolver>());
    add(std::make_unique<TimSolver>());
    add(std::make_unique<BruteForceSolver>());
    add(std::make_unique<GreedySigmaSolver>());
    add(std::make_unique<HighDegreeSolver>());
    add(std::make_unique<DegreeDiscountSolver>());
    add(std::make_unique<RandomSolver>());
    return r;
  }();
  return *registry;
}

Status SolverRegistry::Register(std::unique_ptr<Solver> solver) {
  if (solver == nullptr) {
    return Status::InvalidArgument("cannot register a null solver");
  }
  const std::string name(solver->name());
  if (name.empty()) {
    return Status::InvalidArgument("solver name must be non-empty");
  }
  MutexLock lock(&mu_);
  const auto [it, inserted] = solvers_.emplace(name, std::move(solver));
  (void)it;
  if (!inserted) {
    return Status::FailedPrecondition("solver '" + name +
                                      "' is already registered");
  }
  return Status::Ok();
}

StatusOr<const Solver*> SolverRegistry::Find(const std::string& name) const {
  MutexLock lock(&mu_);
  const auto it = solvers_.find(name);
  if (it == solvers_.end()) {
    std::ostringstream names;
    for (const auto& [key, unused] : solvers_) {
      if (names.tellp() > 0) names << ", ";
      names << key;
    }
    return Status::NotFound("unknown solver '" + name +
                            "' (registered: " + names.str() + ")");
  }
  return it->second.get();
}

bool SolverRegistry::Contains(const std::string& name) const {
  MutexLock lock(&mu_);
  return solvers_.count(name) > 0;
}

std::vector<std::string> SolverRegistry::Names() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(solvers_.size());
  for (const auto& [key, unused] : solvers_) names.push_back(key);
  return names;  // std::map iteration is already sorted
}

std::string SolverRegistry::DescribeAll() const {
  MutexLock lock(&mu_);
  std::ostringstream os;
  for (const auto& [key, solver] : solvers_) {
    os << key << "  (" << solver->description() << ")\n";
  }
  return os.str();
}

StatusOr<PlanResponse> Solve(const PlanningContext& context,
                             const PlanRequest& request,
                             const SolverRegistry& registry) {
  if (request.budgets.size() != 1) {
    return Status::InvalidArgument(
        "Solve() takes exactly one budget (got " +
        std::to_string(request.budgets.size()) +
        "); use SolveBatch() for sweeps");
  }
  const StatusOr<const Solver*> solver = registry.Find(request.solver);
  if (!solver.ok()) return solver.status();
  OIPA_RETURN_IF_ERROR(ValidateRequest(context, request));
  if (!request.deadline_ms.has_value()) {
    return SolveBudget(context, request, **solver, request.budgets[0]);
  }
  PlanRequest timed = request;
  const auto deadline = ComposeDeadline(&timed);
  StatusOr<PlanResponse> response =
      SolveBudget(context, timed, **solver, timed.budgets[0]);
  if (response.ok()) StampDeadline(deadline, &*response);
  return response;
}

StatusOr<std::vector<PlanResponse>> SolveBatch(
    const PlanningContext& context, const PlanRequest& request,
    const SolverRegistry& registry) {
  const StatusOr<const Solver*> solver = registry.Find(request.solver);
  if (!solver.ok()) return solver.status();
  OIPA_RETURN_IF_ERROR(ValidateRequest(context, request));
  std::optional<std::chrono::steady_clock::time_point> deadline;
  PlanRequest timed = request;
  if (request.deadline_ms.has_value()) deadline = ComposeDeadline(&timed);
  StatusOr<std::vector<PlanResponse>> responses = [&] {
    if (timed.num_threads != 1 && timed.budgets.size() > 1) {
      return SolveBatchSharded(context, timed, **solver);
    }
    std::vector<PlanResponse> out;
    out.reserve(timed.budgets.size());
    for (const int budget : timed.budgets) {
      StatusOr<PlanResponse> response =
          SolveBudget(context, timed, **solver, budget);
      if (!response.ok()) {
        return StatusOr<std::vector<PlanResponse>>(response.status());
      }
      const bool cancelled = response->cancelled;
      out.push_back(*std::move(response));
      if (cancelled) break;
    }
    return StatusOr<std::vector<PlanResponse>>(std::move(out));
  }();
  if (responses.ok() && deadline.has_value()) {
    // Only the tail response can be cancelled (the sweep stops there).
    for (PlanResponse& response : *responses) {
      StampDeadline(*deadline, &response);
    }
  }
  return responses;
}

}  // namespace oipa
