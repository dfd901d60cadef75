#include "oipa/branch_and_bound.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <memory>
#include <queue>
#include <thread>

#include "util/logging.h"
#include "util/thread_annotations.h"
#include "util/threading.h"
#include "util/timer.h"

namespace oipa {

namespace {

/// One open subspace of the search: assignments forced in, assignments
/// forced out, the surrogate upper bound of the subspace, and the pair to
/// branch on next.
struct SearchNode {
  std::vector<Assignment> included;
  std::vector<Assignment> excluded;
  double upper = 0.0;
  BoundPick branch;
};

struct NodeCompare {
  bool operator()(const SearchNode& a, const SearchNode& b) const {
    return a.upper < b.upper;  // max-heap on the upper bound
  }
};

AssignmentPlan PlanFromPairs(int num_pieces,
                             const std::vector<Assignment>& included,
                             const std::vector<Assignment>& additions) {
  AssignmentPlan plan(num_pieces);
  for (const auto& [piece, v] : included) plan.Add(piece, v);
  for (const auto& [piece, v] : additions) plan.Add(piece, v);
  return plan;
}

/// A CoverageState kept in sync with an assignment list by diff-replay;
/// every worker steps between partial plans through MoveTo so there is
/// exactly one copy of the diffing logic.
class PlanReplay {
 public:
  PlanReplay(const MrrCollection* mrr, std::vector<double> f_by_count)
      : state_(mrr, std::move(f_by_count)) {}

  CoverageState* state() { return &state_; }

  void MoveTo(const std::vector<Assignment>& target) {
    for (const auto& pair : current_) {
      if (std::find(target.begin(), target.end(), pair) == target.end()) {
        state_.RemoveSeed(pair.second, pair.first);
      }
    }
    for (const auto& pair : target) {
      if (std::find(current_.begin(), current_.end(), pair) ==
          current_.end()) {
        state_.AddSeed(pair.second, pair.first);
      }
    }
    current_ = target;
  }

 private:
  CoverageState state_;
  std::vector<Assignment> current_;
};

/// Per-worker bound-ordered frontier of the work-stealing search: a
/// binary max-heap on the upper bound, kept with std::push_heap /
/// std::pop_heap and NodeCompare — the operations std::priority_queue
/// performs, so a lone worker pops nodes in exactly a priority queue's
/// order, ties included. The owner pops the heap's best node; thieves
/// take the cheaper half, the work the victim would have reached last.
/// Each deque carries its own mutex; by construction a worker holds AT
/// MOST ONE frontier mutex at any time (a steal moves nodes out of the
/// victim, releases, and only then locks the thief's own deque), so
/// frontier mutexes need no order among themselves. Cache-line aligned
/// so neighboring workers' hints don't false-share.
struct alignas(64) WorkerDeque {
  Mutex mu;
  std::vector<SearchNode> nodes OIPA_GUARDED_BY(mu);  // max-heap on upper
  /// Relaxed mirrors refreshed under `mu` on every mutation: size for
  /// lock-free victim probing, the top bound for global-upper-bound
  /// snapshots. `top_hint` is 0.0 when empty (bounds are nonnegative,
  /// so an empty deque never wins a max).
  std::atomic<int64_t> size_hint{0};
  std::atomic<double> top_hint{0.0};
};

void RefreshHints(WorkerDeque& d) OIPA_REQUIRES(d.mu) {
  d.size_hint.store(static_cast<int64_t>(d.nodes.size()),
                    std::memory_order_relaxed);
  d.top_hint.store(d.nodes.empty() ? 0.0 : d.nodes.front().upper,
                   std::memory_order_relaxed);
}

void DequePush(WorkerDeque& d, SearchNode node) {
  MutexLock lock(&d.mu);
  d.nodes.push_back(std::move(node));
  std::push_heap(d.nodes.begin(), d.nodes.end(), NodeCompare());
  RefreshHints(d);
}

/// Removes and returns the best node of a NodeCompare max-heap.
SearchNode PopBest(std::vector<SearchNode>& heap) {
  std::pop_heap(heap.begin(), heap.end(), NodeCompare());
  SearchNode best = std::move(heap.back());
  heap.pop_back();
  return best;
}

/// Pops the owner's most promising node (the heap's top).
bool DequePopBest(WorkerDeque& d, SearchNode* out) {
  MutexLock lock(&d.mu);
  if (d.nodes.empty()) return false;
  *out = PopBest(d.nodes);
  RefreshHints(d);
  return true;
}

/// Empties the deque and returns how many nodes it dropped.
int64_t DequeClear(WorkerDeque& d) {
  MutexLock lock(&d.mu);
  const auto dropped = static_cast<int64_t>(d.nodes.size());
  d.nodes.clear();
  RefreshHints(d);
  return dropped;
}

/// Moves the cheaper half of the victim's frontier (at least one node,
/// in no particular order) into `loot` and re-heaps what stays.
bool StealHalf(WorkerDeque& victim, std::vector<SearchNode>* loot) {
  MutexLock lock(&victim.mu);
  if (victim.nodes.empty()) return false;
  const auto cut =
      victim.nodes.begin() +
      std::max<ptrdiff_t>(1, static_cast<ptrdiff_t>(victim.nodes.size()) / 2);
  std::nth_element(victim.nodes.begin(), cut, victim.nodes.end(),
                   NodeCompare());
  loot->assign(std::make_move_iterator(victim.nodes.begin()),
               std::make_move_iterator(cut));
  victim.nodes.erase(victim.nodes.begin(), cut);
  std::make_heap(victim.nodes.begin(), victim.nodes.end(), NodeCompare());
  RefreshHints(victim);
  return true;
}

/// Installs stolen nodes (a heap) as the thief's frontier. The thief's
/// own deque is empty: it steals only when its deque ran dry, and only
/// the owner ever pushes into it.
void DequeAdopt(WorkerDeque& d, std::vector<SearchNode> loot) {
  MutexLock lock(&d.mu);
  d.nodes = std::move(loot);
  RefreshHints(d);
}

/// Deterministic per-worker xorshift64 for victim selection: no global
/// RNG contention and no syscalls on the steal path.
uint64_t NextXorshift(uint64_t* s) {
  uint64_t x = *s;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *s = x;
}

/// Incumbent shared by every worker. The hot path — "can this subspace
/// still beat the best known plan?" — is one atomic load of the exact
/// bound; the small mutex is taken only when a worker raises it.
///
/// Memory-ordering contract (mirrored in README.md): `lower_` only
/// rises, by a CAS max. A raiser publishes the new bound FIRST and
/// records the plan under `mu_` before Offer returns, so any bound
/// `lower_` advertises is backed by a plan recorded before the Offer
/// that published it returned.
class Incumbent {
 public:
  Incumbent(double sigma, AssignmentPlan plan)
      : lower_(sigma), sigma_(sigma), best_plan_(std::move(plan)) {}

  /// The best utility any plan has reached so far.
  double Lower() const { return lower_.load(std::memory_order_acquire); }

  /// Offers sigma as a new incumbent; `make_plan` runs (under the
  /// mutex) only when sigma strictly beats the record. Worse offers and
  /// ties return after a single load with no CAS and no lock.
  template <typename MakePlan>
  void Offer(double sigma, MakePlan&& make_plan) {
    double cur = lower_.load(std::memory_order_relaxed);
    do {
      if (!(sigma > cur)) return;
    } while (!lower_.compare_exchange_weak(cur, sigma,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed));
    MutexLock lock(&mu_);
    if (sigma > sigma_) {
      sigma_ = sigma;
      best_plan_ = make_plan();
    }
  }

  /// Post-join snapshot of the record.
  void Snapshot(double* sigma, AssignmentPlan* plan) {
    MutexLock lock(&mu_);
    *sigma = sigma_;
    *plan = std::move(best_plan_);
  }

 private:
  std::atomic<double> lower_;
  Mutex mu_;
  double sigma_ OIPA_GUARDED_BY(mu_);
  AssignmentPlan best_plan_ OIPA_GUARDED_BY(mu_);
};

/// Shared state of one search. Lives at namespace scope (not as worker
/// lambda captures) so every field can name its guard in the type
/// system. Locking hierarchy (see README.md): progress_mu may be held
/// over control_mu; frontier mutexes and the incumbent mutex are
/// leaves, never held together with each other or with anything above
/// them.
struct SearchState {
  SearchState(int num_workers, double root_sigma, AssignmentPlan root_plan)
      : incumbent(root_sigma, std::move(root_plan)), deques(num_workers) {
    for (auto& d : deques) d = std::make_unique<WorkerDeque>();
  }

  Incumbent incumbent;
  std::vector<std::unique_ptr<WorkerDeque>> deques;
  /// Subspaces alive anywhere: queued in some frontier or being
  /// expanded by some worker. A worker pushes each surviving child
  /// (+1 each) BEFORE retiring its parent (-1), so the counter can
  /// only reach zero when no node is queued or in flight — the
  /// termination signal, paired with `stop` for early exits.
  std::atomic<int64_t> open_nodes{0};
  std::atomic<int64_t> nodes_expanded{0};
  std::atomic<bool> stop{false};
  /// Serializes on_progress snapshots (the documented hook contract):
  /// a hook that returns false sets `stop` before releasing this
  /// mutex, so no hook invocation ever follows a cancellation.
  Mutex progress_mu;
  /// Cold control-plane state: stop reasons and the per-worker folds.
  Mutex control_mu;
  bool cancelled OIPA_GUARDED_BY(control_mu) = false;
  bool converged OIPA_GUARDED_BY(control_mu) = true;
  double pruned_upper OIPA_GUARDED_BY(control_mu) = 0.0;
  int64_t total_bound_calls OIPA_GUARDED_BY(control_mu) = 0;
  int64_t total_tau_evals OIPA_GUARDED_BY(control_mu) = 0;
};

/// Dispatches one upper-bound evaluation to the variant `options` selects.
BoundResult ComputeNodeBound(BoundEvaluator* evaluator,
                             const BabOptions& options, CoverageState* state,
                             int budget_remaining,
                             const std::vector<Assignment>& excluded) {
  if (options.progressive) {
    return evaluator->ComputeBoundPro(state, budget_remaining, excluded,
                                      options.epsilon,
                                      options.progressive_fill);
  }
  if (options.lazy_greedy) {
    return evaluator->ComputeBoundLazy(state, budget_remaining, excluded);
  }
  return evaluator->ComputeBound(state, budget_remaining, excluded);
}

}  // namespace

BabSolver::BabSolver(const MrrCollection* mrr,
                     const LogisticAdoptionModel& model,
                     std::vector<std::vector<VertexId>> pools,
                     BabOptions options)
    : mrr_(mrr),
      model_(model),
      options_(options),
      evaluator_(mrr, model, std::move(pools), options.variant) {
  OIPA_CHECK_GE(options_.budget, 1);
  OIPA_CHECK_GE(options_.gap, 0.0);
  OIPA_CHECK_GE(options_.num_threads, 0);
}

BabSolver::BabSolver(const MrrCollection* mrr,
                     const LogisticAdoptionModel& model,
                     const std::vector<VertexId>& shared_pool,
                     BabOptions options)
    : BabSolver(mrr, model,
                std::vector<std::vector<VertexId>>(mrr->num_pieces(),
                                                   shared_pool),
                options) {}

BabResult BabSolver::Solve() {
  WallTimer timer;
  const int num_pieces = mrr_->num_pieces();
  const int num_workers = std::clamp(
      options_.num_threads == 0 ? GetNumThreads() : options_.num_threads, 1,
      kMaxBabWorkers);
  // Theorem-2 pruning uses tau(greedy) directly; exact pruning inflates
  // the bound by e/(e-1) so no subspace that could beat the incumbent
  // under the MRR objective is ever dropped.
  const double bound_scale =
      options_.exact_pruning ? 1.0 / (1.0 - std::exp(-1.0)) : 1.0;
  const double gap_factor = 1.0 + options_.gap;

  // Root bound (empty plan, nothing excluded) on the calling thread,
  // with the replay and evaluator worker 0 goes on to use: the first
  // incumbent is deterministic, and the root node seeds worker 0's
  // frontier, from which everyone else bootstraps by stealing.
  PlanReplay replay(mrr_, model_.AdoptionTable(num_pieces));
  const BoundResult root = ComputeNodeBound(&evaluator_, options_,
                                            replay.state(), options_.budget,
                                            {});
  SearchState shared(num_workers, root.sigma,
                     PlanFromPairs(num_pieces, {}, root.additions));
  const double root_upper = root.tau * bound_scale;
  if (root.first_pick.valid() && root_upper > root.sigma) {
    shared.open_nodes.store(1, std::memory_order_relaxed);
    DequePush(*shared.deques[0],
              SearchNode{{}, {}, root_upper, root.first_pick});
  }

  auto work = [&shared, this, bound_scale, gap_factor, num_pieces,
               num_workers](const int self, PlanReplay* replay,
                            BoundEvaluator* evaluator) {
    WorkerDeque& own = *shared.deques[self];
    int64_t bound_calls = 0;
    // Max bound among the subspaces this worker pruned or abandoned,
    // folded into shared.pruned_upper at exit. A search that drains
    // without pruning reports upper_bound == utility.
    double pruned_upper = 0.0;
    uint64_t rng = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(self + 1);

    SearchNode node;
    std::vector<SearchNode> loot;
    while (!shared.stop.load(std::memory_order_relaxed)) {
      if (!DequePopBest(own, &node)) {
        // Own frontier dry: probe victims lock-free starting at a
        // random ring position, then steal their cheaper half. The
        // best of the loot is expanded immediately; the rest becomes
        // this worker's frontier.
        bool stolen = false;
        const uint64_t start = NextXorshift(&rng);
        for (int k = 0; k < num_workers && !stolen; ++k) {
          const int victim = static_cast<int>(
              (start + static_cast<uint64_t>(k)) %
              static_cast<uint64_t>(num_workers));
          if (victim == self) continue;
          if (shared.deques[victim]->size_hint.load(
                  std::memory_order_relaxed) == 0) {
            continue;
          }
          if (!StealHalf(*shared.deques[victim], &loot)) continue;
          std::make_heap(loot.begin(), loot.end(), NodeCompare());
          node = PopBest(loot);
          if (!loot.empty()) DequeAdopt(own, std::move(loot));
          loot.clear();
          stolen = true;
        }
        if (!stolen) {
          // Nothing anywhere. Exit if no subspace is open (queued or
          // in flight — an in-flight node may still spawn children);
          // otherwise spin-yield until work reappears.
          if (shared.open_nodes.load(std::memory_order_acquire) == 0) {
            break;
          }
          std::this_thread::yield();
          continue;
        }
      }

      // `node` is held; its +1 in open_nodes is ours to retire.
      // The incumbent may have risen since the node was pushed. The
      // node was the best of this worker's frontier, so the prune
      // takes the whole frontier with it: with one worker, that ends
      // the search exactly where a single best-first queue would.
      if (node.upper <= shared.incumbent.Lower() * gap_factor) {
        pruned_upper = std::max(pruned_upper, node.upper);
        shared.open_nodes.fetch_sub(1 + DequeClear(own),
                                    std::memory_order_acq_rel);
        continue;
      }
      if (shared.nodes_expanded.load(std::memory_order_relaxed) >=
          options_.max_nodes) {
        // Keep the frontier's bound honest: the node stays open (its
        // +1 is never retired) and the stop flag drains the pool.
        DequePush(own, std::move(node));
        MutexLock lock(&shared.control_mu);
        shared.converged = false;
        shared.stop.store(true, std::memory_order_relaxed);
        break;
      }
      if (options_.on_progress) {
        bool requeue = false;
        {
          MutexLock plock(&shared.progress_mu);
          if (shared.stop.load(std::memory_order_relaxed)) {
            requeue = true;  // lost the race to a cancelling worker
          } else {
            const double incumbent = shared.incumbent.Lower();
            double upper = std::max(node.upper, incumbent);
            for (const auto& d : shared.deques) {
              upper = std::max(
                  upper, d->top_hint.load(std::memory_order_relaxed));
            }
            const BabProgress progress{
                shared.nodes_expanded.load(std::memory_order_relaxed),
                incumbent, upper};
            if (!options_.on_progress(progress)) {
              MutexLock lock(&shared.control_mu);
              shared.converged = false;
              shared.cancelled = true;
              shared.stop.store(true, std::memory_order_relaxed);
              requeue = true;
            }
          }
        }
        if (requeue) {
          DequePush(own, std::move(node));
          break;
        }
      }
      shared.nodes_expanded.fetch_add(1, std::memory_order_relaxed);

      // Branch on the node's stored pick: one child forces it into the
      // plan, the other forbids it.
      bool aborted = false;
      for (const bool include : {true, false}) {
        if (shared.stop.load(std::memory_order_relaxed)) {
          aborted = true;
          break;
        }
        SearchNode child;
        child.included = node.included;
        child.excluded = node.excluded;
        if (include) {
          child.included.emplace_back(node.branch.piece, node.branch.v);
        } else {
          child.excluded.emplace_back(node.branch.piece, node.branch.v);
        }
        const int remaining =
            options_.budget - static_cast<int>(child.included.size());
        OIPA_CHECK_GE(remaining, 0);
        replay->MoveTo(child.included);
        ++bound_calls;
        const BoundResult r = ComputeNodeBound(
            evaluator, options_, replay->state(), remaining, child.excluded);
        shared.incumbent.Offer(r.sigma, [&] {
          return PlanFromPairs(num_pieces, child.included, r.additions);
        });
        const double upper = r.tau * bound_scale;
        if (upper > shared.incumbent.Lower() * gap_factor &&
            r.first_pick.valid() && remaining > 0) {
          child.upper = upper;
          child.branch = r.first_pick;
          // The child's +1 lands BEFORE the parent's -1 below, so the
          // counter never dips to zero while this subtree has open
          // work — no idle worker can exit spuriously.
          shared.open_nodes.fetch_add(1, std::memory_order_relaxed);
          DequePush(own, std::move(child));
        }
      }
      if (aborted) {
        // The unexpanded remainder of this node's subspace was
        // dropped; fold its bound in so upper_bound stays valid.
        pruned_upper = std::max(pruned_upper, node.upper);
      }
      shared.open_nodes.fetch_sub(1, std::memory_order_acq_rel);
    }

    MutexLock lock(&shared.control_mu);
    shared.total_bound_calls += bound_calls;
    shared.total_tau_evals += evaluator->total_tau_evals();
    shared.pruned_upper = std::max(shared.pruned_upper, pruned_upper);
  };

  // Worker 0 runs on the calling thread; only workers 1..N-1 get their
  // own thread and their own replay and evaluator.
  std::vector<std::thread> threads;
  threads.reserve(num_workers - 1);
  for (int t = 1; t < num_workers; ++t) {
    threads.emplace_back([&work, this, num_pieces, t] {
      PlanReplay own_replay(mrr_, model_.AdoptionTable(num_pieces));
      BoundEvaluator own_evaluator(mrr_, model_, evaluator_.pools(),
                                   options_.variant);
      work(t, &own_replay, &own_evaluator);
    });
  }
  work(0, &replay, &evaluator_);
  for (std::thread& t : threads) t.join();

  BabResult result;
  result.nodes_expanded =
      shared.nodes_expanded.load(std::memory_order_relaxed);
  double upper = 0.0;
  {
    MutexLock lock(&shared.control_mu);
    result.bound_calls = 1 + shared.total_bound_calls;  // + the root
    result.tau_evals = shared.total_tau_evals;
    result.converged = shared.converged;
    result.cancelled = shared.cancelled;
    upper = shared.pruned_upper;
  }
  shared.incumbent.Snapshot(&result.utility, &result.plan);
  upper = std::max(upper, result.utility);
  // Anything still queued (early stop) keeps its bound in the report.
  for (const auto& d : shared.deques) {
    MutexLock lock(&d->mu);
    if (!d->nodes.empty()) upper = std::max(upper, d->nodes.front().upper);
  }
  result.upper_bound = upper;
  result.seconds = timer.Seconds();
  return result;
}

BabResult GreedySigmaSolve(const MrrCollection& mrr,
                           const LogisticAdoptionModel& model,
                           const std::vector<VertexId>& pool, int budget) {
  WallTimer timer;
  BabResult result;
  result.plan = AssignmentPlan(mrr.num_pieces());
  CoverageState state(&mrr, model.AdoptionTable(mrr.num_pieces()));

  // CELF-lazy selection keyed by a forward-valid gain upper bound (see
  // CoverageState::GainAndBoundOfAdding): sigma is not submodular, so a
  // stale gain is not itself a bound, but the suffix-max bound is — an
  // entry whose bound trails the best fresh gain cannot win the round.
  // Selections are identical to a full rescan, including ties (smallest
  // piece, then vertex).
  struct Entry {
    double bound = 0.0;
    double gain = 0.0;
    int round = 0;  // round this entry's gain/bound were computed in
    int piece = 0;
    VertexId v = 0;
  };
  auto worse = [](const Entry& a, const Entry& b) {
    if (a.bound != b.bound) return a.bound < b.bound;
    if (a.piece != b.piece) return a.piece > b.piece;
    return a.v > b.v;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> heap(
      worse);
  std::vector<VertexId> candidates(pool);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (int j = 0; j < mrr.num_pieces(); ++j) {
    for (VertexId v : candidates) {
      const auto [gain, bound] = state.GainAndBoundOfAdding(v, j);
      heap.push({bound, gain, 0, j, v});
    }
  }

  std::vector<Entry> beaten;
  for (int round = 0; round < budget && !heap.empty(); ++round) {
    Entry best;
    bool have_best = false;
    beaten.clear();
    while (!heap.empty()) {
      if (have_best && heap.top().bound < best.gain) break;
      Entry e = heap.top();
      heap.pop();
      if (e.round != round) {
        const auto [gain, bound] = state.GainAndBoundOfAdding(e.v, e.piece);
        e.gain = gain;
        e.bound = bound;
        e.round = round;
      }
      const bool better =
          !have_best || e.gain > best.gain ||
          (e.gain == best.gain &&
           (e.piece < best.piece ||
            (e.piece == best.piece && e.v < best.v)));
      if (better) {
        if (have_best) beaten.push_back(best);
        best = e;
        have_best = true;
      } else {
        beaten.push_back(e);
      }
    }
    // A zero-gain round still takes a candidate: under the logistic f a
    // pick gaining nothing now can unlock steeper marginals later, and
    // the plan must never silently under-fill the budget.
    state.AddSeed(best.v, best.piece);
    result.plan.Add(best.piece, best.v);
    for (const Entry& e : beaten) heap.push(e);
  }
  result.utility = state.Utility();
  result.upper_bound = result.utility;
  result.converged = result.plan.size() >= budget;
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace oipa
