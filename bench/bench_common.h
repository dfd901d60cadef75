#ifndef OIPA_BENCH_BENCH_COMMON_H_
#define OIPA_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "oipa/api/plan_request.h"
#include "oipa/api/planning_context.h"
#include "oipa/api/solver_registry.h"
#include "oipa/assignment_plan.h"
#include "oipa/baselines.h"
#include "oipa/branch_and_bound.h"
#include "oipa/logistic_model.h"
#include "rrset/mrr_collection.h"
#include "topic/campaign.h"
#include "topic/influence_graph.h"
#include "util/flags.h"

namespace oipa {
namespace bench {

/// Everything a paper-figure experiment needs: a dataset, a campaign of
/// l pieces, the per-piece influence graphs, and theta MRR samples.
/// The compared methods dispatch through `Context(model)`, which adopts
/// the shared samples so sampling time stays excluded from method
/// runtimes (as in the paper).
struct BenchEnv {
  Dataset dataset;
  Campaign campaign;
  std::vector<InfluenceGraph> pieces;
  std::unique_ptr<MrrCollection> mrr;
  /// Wall time of MRR generation (Table III's "Sample Time").
  double sample_seconds = 0.0;

  /// A PlanningContext borrowing this env's dataset and samples,
  /// memoized per adoption model (benches call Run* many times per
  /// env). This env must stay alive and unmoved while any returned
  /// context is in use.
  std::shared_ptr<const PlanningContext> Context(
      const LogisticAdoptionModel& model) const;

  /// Context() memo: rebuilt only when the model parameters change.
  mutable std::shared_ptr<const PlanningContext> cached_context_;
  mutable double cached_alpha_ = 0.0;
  mutable double cached_beta_ = 0.0;
};

/// Scales used when a bench runs with laptop defaults. The paper's full
/// sizes are reached with --scale_dblp=1 --scale_tweet=1 (see README).
struct BenchScales {
  double dblp = 0.01;    // 5K of 0.5M vertices
  double tweet = 0.002;  // 20K of 10M vertices
};

/// Builds the experiment environment for one dataset.
BenchEnv MakeEnv(const std::string& dataset_name, const BenchScales& scales,
                 int ell, int64_t theta, uint64_t seed);

/// One (utility, wall seconds) measurement row. `utility` is the
/// in-sample MRR estimate (the paper's metric); when a bench requests a
/// holdout evaluation, `holdout_utility` is the same plan re-estimated on
/// an independent MRR collection — unbiased, since optimizers select
/// plans that overfit their own samples.
struct MethodResult {
  double utility = 0.0;
  double seconds = 0.0;
  double holdout_utility = 0.0;
  AssignmentPlan plan{1};
};

/// Re-estimates every result's plan on `holdout` and fills
/// holdout_utility.
void EvaluateOnHoldout(const MrrCollection& holdout,
                       const LogisticAdoptionModel& model,
                       std::vector<MethodResult*> results);

/// The four compared methods of Section VI, with the paper's
/// configuration (theta fixed and shared; the RR-sampling time excluded
/// from method runtimes, as in the paper).
MethodResult RunIm(const BenchEnv& env, const LogisticAdoptionModel& model,
                   int k, uint64_t seed);
MethodResult RunTim(const BenchEnv& env, const LogisticAdoptionModel& model,
                    int k, uint64_t seed);
MethodResult RunBab(const BenchEnv& env, const LogisticAdoptionModel& model,
                    int k, const BabOptions& base_options);
MethodResult RunBabP(const BenchEnv& env,
                     const LogisticAdoptionModel& model, int k,
                     double epsilon, const BabOptions& base_options);

/// Datasets requested on the command line (--datasets=lastfm,dblp,tweet);
/// defaults to all three.
std::vector<std::string> RequestedDatasets(const FlagParser& flags);

/// Reads --scale_dblp / --scale_tweet overrides.
BenchScales RequestedScales(const FlagParser& flags);

/// Default branch-and-bound options used by all figure benches: the
/// paper's 1% gap, a node cap that keeps laptop defaults bounded, and
/// Algorithm 2's full rescan (lazy_greedy off).
BabOptions DefaultBabOptions(const FlagParser& flags);

}  // namespace bench
}  // namespace oipa

#endif  // OIPA_BENCH_BENCH_COMMON_H_
