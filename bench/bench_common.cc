#include "bench/bench_common.h"

#include "oipa/adoption.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace oipa {
namespace bench {

BenchEnv MakeEnv(const std::string& dataset_name, const BenchScales& scales,
                 int ell, int64_t theta, uint64_t seed) {
  BenchEnv env;
  const double scale = dataset_name == "dblp"    ? scales.dblp
                       : dataset_name == "tweet" ? scales.tweet
                                                 : 1.0;
  env.dataset = MakeDatasetByName(dataset_name, scale, seed);
  Rng rng(seed + 1000);
  env.campaign =
      Campaign::SampleUniformPieces(ell, env.dataset.num_topics, &rng);
  env.pieces =
      BuildPieceGraphs(*env.dataset.graph, *env.dataset.probs, env.campaign);
  WallTimer timer;
  env.mrr = std::make_unique<MrrCollection>(
      MrrCollection::Generate(env.pieces, theta, seed + 2000));
  env.sample_seconds = timer.Seconds();
  return env;
}

std::shared_ptr<const PlanningContext> BenchEnv::Context(
    const LogisticAdoptionModel& model) const {
  if (cached_context_ != nullptr && cached_alpha_ == model.alpha() &&
      cached_beta_ == model.beta()) {
    return cached_context_;
  }
  auto context = PlanningContext::BorrowWithSamples(
      *dataset.graph, *dataset.probs, campaign, model, mrr.get());
  OIPA_CHECK(context.ok()) << context.status().ToString();
  cached_context_ = *std::move(context);
  cached_alpha_ = model.alpha();
  cached_beta_ = model.beta();
  return cached_context_;
}

namespace {

/// Dispatches one registry solve against the env's shared samples.
MethodResult RunSolver(const BenchEnv& env,
                       const LogisticAdoptionModel& model,
                       const PlanRequest& request) {
  const StatusOr<PlanResponse> r = Solve(*env.Context(model), request);
  OIPA_CHECK(r.ok()) << request.solver << ": " << r.status().ToString();
  MethodResult out;
  out.utility = r->utility;
  out.seconds = r->seconds;
  out.plan = r->plan;
  return out;
}

PlanRequest BaseRequest(const BenchEnv& env, const std::string& solver,
                        int k) {
  PlanRequest request;
  request.solver = solver;
  request.pool = env.dataset.promoter_pool;
  request.budgets = {k};
  return request;
}

}  // namespace

MethodResult RunIm(const BenchEnv& env, const LogisticAdoptionModel& model,
                   int k, uint64_t seed) {
  PlanRequest request = BaseRequest(env, "im", k);
  request.seed = seed;
  return RunSolver(env, model, request);
}

MethodResult RunTim(const BenchEnv& env, const LogisticAdoptionModel& model,
                    int k, uint64_t seed) {
  PlanRequest request = BaseRequest(env, "tim", k);
  request.seed = seed;
  return RunSolver(env, model, request);
}

MethodResult RunBab(const BenchEnv& env, const LogisticAdoptionModel& model,
                    int k, const BabOptions& base_options) {
  PlanRequest request = BaseRequest(env, "bab", k);
  request.options = base_options;
  return RunSolver(env, model, request);
}

MethodResult RunBabP(const BenchEnv& env,
                     const LogisticAdoptionModel& model, int k,
                     double epsilon, const BabOptions& base_options) {
  PlanRequest request = BaseRequest(env, "bab-p", k);
  request.options = base_options;
  request.options.epsilon = epsilon;
  return RunSolver(env, model, request);
}

void EvaluateOnHoldout(const MrrCollection& holdout,
                       const LogisticAdoptionModel& model,
                       std::vector<MethodResult*> results) {
  for (MethodResult* r : results) {
    // Plans sized for a different piece count cannot happen here; the
    // holdout shares the env's campaign.
    r->holdout_utility =
        EstimateAdoptionUtility(holdout, model, r->plan);
  }
}

std::vector<std::string> RequestedDatasets(const FlagParser& flags) {
  const std::string arg =
      flags.GetString("datasets", "lastfm,dblp,tweet");
  std::vector<std::string> out;
  size_t start = 0;
  while (start < arg.size()) {
    size_t comma = arg.find(',', start);
    if (comma == std::string::npos) comma = arg.size();
    if (comma > start) out.push_back(arg.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

BenchScales RequestedScales(const FlagParser& flags) {
  BenchScales scales;
  scales.dblp = flags.GetDouble("scale_dblp", scales.dblp);
  scales.tweet = flags.GetDouble("scale_tweet", scales.tweet);
  return scales;
}

BabOptions DefaultBabOptions(const FlagParser& flags) {
  BabOptions options;
  options.gap = flags.GetDouble("gap", 0.01);
  options.max_nodes = flags.GetInt("max_nodes", 400);
  // The paper's figures measure Algorithm 2 verbatim, so its evaluation
  // counts and BAB-vs-BAB-P timings keep their meaning.
  options.lazy_greedy = false;
  return options;
}

}  // namespace bench
}  // namespace oipa
