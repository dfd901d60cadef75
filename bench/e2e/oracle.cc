#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <unordered_set>
#include <utility>

#include "oipa/api/solver_registry.h"
#include "oipa/logistic_model.h"
#include "replay.h"
#include "serve/wire.h"
#include "util/threading.h"

namespace oipa {
namespace e2e {
namespace {

/// One daemon result row and its verdict.
struct Job {
  const serve::WireRequest* request = nullptr;
  const JsonValue* row = nullptr;
  size_t index = 0;
  int budget = 0;
  std::string failure;
};

/// The row without the fields a reference cannot reproduce.
std::string Stripped(const JsonValue& row) {
  JsonValue out = JsonValue::Object();
  for (const auto& [key, value] : row.members()) {
    if (key != "solve_seconds" && key != "sampling_rounds") out.Set(key, value);
  }
  return out.Dump(-1);
}

const JsonValue* Field(const JsonValue& object, const std::string& key) {
  return object.is_object() ? object.Find(key) : nullptr;
}

/// Every solver setting that can change a row, for one budget.
std::string SolveKey(const serve::WireRequest& r, int budget) {
  const serve::PlanSpec& p = r.plan;
  const serve::SamplingSpec& s = r.sampling;
  return p.method + "|" + std::to_string(budget) + "|" +
         std::to_string(p.gap) + "|" + std::to_string(p.epsilon) + "|" +
         p.bound + "|" + std::to_string(p.max_nodes) + "|" +
         std::to_string(p.seed) + "|" + std::to_string(s.epsilon) + "|" +
         s.stopping + "|" + std::to_string(s.max_theta);
}

/// Decodes the row's seed sets into a plan, or explains why it is not
/// a valid plan for budget `k` over `pool`.
std::string DecodePlan(const JsonValue& row, int k, int pieces,
                       const std::unordered_set<VertexId>& pool,
                       AssignmentPlan* plan) {
  const JsonValue* sets = Field(row, "seed_sets");
  if (sets == nullptr || !sets->is_array() ||
      static_cast<int>(sets->size()) != pieces) {
    return "row does not hold one seed set per piece";
  }
  *plan = AssignmentPlan(pieces);
  for (int j = 0; j < pieces; ++j) {
    const JsonValue& set = sets->at(static_cast<size_t>(j));
    if (!set.is_array()) return "seed set is not an array";
    for (size_t i = 0; i < set.size(); ++i) {
      if (!set.at(i).is_int()) return "seed is not an integer";
      const auto v = static_cast<VertexId>(set.at(i).int_value());
      if (pool.count(v) == 0) return "seed outside the promoter pool";
      if (!plan->Add(j, v)) return "seed repeated within a piece";
    }
  }
  if (plan->size() > k) return "plan exceeds its budget";
  return "";
}

/// Solves every job of one (context, theta) group against a private
/// context sampled at exactly `theta` and records each verdict.
void CheckGroup(int64_t theta, std::vector<Job*>* jobs) {
  const serve::WireRequest& spec = *jobs->front()->request;
  const serve::DatasetSpec& d = spec.dataset;
  Dataset dataset = MakeRequestDataset(d);
  const std::shared_ptr<const Campaign> campaign =
      MakeRequestCampaign(d, dataset.num_topics);
  // ContextCache's options, at the row's theta and with a private store.
  ContextOptions options;
  options.theta = theta;
  options.holdout_theta = spec.wants_holdout() ? -1 : 0;
  options.seed = spec.sampling.seed;
  options.sampling_threads = spec.sampling.threads;
  options.share_samples = false;
  const StatusOr<std::shared_ptr<const PlanningContext>> context =
      PlanningContext::Create(std::move(dataset.graph),
                              std::move(dataset.probs), campaign,
                              LogisticAdoptionModel(d.alpha, d.beta),
                              options);
  if (!context.ok()) {
    for (Job* job : *jobs) {
      job->failure = "reference context: " + context.status().ToString();
    }
    return;
  }
  const std::unordered_set<VertexId> pool(dataset.promoter_pool.begin(),
                                          dataset.promoter_pool.end());

  std::map<std::string, PlanResponse> references;
  for (Job* job : *jobs) {
    const JsonValue& row = *job->row;
    AssignmentPlan plan(1);
    job->failure = DecodePlan(row, job->budget, campaign->num_pieces(),
                              pool, &plan);
    if (!job->failure.empty()) continue;
    const JsonValue* cancelled = Field(row, "cancelled");
    if (cancelled != nullptr && cancelled->is_bool() &&
        cancelled->bool_value()) {
      continue;
    }

    const serve::WireRequest& request = *job->request;
    const std::string key = SolveKey(request, job->budget);
    auto it = references.find(key);
    if (it == references.end()) {
      PlanRequest solve = serve::ToPlanRequest(request, dataset.promoter_pool);
      solve.budgets = {job->budget};
      solve.num_threads = 1;
      StatusOr<PlanResponse> reference = Solve(**context, solve);
      if (!reference.ok()) {
        job->failure = "reference solve: " + reference.status().ToString();
        continue;
      }
      it = references.emplace(key, std::move(*reference)).first;
    }
    const PlanResponse& reference = it->second;

    if (request.plan.threads == 1) {
      if (Stripped(row) != Stripped(serve::ResultJson(reference))) {
        job->failure = "differs from the sequential reference: " +
                       row.Dump(-1) + " vs " +
                       serve::ResultJson(reference).Dump(-1);
      }
      continue;
    }
    const JsonValue* utility = Field(row, "utility");
    if (utility == nullptr || !utility->is_number()) {
      job->failure = "row has no utility";
      continue;
    }
    const double reported = utility->double_value();
    const double estimate = (*context)->EstimateUtility(plan);
    if (std::abs(estimate - reported) > 1e-8 * std::max(1.0, estimate)) {
      job->failure = "reported utility " + std::to_string(reported) +
                     " is not the plan's utility " + std::to_string(estimate);
    } else if (reported < (1.0 - request.plan.gap) * reference.utility -
                              1e-9 * std::max(1.0, reference.utility)) {
      job->failure = "utility " + std::to_string(reported) +
                     " below (1 - gap) x sequential " +
                     std::to_string(reference.utility);
    }
  }
}

}  // namespace

std::vector<std::string> CheckResponses(
    const Workload& workload,
    const std::vector<std::optional<JsonValue>>& responses) {
  const size_t n = workload.requests.size();
  std::vector<std::string> failures(n);
  std::vector<serve::WireRequest> requests(n);
  std::vector<Job> jobs;
  jobs.reserve(n);

  for (size_t i = 0; i < n; ++i) {
    const BenchRequest& r = workload.requests[i];
    std::string& failure = failures[i];
    if (!responses[i].has_value()) {
      failure = "no response";
      continue;
    }
    const JsonValue& response = *responses[i];
    const JsonValue* ok = Field(response, "ok");
    if (ok == nullptr || !ok->is_bool()) {
      failure = "not a wire response: " + response.Dump(-1);
      continue;
    }
    if (r.kind == RequestKind::kMalformed) {
      const JsonValue* error = Field(response, "error");
      const JsonValue* code = error == nullptr ? nullptr : Field(*error, "code");
      if (ok->bool_value() || code == nullptr || !code->is_string() ||
          code->string_value() != "InvalidArgument") {
        failure = "malformed line not rejected as InvalidArgument: " +
                  response.Dump(-1);
      }
      continue;
    }
    if (r.kind == RequestKind::kHealth) {
      const JsonValue* health = Field(response, "health");
      if (!ok->bool_value() || health == nullptr || !health->is_object()) {
        failure = "bad health response: " + response.Dump(-1);
      }
      continue;
    }
    if (!ok->bool_value()) {
      failure = "plan request failed: " + response.Dump(-1);
      continue;
    }
    StatusOr<serve::WireRequest> parsed = serve::ParseWireRequest(r.line);
    if (!parsed.ok()) {
      failure = "generated an invalid request: " + parsed.status().ToString();
      continue;
    }
    requests[i] = std::move(*parsed);
    const std::vector<int>& budgets = requests[i].plan.budgets;
    const JsonValue* results = Field(response, "results");
    if (results == nullptr || !results->is_array() ||
        results->size() != budgets.size()) {
      failure = "expected one result row per budget: " + response.Dump(-1);
      continue;
    }
    if (workload.expect_no_sampling) {
      const JsonValue* serve = Field(response, "serve");
      const JsonValue* samples =
          serve == nullptr ? nullptr : Field(*serve, "samples_generated");
      if (samples == nullptr || !samples->is_int() ||
          samples->int_value() != 0) {
        failure = "warm request drew samples";
        continue;
      }
    }
    for (size_t j = 0; j < budgets.size(); ++j) {
      const JsonValue& row = results->at(j);
      const JsonValue* k = Field(row, "k");
      const JsonValue* theta = Field(row, "theta_used");
      if (k == nullptr || !k->is_int() || k->int_value() != budgets[j] ||
          theta == nullptr || !theta->is_int() || theta->int_value() < 1) {
        failure = "malformed result row: " + row.Dump(-1);
        break;
      }
      Job job;
      job.request = &requests[i];
      job.row = &row;
      job.index = i;
      job.budget = budgets[j];
      jobs.push_back(std::move(job));
    }
  }

  // One private reference context per (context, theta) group; two
  // groups are checked at a time.
  std::map<std::pair<std::string, int64_t>, std::vector<Job*>> groups;
  for (Job& job : jobs) {
    const int64_t theta = Field(*job.row, "theta_used")->int_value();
    groups[{serve::ContextKey(*job.request), theta}].push_back(&job);
  }
  std::vector<std::pair<int64_t, std::vector<Job*>*>> work;
  for (auto& [key, members] : groups) work.push_back({key.second, &members});
  ParallelFor(static_cast<int64_t>(work.size()), 2,
              [&work](int, int64_t begin, int64_t end) {
                for (int64_t g = begin; g < end; ++g) {
                  const size_t i = static_cast<size_t>(g);
                  CheckGroup(work[i].first, work[i].second);
                }
              });
  for (const Job& job : jobs) {
    if (!job.failure.empty() && failures[job.index].empty()) {
      failures[job.index] = job.failure;
    }
  }
  return failures;
}

}  // namespace e2e
}  // namespace oipa
