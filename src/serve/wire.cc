#include "serve/wire.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "data/datasets.h"
#include "rrset/mrr_collection.h"
#include "serve/json_parser.h"
#include "util/random.h"
#include "util/threading.h"

namespace oipa {
namespace serve {
namespace {

/// Typed field readers: each returns InvalidArgument naming the key on
/// a type mismatch and leaves `*out` untouched when the key is absent
/// (wire fields are all defaulted).

Status ReadString(const JsonValue& obj, const std::string& key,
                  std::string* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->is_string()) {
    return Status::InvalidArgument("field '" + key + "' must be a string");
  }
  *out = v->string_value();
  return Status::Ok();
}

Status ReadInt(const JsonValue& obj, const std::string& key,
               int64_t* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->is_int()) {
    return Status::InvalidArgument("field '" + key +
                                   "' must be an integer");
  }
  *out = v->int_value();
  return Status::Ok();
}

/// ReadInt for fields stored as int: values outside int's range are
/// rejected rather than narrowed.
Status ReadInt32(const JsonValue& obj, const std::string& key, int* out) {
  int64_t value = *out;
  OIPA_RETURN_IF_ERROR(ReadInt(obj, key, &value));
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("field '" + key +
                                   "' is out of range for a 32-bit integer");
  }
  *out = static_cast<int>(value);
  return Status::Ok();
}

Status ReadDouble(const JsonValue& obj, const std::string& key,
                  double* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::Ok();
  if (!v->is_number()) {
    return Status::InvalidArgument("field '" + key + "' must be a number");
  }
  *out = v->double_value();
  return Status::Ok();
}

Status ReadSection(const JsonValue& root, const std::string& key,
                   const JsonValue** out) {
  *out = root.Find(key);
  if (*out != nullptr && !(*out)->is_object()) {
    return Status::InvalidArgument("section '" + key +
                                   "' must be an object");
  }
  return Status::Ok();
}

Status ParseDataset(const JsonValue& section, DatasetSpec* spec) {
  OIPA_RETURN_IF_ERROR(ReadString(section, "name", &spec->name));
  OIPA_RETURN_IF_ERROR(ReadInt(section, "n", &spec->n));
  OIPA_RETURN_IF_ERROR(ReadInt32(section, "topics", &spec->num_topics));
  OIPA_RETURN_IF_ERROR(ReadDouble(section, "scale", &spec->scale));
  OIPA_RETURN_IF_ERROR(
      ReadDouble(section, "pool_fraction", &spec->pool_fraction));
  int64_t seed = static_cast<int64_t>(spec->seed);
  OIPA_RETURN_IF_ERROR(ReadInt(section, "seed", &seed));
  spec->seed = static_cast<uint64_t>(seed);
  OIPA_RETURN_IF_ERROR(ReadInt32(section, "ell", &spec->ell));
  OIPA_RETURN_IF_ERROR(ReadDouble(section, "alpha", &spec->alpha));
  OIPA_RETURN_IF_ERROR(ReadDouble(section, "beta", &spec->beta));

  if (spec->name != "synthetic" && spec->name != "lastfm" &&
      spec->name != "dblp" && spec->name != "tweet") {
    return Status::InvalidArgument("unknown dataset '" + spec->name +
                                   "' (synthetic|lastfm|dblp|tweet)");
  }
  if (spec->n < 1) return Status::InvalidArgument("dataset.n must be >= 1");
  if (spec->name == "synthetic" &&
      (spec->n < kMinSyntheticVertices ||
       spec->n > std::numeric_limits<VertexId>::max())) {
    // MakeSynthetic aborts below the minimum, and a larger n would
    // narrow to a negative VertexId.
    return Status::InvalidArgument(
        "synthetic dataset.n must be in [" +
        std::to_string(kMinSyntheticVertices) + ", " +
        std::to_string(std::numeric_limits<VertexId>::max()) + "]");
  }
  if (spec->num_topics < 1) {
    return Status::InvalidArgument("dataset.topics must be >= 1");
  }
  if (spec->scale <= 0.0 || spec->scale > 1.0) {
    return Status::InvalidArgument("dataset.scale must be in (0, 1]");
  }
  if (spec->pool_fraction <= 0.0 || spec->pool_fraction > 1.0) {
    return Status::InvalidArgument(
        "dataset.pool_fraction must be in (0, 1]");
  }
  if (spec->ell < 1) {
    return Status::InvalidArgument("dataset.ell must be >= 1");
  }
  // The logistic adoption model requires both parameters positive.
  if (!std::isfinite(spec->alpha) || spec->alpha <= 0.0) {
    return Status::InvalidArgument("dataset.alpha must be finite and > 0");
  }
  if (!std::isfinite(spec->beta) || spec->beta <= 0.0) {
    return Status::InvalidArgument("dataset.beta must be finite and > 0");
  }
  return Status::Ok();
}

Status ParseSampling(const JsonValue& section, SamplingSpec* spec) {
  OIPA_RETURN_IF_ERROR(ReadInt(section, "theta", &spec->theta));
  OIPA_RETURN_IF_ERROR(
      ReadInt(section, "holdout_theta", &spec->holdout_theta));
  int64_t seed = static_cast<int64_t>(spec->seed);
  OIPA_RETURN_IF_ERROR(ReadInt(section, "seed", &seed));
  spec->seed = static_cast<uint64_t>(seed);
  OIPA_RETURN_IF_ERROR(ReadInt32(section, "threads", &spec->threads));
  OIPA_RETURN_IF_ERROR(ReadDouble(section, "epsilon", &spec->epsilon));
  OIPA_RETURN_IF_ERROR(ReadInt(section, "max_theta", &spec->max_theta));
  OIPA_RETURN_IF_ERROR(ReadString(section, "stopping", &spec->stopping));

  // Sample ids are 32-bit (rrset/mrr_collection.h): larger sizes are
  // refused here, before any build.
  const std::string max_samples = std::to_string(MrrCollection::kMaxSamples);
  if (spec->theta < 1 || spec->theta > MrrCollection::kMaxSamples) {
    return Status::InvalidArgument("sampling.theta must be in [1, " +
                                   max_samples + "]");
  }
  if (spec->max_theta > MrrCollection::kMaxSamples) {
    return Status::InvalidArgument("sampling.max_theta must be <= " +
                                   max_samples);
  }
  if (spec->threads < 0 || spec->threads > kMaxExplicitThreads) {
    return Status::InvalidArgument("sampling.threads must be in [0, " +
                                   std::to_string(kMaxExplicitThreads) +
                                   "]");
  }
  if (spec->holdout_theta < -1 ||
      spec->holdout_theta > MrrCollection::kMaxSamples) {
    return Status::InvalidArgument(
        "sampling.holdout_theta must be in [-1, " + max_samples + "]");
  }
  if (spec->epsilon < 0.0) {
    return Status::InvalidArgument("sampling.epsilon must be >= 0");
  }
  const StatusOr<StoppingRuleKind> rule =
      ParseStoppingRule(spec->stopping);
  if (!rule.ok()) return rule.status();
  spec->stopping_rule = *rule;
  return Status::Ok();
}

Status ParsePlan(const JsonValue& section, PlanSpec* spec) {
  OIPA_RETURN_IF_ERROR(ReadString(section, "method", &spec->method));
  OIPA_RETURN_IF_ERROR(ReadDouble(section, "gap", &spec->gap));
  OIPA_RETURN_IF_ERROR(ReadDouble(section, "epsilon", &spec->epsilon));
  OIPA_RETURN_IF_ERROR(ReadString(section, "bound", &spec->bound));
  OIPA_RETURN_IF_ERROR(ReadInt(section, "max_nodes", &spec->max_nodes));
  OIPA_RETURN_IF_ERROR(ReadInt32(section, "threads", &spec->threads));
  int64_t seed = static_cast<int64_t>(spec->seed);
  OIPA_RETURN_IF_ERROR(ReadInt(section, "seed", &seed));
  spec->seed = static_cast<uint64_t>(seed);

  if (const JsonValue* v = section.Find("deadline_ms")) {
    if (!v->is_int()) {
      return Status::InvalidArgument(
          "field 'deadline_ms' must be an integer");
    }
    spec->deadline_ms = v->int_value();
    if (*spec->deadline_ms < 1) {
      return Status::InvalidArgument("deadline_ms must be >= 1");
    }
  }

  if (const JsonValue* v = section.Find("budgets")) {
    if (!v->is_array() || v->size() == 0) {
      return Status::InvalidArgument(
          "field 'budgets' must be a non-empty array of integers");
    }
    spec->budgets.clear();
    for (size_t i = 0; i < v->size(); ++i) {
      if (!v->at(i).is_int() || v->at(i).int_value() < 1 ||
          v->at(i).int_value() > std::numeric_limits<int>::max()) {
        return Status::InvalidArgument(
            "field 'budgets' must hold 32-bit integers >= 1");
      }
      spec->budgets.push_back(static_cast<int>(v->at(i).int_value()));
    }
  }
  if (spec->method.empty()) {
    return Status::InvalidArgument("plan.method must be non-empty");
  }
  if (spec->gap < 0.0) {
    return Status::InvalidArgument("plan.gap must be >= 0");
  }
  if (spec->epsilon <= 0.0 || spec->epsilon >= 1.0) {
    return Status::InvalidArgument("plan.epsilon must be in (0, 1)");
  }
  if (spec->bound == "zero") {
    spec->bound_variant = BoundVariant::kZeroAnchored;
  } else if (spec->bound == "paper") {
    spec->bound_variant = BoundVariant::kPaperTangent;
  } else {
    return Status::InvalidArgument("unknown plan.bound '" + spec->bound +
                                   "' (expected zero|paper)");
  }
  if (spec->max_nodes < 1) {
    return Status::InvalidArgument("plan.max_nodes must be >= 1");
  }
  if (spec->threads < 0 || spec->threads > kMaxExplicitThreads) {
    return Status::InvalidArgument("plan.threads must be in [0, " +
                                   std::to_string(kMaxExplicitThreads) +
                                   "]");
  }
  return Status::Ok();
}

/// Canonical fixed-precision double for cache keys (repr-stable across
/// the formatting quirks of to_string).
std::string KeyDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

StatusOr<WireRequest> ParseWireRequest(std::string_view line) {
  StatusOr<JsonValue> root = ParseJson(line);
  if (!root.ok()) return root.status();
  if (!root->is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  WireRequest request;
  OIPA_RETURN_IF_ERROR(ReadString(*root, "id", &request.id));
  OIPA_RETURN_IF_ERROR(ReadString(*root, "type", &request.type));
  if (request.type == "health") return request;
  if (request.type != "plan") {
    return Status::InvalidArgument("unknown request type '" + request.type +
                                   "' (expected plan|health)");
  }

  const JsonValue* section = nullptr;
  OIPA_RETURN_IF_ERROR(ReadSection(*root, "dataset", &section));
  if (section != nullptr) {
    OIPA_RETURN_IF_ERROR(ParseDataset(*section, &request.dataset));
  }
  OIPA_RETURN_IF_ERROR(ReadSection(*root, "sampling", &section));
  if (section != nullptr) {
    OIPA_RETURN_IF_ERROR(ParseSampling(*section, &request.sampling));
  }
  OIPA_RETURN_IF_ERROR(ReadSection(*root, "plan", &section));
  if (section != nullptr) {
    OIPA_RETURN_IF_ERROR(ParsePlan(*section, &request.plan));
  }
  return request;
}

std::string SampleKey(const WireRequest& request) {
  const DatasetSpec& d = request.dataset;
  std::string key;
  key.reserve(128);
  key += "ds=" + d.name;
  key += ";n=" + std::to_string(d.n);
  key += ";topics=" + std::to_string(d.num_topics);
  key += ";scale=" + KeyDouble(d.scale);
  key += ";pool=" + KeyDouble(d.pool_fraction);
  key += ";dseed=" + std::to_string(d.seed);
  key += ";ell=" + std::to_string(d.ell);
  key += ";sseed=" + std::to_string(request.sampling.seed);
  key += ";holdout=";
  key += request.wants_holdout() ? '1' : '0';
  return key;
}

std::string ContextKey(const WireRequest& request) {
  return SampleKey(request) + ";alpha=" + KeyDouble(request.dataset.alpha) +
         ";beta=" + KeyDouble(request.dataset.beta);
}

std::string MergeKey(const WireRequest& request) {
  if (request.plan.deadline_ms.has_value()) return "";
  if (request.sampling.epsilon > 0.0) return "";
  const PlanSpec& p = request.plan;
  std::string key = ContextKey(request);
  key += "|m=" + p.method;
  key += ";gap=" + KeyDouble(p.gap);
  key += ";eps=" + KeyDouble(p.epsilon);
  key += ";bound=" + p.bound;
  key += ";maxnodes=" + std::to_string(p.max_nodes);
  key += ";threads=" + std::to_string(p.threads);
  key += ";pseed=" + std::to_string(p.seed);
  return key;
}

Dataset BuildDataset(const DatasetSpec& spec) {
  return spec.name == "synthetic"
             ? MakeSynthetic(static_cast<VertexId>(spec.n), spec.num_topics,
                             spec.pool_fraction, spec.seed)
             : MakeDatasetByName(spec.name, spec.scale, spec.seed);
}

Campaign BuildCampaign(const DatasetSpec& spec, int num_topics) {
  Rng rng(spec.seed + 4);
  return Campaign::SampleUniformPieces(spec.ell, num_topics, &rng);
}

ContextOptions ToContextOptions(const WireRequest& request) {
  ContextOptions options;
  options.theta = request.sampling.theta;
  options.holdout_theta = request.wants_holdout() ? -1 : 0;
  options.seed = request.sampling.seed;
  options.sampling_threads = request.sampling.threads;
  return options;
}

PlanRequest ToPlanRequest(const WireRequest& request,
                          std::vector<VertexId> pool) {
  PlanRequest out;
  out.solver = request.plan.method;
  out.pool = std::move(pool);
  out.budgets = request.plan.budgets;
  out.options.gap = request.plan.gap;
  out.options.epsilon = request.plan.epsilon;
  out.options.variant = request.plan.bound_variant;
  out.options.max_nodes = request.plan.max_nodes;
  out.num_threads = request.plan.threads;
  out.epsilon = request.sampling.epsilon;
  out.max_theta = request.sampling.max_theta;
  out.stopping = request.sampling.stopping_rule;
  out.seed = request.plan.seed;
  return out;
}

JsonValue ResultJson(const PlanResponse& response) {
  JsonValue seed_sets = JsonValue::Array();
  for (int j = 0; j < response.plan.num_pieces(); ++j) {
    JsonValue piece = JsonValue::Array();
    for (const VertexId v : response.plan.SeedSet(j)) {
      piece.Append(static_cast<int64_t>(v));
    }
    seed_sets.Append(std::move(piece));
  }
  JsonValue j = JsonValue::Object();
  j.Set("k", response.budget)
      .Set("method", response.solver)
      .Set("seed_sets", std::move(seed_sets))
      .Set("budget_used", response.plan.size())
      .Set("utility", response.utility)
      .Set("holdout_utility", response.holdout_utility)
      .Set("upper_bound", response.upper_bound)
      .Set("converged", response.converged)
      .Set("cancelled", response.cancelled)
      .Set("deadline_exceeded", response.deadline_exceeded)
      .Set("nodes_expanded", response.nodes_expanded)
      .Set("bound_calls", response.bound_calls)
      .Set("tau_evals", response.tau_evals)
      .Set("theta_used", response.theta_used)
      .Set("sampling_rounds", response.sampling_rounds)
      .Set("sampling_gap", response.sampling_gap)
      .Set("certified_ratio", response.certified_ratio)
      .Set("solve_seconds", response.seconds);
  return j;
}

std::string OkResponseLine(const std::string& id, JsonValue results,
                           bool cancelled, JsonValue serve) {
  JsonValue j = JsonValue::Object();
  j.Set("id", id)
      .Set("ok", true)
      .Set("results", std::move(results))
      .Set("cancelled", cancelled)
      .Set("serve", std::move(serve));
  return j.Dump(-1);
}

std::string ErrorResponseLine(const std::string& id, const Status& status,
                              int64_t retry_after_ms) {
  JsonValue error = JsonValue::Object();
  // Overload rejections use the documented wire name
  // "resource_exhausted" (clients key their back-off on it); every
  // other code keeps its StatusCodeName.
  error
      .Set("code", status.code() == StatusCode::kResourceExhausted
                       ? "resource_exhausted"
                       : StatusCodeName(status.code()))
      .Set("message", status.message());
  if (retry_after_ms >= 0) error.Set("retry_after_ms", retry_after_ms);
  JsonValue j = JsonValue::Object();
  j.Set("id", id).Set("ok", false).Set("error", std::move(error));
  return j.Dump(-1);
}

}  // namespace serve
}  // namespace oipa
