#ifndef OIPA_SERVE_WIRE_H_
#define OIPA_SERVE_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cli/json_writer.h"
#include "data/datasets.h"
#include "graph/graph.h"
#include "oipa/api/plan_request.h"
#include "oipa/api/planning_context.h"
#include "oipa/tangent_bound.h"
#include "rrset/sample_store.h"
#include "topic/campaign.h"
#include "util/status.h"

namespace oipa {
namespace serve {

/// The oipa_serve wire protocol: newline-delimited JSON over TCP. Each
/// request is one compact JSON object on one line; each response is one
/// JSON object on one line, in request order per connection. Three
/// top-level sections name the pipeline stages (oipa_cli writes its
/// flags into exactly such a line and solves it through the functions
/// below, in-process or, with --server, over TCP):
///
///   {"id": "r1",
///    "dataset":  {"name": "synthetic", "n": 2000, "topics": 10,
///                 "scale": 0.01, "pool_fraction": 0.1, "seed": 1,
///                 "ell": 3, "alpha": 2.0, "beta": 1.0},
///    "sampling": {"theta": 20000, "holdout_theta": -1, "seed": 1,
///                 "epsilon": 0.0, "max_theta": 2000000,
///                 "stopping": "holdout"},
///    "plan":     {"method": "bab-p", "budgets": [10], "gap": 0.01,
///                 "epsilon": 0.5, "bound": "zero",
///                 "max_nodes": 100000, "threads": 1,
///                 "deadline_ms": 500, "seed": 1}}
///
/// Every field except "id" has a default (oipa_cli's flag defaults),
/// so `{"id":"r1"}` is a valid request. Unknown keys are
/// ignored. Responses:
///
///   {"id": "r1", "ok": true, "results": [...], "cancelled": false,
///    "serve": {...telemetry...}}
///   {"id": "r1", "ok": false,
///    "error": {"code": "InvalidArgument", "message": "..."}}
///
/// Malformed input (bad JSON, wrong types, unknown dataset/solver
/// names) always produces an "ok": false response on the same
/// connection — the daemon never aborts on wire input.

/// Which dataset to plan against; (name, n, topics, scale,
/// pool_fraction, seed, ell, alpha, beta) fully determine the
/// planning context inputs.
struct DatasetSpec {
  /// synthetic | lastfm | dblp | tweet.
  std::string name = "synthetic";
  /// Vertices of the synthetic graph (ignored for named datasets).
  int64_t n = 2000;
  /// Topics of the synthetic probability model.
  int num_topics = 10;
  /// Scale of the dblp/tweet datasets.
  double scale = 0.01;
  /// Promoter-pool fraction (synthetic dataset).
  double pool_fraction = 0.1;
  uint64_t seed = 1;
  /// Campaign pieces L.
  int ell = 3;
  /// Logistic adoption parameters.
  double alpha = 2.0;
  double beta = 1.0;
};

/// Sampling slice of the request; mirrors ContextOptions plus the
/// progressive-stopping knobs.
struct SamplingSpec {
  int64_t theta = 20'000;
  /// -1 = theta-sized holdout when epsilon > 0, no holdout otherwise;
  /// 0 = never a holdout.
  int64_t holdout_theta = -1;
  uint64_t seed = 1;
  /// Worker threads for sample generation/growth (0 = server default).
  /// Samples are bit-identical at any thread count, so this knob is
  /// excluded from the context-cache key — requests differing only in
  /// it share a cached context.
  int threads = 0;
  /// Progressive (ε)-stopping tolerance; 0 = one-shot solve.
  double epsilon = 0.0;
  int64_t max_theta = 2'000'000;
  std::string stopping = "holdout";
  StoppingRuleKind stopping_rule = StoppingRuleKind::kHoldoutGap;
};

/// Solver slice of the request: the full solver profile.
struct PlanSpec {
  std::string method = "bab-p";
  std::vector<int> budgets = {10};
  double gap = 0.01;
  /// BAB-P threshold decay.
  double epsilon = 0.5;
  /// zero (kZeroAnchored) | paper (kPaperTangent).
  std::string bound = "zero";
  BoundVariant bound_variant = BoundVariant::kZeroAnchored;
  /// Node-expansion safety cap.
  int64_t max_nodes = 100'000;
  /// Search workers, at most kMaxBabWorkers (PlanRequest::num_threads).
  int threads = 1;
  /// Wall-clock budget measured from the moment the request is
  /// accepted (enqueued) — queue wait counts against it.
  std::optional<int64_t> deadline_ms;
  uint64_t seed = 1;
};

/// One parsed and validated wire request.
struct WireRequest {
  std::string id;
  /// "plan" (default) solves; "health" reports daemon health — it is
  /// answered directly by the reader thread, bypassing the work queue,
  /// so it stays responsive under overload.
  std::string type = "plan";
  DatasetSpec dataset;
  SamplingSpec sampling;
  PlanSpec plan;

  /// True when the request enables a holdout collection (the
  /// resolution of SamplingSpec::holdout_theta).
  bool wants_holdout() const {
    return sampling.holdout_theta > 0 ||
           (sampling.holdout_theta < 0 && sampling.epsilon > 0.0);
  }
};

/// Parses one request line: the one reader and validator of request
/// values, for the daemon and for oipa_cli, which writes its flags into
/// such a line. InvalidArgument on malformed JSON, type mismatches, or
/// out-of-domain values (unknown dataset name, empty budgets,
/// non-positive theta, more search workers than the solver's
/// kMaxBabWorkers, ...) — with a message suitable for the error response
/// verbatim that names the field by its path ("dataset.topics"). A null
/// number reads as NaN, JsonValue's encoding of a non-finite double, and
/// fails its field's range check.
StatusOr<WireRequest> ParseWireRequest(std::string_view line);

/// Canonical sample-store key: every dataset/sampling field that
/// changes the MRR samples, which leaves out theta/max_theta (see
/// ContextKey) and the adoption model's alpha/beta — samples do not
/// depend on it, so contexts differing only in alpha/beta share one
/// store. It keys the context cache's sample slots and names their
/// checkpoints.
std::string SampleKey(const WireRequest& request);

/// Canonical context-cache key: SampleKey plus alpha/beta, so every
/// dataset/sampling field that changes the planning context EXCEPT
/// theta/max_theta — the backing SampleStore theta-prefix-shares, so
/// requests differing only in sample count resolve to one context
/// whose store is grown to the largest theta seen (the documented
/// upward-drift contract).
std::string ContextKey(const WireRequest& request);

/// Batch-compatibility key: requests with equal non-empty merge keys
/// may be answered from one SolveBatch budget sweep (same context,
/// same solver profile, budgets merged). Empty when the request must
/// be solved alone: a deadline (per-request cancellation) or
/// progressive epsilon (the sweep would grow the store mid-flight).
std::string MergeKey(const WireRequest& request);

// The request's planning inputs. ContextCache and oipa_cli both build
// them with the three functions below, whose arguments must have passed
// ParseWireRequest.

/// The dataset `spec` names, built on `num_threads` workers (the
/// request's sampling.threads): bit-identical at any count.
Dataset BuildDataset(const DatasetSpec& spec, int num_threads);

/// The request's campaign: `spec.ell` uniform pieces over the dataset's
/// `num_topics`, drawn from spec.seed + 4.
Campaign BuildCampaign(const DatasetSpec& spec, int num_topics);

/// The ContextOptions of the sampling slice (theta, holdout, seed,
/// sampling threads). Fields the wire does not carry keep their
/// defaults: the daemon and oipa_cli set the pool.
ContextOptions ToContextOptions(const WireRequest& request);

/// Maps the plan/sampling slices onto the in-process request type.
/// `pool` comes from the request's dataset; deadline_ms is left unset
/// here — the server re-derives the remaining budget at dispatch time
/// (queue wait counts), oipa_cli copies plan.deadline_ms.
PlanRequest ToPlanRequest(const WireRequest& request,
                          std::vector<VertexId> pool);

/// One solved-budget row of the "results" array — also the row oipa_cli
/// prints for each local solve.
JsonValue ResultJson(const PlanResponse& response);

/// The store telemetry block: the daemon's serve.store and the fields
/// of oipa_cli's sample_store.
JsonValue StoreJson(const SampleStore::Stats& stats);

/// Serializes the success envelope around pre-built result rows.
/// `serve` carries the telemetry block (see README "Serving").
std::string OkResponseLine(const std::string& id, JsonValue results,
                           bool cancelled, JsonValue serve);

/// Serializes a structured error response. A non-negative
/// `retry_after_ms` adds error.retry_after_ms — overload rejections
/// (ResourceExhausted) use it to tell clients when to back off until.
std::string ErrorResponseLine(const std::string& id, const Status& status,
                              int64_t retry_after_ms = -1);

}  // namespace serve
}  // namespace oipa

#endif  // OIPA_SERVE_WIRE_H_
