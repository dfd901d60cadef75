#include "oipa/api/planning_context.h"

#include <algorithm>
#include <string>
#include <utility>

#include "oipa/adoption.h"

namespace oipa {

namespace {

/// Wraps a caller-owned reference in a non-owning shared_ptr (empty
/// control block). Used by the Borrow* factories; the caller guarantees
/// the referent outlives the context.
template <typename T>
std::shared_ptr<const T> Unowned(const T& ref) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), &ref);
}

Status ValidateInputs(const Graph* graph, const EdgeTopicProbs* probs,
                      const Campaign* campaign) {
  if (graph == nullptr || probs == nullptr || campaign == nullptr) {
    return Status::InvalidArgument(
        "PlanningContext requires non-null graph, probs, and campaign");
  }
  if (graph->num_vertices() < 1) {
    return Status::InvalidArgument("graph has no vertices");
  }
  if (probs->num_edges() != graph->num_edges()) {
    return Status::InvalidArgument(
        "probs cover " + std::to_string(probs->num_edges()) +
        " edges but the graph has " + std::to_string(graph->num_edges()));
  }
  if (campaign->num_pieces() < 1) {
    return Status::InvalidArgument("campaign has no pieces");
  }
  if (campaign->num_pieces() > MrrCollection::kMaxPieces) {
    return Status::InvalidArgument(
        "campaign has " + std::to_string(campaign->num_pieces()) +
        " pieces; at most " + std::to_string(MrrCollection::kMaxPieces) +
        " are supported");
  }
  for (int j = 0; j < campaign->num_pieces(); ++j) {
    if (campaign->piece(j).topics.num_topics() != probs->num_topics()) {
      return Status::InvalidArgument(
          "campaign piece " + std::to_string(j) + " has " +
          std::to_string(campaign->piece(j).topics.num_topics()) +
          " topic dimensions but probs have " +
          std::to_string(probs->num_topics()));
    }
  }
  return Status::Ok();
}

SampleStore::Options StoreOptions(const ContextOptions& options) {
  SampleStore::Options store_options;
  store_options.theta = options.theta;
  store_options.holdout_theta = options.holdout_theta;
  store_options.seed = options.seed;
  store_options.diffusion = options.diffusion;
  store_options.sampling_threads = options.sampling_threads;
  store_options.pool = options.pool;
  return store_options;
}

}  // namespace

std::shared_ptr<PlanningContext> PlanningContext::Build(
    std::shared_ptr<const Graph> graph,
    std::shared_ptr<const EdgeTopicProbs> probs,
    std::shared_ptr<const Campaign> campaign, LogisticAdoptionModel model,
    ContextOptions options) {
  // Private constructor: build in place, then fill.
  std::shared_ptr<PlanningContext> ctx(new PlanningContext());
  ctx->graph_ = std::move(graph);
  ctx->probs_ = std::move(probs);
  ctx->campaign_ = std::move(campaign);
  ctx->model_ = model;
  ctx->options_ = std::move(options);
  ctx->sorted_pool_ = ctx->options_.pool;
  std::sort(ctx->sorted_pool_.begin(), ctx->sorted_pool_.end());
  ctx->pieces_ = std::make_shared<const std::vector<InfluenceGraph>>(
      BuildPieceGraphs(*ctx->graph_, *ctx->probs_, *ctx->campaign_,
                       ctx->options_.sampling_threads));
  return ctx;
}

StatusOr<std::shared_ptr<const PlanningContext>> PlanningContext::Create(
    std::shared_ptr<const Graph> graph,
    std::shared_ptr<const EdgeTopicProbs> probs,
    std::shared_ptr<const Campaign> campaign, LogisticAdoptionModel model,
    ContextOptions options) {
  return Resume(std::move(graph), std::move(probs), std::move(campaign),
                model, std::move(options), SampleSnapshot(), nullptr);
}

StatusOr<std::shared_ptr<const PlanningContext>> PlanningContext::Resume(
    std::shared_ptr<const Graph> graph,
    std::shared_ptr<const EdgeTopicProbs> probs,
    std::shared_ptr<const Campaign> campaign, LogisticAdoptionModel model,
    ContextOptions options, const SampleSnapshot& checkpoint,
    bool* resumed) {
  OIPA_RETURN_IF_ERROR(
      ValidateInputs(graph.get(), probs.get(), campaign.get()));
  const std::string max_samples = std::to_string(MrrCollection::kMaxSamples);
  if (options.theta < 1 || options.theta > MrrCollection::kMaxSamples) {
    return Status::InvalidArgument("ContextOptions::theta must be in [1, " +
                                   max_samples + "]");
  }
  if (options.holdout_theta < -1 ||
      options.holdout_theta > MrrCollection::kMaxSamples) {
    return Status::InvalidArgument(
        "ContextOptions::holdout_theta must be in [-1, " + max_samples +
        "]");
  }
  const VertexId n = graph->num_vertices();
  for (const VertexId v : options.pool) {
    if (v < 0 || v >= n) {
      return Status::InvalidArgument(
          "ContextOptions::pool vertex " + std::to_string(v) +
          " is outside the graph [0, " + std::to_string(n) + ")");
    }
  }
  const SampleStore::Options store_options = StoreOptions(options);
  std::shared_ptr<PlanningContext> ctx =
      Build(std::move(graph), std::move(probs), std::move(campaign), model,
            std::move(options));
  ctx->store_ = SampleStore::Resume(ctx->pieces_, store_options, checkpoint);
  if (resumed != nullptr) *resumed = ctx->store_ != nullptr;
  if (ctx->store_ == nullptr) {
    ctx->store_ = SampleStore::Create(ctx->pieces_, store_options);
  }
  return std::shared_ptr<const PlanningContext>(std::move(ctx));
}

StatusOr<std::shared_ptr<const PlanningContext>> PlanningContext::Borrow(
    const Graph& graph, const EdgeTopicProbs& probs,
    const Campaign& campaign, LogisticAdoptionModel model,
    ContextOptions options) {
  return Create(Unowned(graph), Unowned(probs), Unowned(campaign), model,
                options);
}

StatusOr<std::shared_ptr<const PlanningContext>>
PlanningContext::BorrowWithSamples(const Graph& graph,
                                   const EdgeTopicProbs& probs,
                                   const Campaign& campaign,
                                   LogisticAdoptionModel model,
                                   const MrrCollection* mrr,
                                   const MrrCollection* holdout) {
  OIPA_RETURN_IF_ERROR(ValidateInputs(&graph, &probs, &campaign));
  if (mrr == nullptr) {
    return Status::InvalidArgument(
        "BorrowWithSamples requires a non-null MRR collection");
  }
  if (!mrr->indexed()) {
    // Solvers search the in-sample collection through its index.
    return Status::InvalidArgument(
        "BorrowWithSamples requires an indexed in-sample collection");
  }
  for (const MrrCollection* samples : {mrr, holdout}) {
    if (samples == nullptr) continue;
    if (samples->num_pieces() != campaign.num_pieces()) {
      return Status::InvalidArgument(
          "MRR collection has " + std::to_string(samples->num_pieces()) +
          " pieces but the campaign has " +
          std::to_string(campaign.num_pieces()));
    }
    if (samples->num_vertices() != graph.num_vertices()) {
      return Status::InvalidArgument(
          "MRR collection covers " +
          std::to_string(samples->num_vertices()) +
          " vertices but the graph has " +
          std::to_string(graph.num_vertices()));
    }
  }
  ContextOptions options;
  options.theta = mrr->theta();
  options.holdout_theta = holdout == nullptr ? 0 : holdout->theta();
  std::shared_ptr<PlanningContext> ctx =
      Build(Unowned(graph), Unowned(probs), Unowned(campaign), model, options);
  ctx->store_ =
      SampleStore::Adopt(ctx->pieces_, Unowned(*mrr),
                         holdout == nullptr ? nullptr : Unowned(*holdout));
  return std::shared_ptr<const PlanningContext>(std::move(ctx));
}

std::shared_ptr<const PlanningContext> PlanningContext::WithModel(
    LogisticAdoptionModel model) const {
  std::shared_ptr<PlanningContext> sibling(new PlanningContext(*this));
  sibling->model_ = model;
  return sibling;
}

bool PlanningContext::InPool(VertexId v) const {
  return sorted_pool_.empty() ||
         std::binary_search(sorted_pool_.begin(), sorted_pool_.end(), v);
}

double PlanningContext::EstimateUtility(const AssignmentPlan& plan) const {
  return EstimateAdoptionUtility(*samples().mrr, model_, plan);
}

double PlanningContext::EstimateHoldoutUtility(
    const AssignmentPlan& plan) const {
  const std::shared_ptr<const MrrCollection> holdout = samples().holdout();
  if (holdout == nullptr) return 0.0;
  return EstimateAdoptionUtility(*holdout, model_, plan);
}

StatusOr<PlanResponse> PlanningContext::Evaluate(
    const AssignmentPlan& plan, const std::string& label) const {
  if (plan.num_pieces() != campaign_->num_pieces()) {
    return Status::InvalidArgument(
        "plan has " + std::to_string(plan.num_pieces()) +
        " pieces but the campaign has " +
        std::to_string(campaign_->num_pieces()));
  }
  // One snapshot for both estimates, so they always come from the same
  // generation even while the store grows.
  const SampleSnapshot snap = samples();
  PlanResponse response;
  response.solver = label;
  response.budget = plan.size();
  response.plan = plan;
  response.utility = EstimateAdoptionUtility(*snap.mrr, model_, plan);
  const std::shared_ptr<const MrrCollection> holdout = snap.holdout();
  response.holdout_utility =
      holdout == nullptr ? 0.0
                         : EstimateAdoptionUtility(*holdout, model_, plan);
  response.upper_bound = response.utility;
  return response;
}

double PlanningContext::SimulateUtility(const AssignmentPlan& plan,
                                        int trials, uint64_t seed) const {
  return SimulateAdoptionUtility(*pieces_, model_, plan, trials, seed);
}

}  // namespace oipa
