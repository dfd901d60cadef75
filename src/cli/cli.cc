#include "cli/cli.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <fstream>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <utility>

#include "cli/json_writer.h"
#include "data/datasets.h"
#include "learn/action_log.h"
#include "learn/tic_learner.h"
#include "oipa/adoption.h"
#include "oipa/api/plan_request.h"
#include "oipa/api/planning_context.h"
#include "oipa/api/solver_registry.h"
#include "oipa/branch_and_bound.h"
#include "rrset/mrr_collection.h"
#include "serve/client.h"
#include "serve/json_parser.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "topic/campaign.h"
#include "topic/influence_graph.h"
#include "topic/prob_models.h"
#include "topic/topic_vector.h"
#include "util/stats.h"
#include "util/threading.h"
#include "util/timer.h"

namespace oipa {
namespace cli {
namespace {

constexpr const char* kCommands[] = {"generate", "learn", "plan",
                                     "simulate", "bench", "serve"};

bool IsKnownCommand(const std::string& name) {
  for (const char* c : kCommands) {
    if (name == c) return true;
  }
  return false;
}

// ------------------------------------------------------------- pipeline

/// Accumulated state of one CLI run: each stage fills its slice and
/// records its JSON fragment, so deeper subcommands reuse the shallower
/// stages unchanged (generate ⊂ learn ⊂ plan ⊂ simulate).
struct Pipeline {
  const CliConfig* config = nullptr;
  Dataset dataset;
  double dataset_seconds = 0.0;

  /// Probabilities the planner optimizes on: the dataset truth, or the
  /// TIC-learned recovery when --learn is set.
  std::unique_ptr<EdgeTopicProbs> learned;
  JsonValue learn_json;

  Campaign campaign;
  /// Shared planning state (piece graphs + MRR samples) under the
  /// planning probabilities; every solve request dispatches against it.
  std::shared_ptr<const PlanningContext> context;
  double sample_seconds = 0.0;

  const EdgeTopicProbs& planning_probs() const {
    return learned ? *learned : *dataset.probs;
  }
};

/// Effective solver worker count for this run, as echoed in the JSON
/// config: flag absent (-1) = one deterministic search worker,
/// --threads=0 = auto-detect, --threads=N = exactly N.
int ResolvedSolverThreads(const CliConfig& c) {
  if (c.threads < 0) return 1;
  // The solver clamps plan.threads 0's auto-detection to its worker cap.
  if (c.threads == 0) return std::min(GetNumThreads(), kMaxBabWorkers);
  return c.threads;
}

JsonValue DatasetJson(const Pipeline& p) {
  JsonValue j = JsonValue::Object();
  j.Set("name", p.dataset.name)
      .Set("vertices", static_cast<int64_t>(p.dataset.graph->num_vertices()))
      .Set("edges", p.dataset.graph->num_edges())
      .Set("topics", p.dataset.num_topics)
      .Set("avg_nonzero_topics", p.dataset.probs->AverageNonZeros())
      .Set("pool_size", static_cast<int64_t>(p.dataset.promoter_pool.size()))
      .Set("seconds", p.dataset_seconds);
  return j;
}

/// Simulates an action log over the dataset truth and recovers the
/// probabilities with TIC EM; reports edge-level Spearman agreement
/// between learned and true probabilities under a uniform piece.
void RunLearning(Pipeline* p, std::ostream& err) {
  const CliConfig& c = *p->config;
  const Graph& graph = *p->dataset.graph;
  const EdgeTopicProbs& truth = *p->dataset.probs;

  err << "[oipa_cli] simulating " << c.cascades
      << " cascades and learning TIC probabilities...\n";
  WallTimer timer;
  const ActionLog log =
      GenerateActionLog(graph, truth, c.cascades, 5, c.seed + 3);
  const double log_seconds = timer.Seconds();

  timer.Reset();
  TicLearnerOptions opts;
  opts.iterations = c.em_iterations;
  p->learned = std::make_unique<EdgeTopicProbs>(
      LearnTicProbabilities(graph, log, p->dataset.num_topics, opts));
  const double em_seconds = timer.Seconds();

  std::vector<double> true_vals, learned_vals;
  true_vals.reserve(graph.num_edges());
  learned_vals.reserve(graph.num_edges());
  const TopicVector uniform = TopicVector::Uniform(p->dataset.num_topics);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    true_vals.push_back(truth.PieceProb(e, uniform));
    learned_vals.push_back(p->learned->PieceProb(e, uniform));
  }

  p->learn_json = JsonValue::Object();
  p->learn_json.Set("cascades", c.cascades)
      .Set("events", static_cast<int64_t>(log.events.size()))
      .Set("em_iterations", c.em_iterations)
      .Set("learned_entries", p->learned->num_entries())
      .Set("spearman", SpearmanCorrelation(true_vals, learned_vals))
      .Set("log_seconds", log_seconds)
      .Set("em_seconds", em_seconds);
}

/// Campaign + planning context (piece influence graphs + MRR samples)
/// of the request, under the planning probabilities. Returns non-OK
/// when the context inputs are inconsistent (cannot normally happen for
/// driver-built datasets).
Status BuildContext(Pipeline* p, std::ostream& err) {
  const CliConfig& c = *p->config;
  const serve::DatasetSpec& d = c.request.dataset;
  p->campaign = serve::BuildCampaign(d, p->dataset.num_topics);
  err << "[oipa_cli] sampling " << c.theta << " MRR sets over " << c.ell
      << " pieces...\n";
  ContextOptions options = serve::ToContextOptions(c.request);
  options.share_samples = c.share_samples;
  WallTimer timer;
  auto context = PlanningContext::Borrow(
      *p->dataset.graph, p->planning_probs(), p->campaign,
      LogisticAdoptionModel(d.alpha, d.beta), options);
  if (!context.ok()) return context.status();
  p->context = *std::move(context);
  p->sample_seconds = timer.Seconds();
  return Status::Ok();
}

/// Forward Monte-Carlo validation of `plan` under the dataset TRUTH (when
/// planning used learned probabilities this measures the real utility of
/// the learned-model plan, as in examples/learning_pipeline.cpp).
JsonValue SimulateJson(const Pipeline& p, const AssignmentPlan& plan,
                       std::ostream& err) {
  const CliConfig& c = *p.config;
  err << "[oipa_cli] validating with " << c.trials
      << " forward simulations...\n";
  const LogisticAdoptionModel model(c.alpha, c.beta);
  WallTimer timer;
  double utility = 0.0;
  if (p.learned) {
    const auto truth_pieces =
        BuildPieceGraphs(*p.dataset.graph, *p.dataset.probs, p.campaign);
    utility = SimulateAdoptionUtility(truth_pieces, model, plan, c.trials,
                                      c.seed + 6);
  } else {
    utility = p.context->SimulateUtility(plan, c.trials, c.seed + 6);
  }
  JsonValue j = JsonValue::Object();
  j.Set("trials", c.trials)
      .Set("utility", utility)
      .Set("seconds", timer.Seconds());
  return j;
}

/// Sample-store telemetry: size, live memory, generation count,
/// whether the run resolved the store through the sharing registry, and
/// the context build's wall-clock.
JsonValue SampleStoreJson(const Pipeline& p) {
  const SampleStore::Stats stats = p.context->sample_store().GetStats();
  JsonValue j = JsonValue::Object();
  j.Set("theta", stats.theta)
      .Set("holdout_theta", stats.holdout_theta)
      .Set("memory_bytes", stats.memory_bytes)
      .Set("live_generations", stats.live_generations)
      .Set("shared", stats.shared)
      .Set("seconds", p.sample_seconds);
  return j;
}

JsonValue ConfigJson(const CliConfig& c) {
  JsonValue j = JsonValue::Object();
  j.Set("dataset", c.dataset)
      .Set("method", c.method)
      .Set("k", c.k)
      .Set("ell", c.ell)
      .Set("theta", c.theta)
      .Set("epsilon", c.epsilon)
      .Set("sampling_epsilon", c.sampling_epsilon)
      .Set("max_theta", c.max_theta)
      .Set("gap", c.gap)
      .Set("alpha", c.alpha)
      .Set("beta", c.beta)
      .Set("bound", c.bound)
      .Set("progressive", c.progressive)
      .Set("stopping", c.stopping)
      .Set("share_samples", c.share_samples)
      .Set("learn", c.learn)
      .Set("threads", ResolvedSolverThreads(c))
      // The worker count sample generation actually ran with (plumbed
      // through ContextOptions::sampling_threads). It can legitimately
      // differ from "threads": a default run samples on every core but
      // solves sequentially.
      .Set("sampling_threads", ResolveThreadCount(c.request.sampling.threads))
      .Set("seed", static_cast<int64_t>(c.seed));
  return j;
}

/// Prints the result and, when --output is set, writes it to the file.
/// Returns the process exit code: a requested file that cannot be
/// written is an error (scripts rely on the exit code to know the
/// trajectory file exists), though the JSON still reaches stdout.
int EmitResult(const CliConfig& c, const JsonValue& result,
               std::ostream& out, std::ostream& err) {
  const std::string text = result.Dump(c.indent);
  out << text << "\n";
  if (!c.output.empty()) {
    std::ofstream file(c.output);
    if (file) file << text << "\n";
    if (!file) {
      err << "oipa_cli: cannot write --output file '" << c.output << "'\n";
      return 1;
    }
    err << "[oipa_cli] wrote " << c.output << "\n";
  }
  return 0;
}

int RunPipeline(const CliConfig& c, std::ostream& out, std::ostream& err) {
  Pipeline p;
  p.config = &c;

  JsonValue result = JsonValue::Object();
  result.Set("command", c.command).Set("config", ConfigJson(c));

  err << "[oipa_cli] building dataset '" << c.dataset << "'...\n";
  WallTimer timer;
  p.dataset = serve::BuildDataset(c.request.dataset);
  p.dataset_seconds = timer.Seconds();
  result.Set("dataset", DatasetJson(p));
  if (c.command == "generate") {
    return EmitResult(c, result, out, err);
  }

  if (c.command == "learn" || c.learn) {
    RunLearning(&p, err);
    result.Set("learn", p.learn_json);
    if (c.command == "learn") {
      return EmitResult(c, result, out, err);
    }
  }

  if (const Status status = BuildContext(&p, err); !status.ok()) {
    err << "oipa_cli: " << status.ToString() << "\n";
    return 1;
  }

  // The daemon's solve of the same request (PlanServer::HandleGroup).
  err << "[oipa_cli] solving OIPA (method=" << c.method << ", "
      << c.request.plan.budgets.size() << " budget(s))...\n";
  PlanRequest request =
      serve::ToPlanRequest(c.request, p.dataset.promoter_pool);
  request.deadline_ms = c.request.plan.deadline_ms;
  const StatusOr<std::vector<PlanResponse>> responses =
      SolveBatch(*p.context, request);
  if (!responses.ok()) {
    err << "oipa_cli: " << responses.status().ToString() << "\n";
    return 1;
  }
  if (c.command == "bench") {
    JsonValue sweep = JsonValue::Array();
    for (const PlanResponse& r : *responses) {
      sweep.Append(serve::ResultJson(r));
    }
    result.Set("sweep", std::move(sweep));
  } else {
    result.Set("plan", serve::ResultJson(responses->front()));
  }
  result.Set("sample_store", SampleStoreJson(p));
  if (c.command == "simulate") {
    result.Set("simulate", SimulateJson(p, responses->front().plan, err));
  }
  return EmitResult(c, result, out, err);
}

// --------------------------------------------------------------- serving

/// Renders this config's dataset, sampling and plan stages as one
/// wire-protocol request line (see src/serve/wire.h): the line `plan
/// --server` sends and every local run parses and solves. Doubles are
/// written in round-trip form, so the line carries flag values exactly.
std::string WirePlanRequestLine(const CliConfig& c) {
  JsonValue dataset = JsonValue::Object();
  dataset.Set("name", c.dataset)
      .Set("n", c.n)
      .Set("topics", static_cast<int64_t>(c.num_topics))
      .Set("scale", c.scale)
      .Set("pool_fraction", c.pool_fraction)
      .Set("seed", static_cast<int64_t>(c.seed))
      .Set("ell", static_cast<int64_t>(c.ell))
      .Set("alpha", c.alpha)
      .Set("beta", c.beta);
  JsonValue sampling = JsonValue::Object();
  // Each pipeline stage draws from its own stream derived from --seed:
  // the dataset from seed, the campaign from seed+4 (BuildCampaign), the
  // samples from seed+5.
  sampling.Set("theta", c.theta)
      .Set("seed", static_cast<int64_t>(c.seed + 5))
      .Set("epsilon", c.sampling_epsilon)
      .Set("max_theta", c.max_theta)
      .Set("stopping", c.stopping);
  if (c.threads > 0) {
    // --threads=N pins sampling to N workers too; absent or 0 leaves it
    // on the GetNumThreads() auto path. Samples are bit-identical at any
    // width, so this changes only wall-clock.
    sampling.Set("threads", static_cast<int64_t>(c.threads));
  }
  JsonValue plan = JsonValue::Object();
  plan.Set("method", c.method);
  JsonValue budgets = JsonValue::Array();
  for (const int64_t k : c.k_sweep) budgets.Append(k);
  plan.Set("budgets", std::move(budgets))
      .Set("gap", c.gap)
      .Set("epsilon", c.epsilon)
      .Set("bound", c.bound)
      .Set("max_nodes", c.max_nodes);
  if (c.threads >= 0) {
    plan.Set("threads", static_cast<int64_t>(c.threads));
  }
  if (c.deadline_ms > 0) plan.Set("deadline_ms", c.deadline_ms);
  plan.Set("seed", static_cast<int64_t>(c.seed));

  JsonValue request = JsonValue::Object();
  request.Set("id", "oipa_cli")
      .Set("dataset", std::move(dataset))
      .Set("sampling", std::move(sampling))
      .Set("plan", std::move(plan));
  return request.Dump(-1);
}

Status SplitHostPort(const std::string& server, std::string* host,
                     int* port) {
  const size_t colon = server.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == server.size()) {
    return Status::InvalidArgument("--server expects host:port, got '" +
                                   server + "'");
  }
  *host = server.substr(0, colon);
  const std::string port_text = server.substr(colon + 1);
  int parsed = 0;
  for (const char ch : port_text) {
    if (ch < '0' || ch > '9' || parsed > 65535) {
      return Status::InvalidArgument("--server port '" + port_text +
                                     "' is not in [1, 65535]");
    }
    parsed = parsed * 10 + (ch - '0');
  }
  if (parsed < 1 || parsed > 65535) {
    return Status::InvalidArgument("--server port '" + port_text +
                                   "' is not in [1, 65535]");
  }
  *host = *host == "localhost" ? "127.0.0.1" : *host;
  *port = parsed;
  return Status::Ok();
}

/// `plan --server=host:port`: ship the plan stage to a running
/// oipa_serve daemon and print its response (pretty-printed at
/// --indent). Exit code mirrors the response's "ok" flag.
int RunRemotePlan(const CliConfig& c, std::ostream& out,
                  std::ostream& err) {
  std::string host;
  int port = 0;
  if (const Status split = SplitHostPort(c.server, &host, &port);
      !split.ok()) {
    err << "oipa_cli: " << split.ToString() << "\n";
    return 2;
  }
  err << "[oipa_cli] planning via oipa_serve at " << c.server << "...\n";
  serve::ClientOptions client_options;
  client_options.retries = c.retries;
  client_options.read_timeout_ms = static_cast<int>(c.timeout_ms);
  // Determinism contract: the retry schedule derives from --seed.
  client_options.jitter_seed = c.seed;
  const StatusOr<std::string> response =
      serve::RequestOverTcp(host, port, c.wire_line, client_options);
  if (!response.ok()) {
    err << "oipa_cli: " << response.status().ToString() << "\n";
    return 1;
  }
  const StatusOr<JsonValue> parsed = serve::ParseJson(*response);
  if (!parsed.ok()) {
    err << "oipa_cli: unparsable daemon response: "
        << parsed.status().ToString() << "\n";
    out << *response << "\n";
    return 1;
  }
  const std::string rendered = parsed->Dump(c.indent);
  out << rendered << "\n";
  if (!c.output.empty()) {
    std::ofstream file(c.output);
    file << rendered << "\n";
    if (!file) {
      err << "oipa_cli: cannot write --output file '" << c.output << "'\n";
      return 1;
    }
    err << "[oipa_cli] wrote " << c.output << "\n";
  }
  const JsonValue* ok = parsed->Find("ok");
  return ok != nullptr && ok->is_bool() && ok->bool_value() ? 0 : 1;
}

/// Signal handlers may only call the async-signal-safe
/// PlanServer::RequestShutdown; the pointer is published before the
/// handlers are installed and cleared after they are restored.
serve::PlanServer* g_serve_command_server = nullptr;

extern "C" void HandleServeSignal(int /*signum*/) {
  if (g_serve_command_server != nullptr) {
    g_serve_command_server->RequestShutdown();
  }
}

/// `serve`: run the planning daemon in-process until SIGINT/SIGTERM,
/// then drain in-flight solves and exit (the standalone oipa_serve
/// binary is this loop minus the CLI flag surface).
int RunServe(const CliConfig& c, std::ostream& out, std::ostream& err) {
  serve::ServerOptions options;
  options.host = c.host;
  options.port = c.port;
  options.workers = c.workers;
  options.max_contexts = c.max_contexts;
  options.store_budget_bytes = c.store_budget_mb * 1024 * 1024;

  serve::PlanServer server(options);
  if (const Status started = server.Start(); !started.ok()) {
    err << "oipa_cli: " << started.ToString() << "\n";
    return 1;
  }
  g_serve_command_server = &server;
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);

  // The smoke harness and humans both scrape this line for the port.
  out << "oipa_serve listening on " << options.host << ":"
      << server.port() << std::endl;

  server.Wait();
  err << "[oipa_cli] draining...\n";
  server.Stop();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serve_command_server = nullptr;
  err << "[oipa_cli] stopped\n";
  return 0;
}

}  // namespace

// --------------------------------------------------------------- parsing

Status ParseBoundVariant(const std::string& name, BoundVariant* out) {
  if (name == "zero") {
    *out = BoundVariant::kZeroAnchored;
    return Status::Ok();
  }
  if (name == "paper") {
    *out = BoundVariant::kPaperTangent;
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown --bound '" + name +
                                 "' (expected zero|paper)");
}

Status ParseCliConfig(const FlagParser& flags, CliConfig* config) {
  CliConfig c;
  if (flags.positional().empty()) {
    return Status::InvalidArgument("missing subcommand");
  }
  c.command = flags.positional().front();
  if (!IsKnownCommand(c.command)) {
    return Status::InvalidArgument("unknown subcommand '" + c.command +
                                   "' (expected generate|learn|plan|"
                                   "simulate|bench|serve)");
  }

  c.dataset = flags.GetString("dataset", c.dataset);
  if (c.dataset != "synthetic" && c.dataset != "lastfm" &&
      c.dataset != "dblp" && c.dataset != "tweet") {
    return Status::InvalidArgument(
        "unknown --dataset '" + c.dataset +
        "' (expected synthetic|lastfm|dblp|tweet)");
  }
  c.n = flags.GetInt("n", c.n);
  c.num_topics = static_cast<int>(flags.GetInt("topics", c.num_topics));
  c.scale = flags.GetDouble("scale", c.scale);
  c.pool_fraction = flags.GetDouble("pool_fraction", c.pool_fraction);

  c.learn = flags.GetBool("learn", c.learn);
  c.cascades = static_cast<int>(flags.GetInt("cascades", c.cascades));
  c.em_iterations =
      static_cast<int>(flags.GetInt("em_iterations", c.em_iterations));

  c.progressive = flags.GetBool("progressive", c.progressive);
  c.method = flags.GetString("method", c.method);
  if (c.method.empty()) {
    // Back-compat: --progressive picked between the two paper solvers
    // before --method existed.
    c.method = c.progressive ? "bab-p" : "bab";
  }
  if (c.method != "list" && !SolverRegistry::Global().Contains(c.method)) {
    // Find() composes the "unknown solver ... (registered: ...)" message.
    return SolverRegistry::Global().Find(c.method).status();
  }

  c.k = static_cast<int>(flags.GetInt("k", c.k));
  // Checked before narrowing, so --ell=4294967297 cannot pass as 1.
  const int64_t ell = flags.GetInt("ell", c.ell);
  if (ell < 1 || ell > MrrCollection::kMaxPieces) {
    return Status::InvalidArgument(
        "--ell must be in [1, " +
        std::to_string(MrrCollection::kMaxPieces) + "]");
  }
  c.ell = static_cast<int>(ell);
  c.theta = flags.GetInt("theta", c.theta);
  c.epsilon = flags.GetDouble("epsilon", c.epsilon);
  c.sampling_epsilon =
      flags.GetDouble("sampling_epsilon", c.sampling_epsilon);
  c.max_theta = flags.GetInt("max_theta", c.max_theta);
  c.stopping = flags.GetString("stopping", c.stopping);
  c.share_samples = flags.GetBool("share_samples", c.share_samples);
  c.gap = flags.GetDouble("gap", c.gap);
  c.alpha = flags.GetDouble("alpha", c.alpha);
  c.beta = flags.GetDouble("beta", c.beta);
  c.bound = flags.GetString("bound", c.bound);
  c.max_nodes = flags.GetInt("max_nodes", c.max_nodes);
  c.deadline_ms = flags.GetInt("deadline_ms", c.deadline_ms);
  c.server = flags.GetString("server", c.server);
  c.retries = static_cast<int>(flags.GetInt("retries", c.retries));
  c.timeout_ms = flags.GetInt("timeout_ms", c.timeout_ms);
  c.host = flags.GetString("host", c.host);
  c.port = static_cast<int>(flags.GetInt("port", c.port));
  c.workers = static_cast<int>(flags.GetInt("workers", c.workers));
  c.max_contexts =
      static_cast<int>(flags.GetInt("max_contexts", c.max_contexts));
  c.store_budget_mb = flags.GetInt("store_budget_mb", c.store_budget_mb);
  c.trials = static_cast<int>(flags.GetInt("trials", c.trials));
  c.k_sweep = flags.GetIntList("k", {c.k});

  if (flags.Has("threads")) {
    c.threads = static_cast<int>(flags.GetInt("threads", 0));
  }
  c.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  c.indent = static_cast<int>(flags.GetInt("indent", c.indent));
  c.output = flags.GetString("output", c.output);

  if (c.n < 1) return Status::InvalidArgument("--n must be >= 1");
  if (c.dataset == "synthetic" &&
      (c.n < kMinSyntheticVertices ||
       c.n > std::numeric_limits<VertexId>::max())) {
    return Status::InvalidArgument(
        "--n must be in [" + std::to_string(kMinSyntheticVertices) + ", " +
        std::to_string(std::numeric_limits<VertexId>::max()) +
        "] for the synthetic dataset");
  }
  if (c.num_topics < 1) {
    return Status::InvalidArgument("--topics must be >= 1");
  }
  if (c.k < 1) return Status::InvalidArgument("--k must be >= 1");
  if (c.theta < 1 || c.theta > MrrCollection::kMaxSamples) {
    return Status::InvalidArgument(
        "--theta must be in [1, " +
        std::to_string(MrrCollection::kMaxSamples) + "]");
  }
  if (c.max_theta > MrrCollection::kMaxSamples) {
    return Status::InvalidArgument(
        "--max_theta must be <= " +
        std::to_string(MrrCollection::kMaxSamples));
  }
  // Negated so that NaN fails too.
  if (!(c.epsilon > 0.0 && c.epsilon < 1.0)) {
    return Status::InvalidArgument("--epsilon must be in (0, 1)");
  }
  if (!(c.gap >= 0.0)) return Status::InvalidArgument("--gap must be >= 0");
  if (c.sampling_epsilon < 0.0 || c.sampling_epsilon >= 1.0) {
    return Status::InvalidArgument(
        "--sampling_epsilon must be in [0, 1) (0 = one-shot solve)");
  }
  if (c.sampling_epsilon > 0.0 && c.max_theta < c.theta) {
    // Only meaningful for progressive runs; a plain --theta above the
    // default growth cap is fine.
    return Status::InvalidArgument("--max_theta must be >= --theta");
  }
  if (c.trials < 1) return Status::InvalidArgument("--trials must be >= 1");
  if (!std::isfinite(c.alpha) || c.alpha <= 0.0) {
    return Status::InvalidArgument("--alpha must be finite and > 0");
  }
  if (!std::isfinite(c.beta) || c.beta <= 0.0) {
    return Status::InvalidArgument("--beta must be finite and > 0");
  }
  if (flags.Has("threads") &&
      (c.threads < 0 || c.threads > kMaxBabWorkers)) {
    // Rejected at parse time: the request layer would refuse the same
    // value only after the full dataset/sampling pipeline has run.
    return Status::InvalidArgument("--threads must be in [0, " +
                                   std::to_string(kMaxBabWorkers) + "]");
  }
  for (const int64_t budget : c.k_sweep) {
    if (budget < 1) return Status::InvalidArgument("--k entries must be >= 1");
  }
  if (c.command != "bench" && c.k_sweep.size() > 1) {
    return Status::InvalidArgument(
        "--k accepts a list only with the bench subcommand");
  }
  if (flags.Has("deadline_ms") && c.deadline_ms < 1) {
    // Mirrors the request layer (PlanRequest::deadline_ms must be >= 1)
    // but fails before the dataset/sampling pipeline runs.
    return Status::InvalidArgument("--deadline_ms must be >= 1");
  }
  if (!c.server.empty() && c.command != "plan") {
    return Status::InvalidArgument(
        "--server is only supported with the plan subcommand");
  }
  if (!c.server.empty() && c.learn) {
    // The wire has no field for learned probabilities.
    return Status::InvalidArgument(
        "--learn is local-only; it cannot be combined with --server");
  }
  if (c.retries < 0) {
    return Status::InvalidArgument("--retries must be >= 0");
  }
  if (c.timeout_ms < 1) {
    return Status::InvalidArgument("--timeout_ms must be >= 1");
  }
  if (c.port < 0 || c.port > 65535) {
    return Status::InvalidArgument("--port must be in [0, 65535]");
  }
  if (c.workers < 1) {
    return Status::InvalidArgument("--workers must be >= 1");
  }
  if (c.max_contexts < 1) {
    return Status::InvalidArgument("--max_contexts must be >= 1");
  }
  if (c.store_budget_mb < 0) {
    return Status::InvalidArgument("--store_budget_mb must be >= 0");
  }
  OIPA_RETURN_IF_ERROR(ParseBoundVariant(c.bound, &c.variant));
  StatusOr<StoppingRuleKind> stopping = ParseStoppingRule(c.stopping);
  if (!stopping.ok()) return stopping.status();
  c.stopping_rule = *stopping;

  if (c.command != "serve") {
    // One request model: local runs solve the parsed line, and --server
    // sends it, so whatever the wire refuses exits 2 before any stage.
    c.wire_line = WirePlanRequestLine(c);
    StatusOr<serve::WireRequest> request =
        serve::ParseWireRequest(c.wire_line);
    if (!request.ok()) {
      return Status::InvalidArgument("invalid request: " +
                                     request.status().message());
    }
    c.request = *std::move(request);
  }

  *config = std::move(c);
  return Status::Ok();
}

std::string UsageString() {
  std::ostringstream os;
  os << "usage: oipa_cli <command> [--flag=value ...]\n"
     << "\n"
     << "commands:\n"
     << "  generate   build a dataset and report its shape\n"
     << "  learn      + simulate an action log and learn TIC probabilities\n"
     << "  plan       + sample MRR sets and solve OIPA with BAB/BAB-P\n"
     << "  simulate   + validate the plan with forward Monte-Carlo\n"
     << "  bench      plan across a budget sweep (--k=10,20,50)\n"
     << "  serve      run the planning daemon (newline-delimited JSON\n"
     << "             over TCP; see README.md \"Serving\")\n"
     << "\n"
     << "flags (defaults in parentheses):\n"
     << "  --dataset=synthetic|lastfm|dblp|tweet  (synthetic)\n"
     << "  --n=<vertices>           synthetic graph size (2000)\n"
     << "  --topics=<count>         synthetic topic count (10)\n"
     << "  --scale=<frac>           dblp/tweet scale (0.01)\n"
     << "  --method=<solver|list>   registered solver name; 'list' prints\n"
     << "                           the registry (bab-p; bab when\n"
     << "                           --progressive=false)\n"
     << "  --k=<budget[,budget..]>  assignment budget; list for bench (10)\n"
     << "  --ell=<pieces>           campaign pieces L (3)\n"
     << "  --theta=<samples>        MRR samples (20000); the starting\n"
     << "                           size under --sampling_epsilon\n"
     << "  --epsilon=<0..1>         BAB-P threshold decay (0.5)\n"
     << "  --sampling_epsilon=<0..1> progressive (ε)-stopping: grow the\n"
     << "                           samples and re-solve until in-sample\n"
     << "                           and holdout utilities agree within\n"
     << "                           this relative gap (0 = off)\n"
     << "  --max_theta=<samples>    growth cap for --sampling_epsilon\n"
     << "                           (2000000)\n"
     << "  --stopping=holdout|opim  progressive stopping rule: holdout\n"
     << "                           gap agreement, or OPIM-style bound\n"
     << "                           pair certifying a (1-1/e-eps) ratio\n"
     << "                           (holdout)\n"
     << "  --share_samples=<bool>   resolve MRR samples through the\n"
     << "                           process-wide shared store registry\n"
     << "                           (true)\n"
     << "  --gap=<frac>             termination gap (0.01)\n"
     << "  --alpha --beta           logistic adoption model (2.0, 1.0)\n"
     << "  --bound=zero|paper       tangent-bound variant (zero)\n"
     << "  --progressive=<bool>     BAB-P vs plain BAB (true)\n"
     << "  --learn                  plan on TIC-learned probabilities\n"
     << "                           (local only: not with --server)\n"
     << "  --cascades=<count>       action-log cascades for --learn (1000)\n"
     << "  --trials=<count>         simulate Monte-Carlo trials (2000)\n"
     << "  --threads=<count>        solver worker threads; 0 = auto via\n"
     << "                           hardware/OIPA_THREADS; absent = one\n"
     << "                           deterministic search worker\n"
     << "  --deadline_ms=<ms>       wall-clock budget for the solve; an\n"
     << "                           expired deadline cancels at the next\n"
     << "                           progress poll with partial telemetry\n"
     << "                           (0 = none)\n"
     << "  --server=<host:port>     plan only: send the request to a\n"
     << "                           running oipa_serve daemon instead of\n"
     << "                           solving locally\n"
     << "  --retries=<count>        --server only: extra attempts on\n"
     << "                           transport errors or overload\n"
     << "                           rejections, with jittered back-off\n"
     << "                           honoring retry_after_ms (2)\n"
     << "  --timeout_ms=<ms>        --server only: per-read response\n"
     << "                           budget; a dead daemon errors instead\n"
     << "                           of hanging (120000)\n"
     << "  --seed=<u64>             master RNG seed (1)\n"
     << "  --indent=<n>             JSON indent; negative = compact (2)\n"
     << "  --output=<path>          also write the JSON result to a file\n"
     << "\n"
     << "serve flags:\n"
     << "  --host=<addr> --port=<p> bind address (127.0.0.1:0; port 0\n"
     << "                           picks a free port, printed on stdout)\n"
     << "  --workers=<count>        solver worker threads (2)\n"
     << "  --max_contexts=<count>   planning contexts kept hot (8)\n"
     << "  --store_budget_mb=<mb>   sample-store retention budget; 0\n"
     << "                           retains nothing (0)\n";
  return os.str();
}

int RunCommand(const CliConfig& config, std::ostream& out,
               std::ostream& err) {
  if (config.command == "serve") return RunServe(config, out, err);
  if (config.command == "plan" && !config.server.empty()) {
    return RunRemotePlan(config, out, err);
  }
  if (config.threads > 0) SetNumThreads(config.threads);
  return RunPipeline(config, out, err);
}

int RunCli(int argc, char** argv, std::ostream& out, std::ostream& err) {
  const FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    out << UsageString();
    return 0;
  }
  if (flags.GetString("method", "") == "list") {
    out << SolverRegistry::Global().DescribeAll();
    return 0;
  }
  CliConfig config;
  const Status status = ParseCliConfig(flags, &config);
  if (!status.ok()) {
    err << "oipa_cli: " << status.ToString() << "\n\n" << UsageString();
    return 2;
  }
  return RunCommand(config, out, err);
}

}  // namespace cli
}  // namespace oipa
