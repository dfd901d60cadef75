#include "cli/cli.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "cli/json_writer.h"
#include "learn/action_log.h"
#include "learn/tic_learner.h"
#include "oipa/adoption.h"
#include "oipa/api/plan_request.h"
#include "oipa/api/planning_context.h"
#include "oipa/api/solver_registry.h"
#include "oipa/branch_and_bound.h"
#include "serve/client.h"
#include "serve/json_parser.h"
#include "serve/launcher.h"
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
/// config: --threads absent = the wire's one deterministic search
/// worker, --threads=0 = auto-detect, --threads=N = exactly N.
int ResolvedSolverThreads(const serve::WireRequest& r) {
  // The solver clamps plan.threads 0's auto-detection to its worker cap.
  if (r.plan.threads == 0) return std::min(GetNumThreads(), kMaxBabWorkers);
  return r.plan.threads;
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
  const ActionLog log = GenerateActionLog(graph, truth, c.cascades, 5,
                                          c.request.dataset.seed + 3);
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
  err << "[oipa_cli] sampling " << c.request.sampling.theta
      << " MRR sets over " << d.ell << " pieces...\n";
  ContextOptions options = serve::ToContextOptions(c.request);
  options.pool = p->dataset.promoter_pool;
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
  const serve::DatasetSpec& d = c.request.dataset;
  err << "[oipa_cli] validating with " << c.trials
      << " forward simulations...\n";
  const LogisticAdoptionModel model(d.alpha, d.beta);
  WallTimer timer;
  double utility = 0.0;
  if (p.learned) {
    const auto truth_pieces =
        BuildPieceGraphs(*p.dataset.graph, *p.dataset.probs, p.campaign);
    utility = SimulateAdoptionUtility(truth_pieces, model, plan, c.trials,
                                      d.seed + 6);
  } else {
    utility = p.context->SimulateUtility(plan, c.trials, d.seed + 6);
  }
  JsonValue j = JsonValue::Object();
  j.Set("trials", c.trials)
      .Set("utility", utility)
      .Set("seconds", timer.Seconds());
  return j;
}

/// Sample-store telemetry, the daemon's serve.store block, plus the
/// context build's wall-clock.
JsonValue SampleStoreJson(const Pipeline& p) {
  JsonValue j = serve::StoreJson(p.context->sample_store().GetStats());
  j.Set("seconds", p.sample_seconds);
  return j;
}

JsonValue ConfigJson(const CliConfig& c) {
  const serve::WireRequest& r = c.request;
  JsonValue j = JsonValue::Object();
  j.Set("dataset", r.dataset.name)
      .Set("method", r.plan.method)
      .Set("k", r.plan.budgets.front())
      .Set("ell", r.dataset.ell)
      .Set("theta", r.sampling.theta)
      .Set("epsilon", r.plan.epsilon)
      .Set("sampling_epsilon", r.sampling.epsilon)
      .Set("max_theta", r.sampling.max_theta)
      .Set("gap", r.plan.gap)
      .Set("alpha", r.dataset.alpha)
      .Set("beta", r.dataset.beta)
      .Set("bound", r.plan.bound)
      .Set("progressive", c.progressive)
      .Set("stopping", r.sampling.stopping)
      .Set("learn", c.learn)
      .Set("threads", ResolvedSolverThreads(r))
      // The worker count sample generation actually ran with (plumbed
      // through ContextOptions::sampling_threads). It can legitimately
      // differ from "threads": a default run samples on every core but
      // solves sequentially.
      .Set("sampling_threads", ResolveThreadCount(r.sampling.threads))
      .Set("seed", static_cast<int64_t>(r.dataset.seed));
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

  err << "[oipa_cli] building dataset '" << c.request.dataset.name
      << "'...\n";
  WallTimer timer;
  p.dataset =
      serve::BuildDataset(c.request.dataset, c.request.sampling.threads);
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
  err << "[oipa_cli] solving OIPA (method=" << c.request.plan.method << ", "
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

/// Splits --server's "host:port"; "localhost" means 127.0.0.1.
Status SplitHostPort(const std::string& server, std::string* host,
                     int* port) {
  const size_t colon = server.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    return Status::InvalidArgument("--server expects host:port, got '" +
                                   server + "'");
  }
  const char* end = server.data() + server.size();
  const auto [ptr, ec] = std::from_chars(server.data() + colon + 1, end, *port);
  if (ec != std::errc() || ptr != end || *port < 1 || *port > 65535) {
    return Status::InvalidArgument("--server port '" +
                                   server.substr(colon + 1) +
                                   "' is not in [1, 65535]");
  }
  *host = server.substr(0, colon);
  if (*host == "localhost") *host = "127.0.0.1";
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
  client_options.read_timeout_ms = c.timeout_ms;
  // Determinism contract: the retry schedule derives from --seed.
  client_options.jitter_seed = c.request.plan.seed;
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
  if (const int code = EmitResult(c, *parsed, out, err); code != 0) {
    return code;
  }
  const JsonValue* ok = parsed->Find("ok");
  return ok != nullptr && ok->is_bool() && ok->bool_value() ? 0 : 1;
}

// --------------------------------------------------------------- parsing

/// How a flag becomes the value of one wire field.
enum class FlagKind {
  kString,
  kInt,
  kDouble,
  /// --seed + 5, the samples' stream. Each stage draws from its own
  /// stream: the dataset and the plan from --seed, the campaign from
  /// --seed + 4 (serve::BuildCampaign). Seeds are 64-bit patterns, as on
  /// the wire: -1 is 2^64 - 1.
  kSampleSeed,
  /// --threads, when > 0: pins sampling to N workers too (absent or 0
  /// keeps the auto path; samples are bit-identical at any width).
  kSampleThreads,
  /// --k, a budget list (a sweep for bench).
  kBudgets,
  /// --method, else bab-p or bab by --progressive.
  kMethod,
};

/// One wire field and the flag that sets it.
struct WireFlag {
  const char* flag;
  const char* section;
  const char* key;
  FlagKind kind;
  /// Written when the flag is absent: the wire's own default, so the
  /// line names every field. nullptr leaves the field out.
  const char* fallback;
};

/// Every wire field a flag sets, in the order of the line. The wire
/// parser, not this table, checks the values.
constexpr WireFlag kWireFlags[] = {
    {"dataset", "dataset", "name", FlagKind::kString, "synthetic"},
    {"n", "dataset", "n", FlagKind::kInt, "2000"},
    {"topics", "dataset", "topics", FlagKind::kInt, "10"},
    {"scale", "dataset", "scale", FlagKind::kDouble, "0.01"},
    {"pool_fraction", "dataset", "pool_fraction", FlagKind::kDouble, "0.1"},
    {"seed", "dataset", "seed", FlagKind::kInt, "1"},
    {"ell", "dataset", "ell", FlagKind::kInt, "3"},
    {"alpha", "dataset", "alpha", FlagKind::kDouble, "2"},
    {"beta", "dataset", "beta", FlagKind::kDouble, "1"},
    {"theta", "sampling", "theta", FlagKind::kInt, "20000"},
    {"seed", "sampling", "seed", FlagKind::kSampleSeed, "1"},
    {"sampling_epsilon", "sampling", "epsilon", FlagKind::kDouble, "0"},
    {"max_theta", "sampling", "max_theta", FlagKind::kInt, "2000000"},
    {"stopping", "sampling", "stopping", FlagKind::kString, "holdout"},
    {"threads", "sampling", "threads", FlagKind::kSampleThreads, nullptr},
    {"method", "plan", "method", FlagKind::kMethod, ""},
    {"k", "plan", "budgets", FlagKind::kBudgets, "10"},
    {"gap", "plan", "gap", FlagKind::kDouble, "0.01"},
    {"epsilon", "plan", "epsilon", FlagKind::kDouble, "0.5"},
    {"bound", "plan", "bound", FlagKind::kString, "zero"},
    {"max_nodes", "plan", "max_nodes", FlagKind::kInt, "100000"},
    {"threads", "plan", "threads", FlagKind::kInt, nullptr},
    {"deadline_ms", "plan", "deadline_ms", FlagKind::kInt, nullptr},
    {"seed", "plan", "seed", FlagKind::kInt, "1"},
};

/// Sets `f`'s field of `section` from its flag, or from its fallback.
Status WriteWireFlag(const FlagParser& flags, const WireFlag& f,
                     JsonValue* section) {
  if (f.fallback == nullptr && !flags.Has(f.flag)) return Status::Ok();
  const char* fallback = f.fallback == nullptr ? "0" : f.fallback;
  switch (f.kind) {
    case FlagKind::kString:
      section->Set(f.key, flags.GetString(f.flag, fallback));
      break;
    case FlagKind::kInt: {
      int64_t value = std::strtoll(fallback, nullptr, 10);
      OIPA_RETURN_IF_ERROR(flags.ReadInt(f.flag, &value));
      section->Set(f.key, value);
      break;
    }
    case FlagKind::kDouble: {
      double value = std::strtod(fallback, nullptr);
      OIPA_RETURN_IF_ERROR(flags.ReadDouble(f.flag, &value));
      section->Set(f.key, value);
      break;
    }
    case FlagKind::kSampleSeed: {
      int64_t seed = std::strtoll(fallback, nullptr, 10);
      OIPA_RETURN_IF_ERROR(flags.ReadInt(f.flag, &seed));
      section->Set(f.key,
                   static_cast<int64_t>(static_cast<uint64_t>(seed) + 5));
      break;
    }
    case FlagKind::kSampleThreads: {
      int64_t threads = 0;
      OIPA_RETURN_IF_ERROR(flags.ReadInt(f.flag, &threads));
      if (threads > 0) section->Set(f.key, threads);
      break;
    }
    case FlagKind::kBudgets: {
      std::vector<int64_t> budgets = {std::strtoll(fallback, nullptr, 10)};
      OIPA_RETURN_IF_ERROR(flags.ReadIntList(f.flag, &budgets));
      JsonValue list = JsonValue::Array();
      for (const int64_t k : budgets) list.Append(k);
      section->Set(f.key, std::move(list));
      break;
    }
    case FlagKind::kMethod: {
      std::string method = flags.GetString(f.flag, fallback);
      // Back-compat: --progressive picked between the two paper solvers
      // before --method existed.
      if (method.empty()) {
        method = flags.GetBool("progressive", true) ? "bab-p" : "bab";
      }
      section->Set(f.key, method);
      break;
    }
  }
  return Status::Ok();
}

/// A message of serve::ParseWireRequest with each wire field it names
/// ("dataset.topics") replaced by the flag that sets it ("--topics").
/// "dataset.name" precedes "dataset.n" in kWireFlags, so it is replaced
/// first.
std::string NameFlags(std::string message) {
  for (const WireFlag& f : kWireFlags) {
    const std::string path = std::string(f.section) + "." + f.key;
    for (size_t at; (at = message.find(path)) != std::string::npos;) {
      message.replace(at, path.size(), std::string("--") + f.flag);
    }
  }
  return message;
}

}  // namespace

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
  if (c.command == "serve") {
    OIPA_RETURN_IF_ERROR(serve::ParseServerFlags(flags, &c.daemon));
    *config = std::move(c);
    return Status::Ok();
  }

  c.learn = flags.GetBool("learn", c.learn);
  OIPA_RETURN_IF_ERROR(flags.ReadInt("cascades", &c.cascades));
  OIPA_RETURN_IF_ERROR(flags.ReadInt("em_iterations", &c.em_iterations));
  c.progressive = flags.GetBool("progressive", c.progressive);
  OIPA_RETURN_IF_ERROR(flags.ReadInt("trials", &c.trials, 1));
  c.server = flags.GetString("server", c.server);
  OIPA_RETURN_IF_ERROR(flags.ReadInt("retries", &c.retries, 0));
  OIPA_RETURN_IF_ERROR(flags.ReadInt("timeout_ms", &c.timeout_ms, 1));
  OIPA_RETURN_IF_ERROR(flags.ReadInt("indent", &c.indent));
  c.output = flags.GetString("output", c.output);

  // One request model: local runs solve the parsed line, and --server
  // sends it, so whatever the wire refuses exits 2 before any stage.
  JsonValue line = JsonValue::Object();
  line.Set("id", "oipa_cli");
  for (const char* name : {"dataset", "sampling", "plan"}) {
    JsonValue section = JsonValue::Object();
    for (const WireFlag& f : kWireFlags) {
      if (std::string_view(f.section) != name) continue;
      OIPA_RETURN_IF_ERROR(WriteWireFlag(flags, f, &section));
    }
    line.Set(name, std::move(section));
  }
  OIPA_RETURN_IF_ERROR(flags.RefuseUnknown());
  c.wire_line = line.Dump(-1);
  StatusOr<serve::WireRequest> request = serve::ParseWireRequest(c.wire_line);
  if (!request.ok()) {
    return Status(request.status().code(),
                  NameFlags(request.status().message()));
  }
  c.request = *std::move(request);

  if (!SolverRegistry::Global().Contains(c.request.plan.method)) {
    // Find() composes the "unknown solver ... (registered: ...)" message.
    return SolverRegistry::Global().Find(c.request.plan.method).status();
  }
  if (c.command != "bench" && c.request.plan.budgets.size() > 1) {
    return Status::InvalidArgument(
        "--k accepts a list only with the bench subcommand");
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
     << "  --seed=<n>               master RNG seed, a 64-bit pattern\n"
     << "                           (-1 = 2^64 - 1) (1)\n"
     << "  --indent=<n>             JSON indent; negative = compact (2)\n"
     << "  --output=<path>          also write the JSON result to a file\n"
     << "\n"
     << "serve flags (as oipa_serve reads them):\n"
     << serve::kServerFlagsUsage;
  return os.str();
}

int RunCommand(const CliConfig& config, std::ostream& out,
               std::ostream& err) {
  if (config.command == "serve") {
    return serve::RunDaemon(config.daemon, out, err);
  }
  if (config.command == "plan" && !config.server.empty()) {
    return RunRemotePlan(config, out, err);
  }
  const int threads = config.request.sampling.threads;
  if (threads > 0) SetNumThreads(threads);
  return RunPipeline(config, out, err);
}

int RunCli(int argc, char** argv, std::ostream& out, std::ostream& err) {
  const FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    out << UsageString();
    return 0;
  }
  // `serve` reads the daemon's flags only, so --method is not one.
  const bool serve =
      !flags.positional().empty() && flags.positional().front() == "serve";
  if (!serve && flags.GetString("method", "") == "list") {
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
