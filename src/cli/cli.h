#ifndef OIPA_CLI_CLI_H_
#define OIPA_CLI_CLI_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "oipa/tangent_bound.h"
#include "rrset/sample_store.h"
#include "serve/wire.h"
#include "util/flags.h"
#include "util/status.h"

namespace oipa {
namespace cli {

/// Fully-resolved configuration of one oipa_cli invocation. Every field
/// up to `request` maps to a --flag (see UsageString()); defaults mirror
/// examples/quickstart.cpp so `oipa_cli plan` out of the box reproduces
/// the quickstart scenario with JSON output.
///
/// Every command but `serve` also renders its dataset, sampling and plan
/// flags as one wire request (`wire_line`, the oipa_serve protocol of
/// serve/wire.h) and keeps what serve::ParseWireRequest makes of it
/// (`request`). Local plan|simulate|bench runs build and solve that
/// request with the daemon's own functions, and `plan --server` sends
/// the same line, so --server switches only the transport.
struct CliConfig {
  /// generate | learn | plan | simulate | bench | serve.
  std::string command;

  // ------------------------------------------------------ dataset stage
  /// synthetic | lastfm | dblp | tweet.
  std::string dataset = "synthetic";
  /// Vertices of the synthetic graph (ignored for named datasets).
  int64_t n = 2000;
  /// Topics of the synthetic probability model.
  int num_topics = 10;
  /// Scale of the dblp/tweet datasets (fraction of paper-size vertices).
  double scale = 0.01;
  /// Fraction of users eligible as promoters (synthetic dataset).
  double pool_fraction = 0.1;

  // ------------------------------------------------------ learning stage
  /// If true, `plan`/`simulate`/`bench` optimize on TIC-learned
  /// probabilities (generate log -> EM) instead of the ground truth.
  /// Local-only: the wire has no field for learned probabilities.
  bool learn = false;
  /// Item cascades simulated into the action log.
  int cascades = 1000;
  /// TIC EM credit-attribution iterations.
  int em_iterations = 5;

  // ------------------------------------------------------ planning stage
  /// Registered solver name (see SolverRegistry::Global().Names());
  /// resolved from --progressive when --method is not given. The special
  /// value "list" makes oipa_cli print the registry and exit.
  std::string method;
  /// Total assignment budget k.
  int k = 10;
  /// Campaign pieces L (the paper's l).
  int ell = 3;
  /// MRR samples (the starting theta under --sampling_epsilon).
  int64_t theta = 20'000;
  /// BAB-P threshold decay epsilon.
  double epsilon = 0.5;
  /// Progressive (ε)-stopping tolerance: > 0 enables a holdout
  /// collection and grows the sample store (doubling from --theta, up to
  /// --max_theta) until the solved plan's in-sample and holdout
  /// estimates agree within this relative gap. 0 = one-shot solve.
  double sampling_epsilon = 0.0;
  /// Growth cap for --sampling_epsilon.
  int64_t max_theta = 2'000'000;
  /// holdout (in-sample/holdout gap) | opim (certified bound ratio):
  /// which rule ends the progressive loop under --sampling_epsilon.
  std::string stopping = "holdout";
  StoppingRuleKind stopping_rule = StoppingRuleKind::kHoldoutGap;
  /// Resolve the MRR sample store through the process-wide registry so
  /// runs sharing a sampling configuration share one sampling pass
  /// (--share_samples=false forces a private store). Local-only.
  bool share_samples = true;
  /// Relative termination gap.
  double gap = 0.01;
  /// Logistic adoption parameters.
  double alpha = 2.0;
  double beta = 1.0;
  /// zero (kZeroAnchored) | paper (kPaperTangent).
  std::string bound = "zero";
  BoundVariant variant = BoundVariant::kZeroAnchored;
  /// BAB-P (true) vs plain BAB (false).
  bool progressive = true;
  /// Node-expansion safety cap.
  int64_t max_nodes = 100'000;
  /// Wall-clock budget for the solve (0 = none): an expired deadline
  /// cancels at the solver's next progress poll and the JSON result
  /// carries cancelled/deadline_exceeded plus partial telemetry.
  int64_t deadline_ms = 0;

  // ------------------------------------------------------ serving
  /// `plan` only: "host:port" of a running oipa_serve daemon. When set,
  /// `wire_line` is sent to the daemon (sharing its context cache) and
  /// the response JSON is printed instead of solving in-process.
  std::string server;
  /// `plan --server` resilience: extra attempts after the first on
  /// transport errors and overload rejections (exponential back-off
  /// with seeded jitter, honoring the daemon's retry_after_ms hint).
  int retries = 2;
  /// `plan --server` per-recv() read budget; a dead daemon surfaces as
  /// a DeadlineExceeded error instead of a hang.
  int64_t timeout_ms = 120'000;
  /// `serve` subcommand: bind address, worker pool, and cache budgets
  /// (mirrors the standalone oipa_serve binary's flags).
  std::string host = "127.0.0.1";
  int port = 0;
  int workers = 2;
  int max_contexts = 8;
  int64_t store_budget_mb = 0;

  // ------------------------------------------------------ validation
  /// Forward Monte-Carlo trials for `simulate`.
  int trials = 2000;

  // ------------------------------------------------------ bench sweep
  /// Budgets swept by `bench` (--k=10,20,50); falls back to {k}.
  std::vector<int64_t> k_sweep;

  // ------------------------------------------------------ runtime
  /// Worker threads. -1 (flag absent) keeps the pre-flag behavior:
  /// auto-parallel MRR sampling but one deterministic search worker,
  /// so default runs reproduce bit-for-bit per --seed. --threads=0 =
  /// full auto (hardware concurrency / OIPA_THREADS, parallel solver);
  /// N = exactly N solver workers (N > 1: utility within --gap of one
  /// worker's, plan may differ between runs).
  int threads = -1;
  uint64_t seed = 1;
  /// Pretty-print indent for the JSON result (<0 = compact).
  int indent = 2;
  /// Also write the JSON result to this file (empty = stdout only).
  std::string output;

  // ------------------------------------------------------ request
  /// The dataset, sampling and plan flags as one compact wire request
  /// line; empty for `serve`.
  std::string wire_line;
  /// `wire_line` parsed by serve::ParseWireRequest.
  serve::WireRequest request;
};

/// Maps a bound name ("zero" | "paper") to its BoundVariant.
Status ParseBoundVariant(const std::string& name, BoundVariant* out);

/// Parses and validates flags into `config`. The subcommand itself comes
/// from the first positional argument and is validated here too. The
/// last step renders and parses the wire request; a value the wire
/// refuses is InvalidArgument, like a bad flag.
Status ParseCliConfig(const FlagParser& flags, CliConfig* config);

/// One-screen usage text.
std::string UsageString();

/// Dispatches a parsed config. JSON results go to `out`; progress and
/// errors go to `err`. Returns a process exit code (0 = success).
int RunCommand(const CliConfig& config, std::ostream& out,
               std::ostream& err);

/// Full entry point used by main(): parse argv, dispatch, report errors.
int RunCli(int argc, char** argv, std::ostream& out, std::ostream& err);

}  // namespace cli
}  // namespace oipa

#endif  // OIPA_CLI_CLI_H_
