#ifndef OIPA_CLI_CLI_H_
#define OIPA_CLI_CLI_H_

#include <iosfwd>
#include <string>

#include "serve/server.h"
#include "serve/wire.h"
#include "util/flags.h"
#include "util/status.h"

namespace oipa {
namespace cli {

/// Fully-resolved configuration of one oipa_cli invocation.
///
/// Every command but `serve` writes its dataset, sampling and plan flags
/// straight into one wire request (`wire_line`, the oipa_serve protocol
/// of serve/wire.h) and keeps what serve::ParseWireRequest makes of it
/// (`request`): the wire parser is the only reader and validator of
/// those values, and the fields below hold only what the wire does not
/// carry. Local plan|simulate|bench runs build and solve that request
/// with the daemon's own functions, and `plan --server` sends the same
/// line, so --server switches only the transport. Defaults reproduce
/// examples/quickstart.cpp with JSON output.
struct CliConfig {
  /// generate | learn | plan | simulate | bench | serve.
  std::string command;

  /// If true, `plan`/`simulate`/`bench` optimize on TIC-learned
  /// probabilities (generate log -> EM) instead of the ground truth.
  /// Local-only: the wire has no field for learned probabilities.
  bool learn = false;
  /// Item cascades simulated into the action log.
  int cascades = 1000;
  /// TIC EM credit-attribution iterations.
  int em_iterations = 5;
  /// --progressive: picks bab-p (true) or bab when --method is absent.
  bool progressive = true;
  /// Forward Monte-Carlo trials for `simulate`.
  int trials = 2000;

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
  int timeout_ms = 120'000;
  /// `serve` only: the daemon flags, read by serve::ParseServerFlags as
  /// oipa_serve reads them.
  serve::ServerOptions daemon;

  /// Pretty-print indent for the JSON result (<0 = compact).
  int indent = 2;
  /// Also write the JSON result to this file (empty = stdout only).
  std::string output;

  /// The dataset, sampling and plan flags as one compact wire request
  /// line; empty for `serve`.
  std::string wire_line;
  /// `wire_line` parsed by serve::ParseWireRequest.
  serve::WireRequest request;
};

/// Parses and validates flags into `config`. The subcommand itself comes
/// from the first positional argument and is validated here too. A flag
/// that is not a number of its kind ("1e5" for an integer), a value the
/// wire request refuses, or a flag the command does not know is
/// InvalidArgument naming the flag.
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
