#ifndef OIPA_SERVE_LAUNCHER_H_
#define OIPA_SERVE_LAUNCHER_H_

#include <iosfwd>

#include "serve/server.h"
#include "util/flags.h"
#include "util/status.h"

namespace oipa {
namespace serve {

/// The daemon's flags and defaults, one per line, as `oipa_serve --help`
/// and `oipa_cli --help` print them.
extern const char kServerFlagsUsage[];

/// Reads the daemon flags of kServerFlagsUsage into `options`; absent
/// flags keep its values. InvalidArgument naming the flag for malformed
/// text, a value outside its field's type, or a flag that no reader of
/// `flags` knows, then ValidateServerOptions' verdict, so oipa_serve and
/// `oipa_cli serve` refuse the same command lines. On error `options`
/// may be partly written.
Status ParseServerFlags(const FlagParser& flags, ServerOptions* options);

/// Runs a PlanServer until SIGINT/SIGTERM, for both oipa_serve and
/// `oipa_cli serve`. Arms fault injection from $OIPA_FAULTS (see
/// util/fault_injector.h), starts the server, prints "oipa_serve
/// listening on <host>:<port>" to `out` (scripts scrape the port from
/// it), then on a signal drains the queued solves and stops. Returns the
/// process exit code: 0 after a drain, 1 when the server cannot start.
int RunDaemon(const ServerOptions& options, std::ostream& out,
              std::ostream& err);

}  // namespace serve
}  // namespace oipa

#endif  // OIPA_SERVE_LAUNCHER_H_
