#include "serve/launcher.h"

#include <csignal>
#include <cstdint>
#include <limits>
#include <ostream>

#include "util/fault_injector.h"

namespace oipa {
namespace serve {
namespace {

// Signal handlers may only call the async-signal-safe
// PlanServer::RequestShutdown; the pointer is published before the
// handlers are installed and cleared after they are restored.
PlanServer* g_server = nullptr;

extern "C" void HandleSignal(int /*signum*/) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

}  // namespace

const char kServerFlagsUsage[] =
    "  --host=<addr> --port=<p> bind address (127.0.0.1:0; port 0\n"
    "                           picks a free port, printed on stdout)\n"
    "  --workers=<count>        solver worker threads (2)\n"
    "  --max_contexts=<count>   planning contexts cached, LRU (8)\n"
    "  --store_budget_mb=<mb>   bytes of sample stores the context\n"
    "                           cache keeps past their last cached\n"
    "                           context; 0 keeps none (0)\n"
    "  --max_queue_depth=<n>    queued requests before overload\n"
    "                           rejections (256)\n"
    "  --max_inflight_per_conn=<n> requests one connection may have\n"
    "                           queued or solving (32)\n"
    "  --write_timeout_ms=<ms>  response-write timeout (5000)\n"
    "  --checkpoint_dir=<path>  checkpoint and recover sample stores\n"
    "                           here (empty = off)\n"
    "  --checkpoint_interval_ms=<ms> checkpoint period (30000)\n";

Status ParseServerFlags(const FlagParser& flags, ServerOptions* options) {
  ServerOptions& o = *options;
  o.host = flags.GetString("host", o.host);
  OIPA_RETURN_IF_ERROR(flags.ReadInt("port", &o.port));
  OIPA_RETURN_IF_ERROR(flags.ReadInt("workers", &o.workers));
  OIPA_RETURN_IF_ERROR(flags.ReadInt("max_contexts", &o.max_contexts));
  // Bounded so that the conversion to bytes cannot overflow.
  int64_t store_budget_mb = o.store_budget_bytes >> 20;
  OIPA_RETURN_IF_ERROR(
      flags.ReadInt("store_budget_mb", &store_budget_mb, 0,
                    std::numeric_limits<int64_t>::max() >> 20));
  o.store_budget_bytes = store_budget_mb << 20;
  OIPA_RETURN_IF_ERROR(flags.ReadInt("max_queue_depth", &o.max_queue_depth));
  OIPA_RETURN_IF_ERROR(
      flags.ReadInt("max_inflight_per_conn", &o.max_inflight_per_conn));
  OIPA_RETURN_IF_ERROR(
      flags.ReadInt("write_timeout_ms", &o.write_timeout_ms));
  o.checkpoint_dir = flags.GetString("checkpoint_dir", o.checkpoint_dir);
  OIPA_RETURN_IF_ERROR(
      flags.ReadInt("checkpoint_interval_ms", &o.checkpoint_interval_ms));
  OIPA_RETURN_IF_ERROR(flags.RefuseUnknown());
  return ValidateServerOptions(o);
}

int RunDaemon(const ServerOptions& options, std::ostream& out,
              std::ostream& err) {
  // Chaos testing: arm fault injection before any sockets or stores
  // exist. A bad spec is a startup error.
  if (const Status faults = FaultInjector::ConfigureFromEnv(); !faults.ok()) {
    err << "oipa_serve: " << faults.ToString() << "\n";
    return 1;
  }
  PlanServer server(options);
  if (const Status started = server.Start(); !started.ok()) {
    err << "oipa_serve: " << started.ToString() << "\n";
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  out << "oipa_serve listening on " << options.host << ":" << server.port()
      << std::endl;

  server.Wait();
  err << "oipa_serve: draining...\n";
  server.Stop();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_server = nullptr;
  err << "oipa_serve: stopped\n";
  return 0;
}

}  // namespace serve
}  // namespace oipa
