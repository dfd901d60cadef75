// oipa_serve: the OIPA planning daemon. See src/serve/server.h for the
// execution model, wire.h for the protocol and launcher.h for the flags
// (`oipa_serve --help` lists them); README.md "Serving" walks through a
// session. A flag it cannot read exits 2; SIGINT/SIGTERM drain in-flight
// solves before exiting.

#include <iostream>

#include "serve/launcher.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  const oipa::FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::cout << "usage: oipa_serve [--flag=value ...]\n"
              << oipa::serve::kServerFlagsUsage
              << "Newline-delimited JSON planning daemon; see README.md "
                 "\"Serving\" for the protocol and \"Robustness\" for "
                 "overload, fault-injection, and checkpoint behavior.\n";
    return 0;
  }
  oipa::serve::ServerOptions options;
  if (const oipa::Status status =
          oipa::serve::ParseServerFlags(flags, &options);
      !status.ok()) {
    std::cerr << "oipa_serve: " << status.ToString() << "\n";
    return 2;
  }
  return oipa::serve::RunDaemon(options, std::cout, std::cerr);
}
