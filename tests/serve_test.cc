// oipa_serve end-to-end tests: real TCP sockets against a PlanServer
// in-process. Covers the wire protocol (parse errors -> structured
// responses, never aborts), context caching, request batching,
// deadlines, graceful drain, and the SampleStore registry budget. Runs
// in the TSan CI leg — the concurrent-clients test is the data-race
// probe for the whole serve subsystem.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "oipa/api/solver.h"
#include "oipa/api/solver_registry.h"
#include "rrset/sample_store.h"
#include "serve/client.h"
#include "serve/json_parser.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/fault_injector.h"
#include "util/threading.h"

namespace oipa {
namespace serve {
namespace {

// ------------------------------------------------------- JSON parser

TEST(JsonParserTest, ParsesScalarsEscapesAndNesting) {
  const StatusOr<JsonValue> v = ParseJson(
      R"({"s":"a\"b\nA","i":-42,"d":2.5,"b":true,"z":null,)"
      R"("arr":[1,[2]],"obj":{"k":"v"}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->Find("s")->string_value(), "a\"b\nA");
  EXPECT_EQ(v->Find("i")->int_value(), -42);
  EXPECT_EQ(v->Find("d")->double_value(), 2.5);
  EXPECT_TRUE(v->Find("b")->bool_value());
  EXPECT_TRUE(v->Find("z")->is_null());
  EXPECT_EQ(v->Find("arr")->at(1).at(0).int_value(), 2);
  EXPECT_EQ(v->Find("obj")->Find("k")->string_value(), "v");
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParserTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
        "{\"a\":1} trailing", "01", "- 1", "nan", "{\"a\" 1}"}) {
    const StatusOr<JsonValue> v = ParseJson(bad);
    EXPECT_FALSE(v.ok()) << bad;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(JsonParserTest, RejectsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  const StatusOr<JsonValue> v = ParseJson(deep);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("nesting"), std::string::npos);
}

TEST(JsonParserTest, RoundTripsThroughJsonValueDump) {
  const std::string text =
      R"({"a":[1,2.5,"x"],"b":{"c":false},"d":null})";
  const StatusOr<JsonValue> v = ParseJson(text);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Dump(-1), text);
}

// ------------------------------------------------------ wire parsing

TEST(WireTest, DefaultsAndMergeKeys) {
  const StatusOr<WireRequest> minimal = ParseWireRequest(R"({"id":"r"})");
  ASSERT_TRUE(minimal.ok()) << minimal.status().ToString();
  EXPECT_EQ(minimal->id, "r");
  EXPECT_EQ(minimal->plan.method, "bab-p");
  EXPECT_EQ(minimal->plan.budgets, std::vector<int>({10}));
  EXPECT_FALSE(minimal->wants_holdout());

  // Same context, different budgets: merge keys match.
  const auto a = ParseWireRequest(R"({"plan":{"budgets":[4]}})");
  const auto b = ParseWireRequest(R"({"plan":{"budgets":[8]}})");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(MergeKey(*a), MergeKey(*b));
  EXPECT_FALSE(MergeKey(*a).empty());
  EXPECT_EQ(ContextKey(*a), ContextKey(*b));

  // Theta is not part of the context key (prefix sharing)...
  const auto grown = ParseWireRequest(R"({"sampling":{"theta":40000}})");
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(ContextKey(*a), ContextKey(*grown));
  // ...but the sampling seed and the solver profile are.
  const auto seeded = ParseWireRequest(R"({"sampling":{"seed":5}})");
  const auto other_method = ParseWireRequest(R"({"plan":{"method":"im"}})");
  ASSERT_TRUE(seeded.ok() && other_method.ok());
  EXPECT_NE(ContextKey(*a), ContextKey(*seeded));
  EXPECT_NE(MergeKey(*a), MergeKey(*other_method));

  // Deadlines and progressive solving disqualify batching.
  const auto deadline =
      ParseWireRequest(R"({"plan":{"deadline_ms":100}})");
  const auto progressive =
      ParseWireRequest(R"({"sampling":{"epsilon":0.05}})");
  ASSERT_TRUE(deadline.ok() && progressive.ok());
  EXPECT_TRUE(MergeKey(*deadline).empty());
  EXPECT_TRUE(MergeKey(*progressive).empty());
}

TEST(WireTest, RejectsOutOfDomainFields) {
  for (const char* bad : {
           R"({"dataset":{"name":"imdb"}})",
           R"({"dataset":{"n":0}})",
           R"({"dataset":{"name":"synthetic","n":4}})",
           R"({"dataset":{"n":2147483648}})",
           R"({"dataset":{"pool_fraction":0.0}})",
           R"({"sampling":{"theta":0}})",
           R"({"sampling":{"epsilon":-0.1}})",
           R"({"sampling":{"stopping":"never"}})",
           R"({"plan":{"budgets":[]}})",
           R"({"plan":{"budgets":[0]}})",
           R"({"plan":{"budgets":"many"}})",
           R"({"plan":{"deadline_ms":0}})",
           R"({"plan":{"deadline_ms":-5}})",
           R"({"plan":{"threads":-1}})",
           R"({"plan":{"epsilon":0.0}})",
           R"({"plan":{"epsilon":1.5}})",
           R"({"plan":{"bound":"tight"}})",
           R"({"plan":{"max_nodes":0}})",
           R"({"id":7})",
           R"({"type":"stats"})",
           R"([1,2,3])",
       }) {
    const StatusOr<WireRequest> r = ParseWireRequest(bad);
    EXPECT_FALSE(r.ok()) << bad;
  }
}

TEST(WireTest, RejectsNonPositiveAdoptionParameters) {
  // LogisticAdoptionModel aborts on alpha/beta <= 0, so these must be
  // refused at parse time.
  for (const char* bad : {
           R"({"dataset":{"name":"lastfm","alpha":0}})",
           R"({"dataset":{"alpha":-2.5}})",
           R"({"dataset":{"beta":0}})",
           R"({"dataset":{"beta":-1}})",
       }) {
    const StatusOr<WireRequest> r = ParseWireRequest(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_TRUE(ParseWireRequest(R"({"dataset":{"alpha":0.5,"beta":3}})").ok());
}

TEST(WireTest, RejectsIntegersThatDoNotFitTheirField) {
  // 4294967297 = 2^32 + 1 would narrow to 1, and -4294967295 to 1.
  for (const char* bad : {
           R"({"dataset":{"topics":4294967297}})",
           R"({"dataset":{"topics":-4294967295}})",
           R"({"dataset":{"ell":4294967297}})",
           R"({"sampling":{"threads":4294967297}})",
           R"({"sampling":{"threads":1025}})",
           R"({"plan":{"threads":4294967297}})",
           R"({"plan":{"threads":1025}})",
           R"({"plan":{"budgets":[4294967297]}})",
           R"({"plan":{"budgets":[2,2147483648]}})",
       }) {
    const StatusOr<WireRequest> r = ParseWireRequest(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  const StatusOr<WireRequest> widest = ParseWireRequest(
      R"({"sampling":{"threads":1024},"plan":{"threads":1024,)"
      R"("budgets":[2147483647]}})");
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest->sampling.threads, 1024);
  EXPECT_EQ(widest->plan.threads, 1024);
  EXPECT_EQ(widest->plan.budgets, std::vector<int>({2147483647}));
}

// ---------------------------------------------------------- fixture

/// Sends `lines` on one connection, then reads until `expected`
/// response lines arrived (responses come back in request order).
std::vector<std::string> SendLinesAndCollect(
    int port, const std::vector<std::string>& lines, size_t expected,
    int delay_ms_between_lines = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  for (const std::string& line : lines) {
    const std::string framed = line + "\n";
    EXPECT_EQ(::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(framed.size()));
    if (delay_ms_between_lines > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(delay_ms_between_lines));
    }
  }
  std::string buffer;
  std::vector<std::string> responses;
  char chunk[4096];
  while (responses.size() < expected) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t pos = 0;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      responses.push_back(buffer.substr(0, pos));
      buffer.erase(0, pos + 1);
    }
  }
  ::close(fd);
  EXPECT_EQ(responses.size(), expected);
  return responses;
}

JsonValue Parse(const std::string& line) {
  StatusOr<JsonValue> v = ParseJson(line);
  EXPECT_TRUE(v.ok()) << line;
  return v.ok() ? std::move(*v) : JsonValue();
}

/// A small request against a tiny synthetic dataset. `dataset_seed`
/// picks the context; `extra_plan` splices extra fields into "plan".
std::string TinyRequest(const std::string& id, int dataset_seed,
                        const std::string& budgets,
                        const std::string& extra_plan = "",
                        int64_t theta = 1'500,
                        const std::string& method = "bab") {
  return std::string("{\"id\":\"") + id +
         "\",\"dataset\":{\"n\":250,\"seed\":" +
         std::to_string(dataset_seed) +
         "},\"sampling\":{\"theta\":" + std::to_string(theta) +
         "},\"plan\":{\"method\":\"" + method + "\",\"budgets\":" +
         budgets + extra_plan + "}}";
}

/// A solver that parks the worker running it until the test opens the
/// gate, then answers exactly like "bab". It holds the daemon's workers
/// busy for as long as a test needs, however fast real solves get.
class GateSolver : public Solver {
 public:
  std::string_view name() const override { return "test-gate"; }
  std::string_view description() const override {
    return "bab, once the test opens the gate";
  }
  StatusOr<PlanResponse> Solve(const PlanningContext& context,
                               const SampleSnapshot& samples,
                               const PlanRequest& request,
                               int budget) const override {
    {
      MutexLock lock(&mu_);
      ++entered_;
      while (!open_) cv_.Wait(&mu_);
    }
    const StatusOr<const Solver*> bab = SolverRegistry::Global().Find("bab");
    if (!bab.ok()) return bab.status();
    return (*bab)->Solve(context, samples, request, budget);
  }

  /// Closes the gate and forgets earlier arrivals.
  void Close() {
    MutexLock lock(&mu_);
    open_ = false;
    entered_ = 0;
  }
  void Open() {
    MutexLock lock(&mu_);
    open_ = true;
    cv_.NotifyAll();
  }
  /// Solves that reached the gate since the last Close().
  int entered() const {
    MutexLock lock(&mu_);
    return entered_;
  }

 private:
  mutable Mutex mu_;
  mutable CondVar cv_;
  mutable int entered_ OIPA_GUARDED_BY(mu_) = 0;
  bool open_ OIPA_GUARDED_BY(mu_) = true;
};

/// The process-wide gate solver, registered on first use.
GateSolver& Gate() {
  static GateSolver* const gate = [] {
    auto solver = std::make_unique<GateSolver>();
    GateSolver* raw = solver.get();
    const Status registered =
        SolverRegistry::Global().Register(std::move(solver));
    EXPECT_TRUE(registered.ok()) << registered.ToString();
    return raw;
  }();
  return *gate;
}

/// Polls `done` every millisecond; false if it still fails after 30 s.
bool Eventually(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class ServeFixture : public ::testing::Test {
 protected:
  void TearDown() override {
    // A test that failed midway must not leave a worker parked, or the
    // server's drain would wait forever.
    Gate().Open();
    // Tests with a nonzero store budget must not leak retention into
    // later suites sharing the process-wide registry; chaos tests must
    // not leak armed faults or parked recovery snapshots either.
    FaultInjector::Disable();
    SampleStore::ClearRecoveredSnapshots();
    SampleStore::SetRegistryBudget(0);
  }

  /// Occupies one worker: sends a request for the gate solver from a
  /// background thread and returns once its solve is parked at the
  /// gate. The test opens the gate, then joins the returned thread.
  std::thread StartGatedBlocker() {
    Gate().Close();
    std::thread blocker([port = server_->port()] {
      const StatusOr<std::string> response = RequestOverTcp(
          "127.0.0.1", port,
          TinyRequest("blocker", 1, "[2]", "", 1'500, "test-gate"));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_TRUE(Parse(*response).Find("ok")->bool_value()) << *response;
    });
    EXPECT_TRUE(Eventually([] { return Gate().entered() > 0; }));
    return blocker;
  }

  /// One field of a fresh health probe (-1 if the probe failed).
  int64_t HealthField(const char* field) {
    const std::vector<std::string> lines = SendLinesAndCollect(
        server_->port(), {R"({"id":"probe","type":"health"})"}, 1);
    if (lines.size() != 1) return -1;
    const JsonValue response = Parse(lines[0]);
    const JsonValue* health = response.Find("health");
    if (health == nullptr || health->Find(field) == nullptr) return -1;
    return health->Find(field)->int_value();
  }

  void StartServer(ServerOptions options) {
    options.host = "127.0.0.1";
    options.port = 0;
    server_ = std::make_unique<PlanServer>(options);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  JsonValue Roundtrip(const std::string& request) {
    const StatusOr<std::string> response =
        RequestOverTcp("127.0.0.1", server_->port(), request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return Parse(response.ok() ? *response : "null");
  }

  std::unique_ptr<PlanServer> server_;
};

// ----------------------------------------------------------- serving

TEST_F(ServeFixture, AnswersPlanRequestsAndCachesContexts) {
  StartServer({});
  const JsonValue first = Roundtrip(TinyRequest("r1", 1, "[3]"));
  ASSERT_TRUE(first.Find("ok")->bool_value()) << first.Dump(-1);
  EXPECT_EQ(first.Find("id")->string_value(), "r1");
  const JsonValue& results = *first.Find("results");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results.at(0).Find("k")->int_value(), 3);
  EXPECT_GT(results.at(0).Find("utility")->double_value(), 0.0);
  EXPECT_TRUE(results.at(0).Find("converged")->bool_value());
  const JsonValue* serve = first.Find("serve");
  ASSERT_NE(serve, nullptr);
  EXPECT_FALSE(serve->Find("cache_hit")->bool_value());
  EXPECT_GT(serve->Find("samples_generated")->int_value(), 0);

  // The repeat request hits the cached context: no dataset build, no
  // piece graphs, and zero new MRR samples (acceptance (a)).
  const JsonValue second = Roundtrip(TinyRequest("r2", 1, "[3]"));
  ASSERT_TRUE(second.Find("ok")->bool_value());
  const JsonValue* serve2 = second.Find("serve");
  EXPECT_TRUE(serve2->Find("cache_hit")->bool_value());
  EXPECT_EQ(serve2->Find("samples_generated")->int_value(), 0);
  // Same context + same samples => bit-identical answer.
  EXPECT_EQ(second.Find("results")->at(0).Find("utility")->double_value(),
            results.at(0).Find("utility")->double_value());
  EXPECT_EQ(second.Find("results")->at(0).Find("seed_sets")->Dump(-1),
            results.at(0).Find("seed_sets")->Dump(-1));

  // A larger theta reuses the context and samples only the delta.
  const JsonValue grown =
      Roundtrip(TinyRequest("r3", 1, "[3]", "", /*theta=*/3'000));
  ASSERT_TRUE(grown.Find("ok")->bool_value());
  EXPECT_TRUE(grown.Find("serve")->Find("cache_hit")->bool_value());
  EXPECT_EQ(grown.Find("serve")->Find("samples_generated")->int_value(),
            3'000 - 1'500);
  EXPECT_EQ(grown.Find("results")->at(0).Find("theta_used")->int_value(),
            3'000);
}

TEST_F(ServeFixture, MalformedInputGetsStructuredErrorsNotAborts) {
  StartServer({});
  const std::vector<std::string> lines = {
      "this is not json",
      R"({"dataset":{"name":"imdb"}})",
      R"({"id":"bad-solver","plan":{"method":"frobnicate"}})",
      R"({"id":"bad-deadline","plan":{"deadline_ms":-1}})",
      R"({"id":"bad-alpha","dataset":{"name":"lastfm","alpha":0}})",
      TinyRequest("still-alive", 1, "[2]"),
  };
  const std::vector<std::string> responses =
      SendLinesAndCollect(server_->port(), lines, lines.size());
  ASSERT_EQ(responses.size(), lines.size());

  // Parse errors are written by the reader and solve responses by the
  // workers, so classify by content instead of arrival order.
  int ok_count = 0, invalid_count = 0;
  bool saw_dataset_error = false, saw_deadline_error = false;
  bool saw_alpha_error = false;
  bool saw_solver_not_found = false, saw_still_alive = false;
  for (const std::string& line : responses) {
    const JsonValue r = Parse(line);
    if (r.Find("ok")->bool_value()) {
      ++ok_count;
      saw_still_alive = r.Find("id")->string_value() == "still-alive";
      continue;
    }
    const JsonValue* error = r.Find("error");
    ASSERT_NE(error, nullptr) << line;
    const std::string code = error->Find("code")->string_value();
    const std::string message = error->Find("message")->string_value();
    if (code == "InvalidArgument") ++invalid_count;
    if (message.find("imdb") != std::string::npos) {
      saw_dataset_error = true;
    }
    if (message.find("deadline_ms") != std::string::npos) {
      saw_deadline_error = true;
    }
    if (message.find("dataset.alpha") != std::string::npos) {
      saw_alpha_error = true;
    }
    if (code == "NotFound" &&
        r.Find("id")->string_value() == "bad-solver") {
      saw_solver_not_found = true;
    }
  }
  // The connection survived five bad requests; the sixth one solved.
  EXPECT_EQ(ok_count, 1);
  EXPECT_TRUE(saw_still_alive);
  // Bad JSON, bad dataset, bad deadline, bad alpha.
  EXPECT_EQ(invalid_count, 4);
  EXPECT_TRUE(saw_dataset_error);
  EXPECT_TRUE(saw_deadline_error);
  EXPECT_TRUE(saw_alpha_error);
  EXPECT_TRUE(saw_solver_not_found);
}

TEST_F(ServeFixture, OutOfRangeSyntheticSizeIsRejectedAndServingGoesOn) {
  // Either would abort the daemon if it reached the dataset build: n = 3
  // in the Holme-Kim generator, 2^31 by narrowing to a negative
  // VertexId in MakeSynthetic.
  StartServer({});
  const std::vector<std::string> lines = {
      R"({"id":"tiny","dataset":{"name":"synthetic","n":3}})",
      R"({"id":"huge","dataset":{"name":"synthetic","n":2147483648}})",
      TinyRequest("next", 1, "[2]"),
  };
  const std::vector<std::string> responses =
      SendLinesAndCollect(server_->port(), lines, lines.size());
  ASSERT_EQ(responses.size(), lines.size());
  int rejected = 0;
  bool answered_next = false;
  for (const std::string& line : responses) {
    const JsonValue r = Parse(line);
    if (r.Find("ok")->bool_value()) {
      answered_next = r.Find("id")->string_value() == "next";
      continue;
    }
    const JsonValue* error = r.Find("error");
    ASSERT_NE(error, nullptr) << line;
    EXPECT_EQ(error->Find("code")->string_value(), "InvalidArgument");
    EXPECT_NE(error->Find("message")->string_value().find(
                  "synthetic dataset.n must be in [5, 2147483647]"),
              std::string::npos)
        << line;
    ++rejected;
  }
  EXPECT_EQ(rejected, 2);
  EXPECT_TRUE(answered_next);
}

TEST_F(ServeFixture, SampleCountsPastTheIdCeilingAreRejectedAndServingGoesOn) {
  // MRR sample ids are 32-bit: theta, holdout_theta and max_theta above
  // 2^32 - 1 are refused before any build, and the daemon goes on.
  StartServer({});
  const std::vector<std::string> lines = {
      R"({"id":"theta","sampling":{"theta":5000000000}})",
      R"({"id":"holdout","sampling":{"holdout_theta":5000000000}})",
      R"({"id":"max","sampling":{"epsilon":0.05,"max_theta":5000000000}})",
      TinyRequest("next", 1, "[2]"),
  };
  const std::vector<std::string> responses =
      SendLinesAndCollect(server_->port(), lines, lines.size());
  ASSERT_EQ(responses.size(), lines.size());
  int rejected = 0;
  bool answered_next = false;
  for (const std::string& line : responses) {
    const JsonValue r = Parse(line);
    if (r.Find("ok")->bool_value()) {
      answered_next = r.Find("id")->string_value() == "next";
      continue;
    }
    const JsonValue* error = r.Find("error");
    ASSERT_NE(error, nullptr) << line;
    EXPECT_EQ(error->Find("code")->string_value(), "InvalidArgument");
    EXPECT_NE(error->Find("message")->string_value().find("4294967295"),
              std::string::npos)
        << line;
    ++rejected;
  }
  EXPECT_EQ(rejected, 3);
  EXPECT_TRUE(answered_next);
}

TEST_F(ServeFixture, QueuedCompatibleRequestsShareOneSweep) {
  ServerOptions options;
  options.workers = 1;  // forces queueing behind the blocker
  StartServer(options);

  // Park the single worker at the gate while r-a/r-b (same context,
  // different budgets) queue up behind it; open it once both wait.
  std::thread blocker = StartGatedBlocker();
  std::vector<std::string> responses;
  std::thread client([&] {
    responses = SendLinesAndCollect(
        server_->port(),
        {TinyRequest("r-a", 1, "[4]"), TinyRequest("r-b", 1, "[6]")}, 2);
  });
  EXPECT_TRUE(Eventually([&] { return HealthField("queue_depth") == 2; }));
  Gate().Open();
  client.join();
  blocker.join();
  ASSERT_EQ(responses.size(), 2u);

  const JsonValue a = Parse(responses[0]);
  const JsonValue b = Parse(responses[1]);
  ASSERT_TRUE(a.Find("ok")->bool_value() && b.Find("ok")->bool_value());
  // Both were answered from one merged SolveBatch sweep.
  EXPECT_EQ(a.Find("serve")->Find("batch_size")->int_value(), 2);
  EXPECT_EQ(b.Find("serve")->Find("batch_size")->int_value(), 2);
  ASSERT_EQ(a.Find("results")->size(), 1u);
  ASSERT_EQ(b.Find("results")->size(), 1u);
  EXPECT_EQ(a.Find("results")->at(0).Find("k")->int_value(), 4);
  EXPECT_EQ(b.Find("results")->at(0).Find("k")->int_value(), 6);

  // Acceptance (b): the batched answers are bit-identical to solving
  // each request alone against the same cached context.
  for (const auto& [id, batched] :
       {std::pair<std::string, const JsonValue*>{"s-a", &a},
        std::pair<std::string, const JsonValue*>{"s-b", &b}}) {
    const std::string budgets =
        "[" +
        std::to_string(
            batched->Find("results")->at(0).Find("k")->int_value()) +
        "]";
    const JsonValue serial = Roundtrip(TinyRequest(id, 1, budgets));
    ASSERT_TRUE(serial.Find("ok")->bool_value());
    const JsonValue& lhs = serial.Find("results")->at(0);
    const JsonValue& rhs = batched->Find("results")->at(0);
    // Everything but wall-clock time must match bit-for-bit.
    for (const char* field :
         {"seed_sets", "utility", "holdout_utility", "upper_bound",
          "converged", "nodes_expanded", "bound_calls", "theta_used"}) {
      EXPECT_EQ(lhs.Find(field)->Dump(-1), rhs.Find(field)->Dump(-1))
          << id << "." << field;
    }
  }
}

TEST_F(ServeFixture, DeadlineCancelsWithPartialTelemetry) {
  StartServer({});
  // Warm the context so the deadline bites mid-solve, not mid-build.
  ASSERT_TRUE(
      Roundtrip(TinyRequest("warm", 1, "[2]")).Find("ok")->bool_value());

  // The sample growth to theta=40000 alone outlasts the 1 ms deadline
  // (measured from enqueue), so the solve is dispatched with the
  // clamped 1 ms remainder and cancels at its first progress poll.
  const JsonValue r = Roundtrip(TinyRequest(
      "hurry", 1, "[8]", ",\"deadline_ms\":1,\"gap\":0.0", 40'000));
  ASSERT_TRUE(r.Find("ok")->bool_value()) << r.Dump(-1);
  EXPECT_TRUE(r.Find("cancelled")->bool_value());
  const JsonValue& row = r.Find("results")->at(0);
  EXPECT_TRUE(row.Find("cancelled")->bool_value());
  EXPECT_TRUE(row.Find("deadline_exceeded")->bool_value());
  EXPECT_FALSE(row.Find("converged")->bool_value());
  // Partial telemetry still describes the work done up to the cutoff.
  EXPECT_GE(row.Find("theta_used")->int_value(), 1'500);

  // A comfortable deadline leaves the solve untouched.
  const JsonValue relaxed = Roundtrip(
      TinyRequest("calm", 1, "[2]", ",\"deadline_ms\":60000"));
  ASSERT_TRUE(relaxed.Find("ok")->bool_value());
  EXPECT_FALSE(relaxed.Find("cancelled")->bool_value());
  EXPECT_FALSE(relaxed.Find("results")
                   ->at(0)
                   .Find("deadline_exceeded")
                   ->bool_value());
}

TEST_F(ServeFixture, StoreBudgetRetainsAndEvictsAcrossContexts) {
  ServerOptions options;
  options.max_contexts = 1;  // every new context evicts the previous
  options.store_budget_bytes = 2 * 1024 * 1024;
  StartServer(options);

  // Context A, then context B. max_contexts=1 evicts A's context, but
  // the 2 MiB budget retains A's (now unpinned) sample store.
  const JsonValue a1 = Roundtrip(TinyRequest("a1", 1, "[2]"));
  ASSERT_TRUE(a1.Find("ok")->bool_value());
  const JsonValue b1 = Roundtrip(TinyRequest("b1", 2, "[2]"));
  ASSERT_TRUE(b1.Find("ok")->bool_value());
  const JsonValue* registry = b1.Find("serve")->Find("store_registry");
  EXPECT_EQ(registry->Find("live_stores")->int_value(), 2);
  EXPECT_EQ(registry->Find("pinned_stores")->int_value(), 1);
  EXPECT_EQ(registry->Find("evictions")->int_value(), 0);

  // Re-requesting A rebuilds the context (cache_hit false) but finds
  // A's retained store in the registry: zero new samples.
  const JsonValue a2 = Roundtrip(TinyRequest("a2", 1, "[2]"));
  ASSERT_TRUE(a2.Find("ok")->bool_value());
  EXPECT_FALSE(a2.Find("serve")->Find("cache_hit")->bool_value());
  EXPECT_EQ(a2.Find("serve")->Find("samples_generated")->int_value(), 0);
  EXPECT_EQ(a2.Find("results")->at(0).Find("utility")->double_value(),
            a1.Find("results")->at(0).Find("utility")->double_value());

  // Acceptance (d): drop the budget below two stores — the LRU
  // unpinned store (B's) is evicted; re-requesting B resamples.
  const int64_t store_bytes = a2.Find("serve")
                                  ->Find("store")
                                  ->Find("memory_bytes")
                                  ->int_value();
  SampleStore::SetRegistryBudget(store_bytes + store_bytes / 2);
  const JsonValue b2 = Roundtrip(TinyRequest("b2", 2, "[2]"));
  ASSERT_TRUE(b2.Find("ok")->bool_value());
  const JsonValue* registry2 = b2.Find("serve")->Find("store_registry");
  EXPECT_GE(registry2->Find("evictions")->int_value(), 1);
  EXPECT_GT(b2.Find("serve")->Find("samples_generated")->int_value(), 0);
  EXPECT_LE(registry2->Find("live_stores")->int_value(), 2);
  // Evicted-and-resampled is still deterministic per the sampling seed.
  EXPECT_EQ(b2.Find("results")->at(0).Find("utility")->double_value(),
            b1.Find("results")->at(0).Find("utility")->double_value());
}

TEST_F(ServeFixture, ConcurrentClientsWithMixedContexts) {
  ServerOptions options;
  options.workers = 3;
  StartServer(options);
  constexpr int kClients = 8;
  std::vector<std::string> responses(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        // Two contexts interleaved across clients, varying budgets.
        const std::string request = TinyRequest(
            "c" + std::to_string(i), 1 + (i % 2),
            "[" + std::to_string(2 + i / 2) + "]");
        const StatusOr<std::string> response =
            RequestOverTcp("127.0.0.1", server_->port(), request);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        responses[i] = *response;
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    const JsonValue r = Parse(responses[i]);
    EXPECT_TRUE(r.Find("ok")->bool_value()) << responses[i];
    EXPECT_EQ(r.Find("id")->string_value(), "c" + std::to_string(i));
    EXPECT_GT(
        r.Find("results")->at(0).Find("utility")->double_value(), 0.0);
  }
  // Eight requests, two distinct contexts: exactly two misses total,
  // observed from a follow-up request sent after every client joined
  // (in-flight responses may snapshot the cache mid-build).
  const JsonValue after = Roundtrip(TinyRequest("after", 1, "[2]"));
  ASSERT_TRUE(after.Find("ok")->bool_value());
  const JsonValue* cache = after.Find("serve")->Find("context_cache");
  EXPECT_EQ(cache->Find("misses")->int_value(), 2);
  EXPECT_EQ(cache->Find("live_contexts")->int_value(), 2);
  // Hits count group acquires, not requests — concurrent compatible
  // requests merge into batches — so only the follow-up is guaranteed.
  EXPECT_GE(cache->Find("hits")->int_value(), 1);
}

TEST_F(ServeFixture, GracefulShutdownDrainsQueuedSolves) {
  ServerOptions options;
  options.workers = 1;
  StartServer(options);

  // Three requests on one connection; the single worker is busy with
  // the first while the other two sit in the queue.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string burst = TinyRequest("q1", 1, "[3]", "", 20'000) + "\n" +
                      TinyRequest("q2", 1, "[4]") + "\n" +
                      TinyRequest("q3", 2, "[3]") + "\n";
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Stop() drains: every accepted request is still answered.
  server_->Stop();
  std::string buffer;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  std::vector<std::string> responses;
  size_t pos = 0;
  while ((pos = buffer.find('\n')) != std::string::npos) {
    responses.push_back(buffer.substr(0, pos));
    buffer.erase(0, pos + 1);
  }
  ASSERT_EQ(responses.size(), 3u) << buffer;
  for (const std::string& line : responses) {
    const JsonValue r = Parse(line);
    EXPECT_TRUE(r.Find("ok")->bool_value()) << line;
  }

  // The listener is gone: new connections are refused.
  ClientOptions no_retry;
  no_retry.retries = 0;
  const StatusOr<std::string> refused =
      RequestOverTcp("127.0.0.1", server_->port(),
                     TinyRequest("late", 1, "[2]"), no_retry);
  EXPECT_FALSE(refused.ok());
}

// -------------------------------------------------------- robustness

/// Asserts two "results" arrays describe bit-identical answers —
/// everything but wall-clock time (solve_seconds) must match.
void ExpectSameResults(const JsonValue& lhs, const JsonValue& rhs) {
  ASSERT_EQ(lhs.size(), rhs.size());
  for (size_t i = 0; i < lhs.size(); ++i) {
    for (const char* field :
         {"seed_sets", "utility", "holdout_utility", "upper_bound",
          "converged", "nodes_expanded", "bound_calls", "theta_used"}) {
      EXPECT_EQ(lhs.at(i).Find(field)->Dump(-1),
                rhs.at(i).Find(field)->Dump(-1))
          << i << "." << field;
    }
  }
}

TEST_F(ServeFixture, ContextsDifferingOnlyInAlphaShareOneSampleStore) {
  // MRR samples do not depend on the adoption model: the second context
  // is built (a cache miss) on the first one's samples.
  const auto request = [](const std::string& id, const char* alpha) {
    return R"({"id":")" + id +
           R"(","dataset":{"n":250,"seed":31,"alpha":)" + alpha +
           R"(},"sampling":{"theta":1500},"plan":{"method":"bab",)"
           R"("budgets":[2,3]}})";
  };
  StartServer({});
  const JsonValue first = Roundtrip(request("a2", "2.0"));
  ASSERT_TRUE(first.Find("ok")->bool_value()) << first.Dump(-1);
  EXPECT_GT(first.Find("serve")->Find("samples_generated")->int_value(), 0);
  const JsonValue shared = Roundtrip(request("a3", "3.0"));
  ASSERT_TRUE(shared.Find("ok")->bool_value()) << shared.Dump(-1);
  EXPECT_FALSE(shared.Find("serve")->Find("cache_hit")->bool_value());
  EXPECT_EQ(shared.Find("serve")->Find("samples_generated")->int_value(), 0);

  // A fresh daemon samples the alpha = 3 context itself, to equal rows.
  server_.reset();
  StartServer({});
  const JsonValue fresh = Roundtrip(request("fresh", "3.0"));
  ASSERT_TRUE(fresh.Find("ok")->bool_value()) << fresh.Dump(-1);
  EXPECT_GT(fresh.Find("serve")->Find("samples_generated")->int_value(), 0);
  ExpectSameResults(*shared.Find("results"), *fresh.Find("results"));
}

TEST(ServeOptionsTest, StartRejectsInvalidOptions) {
  const auto expect_invalid = [](ServerOptions options) {
    PlanServer server(options);
    const Status started = server.Start();
    EXPECT_FALSE(started.ok());
    EXPECT_EQ(started.code(), StatusCode::kInvalidArgument);
  };
  ServerOptions options;
  options.workers = 0;
  expect_invalid(options);
  options = {};
  options.max_contexts = 0;
  expect_invalid(options);
  options = {};
  options.store_budget_bytes = -1;
  expect_invalid(options);
  options = {};
  options.max_queue_depth = 0;
  expect_invalid(options);
  options = {};
  options.max_inflight_per_conn = 0;
  expect_invalid(options);
  options = {};
  options.write_timeout_ms = 0;
  expect_invalid(options);
  options = {};
  options.checkpoint_interval_ms = 0;
  expect_invalid(options);
}

TEST(ServeClientTest, SilentDaemonTimesOutInsteadOfHanging) {
  // A listener that never accepts: the kernel completes the handshake
  // from the backlog, so connect and send succeed — only the read can
  // detect the silence.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  const int port = ntohs(addr.sin_port);

  ClientOptions options;
  options.read_timeout_ms = 100;
  options.retries = 0;
  const auto start = std::chrono::steady_clock::now();
  const StatusOr<std::string> response =
      RequestOverTcp("127.0.0.1", port, R"({"id":"void"})", options);
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed.count(), 10'000);  // bounded, not a hang
  ::close(listener);

  // With the listener gone the same call fails fast with a transport
  // error (connection refused), still without hanging.
  ClientOptions quick = options;
  quick.connect_timeout_ms = 1'000;
  const StatusOr<std::string> refused =
      RequestOverTcp("127.0.0.1", port, R"({"id":"void"})", quick);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ServeFixture, OverloadRejectionsCarryRetryAfterMs) {
  ServerOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  StartServer(options);

  // Occupy the single worker so the queue backs up behind it.
  std::thread blocker = StartGatedBlocker();

  // Three distinct-context requests: the first fills the depth-1
  // queue, the rest must be rejected with a structured back-off hint.
  // The first is answered only after the gate opens.
  std::vector<std::string> responses;
  std::thread client([&] {
    responses = SendLinesAndCollect(
        server_->port(),
        {TinyRequest("f1", 1, "[2]"), TinyRequest("f2", 2, "[2]"),
         TinyRequest("f3", 3, "[2]")},
        3);
  });
  EXPECT_TRUE(Eventually(
      [&] { return HealthField("rejected_queue_full") == 2; }));
  Gate().Open();
  client.join();
  blocker.join();
  ASSERT_EQ(responses.size(), 3u);

  int ok_count = 0, rejected_count = 0;
  for (const std::string& line : responses) {
    const JsonValue r = Parse(line);
    if (r.Find("ok")->bool_value()) {
      ++ok_count;
      continue;
    }
    const JsonValue* error = r.Find("error");
    ASSERT_NE(error, nullptr) << line;
    EXPECT_EQ(error->Find("code")->string_value(), "resource_exhausted")
        << line;
    const JsonValue* retry = error->Find("retry_after_ms");
    ASSERT_NE(retry, nullptr) << line;
    EXPECT_GE(retry->int_value(), 1);
    ++rejected_count;
  }
  EXPECT_EQ(ok_count, 1);
  EXPECT_EQ(rejected_count, 2);

  // Once the backlog clears, the daemon serves normally again.
  const JsonValue after = Roundtrip(TinyRequest("after", 1, "[2]"));
  EXPECT_TRUE(after.Find("ok")->bool_value());
}

TEST_F(ServeFixture, PerConnectionInflightCapRejectsGreedyPipeliner) {
  ServerOptions options;
  options.workers = 1;
  options.max_inflight_per_conn = 1;
  StartServer(options);
  std::thread blocker = StartGatedBlocker();

  // One connection pipelines three requests; with the cap at 1 only
  // the first may occupy the queue — the global queue stays available
  // to other connections.
  std::vector<std::string> responses;
  std::thread client([&] {
    responses = SendLinesAndCollect(
        server_->port(),
        {TinyRequest("p1", 1, "[2]"), TinyRequest("p2", 2, "[2]"),
         TinyRequest("p3", 3, "[2]")},
        3);
  });
  EXPECT_TRUE(
      Eventually([&] { return HealthField("rejected_inflight") == 2; }));
  Gate().Open();
  client.join();
  blocker.join();
  int ok_count = 0, rejected_count = 0;
  for (const std::string& line : responses) {
    const JsonValue r = Parse(line);
    if (r.Find("ok")->bool_value()) {
      ++ok_count;
    } else {
      EXPECT_EQ(r.Find("error")->Find("code")->string_value(),
                "resource_exhausted")
          << line;
      ++rejected_count;
    }
  }
  EXPECT_EQ(ok_count, 1);
  EXPECT_EQ(rejected_count, 2);
}

TEST_F(ServeFixture, HealthBypassesTheQueueAndReportsCounters) {
  ServerOptions options;
  options.workers = 1;
  StartServer(options);
  std::thread blocker = StartGatedBlocker();

  // The health probe is answered by the reader thread while the only
  // worker is busy — it cannot be stuck behind the solve.
  const std::vector<std::string> responses = SendLinesAndCollect(
      server_->port(), {R"({"id":"h1","type":"health"})"}, 1);
  Gate().Open();
  blocker.join();
  ASSERT_EQ(responses.size(), 1u);
  const JsonValue r = Parse(responses[0]);
  ASSERT_TRUE(r.Find("ok")->bool_value()) << responses[0];
  EXPECT_EQ(r.Find("id")->string_value(), "h1");
  const JsonValue* health = r.Find("health");
  ASSERT_NE(health, nullptr);
  EXPECT_EQ(health->Find("workers")->int_value(), 1);
  EXPECT_GE(health->Find("queue_depth")->int_value(), 0);
  EXPECT_FALSE(health->Find("draining")->bool_value());
  EXPECT_GE(health->Find("accepted")->int_value(), 1);
  for (const char* counter :
       {"rejected_queue_full", "rejected_inflight", "write_timeouts",
        "write_failures", "checkpoint_saves", "checkpoint_failures",
        "recovered_snapshots", "faults_injected"}) {
    ASSERT_NE(health->Find(counter), nullptr) << counter;
    EXPECT_GE(health->Find(counter)->int_value(), 0) << counter;
  }
  ASSERT_NE(health->Find("context_cache"), nullptr);
  ASSERT_NE(health->Find("store_registry"), nullptr);
}

TEST_F(ServeFixture, HalfClosedAndAbortedConnectionsDoNotWedgeWorkers) {
  StartServer({});

  // Half-close: the client sends its request and shuts down the write
  // side. The reader sees EOF, but the queued request still resolves
  // and the response is delivered on the surviving read side.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string framed = TinyRequest("half", 1, "[2]") + "\n";
    ASSERT_EQ(::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(framed.size()));
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
    std::string buffer;
    char chunk[4096];
    while (buffer.find('\n') == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    ASSERT_NE(buffer.find('\n'), std::string::npos);
    const JsonValue r = Parse(buffer.substr(0, buffer.find('\n')));
    EXPECT_TRUE(r.Find("ok")->bool_value());
    EXPECT_EQ(r.Find("id")->string_value(), "half");
  }

  // Abrupt hangup: the request is accepted but the client vanishes
  // before the answer. The worker's write fails without SIGPIPE or a
  // wedge; nothing leaks.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string framed = TinyRequest("gone", 2, "[2]") + "\n";
    ASSERT_EQ(::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(framed.size()));
    ::close(fd);
  }

  // The daemon keeps serving, and the drain completes instead of
  // hanging on the dead connection (a wedged worker would time this
  // test out).
  const JsonValue alive = Roundtrip(TinyRequest("alive", 1, "[2]"));
  EXPECT_TRUE(alive.Find("ok")->bool_value());
  server_->Stop();
}

TEST_F(ServeFixture, InjectedFaultsAreSurvivedAndRetriedAnswersMatch) {
  StartServer({});
  const JsonValue baseline = Roundtrip(TinyRequest("base", 1, "[3]"));
  ASSERT_TRUE(baseline.Find("ok")->bool_value());

  // Drop the daemon's 2nd response write on the floor (connection
  // severed). The resilient client retries on the dropped line; the
  // retried answer must be bit-identical to the fault-free baseline.
  ASSERT_TRUE(FaultInjector::Configure("serve.write=@2", 9).ok());
  ClientOptions resilient;
  resilient.retries = 3;
  resilient.backoff_initial_ms = 5;
  for (int i = 0; i < 3; ++i) {
    const StatusOr<std::string> response = RequestOverTcp(
        "127.0.0.1", server_->port(),
        TinyRequest("c" + std::to_string(i), 1, "[3]"), resilient);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const JsonValue r = Parse(*response);
    ASSERT_TRUE(r.Find("ok")->bool_value()) << *response;
    ExpectSameResults(*r.Find("results"), *baseline.Find("results"));
  }
  EXPECT_GE(FaultInjector::InjectedCount(), 1);

  // A read fault kills the connection before the request is parsed;
  // the retry lands on a fresh connection and succeeds.
  ASSERT_TRUE(FaultInjector::Configure("serve.read=@1", 9).ok());
  const StatusOr<std::string> after_read_fault = RequestOverTcp(
      "127.0.0.1", server_->port(), TinyRequest("rr", 1, "[3]"),
      resilient);
  ASSERT_TRUE(after_read_fault.ok())
      << after_read_fault.status().ToString();
  ExpectSameResults(*Parse(*after_read_fault).Find("results"),
                    *baseline.Find("results"));
  EXPECT_GE(FaultInjector::InjectedCount(), 1);
  FaultInjector::Disable();
}

TEST_F(ServeFixture, CheckpointedStoreIsRecoveredAfterRestart) {
  const std::string dir = testing::TempDir() + "/serve_ckpt";
  ServerOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_interval_ms = 60'000;  // rely on the Stop() pass

  StartServer(options);
  const JsonValue first = Roundtrip(TinyRequest("r1", 1, "[3]"));
  ASSERT_TRUE(first.Find("ok")->bool_value()) << first.Dump(-1);
  server_->Stop();  // graceful shutdown writes the final checkpoint
  // Destroying the server releases the context cache; with no registry
  // budget the sample store dies with it — a restart must genuinely
  // recover from disk, not from process memory.
  server_.reset();

  StartServer(options);
  const JsonValue second = Roundtrip(TinyRequest("r2", 1, "[3]"));
  ASSERT_TRUE(second.Find("ok")->bool_value()) << second.Dump(-1);
  // The tentpole acceptance: the restarted daemon answers the cached
  // context bit-identically with ZERO regenerated samples.
  EXPECT_EQ(second.Find("serve")->Find("samples_generated")->int_value(),
            0);
  ExpectSameResults(*second.Find("results"), *first.Find("results"));
  EXPECT_GE(second.Find("serve")
                ->Find("store_registry")
                ->Find("recovered_stores")
                ->int_value(),
            1);

  const std::vector<std::string> health_lines = SendLinesAndCollect(
      server_->port(), {R"({"id":"h","type":"health"})"}, 1);
  ASSERT_EQ(health_lines.size(), 1u);
  const JsonValue health = Parse(health_lines[0]);
  EXPECT_GE(health.Find("health")
                ->Find("recovered_snapshots")
                ->int_value(),
            1);
  EXPECT_GE(
      health.Find("health")->Find("checkpoint_saves")->int_value(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace oipa
