#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <cstring>
#include <limits>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.h"
#include "cli/json_writer.h"
#include "serve/json_parser.h"
#include "serve/server.h"
#include "util/flags.h"

namespace oipa {
namespace cli {
namespace {

/// Runs RunCli on a fake argv and returns (exit code, stdout, stderr).
struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun InvokeCli(std::vector<std::string> args) {
  args.insert(args.begin(), "oipa_cli");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  std::ostringstream out, err;
  const int code =
      RunCli(static_cast<int>(argv.size()), argv.data(), out, err);
  return {code, out.str(), err.str()};
}

FlagParser MakeFlags(std::vector<std::string> args) {
  args.insert(args.begin(), "oipa_cli");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

// Flags shared by the pipeline tests: small enough that the whole
// generate -> learn -> plan -> simulate chain runs in well under a second.
const std::vector<std::string> kTinyFlags = {
    "--n=200",     "--theta=1000", "--k=3",
    "--ell=2",     "--trials=50",  "--cascades=50",
    "--indent=-1", "--threads=1",  "--max_nodes=2000"};

std::vector<std::string> TinyArgs(const std::string& command,
                                  std::vector<std::string> extra = {}) {
  std::vector<std::string> args = {command};
  args.insert(args.end(), kTinyFlags.begin(), kTinyFlags.end());
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

// ------------------------------------------------------------ JsonValue

TEST(JsonWriterTest, Scalars) {
  EXPECT_EQ(JsonValue().Dump(), "null");
  EXPECT_EQ(JsonValue(true).Dump(), "true");
  EXPECT_EQ(JsonValue(false).Dump(), "false");
  EXPECT_EQ(JsonValue(42).Dump(), "42");
  EXPECT_EQ(JsonValue(int64_t{-7}).Dump(), "-7");
  EXPECT_EQ(JsonValue(2.5).Dump(), "2.5");
  EXPECT_EQ(JsonValue("hi").Dump(), "\"hi\"");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).Dump(),
            "null");
  EXPECT_EQ(JsonValue(std::numeric_limits<double>::quiet_NaN()).Dump(),
            "null");
}

TEST(JsonWriterTest, DoublesRoundTripBitForBit) {
  for (const double x :
       {0.1, 1.0 / 3.0, 2.00000000001, 1e-300, 5e-324, DBL_MAX}) {
    for (const double value : {x, -x}) {
      const std::string text = JsonValue(value).Dump();
      const StatusOr<JsonValue> parsed = serve::ParseJson(text);
      ASSERT_TRUE(parsed.ok()) << text;
      ASSERT_TRUE(parsed->is_number()) << text;
      EXPECT_EQ(std::bit_cast<uint64_t>(parsed->double_value()),
                std::bit_cast<uint64_t>(value))
          << text;
    }
  }
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonValue::Escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(JsonValue::Escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriterTest, ObjectPreservesInsertionOrderAndOverwrites) {
  JsonValue obj = JsonValue::Object();
  obj.Set("b", 1).Set("a", 2).Set("b", 3);
  EXPECT_EQ(obj.Dump(), "{\"b\":3,\"a\":2}");
  EXPECT_EQ(obj.size(), 2u);
}

TEST(JsonWriterTest, NestedPrettyPrint) {
  JsonValue row = JsonValue::Object();
  row.Set("k", 10);
  JsonValue arr = JsonValue::Array();
  arr.Append(std::move(row)).Append(JsonValue());
  EXPECT_EQ(arr.Dump(2), "[\n  {\n    \"k\": 10\n  },\n  null\n]");
  EXPECT_EQ(arr.Dump(), "[{\"k\":10},null]");
}

// ------------------------------------------------------------- parsing

TEST(CliParseTest, BoundVariantNames) {
  CliConfig config;
  ASSERT_TRUE(ParseCliConfig(MakeFlags({"plan", "--bound=zero"}), &config)
                  .ok());
  EXPECT_EQ(config.request.plan.bound_variant, BoundVariant::kZeroAnchored);
  ASSERT_TRUE(ParseCliConfig(MakeFlags({"plan", "--bound=paper"}), &config)
                  .ok());
  EXPECT_EQ(config.request.plan.bound_variant, BoundVariant::kPaperTangent);
  EXPECT_EQ(ParseCliConfig(MakeFlags({"plan", "--bound=bogus"}), &config)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CliParseTest, DefaultsMirrorQuickstart) {
  const FlagParser flags = MakeFlags({"plan"});
  CliConfig config;
  ASSERT_TRUE(ParseCliConfig(flags, &config).ok());
  EXPECT_EQ(config.command, "plan");
  const serve::WireRequest& r = config.request;
  EXPECT_EQ(r.dataset.name, "synthetic");
  EXPECT_EQ(r.dataset.n, 2000);
  EXPECT_EQ(r.dataset.ell, 3);
  EXPECT_EQ(r.sampling.theta, 20'000);
  EXPECT_DOUBLE_EQ(r.plan.epsilon, 0.5);
  EXPECT_EQ(r.plan.bound_variant, BoundVariant::kZeroAnchored);
  EXPECT_TRUE(config.progressive);
  EXPECT_EQ(r.plan.method, "bab-p");
  EXPECT_FALSE(config.learn);
  EXPECT_EQ(r.plan.budgets, std::vector<int>({10}));
}

TEST(CliParseTest, MethodResolvesFromProgressiveWhenAbsent) {
  CliConfig config;
  ASSERT_TRUE(
      ParseCliConfig(MakeFlags({"plan", "--progressive=false"}), &config)
          .ok());
  EXPECT_EQ(config.request.plan.method, "bab");
  ASSERT_TRUE(
      ParseCliConfig(MakeFlags({"plan", "--method=tim"}), &config).ok());
  EXPECT_EQ(config.request.plan.method, "tim");
}

TEST(CliParseTest, UnknownMethodIsNotFoundListingRegistry) {
  CliConfig config;
  const Status status =
      ParseCliConfig(MakeFlags({"plan", "--method=annealing"}), &config);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("unknown solver"), std::string::npos);
  EXPECT_NE(status.message().find("bab-p"), std::string::npos);
}

TEST(CliParseTest, FlagsOverrideEveryStage) {
  const FlagParser flags = MakeFlags(
      {"bench", "--dataset=dblp", "--scale=0.05", "--k=5,15",
       "--ell=4", "--theta=500", "--epsilon=0.25", "--bound=paper",
       "--progressive=false", "--learn", "--threads=2", "--seed=99"});
  CliConfig config;
  ASSERT_TRUE(ParseCliConfig(flags, &config).ok());
  EXPECT_EQ(config.command, "bench");
  const serve::WireRequest& r = config.request;
  EXPECT_EQ(r.dataset.name, "dblp");
  EXPECT_DOUBLE_EQ(r.dataset.scale, 0.05);
  EXPECT_EQ(r.plan.budgets, std::vector<int>({5, 15}));
  EXPECT_EQ(r.dataset.ell, 4);
  EXPECT_EQ(r.sampling.theta, 500);
  EXPECT_DOUBLE_EQ(r.plan.epsilon, 0.25);
  EXPECT_EQ(r.plan.bound_variant, BoundVariant::kPaperTangent);
  EXPECT_FALSE(config.progressive);
  EXPECT_TRUE(config.learn);
  EXPECT_EQ(r.plan.threads, 2);
  EXPECT_EQ(r.sampling.threads, 2);
  EXPECT_EQ(r.dataset.seed, 99u);
  EXPECT_EQ(r.sampling.seed, 104u);
  EXPECT_EQ(r.plan.seed, 99u);
}

TEST(CliParseTest, StoppingFlags) {
  CliConfig config;
  ASSERT_TRUE(ParseCliConfig(MakeFlags({"plan"}), &config).ok());
  EXPECT_EQ(config.request.sampling.stopping, "holdout");
  EXPECT_EQ(config.request.sampling.stopping_rule,
            StoppingRuleKind::kHoldoutGap);

  ASSERT_TRUE(
      ParseCliConfig(MakeFlags({"plan", "--stopping=opim"}), &config).ok());
  EXPECT_EQ(config.request.sampling.stopping_rule,
            StoppingRuleKind::kOpimBounds);

  EXPECT_EQ(ParseCliConfig(MakeFlags({"plan", "--stopping=psychic"}),
                           &config)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CliParseTest, RequestCarriesFlagValuesExactly) {
  CliConfig config;
  ASSERT_TRUE(
      ParseCliConfig(MakeFlags({"plan", "--alpha=2.00000000001"}), &config)
          .ok());
  EXPECT_EQ(config.request.dataset.alpha, 2.00000000001);
  EXPECT_NE(config.wire_line.find("\"alpha\":2.00000000001"),
            std::string::npos)
      << config.wire_line;
}

TEST(CliParseTest, WireLinesMatchTheRecordedLines) {
  // Same requests, same answers: the line each flag set renders, as
  // recorded before the flags were written straight into the request.
  const std::vector<std::pair<std::vector<std::string>, std::string>>
      cases = {
      {{},
       R"({"id":"oipa_cli","dataset":{"name":"synthetic","n":2000,)"
       R"("topics":10,"scale":0.01,"pool_fraction":0.1,"seed":1,"ell":3,)"
       R"("alpha":2,"beta":1},"sampling":{"theta":20000,"seed":6,)"
       R"("epsilon":0,"max_theta":2000000,"stopping":"holdout"},)"
       R"("plan":{"method":"bab-p","budgets":[10],"gap":0.01,)"
       R"("epsilon":0.5,"bound":"zero","max_nodes":100000,"seed":1}})"},
      {{"--method=bab", "--bound=paper"},
       R"({"id":"oipa_cli","dataset":{"name":"synthetic","n":2000,)"
       R"("topics":10,"scale":0.01,"pool_fraction":0.1,"seed":1,"ell":3,)"
       R"("alpha":2,"beta":1},"sampling":{"theta":20000,"seed":6,)"
       R"("epsilon":0,"max_theta":2000000,"stopping":"holdout"},)"
       R"("plan":{"method":"bab","budgets":[10],"gap":0.01,)"
       R"("epsilon":0.5,"bound":"paper","max_nodes":100000,"seed":1}})"},
      {{"--sampling_epsilon=0.05", "--stopping=opim"},
       R"({"id":"oipa_cli","dataset":{"name":"synthetic","n":2000,)"
       R"("topics":10,"scale":0.01,"pool_fraction":0.1,"seed":1,"ell":3,)"
       R"("alpha":2,"beta":1},"sampling":{"theta":20000,"seed":6,)"
       R"("epsilon":0.05,"max_theta":2000000,"stopping":"opim"},)"
       R"("plan":{"method":"bab-p","budgets":[10],"gap":0.01,)"
       R"("epsilon":0.5,"bound":"zero","max_nodes":100000,"seed":1}})"},
      {{"--deadline_ms=60000"},
       R"({"id":"oipa_cli","dataset":{"name":"synthetic","n":2000,)"
       R"("topics":10,"scale":0.01,"pool_fraction":0.1,"seed":1,"ell":3,)"
       R"("alpha":2,"beta":1},"sampling":{"theta":20000,"seed":6,)"
       R"("epsilon":0,"max_theta":2000000,"stopping":"holdout"},)"
       R"("plan":{"method":"bab-p","budgets":[10],"gap":0.01,)"
       R"("epsilon":0.5,"bound":"zero","max_nodes":100000,)"
       R"("deadline_ms":60000,"seed":1}})"},
      {{"--threads=2"},
       R"({"id":"oipa_cli","dataset":{"name":"synthetic","n":2000,)"
       R"("topics":10,"scale":0.01,"pool_fraction":0.1,"seed":1,"ell":3,)"
       R"("alpha":2,"beta":1},"sampling":{"theta":20000,"seed":6,)"
       R"("epsilon":0,"max_theta":2000000,"stopping":"holdout",)"
       R"("threads":2},"plan":{"method":"bab-p","budgets":[10],)"
       R"("gap":0.01,"epsilon":0.5,"bound":"zero","max_nodes":100000,)"
       R"("threads":2,"seed":1}})"},
      {{"--alpha=2.00000000001"},
       R"({"id":"oipa_cli","dataset":{"name":"synthetic","n":2000,)"
       R"("topics":10,"scale":0.01,"pool_fraction":0.1,"seed":1,"ell":3,)"
       R"("alpha":2.00000000001,"beta":1},"sampling":{"theta":20000,)"
       R"("seed":6,"epsilon":0,"max_theta":2000000,)"
       R"("stopping":"holdout"},"plan":{"method":"bab-p","budgets":[10],)"
       R"("gap":0.01,"epsilon":0.5,"bound":"zero","max_nodes":100000,)"
       R"("seed":1}})"},
      {{"--dataset=dblp", "--scale=0.02"},
       R"({"id":"oipa_cli","dataset":{"name":"dblp","n":2000,)"
       R"("topics":10,"scale":0.02,"pool_fraction":0.1,"seed":1,"ell":3,)"
       R"("alpha":2,"beta":1},"sampling":{"theta":20000,"seed":6,)"
       R"("epsilon":0,"max_theta":2000000,"stopping":"holdout"},)"
       R"("plan":{"method":"bab-p","budgets":[10],"gap":0.01,)"
       R"("epsilon":0.5,"bound":"zero","max_nodes":100000,"seed":1}})"},
  };
  for (const auto& [extra, line] : cases) {
    std::vector<std::string> args = {"plan"};
    args.insert(args.end(), extra.begin(), extra.end());
    CliConfig config;
    ASSERT_TRUE(ParseCliConfig(MakeFlags(args), &config).ok()) << line;
    EXPECT_EQ(config.wire_line, line);
  }
}

TEST(CliParseTest, DefaultRequestIsTheWireDefault) {
  // Absent flags write the wire's own defaults; only the sample stream
  // (--seed + 5) differs from an empty request.
  CliConfig config;
  ASSERT_TRUE(ParseCliConfig(MakeFlags({"plan"}), &config).ok());
  const StatusOr<serve::WireRequest> wire =
      serve::ParseWireRequest(R"({"sampling":{"seed":6}})");
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(serve::ContextKey(config.request), serve::ContextKey(*wire));
  EXPECT_EQ(serve::MergeKey(config.request), serve::MergeKey(*wire));
  EXPECT_EQ(config.request.sampling.theta, wire->sampling.theta);
  EXPECT_EQ(config.request.sampling.max_theta, wire->sampling.max_theta);
  EXPECT_EQ(config.request.sampling.epsilon, wire->sampling.epsilon);
  EXPECT_EQ(config.request.sampling.threads, wire->sampling.threads);
  EXPECT_EQ(config.request.plan.budgets, wire->plan.budgets);
  EXPECT_FALSE(config.request.plan.deadline_ms.has_value());
}

TEST(CliParseTest, RejectsMissingAndUnknownSubcommand) {
  CliConfig config;
  EXPECT_EQ(ParseCliConfig(MakeFlags({}), &config).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCliConfig(MakeFlags({"frobnicate"}), &config).code(),
            StatusCode::kInvalidArgument);
}

TEST(CliParseTest, RejectsInvalidValues) {
  CliConfig config;
  EXPECT_FALSE(ParseCliConfig(MakeFlags({"plan", "--k=0"}), &config).ok());
  EXPECT_FALSE(
      ParseCliConfig(MakeFlags({"plan", "--epsilon=1.5"}), &config).ok());
  EXPECT_FALSE(
      ParseCliConfig(MakeFlags({"plan", "--dataset=orkut"}), &config).ok());
  EXPECT_FALSE(
      ParseCliConfig(MakeFlags({"plan", "--bound=tight"}), &config).ok());
  EXPECT_FALSE(
      ParseCliConfig(MakeFlags({"bench", "--k=5,0"}), &config).ok());
  // A budget list is a sweep; only bench runs sweeps.
  EXPECT_FALSE(
      ParseCliConfig(MakeFlags({"plan", "--k=10,20"}), &config).ok());
  EXPECT_TRUE(
      ParseCliConfig(MakeFlags({"bench", "--k=10,20"}), &config).ok());
}

// ------------------------------------------------------------- dispatch

TEST(CliDispatchTest, NoArgsFailsWithUsage) {
  const CliRun run = InvokeCli({});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("usage: oipa_cli"), std::string::npos);
}

TEST(CliDispatchTest, UnknownCommandFails) {
  const CliRun run = InvokeCli({"explode"});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("unknown subcommand"), std::string::npos);
}

TEST(CliDispatchTest, HelpSucceeds) {
  const CliRun run = InvokeCli({"--help"});
  EXPECT_EQ(run.code, 0);
  EXPECT_NE(run.out.find("usage: oipa_cli"), std::string::npos);
}

TEST(CliDispatchTest, MethodListPrintsTheRegistry) {
  // Works even without a subcommand.
  const CliRun run = InvokeCli({"--method=list"});
  EXPECT_EQ(run.code, 0);
  for (const char* name : {"bab", "bab-p", "im", "tim", "brute-force"}) {
    EXPECT_NE(run.out.find(name), std::string::npos) << name;
  }
}

TEST(CliDispatchTest, UnknownMethodFailsWithExitCode2) {
  const CliRun run = InvokeCli(TinyArgs("plan", {"--method=annealing"}));
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("unknown solver 'annealing'"),
            std::string::npos);
  EXPECT_NE(run.err.find("bab-p"), std::string::npos);
}

TEST(CliDispatchTest, UnknownStoppingRuleFailsWithExitCode2) {
  // Mirror of the --method behavior: an unknown rule must not silently
  // fall back to the default — exit 2 and name the valid rules.
  const CliRun run = InvokeCli(TinyArgs("plan", {"--stopping=psychic"}));
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("unknown stopping rule 'psychic'"),
            std::string::npos);
  EXPECT_NE(run.err.find("holdout"), std::string::npos);
  EXPECT_NE(run.err.find("opim"), std::string::npos);
  EXPECT_EQ(run.out.find("\"plan\""), std::string::npos);
}

// ------------------------------------------------------- JSON pipelines

TEST(CliPipelineTest, GenerateEmitsDatasetShape) {
  const CliRun run = InvokeCli(TinyArgs("generate"));
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("\"command\":\"generate\""), std::string::npos);
  EXPECT_NE(run.out.find("\"vertices\":200"), std::string::npos);
  EXPECT_NE(run.out.find("\"pool_size\":20"), std::string::npos);
  // generate stops before planning.
  EXPECT_EQ(run.out.find("\"plan\""), std::string::npos);
}

TEST(CliPipelineTest, LearnReportsRecoveryQuality) {
  const CliRun run = InvokeCli(TinyArgs("learn"));
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("\"learn\":"), std::string::npos);
  EXPECT_NE(run.out.find("\"spearman\":"), std::string::npos);
  EXPECT_NE(run.out.find("\"events\":"), std::string::npos);
}

TEST(CliPipelineTest, PlanEmitsBudgetRespectingPlan) {
  const CliRun run = InvokeCli(TinyArgs("plan"));
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("\"plan\":"), std::string::npos);
  EXPECT_NE(run.out.find("\"utility\":"), std::string::npos);
  EXPECT_NE(run.out.find("\"seed_sets\":"), std::string::npos);
  EXPECT_NE(run.out.find("\"budget_used\":3"), std::string::npos);
}

TEST(CliPipelineTest, SimulateValidatesThePlan) {
  const CliRun run = InvokeCli(TinyArgs("simulate"));
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("\"simulate\":"), std::string::npos);
  EXPECT_NE(run.out.find("\"trials\":50"), std::string::npos);
}

TEST(CliPipelineTest, NamedMethodsDispatchThroughTheRegistry) {
  for (const char* method : {"bab", "im", "tim", "greedy-sigma"}) {
    const CliRun run =
        InvokeCli(TinyArgs("plan", {std::string("--method=") + method}));
    ASSERT_EQ(run.code, 0) << method << ": " << run.err;
    EXPECT_NE(run.out.find(std::string("\"method\":\"") + method + "\""),
              std::string::npos)
        << method;
    EXPECT_NE(run.out.find("\"converged\":"), std::string::npos) << method;
    EXPECT_NE(run.out.find("\"nodes_expanded\":"), std::string::npos)
        << method;
    EXPECT_NE(run.out.find("\"bound_calls\":"), std::string::npos)
        << method;
  }
}

TEST(CliPipelineTest, SamplingEpsilonRunsProgressiveSolving) {
  const CliRun run = InvokeCli(TinyArgs(
      "plan", {"--theta=300", "--sampling_epsilon=0.02",
               "--max_theta=64000"}));
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("\"sampling_epsilon\":0.02"), std::string::npos);
  EXPECT_NE(run.out.find("\"theta_used\":"), std::string::npos);
  EXPECT_NE(run.out.find("\"sampling_rounds\":"), std::string::npos);
  EXPECT_NE(run.out.find("\"sampling_gap\":"), std::string::npos);
  EXPECT_NE(run.out.find("\"holdout_utility\":"), std::string::npos);
}

TEST(CliPipelineTest, PlanReportsSampleStoreTelemetry) {
  const CliRun run = InvokeCli(TinyArgs("plan"));
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("\"sample_store\":"), std::string::npos);
  EXPECT_NE(run.out.find("\"memory_bytes\":"), std::string::npos);
  EXPECT_NE(run.out.find("\"live_generations\":1"), std::string::npos);
  EXPECT_NE(run.out.find("\"holdout_theta\":0"), std::string::npos);

  const CliRun bench = InvokeCli(TinyArgs("bench", {"--k=2,3"}));
  ASSERT_EQ(bench.code, 0) << bench.err;
  EXPECT_NE(bench.out.find("\"sample_store\":"), std::string::npos);
}

TEST(CliPipelineTest, OpimStoppingReportsCertifiedRatio) {
  const CliRun run = InvokeCli(TinyArgs(
      "plan", {"--theta=300", "--sampling_epsilon=0.1",
               "--stopping=opim", "--max_theta=64000"}));
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("\"stopping\":\"opim\""), std::string::npos);
  EXPECT_NE(run.out.find("\"certified_ratio\":"), std::string::npos);
  EXPECT_NE(run.out.find("\"sampling_gap\":"), std::string::npos);
}

TEST(CliPipelineTest, SamplingEpsilonValidation) {
  EXPECT_EQ(InvokeCli(TinyArgs("plan", {"--sampling_epsilon=1.5"})).code,
            2);
  EXPECT_EQ(InvokeCli(TinyArgs("plan", {"--sampling_epsilon=-0.1"})).code,
            2);
  // --max_theta below the starting theta can never be satisfied.
  EXPECT_EQ(InvokeCli(TinyArgs("plan", {"--sampling_epsilon=0.1",
                                        "--max_theta=500"}))
                .code,
            2);
}

TEST(CliPipelineTest, SearchOptionValidation) {
  // Rejected before the dataset is built; they used to abort the solve.
  const std::pair<const char*, const char*> cases[] = {
      {"--gap=-0.5", "--gap"},
      {"--gap=nan", "--gap"},
      {"--epsilon=0", "--epsilon"},
      {"--epsilon=nan", "--epsilon"}};
  for (const auto& [flag, name] : cases) {
    const CliRun run = InvokeCli(TinyArgs("plan", {flag}));
    EXPECT_EQ(run.code, 2) << flag;
    EXPECT_NE(run.err.find(name), std::string::npos) << flag << ": " << run.err;
  }
  EXPECT_EQ(InvokeCli(TinyArgs("plan", {"--gap=0"})).code, 0);
}

TEST(CliPipelineTest, OneShotPlanStillReportsThetaUsed) {
  const CliRun run = InvokeCli(TinyArgs("plan"));
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("\"theta_used\":1000"), std::string::npos);
  EXPECT_NE(run.out.find("\"sampling_rounds\":1"), std::string::npos);
  // No holdout is sampled unless progressive solving asks for one.
  EXPECT_NE(run.out.find("\"holdout_theta\":0"), std::string::npos);
}

TEST(CliPipelineTest, BenchSweepsBudgets) {
  const CliRun run = InvokeCli(TinyArgs("bench", {"--k=2,3"}));
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("\"sweep\":"), std::string::npos);
  EXPECT_NE(run.out.find("\"k\":2"), std::string::npos);
  EXPECT_NE(run.out.find("\"k\":3"), std::string::npos);
}

TEST(CliPipelineTest, DeterministicAcrossRuns) {
  // Wall-clock fields differ between runs; everything else (plan, utility,
  // dataset shape) must be bitwise identical for a fixed seed.
  const auto strip_timings = [](const std::string& json) {
    static const std::regex seconds_re("\"[a-z_]*seconds\":[0-9.e+-]+");
    return std::regex_replace(json, seconds_re, "\"seconds\":X");
  };
  const CliRun a = InvokeCli(TinyArgs("plan"));
  const CliRun b = InvokeCli(TinyArgs("plan"));
  ASSERT_EQ(a.code, 0) << a.err;
  EXPECT_EQ(strip_timings(a.out), strip_timings(b.out));
}

TEST(CliPipelineTest, UnwritableOutputFileFailsTheRun) {
  const CliRun run =
      InvokeCli(TinyArgs("generate", {"--output=/nonexistent/dir/r.json"}));
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("cannot write --output"), std::string::npos);
  // The JSON still reaches stdout for interactive use.
  EXPECT_NE(run.out.find("\"command\":\"generate\""), std::string::npos);
}

TEST(CliPipelineTest, LearnedPlanningPathRuns) {
  const CliRun run = InvokeCli(TinyArgs("plan", {"--learn"}));
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("\"learn\":"), std::string::npos);
  EXPECT_NE(run.out.find("\"plan\":"), std::string::npos);
}

TEST(CliParseTest, DeadlineAndServerFlags) {
  CliConfig config;
  ASSERT_TRUE(ParseCliConfig(
                  MakeFlags({"plan", "--deadline_ms=250",
                             "--server=10.0.0.8:7477"}),
                  &config)
                  .ok());
  EXPECT_EQ(config.request.plan.deadline_ms, 250);
  EXPECT_EQ(config.server, "10.0.0.8:7477");

  // Non-positive deadlines and --server outside `plan` fail at parse
  // time, mirroring the request-layer validation.
  for (const std::vector<std::string>& bad :
       {std::vector<std::string>{"plan", "--deadline_ms=0"},
        {"plan", "--deadline_ms=-5"},
        {"bench", "--server=127.0.0.1:7477"},
        {"serve", "--workers=0"},
        {"serve", "--max_contexts=0"},
        {"serve", "--port=70000"},
        {"serve", "--store_budget_mb=-1"}}) {
    CliConfig rejected;
    EXPECT_FALSE(ParseCliConfig(MakeFlags(bad), &rejected).ok())
        << bad.front() << " " << bad.back();
  }
}

TEST(CliParseTest, ServeCommandParsesDaemonFlags) {
  CliConfig config;
  ASSERT_TRUE(ParseCliConfig(
                  MakeFlags({"serve", "--port=7477", "--workers=3",
                             "--max_contexts=2", "--store_budget_mb=64"}),
                  &config)
                  .ok());
  EXPECT_EQ(config.command, "serve");
  EXPECT_EQ(config.daemon.port, 7477);
  EXPECT_EQ(config.daemon.workers, 3);
  EXPECT_EQ(config.daemon.max_contexts, 2);
  EXPECT_EQ(config.daemon.store_budget_bytes, int64_t{64} << 20);
}

TEST(CliDispatchTest, NonPositiveOrNonFiniteAdoptionParametersExit2) {
  // The logistic model aborts on alpha/beta <= 0; the flag parser must
  // reject them before any pipeline stage runs.
  for (const char* flag : {"--alpha=0", "--alpha=-1", "--alpha=nan",
                           "--beta=0", "--beta=-0.5", "--beta=inf"}) {
    const CliRun run = InvokeCli(TinyArgs("plan", {flag}));
    EXPECT_EQ(run.code, 2) << flag;
    const std::string name(flag, std::strchr(flag, '='));
    EXPECT_NE(run.err.find(name + " must be finite and > 0"),
              std::string::npos)
        << flag << ": " << run.err;
  }
}

TEST(CliDispatchTest, SyntheticSizeOutsideTheGeneratorRangeExits2) {
  // n = 3 trips the Holme-Kim generator's n >= m + 1 CHECK and
  // 2147483648 narrows to a negative VertexId; both must exit 2.
  for (const char* flag : {"--n=3", "--n=4", "--n=2147483648"}) {
    const CliRun run = InvokeCli(TinyArgs("generate", {flag}));
    EXPECT_EQ(run.code, 2) << flag;
    EXPECT_NE(run.err.find("--n must be in [5, 2147483647]"),
              std::string::npos)
        << flag << ": " << run.err;
  }
  const CliRun smallest = InvokeCli(TinyArgs("generate", {"--n=5"}));
  EXPECT_EQ(smallest.code, 0) << smallest.err;
}

TEST(CliDispatchTest, SampleCountsPastTheIdCeilingExit2) {
  // MRR sample ids are 32-bit, so every sampling subcommand refuses a
  // theta or max_theta above 2^32 - 1 before building anything.
  for (const char* command : {"plan", "simulate", "bench"}) {
    for (const char* flag :
         {"--theta=5000000000", "--max_theta=5000000000"}) {
      const CliRun run = InvokeCli(TinyArgs(command, {flag}));
      EXPECT_EQ(run.code, 2) << command << " " << flag;
      EXPECT_NE(run.err.find("4294967295"), std::string::npos)
          << command << " " << flag << ": " << run.err;
    }
  }
}

TEST(CliDispatchTest, PieceCountsPastTheCeilingExit2) {
  // Covered-piece counts are bytes, so 256 pieces would wrap them; and
  // 2^32 + 1 must not narrow to one piece.
  for (const char* flag : {"--ell=256", "--ell=300", "--ell=4294967297"}) {
    const CliRun run = InvokeCli(TinyArgs("plan", {flag}));
    EXPECT_EQ(run.code, 2) << flag;
    EXPECT_NE(run.err.find("--ell must be in [1, 255]"), std::string::npos)
        << flag << ": " << run.err;
  }
  const CliRun widest = InvokeCli(TinyArgs("generate", {"--ell=255"}));
  EXPECT_EQ(widest.code, 0) << widest.err;
}

TEST(CliDispatchTest, ValuesTheWireRefusesExit2) {
  // Unchecked, these abort on a dataset CHECK or solve another problem:
  // k narrowed to 3, a search allowed to expand no node.
  const std::vector<std::vector<std::string>> cases = {
      {"--dataset=dblp", "--scale=2"},
      {"--scale=0"},
      {"--pool_fraction=0"},
      {"--pool_fraction=2"},
      {"--max_nodes=0"},
      {"--k=4294967299"}};
  for (const char* command : {"plan", "generate"}) {
    for (const std::vector<std::string>& flags : cases) {
      const CliRun run = InvokeCli(TinyArgs(command, flags));
      EXPECT_EQ(run.code, 2) << command << " " << flags.back();
      EXPECT_EQ(run.out.find("\"plan\""), std::string::npos)
          << command << " " << flags.back();
    }
  }
}

TEST(CliDispatchTest, IntegerFlagsAreNeverNarrowedOrTruncated) {
  // Each ran before with another value: 1 topic, theta = 1, k = 3, and
  // the narrowed, truncated or clamped value of every other integer
  // flag. Each must exit 2 before the dataset is built, naming the flag.
  const std::vector<std::pair<std::vector<std::string>, std::string>>
      cases = {
          {{"generate", "--n=200", "--topics=4294967297"}, "--topics"},
          {{"plan", "--n=200", "--theta=1e5"}, "--theta"},
          {{"plan", "--k=3x"}, "--k"},
          {{"generate", "--n=200x"}, "--n"},
          {{"generate", "--ell=3x"}, "--ell"},
          {{"generate", "--max_theta=2e6"}, "--max_theta"},
          {{"generate", "--max_nodes=1e5"}, "--max_nodes"},
          {{"generate", "--deadline_ms=5x"}, "--deadline_ms"},
          {{"generate", "--threads=4294967298"}, "--threads"},
          {{"generate", "--seed=1e5"}, "--seed"},
          {{"generate", "--seed=18446744073709551615"}, "--seed"},
          {{"generate", "--trials=4294967297"}, "--trials"},
          {{"generate", "--cascades=4294967297"}, "--cascades"},
          {{"generate", "--em_iterations=4294967297"}, "--em_iterations"},
          {{"generate", "--retries=4294967297"}, "--retries"},
          {{"generate", "--timeout_ms=4294967297"}, "--timeout_ms"},
          {{"generate", "--indent=4294967297"}, "--indent"},
          {{"generate", "--alpha=2x"}, "--alpha"},
      };
  for (const auto& [args, flag] : cases) {
    const CliRun run = InvokeCli(args);
    EXPECT_EQ(run.code, 2) << args.back();
    EXPECT_NE(run.err.find("oipa_cli: InvalidArgument: " + flag),
              std::string::npos)
        << args.back() << ": " << run.err;
    EXPECT_EQ(run.err.find("building dataset"), std::string::npos)
        << args.back();
    EXPECT_TRUE(run.out.empty()) << args.back();
  }
}

TEST(CliParseTest, ServeReadsTheDaemonFlagsStrictly) {
  // `oipa_cli serve` reads oipa_serve's ten flags through the one
  // launcher, so values outside their type are refused, not narrowed
  // (4294967298 workers once started 2).
  for (const std::vector<std::string>& bad :
       {std::vector<std::string>{"serve", "--port=0",
                                 "--workers=4294967298"},
        {"serve", "--port=0", "--max_contexts=4294967297"},
        {"serve", "--port=4294967297"},
        {"serve", "--max_queue_depth=0"},
        {"serve", "--write_timeout_ms=1e3"}}) {
    CliConfig config;
    const Status status = ParseCliConfig(MakeFlags(bad), &config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad.back();
    const std::string flag = bad.back().substr(2, bad.back().find('=') - 2);
    EXPECT_NE(status.message().find(flag), std::string::npos)
        << bad.back() << ": " << status.message();
  }
  CliConfig config;
  ASSERT_TRUE(ParseCliConfig(
                  MakeFlags({"serve", "--host=0.0.0.0",
                             "--max_queue_depth=7",
                             "--max_inflight_per_conn=3",
                             "--write_timeout_ms=900",
                             "--checkpoint_dir=ckpt",
                             "--checkpoint_interval_ms=450"}),
                  &config)
                  .ok());
  EXPECT_EQ(config.daemon.host, "0.0.0.0");
  EXPECT_EQ(config.daemon.max_queue_depth, 7);
  EXPECT_EQ(config.daemon.max_inflight_per_conn, 3);
  EXPECT_EQ(config.daemon.write_timeout_ms, 900);
  EXPECT_EQ(config.daemon.checkpoint_dir, "ckpt");
  EXPECT_EQ(config.daemon.checkpoint_interval_ms, 450);
}

TEST(CliParseTest, UnknownFlagsAreRefusedNamingTheFlag) {
  // A flag the command does not read must not run with its default: a
  // misspelled --theta, --share_samples, daemon flags misspelled under
  // serve.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"plan", "--theta=400", "--thetaa=300"},
        {"plan", "--share_samples=false"},
        {"bench", "--k=2,3", "--trails=5"},
        {"serve", "--port=0", "--max_context=4"},
        {"serve", "--port=0", "--wokers=3"}}) {
    CliConfig config;
    const Status status = ParseCliConfig(MakeFlags(args), &config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << args.back();
    const std::string flag = args.back().substr(0, args.back().find('='));
    EXPECT_NE(status.message().find("unknown flag " + flag),
              std::string::npos)
        << status.message();
  }
  const CliRun run =
      InvokeCli({"plan", "--dataset=synthetic", "--n=300", "--k=2",
                 "--theta=400", "--thetaa=300"});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("unknown flag --thetaa"), std::string::npos)
      << run.err;
  EXPECT_TRUE(run.out.empty());
  // --method is not a daemon flag, not even to list the solvers.
  const CliRun serve = InvokeCli({"serve", "--port=0", "--method=list"});
  EXPECT_EQ(serve.code, 2);
  EXPECT_NE(serve.err.find("unknown flag --method"), std::string::npos)
      << serve.err;
}

TEST(CliDispatchTest, LearnWithServerExits2) {
  // The wire has no field for learned probabilities, so --server would
  // plan on the ground truth instead.
  const CliRun run = InvokeCli(
      TinyArgs("plan", {"--learn", "--server=127.0.0.1:7477"}));
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("--learn"), std::string::npos) << run.err;
  EXPECT_EQ(run.out.find("\"plan\""), std::string::npos);
}

TEST(CliDispatchTest, RemotePlanRejectsMalformedServer) {
  const CliRun run =
      InvokeCli(TinyArgs("plan", {"--server=no-port-here"}));
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("host:port"), std::string::npos);
}

/// A result row without its wall-clock field, as compact JSON.
std::string RowWithoutSolveSeconds(const JsonValue& row) {
  JsonValue out = JsonValue::Object();
  for (const auto& [key, value] : row.members()) {
    if (key != "solve_seconds") out.Set(key, value);
  }
  return out.Dump(-1);
}

TEST(CliPipelineTest, RemotePlanMatchesLocalSolve) {
  serve::PlanServer server({});  // 127.0.0.1, free port
  ASSERT_TRUE(server.Start().ok());
  const std::string server_flag =
      "--server=127.0.0.1:" + std::to_string(server.port());

  // The same tiny configuration solved locally and via the daemon must
  // produce the identical utility: both solve the same wire request.
  const CliRun local = InvokeCli(TinyArgs("plan"));
  ASSERT_EQ(local.code, 0) << local.err;
  const CliRun remote = InvokeCli(TinyArgs("plan", {server_flag}));
  ASSERT_EQ(remote.code, 0) << remote.err;
  EXPECT_NE(remote.out.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(remote.out.find("\"cache_hit\":"), std::string::npos);

  const std::regex utility_re("\"utility\":([0-9.eE+-]+)");
  std::smatch local_match, remote_match;
  ASSERT_TRUE(
      std::regex_search(local.out, local_match, utility_re));
  ASSERT_TRUE(
      std::regex_search(remote.out, remote_match, utility_re));
  EXPECT_EQ(local_match[1].str(), remote_match[1].str());

  // The whole row, not just the utility: the local plan row is the
  // daemon's results[0] once the wall-clock field is dropped.
  const std::vector<std::vector<std::string>> flag_sets = {
      {},
      {"--method=bab", "--bound=paper"},
      {"--sampling_epsilon=0.05", "--stopping=opim"},
      {"--deadline_ms=60000"},
      {"--alpha=2.00000000001"}};
  for (const std::vector<std::string>& flags : flag_sets) {
    const std::string label = flags.empty() ? "defaults" : flags.front();
    const CliRun local_run = InvokeCli(TinyArgs("plan", flags));
    ASSERT_EQ(local_run.code, 0) << label << ": " << local_run.err;
    std::vector<std::string> remote_flags = flags;
    remote_flags.push_back(server_flag);
    const CliRun remote_run = InvokeCli(TinyArgs("plan", remote_flags));
    ASSERT_EQ(remote_run.code, 0) << label << ": " << remote_run.err;

    const StatusOr<JsonValue> local_json = serve::ParseJson(local_run.out);
    const StatusOr<JsonValue> remote_json =
        serve::ParseJson(remote_run.out);
    ASSERT_TRUE(local_json.ok()) << label;
    ASSERT_TRUE(remote_json.ok()) << label;
    const JsonValue* local_row = local_json->Find("plan");
    const JsonValue* results = remote_json->Find("results");
    ASSERT_NE(local_row, nullptr) << label;
    ASSERT_TRUE(results != nullptr && results->is_array() &&
                results->size() == 1)
        << label << ": " << remote_run.out;
    EXPECT_EQ(RowWithoutSolveSeconds(*local_row),
              RowWithoutSolveSeconds(results->at(0)))
        << label;
  }
  server.Stop();
}

TEST(CliPipelineTest, DeadlineFlagReportsCancellation) {
  // A generous deadline leaves the tiny solve untouched but switches
  // the cancellation telemetry on in the plan JSON.
  const CliRun run =
      InvokeCli(TinyArgs("plan", {"--deadline_ms=60000"}));
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("\"cancelled\":false"), std::string::npos);
  EXPECT_NE(run.out.find("\"deadline_exceeded\":false"),
            std::string::npos);
}

TEST(CliPipelineTest, ThreadsFlagRunsTheParallelEngine) {
  // TinyArgs pins --threads=1; override with a multi-worker solve across
  // plan and bench. The parallel engine must still produce a complete,
  // converged result.
  for (const char* extra : {"--threads=2", "--threads=4"}) {
    const CliRun run = InvokeCli(TinyArgs("plan", {extra}));
    ASSERT_EQ(run.code, 0) << extra << ": " << run.err;
    EXPECT_NE(run.out.find("\"utility\":"), std::string::npos) << extra;
    EXPECT_NE(run.out.find("\"budget_used\":3"), std::string::npos)
        << extra;
  }
  const CliRun bench = InvokeCli(TinyArgs("bench", {"--k=2,3",
                                                    "--threads=2"}));
  ASSERT_EQ(bench.code, 0) << bench.err;
  EXPECT_NE(bench.out.find("\"sweep\":"), std::string::npos);
}

}  // namespace
}  // namespace cli
}  // namespace oipa
