// Substrate-robustness properties: the vanilla engine (no injected faults)
// must survive everything the four fuzzers can throw at it — no crashes, no
// kInternal errors, no aborts — and every generated statement must at least
// tokenize. These are the "reference implementations carry the fixes"
// guarantees the whole reproduction rests on.
#include <gtest/gtest.h>

#include "src/baselines/comparison.h"
#include "src/dialects/dialects.h"
#include "src/soft/boundary_values.h"
#include "src/soft/expr_collection.h"
#include "src/soft/patterns.h"
#include "src/soft/seeds.h"
#include "src/sqlparser/parser.h"

namespace soft {
namespace {

// A dialect stripped of its fault corpus: same catalog/strictness, no bugs.
std::unique_ptr<Database> VanillaTwin(const std::string& dialect) {
  auto db = MakeDialect(dialect);
  // Copy every engine knob explicitly: the twin must differ from the dialect
  // in exactly one way — no fault corpus. A knob that drifts here (cast
  // strictness, engine limits, watchdog budgets) silently weakens every
  // robustness property below.
  EngineConfig config;
  config.name = db->config().name;
  config.cast_options = db->config().cast_options;
  config.limits = db->config().limits;
  config.statement_limits = db->config().statement_limits;
  auto twin = std::make_unique<Database>(config);
  // Copy the dialect's exact catalog (including dialect-specific extras).
  FunctionRegistry& target = twin->registry();
  std::vector<std::string> to_remove;
  for (const FunctionDef* def : target.All()) {
    if (!db->registry().Contains(def->name)) {
      to_remove.push_back(def->name);
    }
  }
  for (const std::string& name : to_remove) {
    target.Remove(name);
  }
  for (const FunctionDef* def : db->registry().All()) {
    target.Register(*def);
  }
  return twin;
}

class FuzzerRobustnessTest
    : public testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(FuzzerRobustnessTest, VanillaEngineSurvivesEveryFuzzer) {
  const auto& [dialect, tool_index] = GetParam();
  auto tools = MakeAllTools();
  Fuzzer& tool = *tools[static_cast<size_t>(tool_index)];

  auto db = VanillaTwin(dialect);
  CampaignOptions options;
  options.seed = 17;
  options.max_statements = 3000;
  const CampaignResult result = tool.Run(*db, options);

  EXPECT_EQ(result.crashes_observed, 0)
      << tool.name() << " crashed the vanilla " << dialect << " twin";
  EXPECT_TRUE(result.unique_bugs.empty());
  EXPECT_EQ(result.statements_executed, 3000);
}

std::string RobustnessName(
    const testing::TestParamInfo<std::tuple<std::string, int>>& info) {
  static const char* kTools[] = {"squirrel", "sqlancer", "sqlsmith", "soft"};
  return std::get<0>(info.param) + "_" + kTools[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, FuzzerRobustnessTest,
    testing::Combine(testing::Values("postgresql", "mariadb", "duckdb", "virtuoso"),
                     testing::Values(0, 1, 2, 3)),
    RobustnessName);

TEST(FuzzerRobustness, VanillaTwinSurvivesRealCrashMode) {
  // With no fault corpus there is nothing to realize: under
  // CrashRealism::kReal the campaign runs its full budget without a crash,
  // a forked copy or a flight record.
  CampaignOptions options;
  options.seed = 17;
  options.max_statements = 1500;
  options.crash_realism = CrashRealism::kReal;

  auto db = VanillaTwin("mariadb");
  SoftFuzzer fuzzer;
  const CampaignResult result = fuzzer.Run(*db, options);

  EXPECT_EQ(result.crashes_observed, 0);
  EXPECT_TRUE(result.unique_bugs.empty());
  EXPECT_TRUE(result.crash_flights.empty());
  EXPECT_EQ(result.statements_executed, 1500);
}

class PatternSqlValidityTest : public testing::TestWithParam<std::string> {};

TEST_P(PatternSqlValidityTest, EveryGeneratedCaseParses) {
  // Property: the pattern engine emits only parseable SQL for every seed of
  // every dialect — mutations never corrupt syntax.
  auto db = MakeDialect(GetParam());
  PatternEngine engine(*db, 23);
  const std::vector<std::string> suite = SeedSuiteFor(GetParam());
  const FunctionCorpus corpus = CollectCorpus(*db, suite);

  int checked = 0;
  for (size_t i = 0; i < corpus.expressions.size(); i += 7) {  // sampled seeds
    std::vector<GeneratedCase> cases;
    engine.GenerateAll(corpus.expressions[i], corpus.expressions, cases);
    for (const GeneratedCase& c : cases) {
      const Result<Statement> parsed = ParseStatement(c.sql);
      ASSERT_TRUE(parsed.ok()) << c.pattern << ": " << c.sql << " -> "
                               << parsed.status().ToString();
      ++checked;
    }
  }
  EXPECT_GT(checked, 500);
}

INSTANTIATE_TEST_SUITE_P(AllDialects, PatternSqlValidityTest,
                         testing::ValuesIn(AllDialectNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(PoolRobustness, EveryPoolSnippetParsesAsExpression) {
  for (const std::string& snippet : GenerateBoundaryPool().snippets) {
    EXPECT_TRUE(ParseExpression(snippet).ok()) << snippet;
  }
  for (const std::string& snippet : GenerateExtremesOnlyPool().snippets) {
    EXPECT_TRUE(ParseExpression(snippet).ok()) << snippet;
  }
}

TEST(SeedRobustness, EverySuiteLineExecutesOrErrorsCleanly) {
  for (const std::string& dialect : AllDialectNames()) {
    auto db = MakeDialect(dialect);
    for (const std::string& line : SeedSuiteFor(dialect)) {
      const StatementResult r = db->Execute(line);
      EXPECT_FALSE(r.crashed()) << dialect << " seed crashed: " << line << " -> "
                                << r.crash->Summary();
      EXPECT_NE(r.status.code(), StatusCode::kInternal) << dialect << ": " << line;
      // Seeds are the dialect's regression suite: they must actually pass.
      EXPECT_TRUE(r.ok()) << dialect << " seed failed: " << line << " -> "
                          << r.status.ToString();
    }
  }
}

}  // namespace
}  // namespace soft
