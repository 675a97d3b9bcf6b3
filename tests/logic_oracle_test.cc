// Wrong-result (logic-bug) oracles: the EET transformer, the cross-dialect
// differential oracle, and their campaign wiring.
//
// The two load-bearing properties, asserted as hard test failures:
//   1. Zero false positives — on a clean engine (logic faults disarmed)
//      every EET variant that executes is result-identical to its original,
//      across all seven dialects, the registry example corpus, and a
//      64-seed randomized boundary-argument sweep.
//   2. Full seeded recall — a campaign with every oracle armed finds every
//      seeded LogicBugSpec on every dialect, attributes it to an oracle,
//      and reproduces the identical logic outcome (bug set, counters,
//      digest) under partition sharding and under tracing.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/dialects/dialect_diffs.h"
#include "src/dialects/dialects.h"
#include "src/soft/chaos.h"
#include "src/soft/eet_transform.h"
#include "src/soft/logic_oracle.h"
#include "src/soft/soft_fuzzer.h"

namespace soft {
namespace {

class LogicOracleDialectTest : public testing::TestWithParam<std::string> {};

// Property 1: the transformer is sound. On a clean engine every variant of
// every successfully executed comparable statement returns the same result
// set (SameResultSet). The statement pool is the registry's own example
// corpus plus randomized boundary arguments over the logic_t fixture —
// 64 seeds so const folding, NULL propagation, and overflow edges all get
// wrapped in COALESCE shells and identity chains.
TEST_P(LogicOracleDialectTest, EetVariantsAreResultIdenticalOnCleanEngine) {
  auto db = MakeDialect(GetParam());
  ASSERT_NE(db, nullptr);
  ASSERT_FALSE(db->logic_faults_enabled()) << "dialects must seed logic bugs inert";
  for (const std::string& prereq : LogicOraclePrerequisites()) {
    ASSERT_TRUE(db->Execute(prereq).ok()) << prereq;
  }

  std::vector<std::string> pool;
  std::vector<std::string> unary;  // scalar single-argument function names
  for (const FunctionDef* def : db->registry().All()) {
    if (!def->example.empty()) {
      pool.push_back("SELECT " + def->example);
    }
    if (!def->is_aggregate && def->min_args == 1) {
      unary.push_back(def->name);
    }
  }
  ASSERT_FALSE(unary.empty());
  const std::vector<std::string> literals = {
      "0",  "1",   "-1",  "2",    "3",    "0.0", "1.5",
      "-1.8", "''", "'a'", "'abc'", "NULL", "9999999999999999",
      "-9999999999999", "0.0000000001"};
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    std::mt19937_64 rng(seed);
    const std::string& fn = unary[rng() % unary.size()];
    const std::string& lit = literals[rng() % literals.size()];
    const char* cols[] = {"a", "b", "c"};
    const char* col = cols[rng() % 3];
    pool.push_back("SELECT " + fn + "(" + lit + ")");
    pool.push_back("SELECT " + fn + "(" + col + ") FROM logic_t");
    pool.push_back("SELECT COUNT(*) FROM logic_t WHERE " + fn + "(a) >= " +
                   (rng() % 2 == 0 ? "1" : "0"));
  }

  int variants_checked = 0;
  for (const std::string& sql : pool) {
    const StatementResult original = db->Execute(sql);
    const Result<Statement> parsed = ParseStatement(sql);
    if (!original.ok() || !parsed.ok() || !OracleComparable(*parsed)) {
      continue;  // errors and volatile statements are out of oracle scope
    }
    for (const EetVariant& variant : BuildEetVariants(*parsed, sql)) {
      const StatementResult rewritten = db->Execute(variant.sql, variant.stmt);
      if (!rewritten.ok()) {
        continue;  // declared difference (e.g. depth-triggered crash corpus)
      }
      ++variants_checked;
      EXPECT_TRUE(SameResultSet(rewritten, original))
          << GetParam() << ": false positive — " << variant.label
          << " diverged on a clean engine\n  original: " << sql
          << "\n  variant:  " << variant.sql;
    }
  }
  // The sweep must actually exercise the transformer, not vacuously pass.
  EXPECT_GT(variants_checked, 200) << GetParam();
}

std::vector<int> LogicHitIds(const StatementResult& r) {
  std::vector<int> ids;
  for (const LogicBugInfo& hit : r.logic_hits) {
    ids.push_back(hit.bug_id);
  }
  return ids;
}

// The EET oracle executes each variant's own tree, never a re-parse of its
// printed SQL, so the two must agree. Over every SELECT case of every
// dialect's seed-1 logic pool (every pattern but P3.1), each printed variant
// re-parses and re-prints to itself; for every 4th such case, which keeps
// the run to seconds, the variant's tree executes exactly as its text does.
TEST(EetVariants, RunFromTheTreeAsFromTheirText) {
  CampaignOptions options;
  options.seed = 1;
  options.logic_oracles = {"all"};
  SoftOptions soft_options;
  soft_options.only_patterns = {"P1.2", "P1.3", "P1.4", "P2.1",
                                "P2.2", "P2.3", "P3.2", "P3.3"};
  for (const std::string& dialect : AllDialectNames()) {
    const std::shared_ptr<const CasePool> pool =
        BuildCasePool(dialect, options, soft_options);
    ASSERT_NE(pool, nullptr);
    const std::unique_ptr<Database> db = MakeDialect(dialect);
    for (const std::string& prereq : pool->prerequisites) {
      db->Execute(prereq);
    }
    for (const std::string& prereq : LogicOraclePrerequisites()) {
      db->Execute(prereq);
    }
    db->set_logic_faults_enabled(true);

    size_t selects = 0, printed = 0, executed = 0;
    for (const GeneratedCase& test_case : pool->cases) {
      const Result<Statement> parsed = ParseStatement(test_case.sql);
      if (!parsed.ok() || !parsed->is_select()) {
        continue;
      }
      const bool execute = selects++ % 4 == 0;
      for (const EetVariant& variant : BuildEetVariants(*parsed, test_case.sql)) {
        ++printed;
        const Result<Statement> reparsed = ParseStatement(variant.sql);
        ASSERT_TRUE(reparsed.ok()) << dialect << ": " << variant.sql;
        EXPECT_EQ(reparsed->ToSql(), variant.sql) << dialect;
        if (!execute) {
          continue;
        }
        ++executed;
        const StatementResult tree = db->Execute(variant.sql, variant.stmt);
        const StatementResult text = db->Execute(variant.sql);
        EXPECT_EQ(tree.status.code(), text.status.code()) << variant.sql;
        EXPECT_EQ(tree.status.message(), text.status.message()) << variant.sql;
        EXPECT_EQ(tree.crashed() ? tree.crash->bug_id : 0,
                  text.crashed() ? text.crash->bug_id : 0)
            << variant.sql;
        EXPECT_EQ(LogicHitIds(tree), LogicHitIds(text)) << variant.sql;
        EXPECT_TRUE(SameResultSet(tree, text)) << variant.sql;
      }
    }
    // Every pool must exercise the transformer, not vacuously pass.
    EXPECT_GT(printed, 40000u) << dialect;
    EXPECT_GT(executed, 10000u) << dialect;
  }
}

// Property 2a: full recall with attribution. Every seeded LogicBugSpec is
// found (the logic-seed PoC cases lead the campaign), attributed to the
// deterministic first flagging oracle, and no clean statement is flagged.
TEST_P(LogicOracleDialectTest, CampaignFindsEverySeededLogicBugWithZeroFalsePositives) {
  auto db = MakeDialect(GetParam());
  ASSERT_NE(db, nullptr);
  SoftFuzzer fuzzer;
  CampaignOptions options;
  options.seed = 3;
  options.max_statements = 600;
  options.stop_when_all_bugs_found = false;
  options.logic_oracles = {"all"};
  const CampaignResult result = fuzzer.Run(*db, options);

  std::set<int> found;
  for (const FoundLogicBug& bug : result.logic_bugs) {
    found.insert(bug.info.bug_id);
    EXPECT_TRUE(bug.oracle == "eet" || bug.oracle == "diff" ||
                bug.oracle == "norec" || bug.oracle == "tlp")
        << bug.oracle;
    EXPECT_FALSE(bug.poc_sql.empty());
    EXPECT_FALSE(bug.witness.empty());
  }
  std::set<int> seeded;
  for (const LogicBugSpec& spec : db->faults().AllLogicBugs()) {
    seeded.insert(spec.id);
  }
  EXPECT_EQ(found, seeded) << GetParam();
  EXPECT_EQ(static_cast<int>(found.size()), ExpectedLogicBugCount(GetParam()));
  EXPECT_EQ(result.logic_false_positives, 0) << GetParam();
  EXPECT_GT(result.logic_checks, 0) << GetParam();
  EXPECT_GE(result.logic_divergences, static_cast<int>(found.size()));
}

INSTANTIATE_TEST_SUITE_P(AllDialects, LogicOracleDialectTest,
                         testing::ValuesIn(AllDialectNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// Property 2b: the logic outcome is a pure function of the case partition —
// a 4-shard partitioned campaign reproduces the serial campaign's logic
// verdicts field by field (modulo the shard-local attribution columns) and
// bit-identically under DigestLogicOutcome.
TEST(LogicOracleSharding, PartitionModeReproducesSerialLogicOutcome) {
  for (const std::string dialect : {"postgresql", "virtuoso"}) {
    CampaignOptions options;
    options.seed = 11;
    options.max_statements = 900;
    options.stop_when_all_bugs_found = false;
    options.logic_oracles = {"all"};
    const CampaignResult serial = RunShardedSoftCampaign(dialect, options, 1);
    const CampaignResult sharded = RunShardedSoftCampaign(dialect, options, 4);

    EXPECT_EQ(serial.logic_checks, sharded.logic_checks) << dialect;
    EXPECT_EQ(serial.logic_divergences, sharded.logic_divergences) << dialect;
    EXPECT_EQ(serial.logic_false_positives, sharded.logic_false_positives) << dialect;
    ASSERT_EQ(serial.logic_bugs.size(), sharded.logic_bugs.size()) << dialect;
    for (size_t i = 0; i < serial.logic_bugs.size(); ++i) {
      const FoundLogicBug& s = serial.logic_bugs[i];
      const FoundLogicBug& p = sharded.logic_bugs[i];
      EXPECT_EQ(s.info.bug_id, p.info.bug_id) << dialect;
      EXPECT_EQ(s.oracle, p.oracle) << dialect;
      EXPECT_EQ(s.poc_sql, p.poc_sql) << dialect;
      EXPECT_EQ(s.witness, p.witness) << dialect;
      EXPECT_EQ(s.case_index, p.case_index)
          << dialect << ": case_index must be the global ordinal, not shard-local";
    }
    EXPECT_EQ(DigestLogicOutcome(serial), DigestLogicOutcome(sharded)) << dialect;
  }
}

TEST(LogicOracleNames, ValidationAndDeduplication) {
  for (const char* name : {"eet", "diff", "norec", "tlp", "all"}) {
    EXPECT_TRUE(IsKnownLogicOracle(name)) << name;
  }
  EXPECT_FALSE(IsKnownLogicOracle(""));
  EXPECT_FALSE(IsKnownLogicOracle("EET"));
  EXPECT_FALSE(IsKnownLogicOracle("qpg"));

  const auto all = MakeLogicOracles({"all"}, "postgresql");
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0]->name(), "eet");
  EXPECT_EQ(all[1]->name(), "diff");
  EXPECT_EQ(all[2]->name(), "norec");
  EXPECT_EQ(all[3]->name(), "tlp");
  // Duplicates and re-mentions after "all" collapse, order preserved.
  const auto deduped = MakeLogicOracles({"tlp", "tlp", "all"}, "postgresql");
  ASSERT_EQ(deduped.size(), 4u);
  EXPECT_EQ(deduped[0]->name(), "tlp");
  EXPECT_EQ(deduped[1]->name(), "eet");
}

// Property 2c: statement spans carry the oracle verdict annotation, tracing
// does not change the outcome, and no clean statement is ever annotated as
// a false positive.
TEST(LogicOracleTracing, StatementSpansCarryVerdictsWithoutPerturbingOutcome) {
  CampaignOptions options;
  options.seed = 5;
  options.max_statements = 400;
  options.stop_when_all_bugs_found = false;
  options.logic_oracles = {"all"};
  const CampaignResult untraced = RunShardedSoftCampaign("mysql", options, 1);
  options.trace_sample = 1;
  const CampaignResult traced = RunShardedSoftCampaign("mysql", options, 1);

  EXPECT_EQ(DigestCampaignResult(untraced), DigestCampaignResult(traced));
  EXPECT_EQ(DigestLogicOutcome(untraced), DigestLogicOutcome(traced));

  int verdicts = 0, bug_verdicts = 0;
  for (const trace::TraceSpan& span : traced.trace.spans) {
    if (span.kind != trace::SpanKind::kStatement) {
      continue;
    }
    for (const auto& [key, value] : span.args) {
      if (key != "oracle_verdict") {
        continue;
      }
      ++verdicts;
      EXPECT_TRUE(value == "consistent" || value == "skipped" ||
                  value.rfind("logic_bug:", 0) == 0)
          << "unexpected verdict annotation: " << value;
      if (value.rfind("logic_bug:", 0) == 0) {
        ++bug_verdicts;
      }
    }
  }
  EXPECT_GT(verdicts, 100);
  EXPECT_GE(bug_verdicts, 3);  // the three logic-seed PoC statements
}

}  // namespace
}  // namespace soft
