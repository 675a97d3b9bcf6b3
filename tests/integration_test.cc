// Cross-module integration tests: table-backed crash paths (Finding 4
// shapes), PoC builder properties, dialect isolation, and end-to-end script
// behaviour after a crash.
#include <gtest/gtest.h>

#include "src/dialects/dialects.h"
#include "src/soft/soft_fuzzer.h"

namespace soft {
namespace {

TEST(Integration, TableBackedCrashPath) {
  // Finding 4: 47.5% of the studied PoCs route crafted values through
  // CREATE TABLE + INSERT and a FROM clause. The fault layer must fire on
  // values arriving from table rows exactly as on literals.
  auto db = MakeMariadbDialect();
  ASSERT_TRUE(db->Execute("CREATE TABLE nums (v DECIMAL(65,0))").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO nums VALUES (" + std::string(60, '9') + ")").ok());
  // MariaDB bug 13 (COLUMN_CREATE, decimal digits >= 41) via a column ref.
  const StatementResult r =
      db->Execute("SELECT COLUMN_CREATE('x', v) FROM nums");
  ASSERT_TRUE(r.crashed()) << r.status.ToString();
  EXPECT_EQ(r.crash->function, "COLUMN_CREATE");
}

TEST(Integration, InsertItselfCanCrash) {
  // Crafted values can crash during INSERT's implicit column conversion.
  auto db = MakeMariadbDialect();
  BugSpec spec;
  spec.id = 901;
  spec.dbms = "mariadb";
  spec.function = "CAST";
  spec.function_type = "casting";
  spec.crash = CrashType::kHeapBufferOverflow;
  spec.pattern = "P2.1";
  spec.trigger = TriggerKind::kCastTargetIs;
  spec.param_type = TypeKind::kDate;
  db->faults().AddBug(spec);
  ASSERT_TRUE(db->Execute("CREATE TABLE d (x DATE)").ok());
  const StatementResult r = db->Execute("INSERT INTO d VALUES ('2024-01-01')");
  ASSERT_TRUE(r.crashed());
  EXPECT_EQ(r.crash->bug_id, 901);
}

TEST(Integration, ScriptStopsAfterCrash) {
  // A crashed server processes nothing further in the script.
  auto db = MakeVirtuosoDialect();
  const auto results = db->ExecuteScript(
      "SELECT 1; SELECT CONTAINS('x', 'x', *); SELECT 2");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].crashed());
}

TEST(Integration, DialectBugsAreIsolated) {
  // The Virtuoso CONTAINS star bug must not exist in dialects that either
  // lack CONTAINS or implement it correctly.
  auto virtuoso = MakeVirtuosoDialect();
  const StatementResult v = virtuoso->Execute("SELECT CONTAINS('x', 'x', *)");
  EXPECT_TRUE(v.crashed());

  Database vanilla;  // no injected bugs at all
  const StatementResult clean = vanilla.Execute("SELECT CONTAINS('x', 'x', *)");
  EXPECT_FALSE(clean.crashed());
  EXPECT_EQ(clean.status.code(), StatusCode::kInvalidArgument);
}

TEST(Integration, VanillaEngineHasNoBugs) {
  // A plain Database never crashes on the entire PoC corpus of all dialects
  // (its reference implementations carry the fixes).
  Database vanilla;
  int checked = 0;
  for (const std::string& name : AllDialectNames()) {
    auto dialect = MakeDialect(name);
    for (const BugSpec& spec : dialect->faults().AllBugs()) {
      const Result<std::string> poc = BuildPocSql(*dialect, spec);
      if (!poc.ok()) {
        continue;
      }
      const StatementResult r = vanilla.Execute(*poc);
      EXPECT_FALSE(r.crashed()) << name << " PoC crashed the vanilla engine: " << *poc;
      ++checked;
    }
  }
  EXPECT_GT(checked, 120);
}

TEST(Integration, Table4CorpusIsExecuteStage) {
  // All of SOFT's Table 4 bugs fire at the execution stage (the paper's
  // campaign bugs are argument-triggered); stage attribution must agree.
  for (const std::string& name : AllDialectNames()) {
    auto db = MakeDialect(name);
    for (const BugSpec& spec : db->faults().AllBugs()) {
      const Result<std::string> poc = BuildPocSql(*db, spec);
      ASSERT_TRUE(poc.ok());
      const StatementResult r = db->Execute(*poc);
      ASSERT_TRUE(r.crashed());
      EXPECT_EQ(r.crash->stage, Stage::kExecute) << name << " bug " << spec.id;
    }
  }
}

TEST(Integration, CoverageAccumulatesAcrossCampaigns) {
  auto db = MakeMonetdbDialect();
  SoftFuzzer fuzzer;
  CampaignOptions options;
  options.max_statements = 500;
  fuzzer.Run(*db, options);
  const size_t first = db->coverage().CoveredBranchCount();
  options.seed = 2;
  fuzzer.Run(*db, options);
  EXPECT_GE(db->coverage().CoveredBranchCount(), first);
}

TEST(Integration, SessionStatePersistsAcrossStatements) {
  auto db = MakeMariadbDialect();
  EXPECT_EQ(db->Execute("SELECT NEXTVAL('seq')").rows[0][0].int_value(), 1);
  EXPECT_EQ(db->Execute("SELECT NEXTVAL('seq')").rows[0][0].int_value(), 2);
  EXPECT_EQ(db->Execute("SELECT LAST_INSERT_ID()").rows[0][0].int_value(), 2);
}

}  // namespace
}  // namespace soft
