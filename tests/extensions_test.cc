// Tests for the Section 8 extensions: the NoREC/TLP correctness oracles and
// the clause-boundary generator.
#include <gtest/gtest.h>

#include "src/dialects/dialects.h"
#include "src/soft/clause_extension.h"
#include "src/soft/logic_oracle.h"

namespace soft {
namespace {

class LogicOracleTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT, b STRING, c DOUBLE)").ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1, 'x', 1.5e0), (2, 'y', -2.5e0), "
                            "(3, '', 0.0e0), (NULL, NULL, NULL)")
                    .ok());
  }
  Database db_;
};

TEST_F(LogicOracleTest, NoRecConsistentOnHealthyEngine) {
  for (const char* predicate :
       {"a > 1", "a = NULL", "b != ''", "c < 0.0e0", "a > 99999999999", "a IS NULL",
        "LENGTH(b) > 0"}) {
    const Result<std::optional<LogicBug>> verdict = CheckNoRec(db_, "t", predicate);
    ASSERT_TRUE(verdict.ok()) << predicate << ": " << verdict.status().ToString();
    EXPECT_FALSE(verdict->has_value())
        << predicate << " flagged: " << (*verdict)->detail;
  }
}

TEST_F(LogicOracleTest, TlpPartitionsExactly) {
  for (const char* predicate : {"a > 1", "a = 2", "b = ''", "c >= 0.0e0", "a IS NULL"}) {
    const Result<std::optional<LogicBug>> verdict = CheckTlp(db_, "t", predicate);
    ASSERT_TRUE(verdict.ok()) << predicate;
    EXPECT_FALSE(verdict->has_value())
        << predicate << " flagged: " << (*verdict)->detail;
  }
}

TEST_F(LogicOracleTest, OracleQueriesFailuresAreErrorsNotVerdicts) {
  const Result<std::optional<LogicBug>> verdict = CheckNoRec(db_, "t", "ROW(1,1) > 2");
  EXPECT_FALSE(verdict.ok());  // the predicate itself is ill-typed
  const Result<std::optional<LogicBug>> missing = CheckNoRec(db_, "nope", "a > 1");
  EXPECT_FALSE(missing.ok());
}

TEST_F(LogicOracleTest, DetectsAnInjectedLogicBug) {
  // A deliberately broken comparison function: IS_POSITIVE misclassifies the
  // boundary value 0 depending on context — the reference path disagrees
  // with itself because the implementation consults a call-count toggle.
  FunctionDef def;
  def.name = "IS_POSITIVE";
  def.type = FunctionType::kMath;
  def.min_args = 1;
  def.max_args = 1;
  def.doc = "deliberately inconsistent predicate for oracle testing";
  def.example = "IS_POSITIVE(1)";
  auto calls = std::make_shared<int>(0);
  def.scalar = [calls](FunctionContext& ctx, const ValueList& args) -> Result<Value> {
    SOFT_ASSIGN_OR_RETURN(double d, ctx.ArgDouble(args[0]));
    ++*calls;
    // Flips its verdict for zero on every other invocation.
    if (d == 0) {
      return Value::Boolean(*calls % 2 == 0);
    }
    return Value::Boolean(d > 0);
  };
  db_.registry().Register(std::move(def));

  bool flagged = false;
  for (int attempt = 0; attempt < 4 && !flagged; ++attempt) {
    const Result<std::optional<LogicBug>> verdict =
        CheckNoRec(db_, "t", "IS_POSITIVE(c)");
    ASSERT_TRUE(verdict.ok());
    flagged = verdict->has_value();
  }
  EXPECT_TRUE(flagged) << "NoREC failed to flag the inconsistent predicate";
}

TEST(ClauseExtension, GeneratesAllClauseKinds) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b STRING)").ok());
  const std::vector<ClauseCase> cases = GenerateClauseCases(db, "t", 200, 3);
  ASSERT_EQ(cases.size(), 200u);
  std::set<std::string> kinds;
  for (const ClauseCase& c : cases) {
    kinds.insert(c.clause);
    EXPECT_NE(c.sql.find("FROM t"), std::string::npos) << c.sql;
  }
  EXPECT_EQ(kinds.size(), 4u);  // WHERE, ORDER BY, GROUP BY, LIMIT
}

TEST(ClauseExtension, CampaignSurvivesBoundaryClauses) {
  // On a healthy engine boundary clauses produce errors or empty results,
  // never crashes or aborts.
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b STRING)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").ok());
  const ClauseCampaignResult result = RunClauseCampaign(db, "t", 300, 11);
  EXPECT_EQ(result.statements_executed, 300);
  EXPECT_EQ(result.crashes, 0);
  EXPECT_TRUE(result.unique_crashes.empty());
}

TEST(ClauseExtension, ReachesInjectedComparisonBugs) {
  // A fault keyed on comparison inputs inside WHERE machinery: boundary
  // constants in clauses must be able to reach function-level faults too
  // (here: LENGTH invoked from a WHERE predicate of a clause case is out of
  // scope, so inject directly on the comparison path via a wrapper bug on
  // COUNT during GROUP BY of a boundary value).
  auto db = MakeMariadbDialect();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT, b STRING)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1, 'x')").ok());
  BugSpec spec;
  spec.id = 900;
  spec.dbms = "mariadb";
  spec.function = "COUNT";
  spec.function_type = "aggregate";
  spec.crash = CrashType::kSegmentationViolation;
  spec.pattern = "P1.2";
  spec.trigger = TriggerKind::kArgIsStar;  // COUNT(*) inside the clause cases
  db->faults().AddBug(spec);
  const ClauseCampaignResult result = RunClauseCampaign(*db, "t", 200, 11);
  EXPECT_GT(result.crashes, 0);
  ASSERT_FALSE(result.unique_crashes.empty());
  EXPECT_EQ(result.unique_crashes[0].bug_id, 900);
}

}  // namespace
}  // namespace soft
