// Unit tests for the fault-injection framework (trigger predicate DSL, stage
// attribution, parse/optimize-stage hooks) and the coverage tracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/coverage/coverage.h"
#include "src/engine/database.h"

namespace soft {
namespace {

BugSpec BaseSpec() {
  BugSpec spec;
  spec.id = 1;
  spec.dbms = "test";
  spec.function = "LENGTH";
  spec.function_type = "string";
  spec.crash = CrashType::kNullPointerDereference;
  spec.pattern = "P1.2";
  return spec;
}

TEST(FaultEngine, TriggerPredicates) {
  FaultEngine faults;
  BugSpec star = BaseSpec();
  star.trigger = TriggerKind::kArgIsStar;
  faults.AddBug(star);

  EXPECT_TRUE(faults.CheckFunction("LENGTH", {Value::Star()}, 1, false, Stage::kExecute)
                  .has_value());
  EXPECT_FALSE(faults.CheckFunction("LENGTH", {Value::Str("x")}, 1, false,
                                    Stage::kExecute)
                   .has_value());
  EXPECT_FALSE(faults.CheckFunction("UPPER", {Value::Star()}, 1, false, Stage::kExecute)
                   .has_value());
  // Stage mismatch never fires.
  EXPECT_FALSE(faults.CheckFunction("LENGTH", {Value::Star()}, 1, false,
                                    Stage::kOptimize)
                   .has_value());
}

TEST(FaultEngine, ArgIndexSelectivity) {
  FaultEngine faults;
  BugSpec spec = BaseSpec();
  spec.trigger = TriggerKind::kArgEmptyString;
  spec.arg_index = 1;
  faults.AddBug(spec);

  EXPECT_FALSE(faults.CheckFunction("LENGTH", {Value::Str("")}, 1, false,
                                    Stage::kExecute)
                   .has_value());
  EXPECT_TRUE(faults.CheckFunction("LENGTH", {Value::Str("x"), Value::Str("")}, 1,
                                   false, Stage::kExecute)
                  .has_value());
  // Out-of-range index never fires.
  EXPECT_FALSE(
      faults.CheckFunction("LENGTH", {Value::Str("")}, 1, false, Stage::kExecute)
          .has_value());
}

TEST(FaultEngine, NumericThresholds) {
  FaultEngine faults;
  BugSpec digits = BaseSpec();
  digits.trigger = TriggerKind::kDecimalDigitsAtLeast;
  digits.threshold = 40;
  faults.AddBug(digits);

  const Value small = Value::Dec(*Decimal::FromString(std::string(39, '9')));
  const Value big = Value::Dec(*Decimal::FromString(std::string(40, '9')));
  EXPECT_FALSE(
      faults.CheckFunction("LENGTH", {small}, 1, false, Stage::kExecute).has_value());
  EXPECT_TRUE(
      faults.CheckFunction("LENGTH", {big}, 1, false, Stage::kExecute).has_value());
  // Type-selective: a 40-char string does not match a decimal trigger.
  EXPECT_FALSE(faults.CheckFunction("LENGTH", {Value::Str(std::string(40, '9'))}, 1,
                                    false, Stage::kExecute)
                   .has_value());
}

TEST(FaultEngine, JsonDepthProbeOnStrings) {
  FaultEngine faults;
  BugSpec spec = BaseSpec();
  spec.trigger = TriggerKind::kJsonDepthAtLeast;
  spec.threshold = 10;
  faults.AddBug(spec);
  EXPECT_TRUE(faults.CheckFunction("LENGTH", {Value::Str(std::string(12, '['))}, 1,
                                   false, Stage::kExecute)
                  .has_value());
  EXPECT_FALSE(faults.CheckFunction("LENGTH", {Value::Str("[1,2]")}, 1, false,
                                    Stage::kExecute)
                   .has_value());
}

TEST(FaultEngine, FirstMatchingSpecWins) {
  FaultEngine faults;
  BugSpec first = BaseSpec();
  first.id = 1;
  first.trigger = TriggerKind::kArgIsNull;
  faults.AddBug(first);
  BugSpec second = BaseSpec();
  second.id = 2;
  second.trigger = TriggerKind::kArgIsNull;
  faults.AddBug(second);
  const auto crash =
      faults.CheckFunction("LENGTH", {Value::Null()}, 1, false, Stage::kExecute);
  ASSERT_TRUE(crash.has_value());
  EXPECT_EQ(crash->bug_id, 1);
}

TEST(FaultEngine, CastLayerBugs) {
  FaultEngine faults;
  BugSpec spec = BaseSpec();
  spec.function = "CAST";
  spec.trigger = TriggerKind::kCastTargetIs;
  spec.param_type = TypeKind::kJson;
  faults.AddBug(spec);
  EXPECT_TRUE(faults.CheckCast(TypeKind::kJson, Value::Str("[1]"), Stage::kExecute)
                  .has_value());
  EXPECT_FALSE(faults.CheckCast(TypeKind::kInt, Value::Str("1"), Stage::kExecute)
                   .has_value());
}

TEST(FaultEngine, EndToEndStageAttribution) {
  // An optimize-stage bug fires while the optimizer inspects the call; a
  // parse-stage bug fires on the raw statement text.
  Database db;
  BugSpec opt = BaseSpec();
  opt.id = 7;
  opt.function = "UPPER";
  opt.stage = Stage::kOptimize;
  opt.trigger = TriggerKind::kArgIsStar;
  db.faults().AddBug(opt);

  BugSpec parse = BaseSpec();
  parse.id = 8;
  parse.function = "PARSER";
  parse.stage = Stage::kParse;
  parse.trigger = TriggerKind::kStringContains;
  parse.param_text = "((((((((((";
  db.faults().AddBug(parse);

  const StatementResult opt_result = db.Execute("SELECT UPPER(*)");
  ASSERT_TRUE(opt_result.crashed());
  EXPECT_EQ(opt_result.crash->bug_id, 7);
  EXPECT_EQ(opt_result.crash->stage, Stage::kOptimize);

  const StatementResult parse_result = db.Execute("SELECT '((((((((((' ");
  ASSERT_TRUE(parse_result.crashed());
  EXPECT_EQ(parse_result.crash->bug_id, 8);
  EXPECT_EQ(parse_result.crash->stage, Stage::kParse);

  // A statement executed from its parsed tree still meets the probe.
  const std::string parse_poc = "SELECT '((((((((((' ";
  const Statement tree = ParseStatement(parse_poc).value();
  const StatementResult tree_result = db.Execute(parse_poc, tree);
  ASSERT_TRUE(tree_result.crashed());
  EXPECT_EQ(tree_result.crash->bug_id, 8);
  EXPECT_EQ(tree_result.crash->stage, Stage::kParse);

  // Execute-stage bugs on the same engine still attribute correctly.
  BugSpec exec = BaseSpec();
  exec.id = 9;
  exec.function = "LOWER";
  exec.trigger = TriggerKind::kArgEmptyString;
  db.faults().AddBug(exec);
  const StatementResult exec_result = db.Execute("SELECT LOWER('')");
  ASSERT_TRUE(exec_result.crashed());
  EXPECT_EQ(exec_result.crash->stage, Stage::kExecute);
}

TEST(FaultEngine, CrashSummaryFormat) {
  FaultEngine faults;
  BugSpec spec = BaseSpec();
  spec.description = "test description";
  spec.trigger = TriggerKind::kAlways;
  faults.AddBug(spec);
  const auto crash = faults.CheckFunction("LENGTH", {}, 1, false, Stage::kExecute);
  ASSERT_TRUE(crash.has_value());
  const std::string summary = crash->Summary();
  EXPECT_NE(summary.find("BUG-test-1"), std::string::npos);
  EXPECT_NE(summary.find("[NPD]"), std::string::npos);
  EXPECT_NE(summary.find("LENGTH"), std::string::npos);
  EXPECT_NE(summary.find("P1.2"), std::string::npos);
}

// --- Coverage tracker -----------------------------------------------------------

TEST(Coverage, BranchAccounting) {
  CoverageTracker cov;
  EXPECT_EQ(cov.TriggeredFunctionCount(), 0u);
  cov.Hit("LENGTH", 0);
  cov.Hit("LENGTH", 1);
  cov.Hit("LENGTH", 1);  // duplicate
  cov.Hit("UPPER", 0);
  EXPECT_EQ(cov.TriggeredFunctionCount(), 2u);
  EXPECT_EQ(cov.CoveredBranchCount(), 3u);
  const auto by_fn = cov.BranchCountsByFunction();
  ASSERT_EQ(by_fn.size(), 2u);
  EXPECT_EQ(by_fn[0].first, "LENGTH");
  EXPECT_EQ(by_fn[0].second, 2);
}

TEST(Coverage, MergeAndReset) {
  CoverageTracker a;
  CoverageTracker b;
  a.Hit("F", 1);
  b.Hit("F", 2);
  b.Hit("G", 1);
  a.MergeFrom(b);
  EXPECT_EQ(a.TriggeredFunctionCount(), 2u);
  EXPECT_EQ(a.CoveredBranchCount(), 3u);
  a.Reset();
  EXPECT_EQ(a.CoveredBranchCount(), 0u);
}

TEST(Coverage, BranchKeysRoundTripThroughRestore) {
  // Wire result blocks (fleet units, the unit spool) serialize a tracker as
  // raw branch keys and rebuild it on the reading side (src/soft/wire.cc):
  // key export must be lossless, including function names containing
  // '#'-adjacent characters and multi-digit branch ids.
  CoverageTracker original;
  original.Hit("SUBSTR", 0);
  original.Hit("SUBSTR", 12);
  original.Hit("JSON_EXTRACT", 3);
  original.Hit("ST_AsText", 101);

  const std::vector<std::string> keys = original.BranchKeys();
  EXPECT_EQ(keys.size(), original.CoveredBranchCount());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));

  CoverageTracker rebuilt;
  for (const std::string& key : keys) {
    rebuilt.RestoreBranchKey(key);
  }
  EXPECT_EQ(rebuilt.BranchKeys(), keys);
  EXPECT_EQ(rebuilt.CoveredBranchCount(), original.CoveredBranchCount());
  EXPECT_EQ(rebuilt.TriggeredFunctionCount(), original.TriggeredFunctionCount());
  EXPECT_EQ(rebuilt.TriggeredFunctions(), original.TriggeredFunctions());
  EXPECT_EQ(rebuilt.BranchCountsByFunction(), original.BranchCountsByFunction());
}

TEST(Coverage, MergeFromIsOrderIndependent) {
  // The parallel runner unions shard trackers in index order; the result
  // must be the same set union regardless of merge order or duplicates.
  CoverageTracker a;
  a.Hit("F", 1);
  a.Hit("F", 2);
  a.Hit("G", 1);
  CoverageTracker b;
  b.Hit("F", 2);  // overlaps a
  b.Hit("H", 7);
  CoverageTracker c;
  c.Hit("G", 1);  // overlaps a
  c.Hit("H", 8);

  CoverageTracker ab_c;
  ab_c.MergeFrom(a);
  ab_c.MergeFrom(b);
  ab_c.MergeFrom(c);
  CoverageTracker c_ba;
  c_ba.MergeFrom(c);
  c_ba.MergeFrom(b);
  c_ba.MergeFrom(a);

  EXPECT_EQ(ab_c.BranchKeys(), c_ba.BranchKeys());
  // Distinct union: F#1, F#2, G#1, H#7, H#8 across F, G, H.
  EXPECT_EQ(ab_c.CoveredBranchCount(), 5u);
  EXPECT_EQ(ab_c.TriggeredFunctionCount(), 3u);
  // Merging already-seen content is idempotent.
  ab_c.MergeFrom(a);
  EXPECT_EQ(ab_c.CoveredBranchCount(), 5u);
}

TEST(Coverage, BoundaryArgumentsReachDeeperBranches) {
  // The Table 6 mechanism in miniature: a benign call covers fewer branches
  // of SUBSTR than a boundary sweep does.
  Database benign;
  benign.Execute("SELECT SUBSTR('abcdef', 2, 3)");
  const size_t benign_branches = benign.coverage().CoveredBranchCount();

  Database boundary;
  for (const char* sql :
       {"SELECT SUBSTR('abcdef', 2, 3)", "SELECT SUBSTR('abcdef', 0)",
        "SELECT SUBSTR('abcdef', -2)", "SELECT SUBSTR('abcdef', -100)",
        "SELECT SUBSTR('abcdef', 100)", "SELECT SUBSTR('abcdef', 2, -5)"}) {
    boundary.Execute(sql);
  }
  EXPECT_GT(boundary.coverage().CoveredBranchCount(), benign_branches + 3);
}

}  // namespace
}  // namespace soft
