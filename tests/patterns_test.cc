// Unit tests for the 10 boundary-value-generation patterns: each pattern
// must produce its characteristic shapes, respect the Finding-3 cutoff, and
// emit only parseable SQL.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/dialects/dialects.h"
#include "src/soft/boundary_values.h"
#include "src/soft/expr_collection.h"
#include "src/soft/patterns.h"
#include "src/soft/soft_fuzzer.h"
#include "src/sqlparser/parser.h"

namespace soft {
namespace {

class PatternsTest : public testing::Test {
 protected:
  PatternsTest() : db_(MakeMariadbDialect()), engine_(*db_, 42) {}

  std::vector<GeneratedCase> Generate(const std::string& pattern,
                                      const std::string& seed,
                                      std::vector<std::string> corpus = {}) {
    std::vector<GeneratedCase> out;
    engine_.GenerateOne(pattern, seed, corpus, out);
    return out;
  }

  static bool AnyContains(const std::vector<GeneratedCase>& cases,
                          const std::string& needle) {
    return std::any_of(cases.begin(), cases.end(), [&](const GeneratedCase& c) {
      return c.sql.find(needle) != std::string::npos;
    });
  }

  std::unique_ptr<Database> db_;
  PatternEngine engine_;
};

TEST_F(PatternsTest, PoolHasTheHeadlineValues) {
  const BoundaryPool pool = GenerateBoundaryPool();
  auto has = [&](const char* s) {
    return std::find(pool.snippets.begin(), pool.snippets.end(), s) !=
           pool.snippets.end();
  };
  EXPECT_TRUE(has("NULL"));
  EXPECT_TRUE(has("*"));
  EXPECT_TRUE(has("''"));
  EXPECT_TRUE(has("-0.99999"));
  EXPECT_TRUE(has("99999"));
  EXPECT_TRUE(has("ROW(1, 1)"));
  EXPECT_TRUE(has("9223372036854775807"));
  // Digit-length enumeration, not just one extreme (Section 6's point).
  int fraction_lengths = 0;
  for (const std::string& s : pool.snippets) {
    if (s.rfind("0.9", 0) == 0) {
      ++fraction_lengths;
    }
  }
  EXPECT_GT(fraction_lengths, 8);
}

TEST_F(PatternsTest, P12SubstitutesEveryPoolValue) {
  const auto cases = Generate("P1.2", "LENGTH('abc')");
  EXPECT_GE(cases.size(), engine_.pool().snippets.size());
  EXPECT_TRUE(AnyContains(cases, "LENGTH(NULL)"));
  EXPECT_TRUE(AnyContains(cases, "LENGTH(*)"));
  EXPECT_TRUE(AnyContains(cases, "LENGTH('')"));
  for (const GeneratedCase& c : cases) {
    EXPECT_EQ(c.pattern, "P1.2");
    EXPECT_TRUE(ParseStatement(c.sql).ok()) << c.sql;
  }
}

TEST_F(PatternsTest, P13StuffsDigits) {
  const auto cases = Generate("P1.3", "FORMAT(1.5, 2)");
  ASSERT_FALSE(cases.empty());
  EXPECT_TRUE(AnyContains(cases, "99999"));
  // Both the decimal arg and the int arg get stuffed.
  EXPECT_TRUE(AnyContains(cases, "FORMAT(1.5, "));
}

TEST_F(PatternsTest, P14RepeatsStructuralChars) {
  const auto cases = Generate("P1.4", "JSON_VALID('{\"key\": 0}')");
  ASSERT_FALSE(cases.empty());
  EXPECT_TRUE(AnyContains(cases, "{{{{"));
  for (const GeneratedCase& c : cases) {
    EXPECT_TRUE(ParseStatement(c.sql).ok()) << c.sql;
  }
}

TEST_F(PatternsTest, P21WrapsInCasts) {
  const auto cases = Generate("P2.1", "LENGTH('abc')");
  EXPECT_TRUE(AnyContains(cases, "CAST('abc' AS BLOB)"));
  EXPECT_TRUE(AnyContains(cases, "AS GEOMETRY"));
  EXPECT_TRUE(AnyContains(cases, "AS JSON"));
}

TEST_F(PatternsTest, P22BuildsUnionSubqueries) {
  const auto cases = Generate("P2.2", "LENGTH('abc')");
  ASSERT_FALSE(cases.empty());
  EXPECT_TRUE(AnyContains(cases, "UNION"));
  EXPECT_TRUE(AnyContains(cases, "(SELECT 'abc' UNION SELECT"));
  for (const GeneratedCase& c : cases) {
    EXPECT_TRUE(ParseStatement(c.sql).ok()) << c.sql;
  }
}

TEST_F(PatternsTest, P23BorrowsWholeArgumentLists) {
  const auto cases =
      Generate("P2.3", "JSON_LENGTH('[1]', '$')", {"INSTR('banana', 'na')"});
  // Full-list replacement: JSON_LENGTH('banana', 'na').
  EXPECT_TRUE(AnyContains(cases, "JSON_LENGTH('banana', 'na')"));
}

TEST_F(PatternsTest, P31BuildsRepeatCalls) {
  const auto cases = Generate("P3.1", "JSON_VALID('[1,2]')");
  ASSERT_FALSE(cases.empty());
  EXPECT_TRUE(AnyContains(cases, "REPEAT('[', "));
  // Bounds sweep, not a single huge value.
  EXPECT_TRUE(AnyContains(cases, ", 100)"));
  EXPECT_TRUE(AnyContains(cases, ", 1100000)"));
}

TEST_F(PatternsTest, P31HandlesNonStringLiterals) {
  const auto cases = Generate("P3.1", "ABS(17)");
  EXPECT_TRUE(AnyContains(cases, "REPEAT('1', "));
}

TEST_F(PatternsTest, P32WrapsArguments) {
  const auto cases = Generate("P3.2", "LENGTH('abc')");
  ASSERT_FALSE(cases.empty());
  for (const GeneratedCase& c : cases) {
    // Shape: LENGTH(<FN>('abc')).
    EXPECT_TRUE(c.sql.find("LENGTH(") != std::string::npos) << c.sql;
    EXPECT_TRUE(ParseStatement(c.sql).ok()) << c.sql;
    const Result<Statement> parsed = ParseStatement(c.sql);
    EXPECT_EQ(parsed->select()->CountFunctionCalls(), 2) << c.sql;
  }
}

TEST_F(PatternsTest, P33SubstitutesNestedCalls) {
  const auto cases =
      Generate("P3.3", "ST_ASTEXT(ST_GEOMFROMTEXT('POINT(1 2)'))",
               {"INET6_ATON('255.255.255.255')"});
  // The Case 6 chain must be constructible.
  EXPECT_TRUE(AnyContains(cases, "ST_ASTEXT(INET6_ATON('255.255.255.255'))"));
}

TEST_F(PatternsTest, Finding3CutoffSkipsDeepSeeds) {
  std::vector<GeneratedCase> out;
  engine_.GenerateOne("P1.2", "UPPER(LOWER(TRIM('x')))", {}, out);
  EXPECT_TRUE(out.empty());  // 3 calls > max_seed_functions (2)
  engine_.GenerateOne("P1.2", "UPPER(LOWER('x'))", {}, out);
  EXPECT_FALSE(out.empty());  // 2 calls allowed
}

TEST_F(PatternsTest, GenerateAllEmitsEveryFamily) {
  std::vector<GeneratedCase> out;
  engine_.GenerateAll("JSON_LENGTH('[1]', '$')",
                      {"INSTR('banana', 'na')", "REPEAT('ab', 3)"}, out);
  std::set<std::string> families;
  for (const GeneratedCase& c : out) {
    families.insert(c.pattern);
  }
  for (const char* p :
       {"P1.2", "P1.3", "P1.4", "P2.1", "P2.2", "P2.3", "P3.1", "P3.2", "P3.3"}) {
    EXPECT_TRUE(families.count(p) == 1) << p;
  }
}

void CollectNodes(const SelectStmt& s, std::vector<const Expr*>& out);

void CollectNodes(const Expr& e, std::vector<const Expr*>& out) {
  out.push_back(&e);
  for (const ExprPtr& arg : e.args) {
    CollectNodes(*arg, out);
  }
  if (e.subquery != nullptr) {
    CollectNodes(*e.subquery, out);
  }
}

void CollectNodes(const SelectStmt& s, std::vector<const Expr*>& out) {
  for (const SelectItem& item : s.items) {
    CollectNodes(*item.expr, out);
  }
  if (s.from_subquery != nullptr) {
    CollectNodes(*s.from_subquery, out);
  }
  for (const Expr* e : {s.where.get(), s.having.get()}) {
    if (e != nullptr) {
      CollectNodes(*e, out);
    }
  }
  for (const ExprPtr& g : s.group_by) {
    CollectNodes(*g, out);
  }
  for (const OrderItem& o : s.order_by) {
    CollectNodes(*o.expr, out);
  }
  if (s.union_next != nullptr) {
    CollectNodes(*s.union_next, out);
  }
}

// The pattern engine splices replacements into a seed rendered with a hole:
// for every node of every seed above and of every statement generated from
// them (casts, UNION subqueries, nested calls), the text before the hole,
// the node's own text and the text after it make the whole rendering.
TEST_F(PatternsTest, RenderingAroundAHoleSplicesBackToTheTree) {
  const std::vector<std::string> seeds = {
      "LENGTH('abc')",           "FORMAT(1.5, 2)",
      "JSON_VALID('{\"key\": 0}')", "JSON_LENGTH('[1]', '$')",
      "INSTR('banana', 'na')",   "ST_ASTEXT(ST_GEOMFROMTEXT('POINT(1 2)'))",
      "INET6_ATON('255.255.255.255')", "UPPER(LOWER(TRIM('x')))",
      "UPPER(LOWER('x'))",       "JSON_VALID('[1,2]')",
      "ABS(17)",                 "REPEAT('ab', 3)",
  };
  std::vector<std::string> statements = {
      "SELECT DISTINCT a AS x, -b FROM (SELECT ROW(1, 2) AS a, ARRAY[1, NULL] AS b) d "
      "WHERE NOT (a IS NULL) AND b > 1 GROUP BY a, b HAVING COUNT(*) > 1 "
      "ORDER BY a DESC, b LIMIT 3 UNION ALL SELECT 1, CAST('2' AS INT)"};
  for (const std::string& seed : seeds) {
    statements.push_back("SELECT " + seed);
    std::vector<GeneratedCase> cases;
    engine_.GenerateAll(seed, seeds, cases);
    for (const GeneratedCase& c : cases) {
      statements.push_back(c.sql);
    }
  }
  size_t checked = 0;
  for (const std::string& sql : statements) {
    const Result<Statement> parsed = ParseStatement(sql);
    ASSERT_TRUE(parsed.ok() && parsed->is_select()) << sql;
    const SelectStmt& tree = *parsed->select();
    const std::string whole = tree.ToSql();
    std::string unholed;
    EXPECT_EQ(tree.AppendSql(unholed), std::string::npos);
    EXPECT_EQ(unholed, whole);
    std::vector<const Expr*> nodes;
    CollectNodes(tree, nodes);
    for (const Expr* node : nodes) {
      std::string text;
      const size_t at = tree.AppendSql(text, node);
      ASSERT_LE(at, text.size()) << sql;
      EXPECT_EQ(text.substr(0, at) + node->ToSql() + text.substr(at), whole) << sql;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10000u);
}

// Pins of the case pool itself: BuildCasePool's digest (FNV-1a over the
// prerequisites and every case's pattern and text, in pool order) and its
// case count, for every dialect at seeds 1 and 2, plus mariadb's logic-mode
// pool over the eight patterns the logic oracles run (built through
// GenerateOne). Any change to a pattern, the renderer, the dedupe or the
// shuffle shows here. A failure prints the new digest; re-pin only for an
// intended change to what the pool holds.
struct PoolPin {
  const char* dialect;
  uint64_t seed;
  bool logic;  // logic mode, every pattern but P3.1
  size_t cases;
  uint64_t digest;
};

constexpr PoolPin kPoolPins[] = {
    {"postgresql", 1, false, 50446, 0x9f5ca3b55bad8e6a},
    {"mysql", 1, false, 51746, 0x5d8e3a64b8e93e6f},
    {"mariadb", 1, false, 50512, 0x7363257489be51b7},
    {"clickhouse", 1, false, 68206, 0xb89a32ae5484ecd6},
    {"monetdb", 1, false, 29128, 0x1314b19d393616c1},
    {"duckdb", 1, false, 49404, 0x596626367e500211},
    {"virtuoso", 1, false, 68388, 0x56ebd14c2419f106},
    {"postgresql", 2, false, 50480, 0x27623d9cae6eabd9},
    {"mysql", 2, false, 51791, 0x8c64c383a987929e},
    {"mariadb", 2, false, 50550, 0xff56bbf660f90eb0},
    {"clickhouse", 2, false, 68234, 0xdbf67af27c336c14},
    {"monetdb", 2, false, 29216, 0x14d94c34f455c55f},
    {"duckdb", 2, false, 49354, 0x4975e30a0fcd162b},
    {"virtuoso", 2, false, 68234, 0x3fba1aae9d261dc8},
    {"mariadb", 1, true, 47713, 0x70132fe6d25840ab},
    {"mariadb", 2, true, 47751, 0xeae1c99807194952},
};

// gtest prints a parameter into its ctest name; print the key, not the
// struct's bytes (which hold a pointer and so change from run to run).
void PrintTo(const PoolPin& pin, std::ostream* os) {
  *os << pin.dialect << (pin.logic ? " logic" : "") << " seed " << pin.seed;
}

class PoolDigest : public testing::TestWithParam<PoolPin> {};

TEST_P(PoolDigest, MatchesPin) {
  const PoolPin& pin = GetParam();
  CampaignOptions options;
  options.seed = pin.seed;
  SoftOptions soft_options;
  if (pin.logic) {
    options.logic_oracles = {"all"};
    soft_options.only_patterns = {"P1.2", "P1.3", "P1.4", "P2.1",
                                  "P2.2", "P2.3", "P3.2", "P3.3"};
  }
  const std::shared_ptr<const CasePool> pool =
      BuildCasePool(pin.dialect, options, soft_options);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->cases.size(), pin.cases);
  EXPECT_EQ(pool->digest, pin.digest)
      << std::hex << std::showbase << "pool digest " << pool->digest;
}

INSTANTIATE_TEST_SUITE_P(Dialects, PoolDigest, testing::ValuesIn(kPoolPins),
                         [](const testing::TestParamInfo<PoolPin>& info) {
                           return std::string(info.param.dialect) +
                                  (info.param.logic ? "_logic" : "") + "_seed" +
                                  std::to_string(info.param.seed);
                         });

TEST(ExprCollection, ParenScanFindsKnownFunctions) {
  auto db = MakeMariadbDialect();
  const std::vector<std::string> found = ExtractFunctionExpressions(
      "SELECT UPPER(b), NO_SUCH(x), JSON_LENGTH(REPEAT('[', 3), '$') FROM t",
      db->registry());
  ASSERT_GE(found.size(), 3u);  // UPPER, JSON_LENGTH, and nested REPEAT
  EXPECT_EQ(found[0], "UPPER(b)");
  EXPECT_TRUE(std::any_of(found.begin(), found.end(), [](const std::string& e) {
    return e == "JSON_LENGTH(REPEAT('[', 3), '$')";
  }));
  // Unknown names are skipped; strings with parens don't confuse the scan.
  for (const std::string& e : found) {
    EXPECT_EQ(e.find("NO_SUCH"), std::string::npos);
  }
}

TEST(ExprCollection, PrerequisitesSeparated) {
  auto db = MakeMariadbDialect();
  const FunctionCorpus corpus =
      CollectCorpus(*db, {"CREATE TABLE t (a INT)", "INSERT INTO t VALUES (1)",
                          "SELECT ABS(a) FROM t"});
  EXPECT_EQ(corpus.prerequisites.size(), 2u);
  EXPECT_TRUE(std::any_of(corpus.expressions.begin(), corpus.expressions.end(),
                          [](const std::string& e) { return e == "ABS(a)"; }));
}

}  // namespace
}  // namespace soft
