// SQL-semantics property sweeps over the engine: three-valued logic truth
// tables, LIKE matcher algebra, arithmetic laws on exact decimals, UNION
// type-unification properties, and GROUP BY partition invariants.
#include <gtest/gtest.h>

#include "src/engine/database.h"

namespace soft {
namespace {

std::string Eval(Database& db, const std::string& expr) {
  const StatementResult r = db.Execute("SELECT " + expr);
  if (!r.ok()) {
    return "<" + std::string(StatusCodeName(r.status.code())) + ">";
  }
  return r.rows[0][0].ToDisplayString();
}

TEST(ThreeValuedLogic, FullTruthTables) {
  Database db;
  const char* kVals[] = {"TRUE", "FALSE", "NULL"};
  // Kleene K3 tables.
  const char* kAnd[3][3] = {{"TRUE", "FALSE", "NULL"},
                            {"FALSE", "FALSE", "FALSE"},
                            {"NULL", "FALSE", "NULL"}};
  const char* kOr[3][3] = {{"TRUE", "TRUE", "TRUE"},
                           {"TRUE", "FALSE", "NULL"},
                           {"TRUE", "NULL", "NULL"}};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(Eval(db, std::string(kVals[i]) + " AND " + kVals[j]), kAnd[i][j])
          << kVals[i] << " AND " << kVals[j];
      EXPECT_EQ(Eval(db, std::string(kVals[i]) + " OR " + kVals[j]), kOr[i][j])
          << kVals[i] << " OR " << kVals[j];
    }
  }
  EXPECT_EQ(Eval(db, "NOT TRUE"), "FALSE");
  EXPECT_EQ(Eval(db, "NOT FALSE"), "TRUE");
  EXPECT_EQ(Eval(db, "NOT NULL"), "NULL");
}

TEST(LikeMatcher, Algebra) {
  Database db;
  // (text, pattern, expected)
  const std::tuple<const char*, const char*, const char*> kCases[] = {
      {"abc", "abc", "TRUE"},    {"abc", "a%", "TRUE"},   {"abc", "%c", "TRUE"},
      {"abc", "%b%", "TRUE"},    {"abc", "a_c", "TRUE"},  {"abc", "a_b", "FALSE"},
      {"abc", "%", "TRUE"},      {"", "%", "TRUE"},       {"", "_", "FALSE"},
      {"abc", "", "FALSE"},      {"aaa", "a%a", "TRUE"},  {"ab", "%%%", "TRUE"},
  };
  for (const auto& [text, pattern, expected] : kCases) {
    EXPECT_EQ(Eval(db, std::string("'") + text + "' LIKE '" + pattern + "'"), expected)
        << text << " LIKE " << pattern;
  }
  EXPECT_EQ(Eval(db, "NULL LIKE '%'"), "NULL");
  EXPECT_EQ(Eval(db, "'a' LIKE NULL"), "NULL");
}

// std::string, not const char*: gtest prints a const char* parameter with its
// address, and test discovery puts the printed parameter in the test name.
using DecimalPair = std::pair<std::string, std::string>;

class DecimalLawTest : public testing::TestWithParam<DecimalPair> {};

TEST_P(DecimalLawTest, FieldLawsHoldExactly) {
  Database db;
  const auto& [sa, sb] = GetParam();
  // Commutativity.
  EXPECT_EQ(Eval(db, sa + " + " + sb), Eval(db, sb + " + " + sa));
  EXPECT_EQ(Eval(db, sa + " * " + sb), Eval(db, sb + " * " + sa));
  // a - b + b == a (as comparison, to avoid scale-normalization artefacts).
  EXPECT_EQ(Eval(db, "(" + sa + " - " + sb + ") + " + sb + " = " + sa), "TRUE");
  // Distributivity as a comparison.
  EXPECT_EQ(Eval(db, sa + " * (" + sb + " + 1) = " + sa + " * " + sb + " + " + sa),
            "TRUE");
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, DecimalLawTest,
    testing::Values(DecimalPair{"1.5", "2.25"},
                    DecimalPair{"-0.999999999999999999999999", "0.000001"},
                    DecimalPair{"99999999999999999999", "1"},
                    DecimalPair{"123456789.123456789", "-987654321.987654321"},
                    DecimalPair{"0", "0.00001"}));

TEST(UnionTypeLattice, UnifiedColumnsHaveOneKind) {
  Database db;
  const std::pair<const char*, TypeKind> kCases[] = {
      {"SELECT 1 UNION ALL SELECT 2.5", TypeKind::kDecimal},
      {"SELECT 1 UNION ALL SELECT 2.5e0", TypeKind::kDouble},
      {"SELECT 1 UNION ALL SELECT 'x'", TypeKind::kString},
      {"SELECT DATE '2024-01-01' UNION ALL SELECT TIMESTAMP '2024-01-01 01:00:00'",
       TypeKind::kDateTime},
      {"SELECT NULL UNION ALL SELECT 7", TypeKind::kInt},
  };
  for (const auto& [sql, kind] : kCases) {
    const StatementResult r = db.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status.ToString();
    for (const ValueList& row : r.rows) {
      if (!row[0].is_null()) {
        EXPECT_EQ(row[0].kind(), kind) << sql;
      }
    }
  }
  // Incompatible branches are a type error, not a crash.
  const StatementResult bad = db.Execute("SELECT ROW(1,1) UNION SELECT 1");
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(bad.crashed());
}

TEST(GroupByInvariant, GroupSizesSumToRowCount) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (g INT, v INT)").ok());
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 60; ++i) {
    insert += "(" + std::to_string(i % 7) + ", " + std::to_string(i) + ")";
    insert += (i + 1 < 60) ? ", " : "";
  }
  ASSERT_TRUE(db.Execute(insert).ok());

  const StatementResult grouped = db.Execute("SELECT g, COUNT(*) FROM t GROUP BY g");
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped.rows.size(), 7u);
  int64_t total = 0;
  for (const ValueList& row : grouped.rows) {
    total += row[1].int_value();
  }
  EXPECT_EQ(total, 60);

  // SUM over groups equals the global SUM (SUM yields exact decimals).
  const StatementResult global = db.Execute("SELECT SUM(v) FROM t");
  const StatementResult per_group = db.Execute("SELECT SUM(v) FROM t GROUP BY g");
  int64_t group_total = 0;
  for (const ValueList& row : per_group.rows) {
    group_total += *row[0].AsInt64();
  }
  EXPECT_EQ(group_total, *global.rows[0][0].AsInt64());
}

TEST(OrderByInvariant, OutputIsSortedAndAPermutation) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (v INT)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO t VALUES (5), (3), (9), (1), (3), (7), (0)").ok());
  const StatementResult asc = db.Execute("SELECT v FROM t ORDER BY v");
  const StatementResult desc = db.Execute("SELECT v FROM t ORDER BY v DESC");
  ASSERT_TRUE(asc.ok());
  ASSERT_TRUE(desc.ok());
  ASSERT_EQ(asc.rows.size(), 7u);
  for (size_t i = 1; i < asc.rows.size(); ++i) {
    EXPECT_LE(asc.rows[i - 1][0].int_value(), asc.rows[i][0].int_value());
    EXPECT_GE(desc.rows[i - 1][0].int_value(), desc.rows[i][0].int_value());
  }
  // DESC is the reverse of ASC (stable engine, unique-ish values).
  for (size_t i = 0; i < asc.rows.size(); ++i) {
    EXPECT_EQ(asc.rows[i][0].int_value(),
              desc.rows[desc.rows.size() - 1 - i][0].int_value());
  }
}

TEST(CastIdempotence, CastingTwiceEqualsOnce) {
  Database db;
  const std::pair<const char*, const char*> kCases[] = {
      {"'42'", "INT"},     {"1.5", "STRING"},      {"'1.2.3.4'", "INET"},
      {"'[1]'", "JSON"},   {"'POINT(1 2)'", "GEOMETRY"}, {"'2024-06-15'", "DATE"},
  };
  for (const auto& [value, type] : kCases) {
    const std::string once = Eval(db, std::string("CAST(") + value + " AS " + type + ")");
    const std::string twice = Eval(db, std::string("CAST(CAST(") + value + " AS " + type +
                                           ") AS " + type + ")");
    EXPECT_EQ(once, twice) << value << " AS " << type;
  }
}

}  // namespace
}  // namespace soft
