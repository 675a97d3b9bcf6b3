// Behaviour tests for the JSON, XML, spatial, array/map, aggregate, system
// and sequence function libraries.
#include <gtest/gtest.h>

#include "src/engine/database.h"

namespace soft {
namespace {

class StructuredTest : public testing::Test {
 protected:
  std::string Eval(const std::string& expr) {
    const StatementResult r = db_.Execute("SELECT " + expr);
    if (!r.ok()) {
      return std::string("<").append(StatusCodeName(r.status.code())).append(">");
    }
    return r.rows[0][0].ToDisplayString();
  }
  // The error message of a failing statement ("" when it succeeds).
  std::string Message(const std::string& expr) {
    return db_.Execute("SELECT " + expr).status.message();
  }
  Database db_;
};

TEST_F(StructuredTest, JsonValidity) {
  EXPECT_EQ(Eval("JSON_VALID('{\"a\": 1}')"), "TRUE");
  EXPECT_EQ(Eval("JSON_VALID('{bad}')"), "FALSE");
  EXPECT_EQ(Eval("JSON_VALID('')"), "FALSE");
  EXPECT_EQ(Eval("JSON_DEPTH('[[1]]')"), "3");
  EXPECT_EQ(Eval("JSON_TYPE('[1]')"), "ARRAY");
  EXPECT_EQ(Eval("JSON_TYPE('3')"), "NUMBER");
}

TEST_F(StructuredTest, JsonLengthAndPath) {
  EXPECT_EQ(Eval("JSON_LENGTH('[1,2,3]')"), "3");
  EXPECT_EQ(Eval("JSON_LENGTH('{\"a\":1,\"b\":2}')"), "2");
  EXPECT_EQ(Eval("JSON_LENGTH('5')"), "1");
  EXPECT_EQ(Eval("JSON_LENGTH('[1,[2,3]]', '$[1]')"), "2");
  EXPECT_EQ(Eval("JSON_LENGTH('[1]', '$[9]')"), "NULL");
  EXPECT_EQ(Eval("JSON_EXTRACT('{\"a\": [1,2]}', '$.a[1]')"), "2");
  EXPECT_EQ(Eval("JSON_EXTRACT('{\"a\": 1}', '$.b')"), "NULL");
  EXPECT_EQ(Eval("JSON_EXTRACT('[1]', 'bad-path')"), "<INVALID_ARGUMENT>");
}

TEST_F(StructuredTest, JsonBuilders) {
  EXPECT_EQ(Eval("JSON_ARRAY(1, 'a', TRUE)"), "[1,\"a\",true]");
  EXPECT_EQ(Eval("JSON_OBJECT('a', 1)"), "{\"a\":1}");
  EXPECT_EQ(Eval("JSON_OBJECT('a')"), "<INVALID_ARGUMENT>");  // odd arity
  EXPECT_EQ(Eval("JSON_QUOTE('x\"y')"), "\"x\\\"y\"");
  EXPECT_EQ(Eval("JSON_UNQUOTE('\"abc\"')"), "abc");
  EXPECT_EQ(Eval("JSON_KEYS('{\"a\":1,\"b\":2}')"), "[\"a\",\"b\"]");
  EXPECT_EQ(Eval("JSON_KEYS('[1]')"), "NULL");
  EXPECT_EQ(Eval("JSON_MERGE_PRESERVE('[1]', '[2]')"), "[1,2]");
  EXPECT_EQ(Eval("JSON_CONTAINS_PATH('{\"a\": 1}', '$.a')"), "TRUE");
}

TEST_F(StructuredTest, DynamicColumns) {
  EXPECT_EQ(Eval("COLUMN_JSON(COLUMN_CREATE('x', 1))"), "{\"x\":1}");
  // The MDEV-8407 shape survives in the reference implementation: the full
  // digit string is preserved through pack/unpack.
  const std::string digits48(48, '9');
  EXPECT_EQ(Eval("COLUMN_JSON(COLUMN_CREATE('x', " + digits48 + "))"),
            "{\"x\":\"" + digits48 + "\"}");
  EXPECT_EQ(Eval("COLUMN_JSON('garbage')"), "<INVALID_ARGUMENT>");
}

TEST_F(StructuredTest, XmlFamily) {
  EXPECT_EQ(Eval("EXTRACTVALUE('<a><b>x</b></a>', '/a/b')"), "x");
  EXPECT_EQ(Eval("EXTRACTVALUE('<a><b>x</b><b>y</b></a>', '/a/b[2]')"), "y");
  EXPECT_EQ(Eval("EXTRACTVALUE('<a/>', '/a/b')"), "");
  EXPECT_EQ(Eval("EXTRACTVALUE('not xml', '/a')"), "NULL");
  EXPECT_EQ(Eval("UPDATEXML('<a><c></c></a>', '/a/c[1]', '<b></b>')"),
            "<a><b></b></a>");
  EXPECT_EQ(Eval("UPDATEXML('<a><c/></a>', '/a/zzz', '<b/>')"), "<a><c/></a>");
  EXPECT_EQ(Eval("XML_VALID('<a><b/></a>')"), "TRUE");
  EXPECT_EQ(Eval("XML_VALID('<a><b></a>')"), "FALSE");  // mismatched close
  EXPECT_EQ(Eval("XML_ROOT('<root><x/></root>')"), "root");
  EXPECT_EQ(Eval("XML_ELEMENT_COUNT('<a><b/><b/></a>')"), "3");

  // XPath boundaries.
  const std::string doc = "'<a>t<b>x</b><b>y<c>z</c></b></a>'";
  const auto extract = [&](const std::string& path) {
    return Eval("EXTRACTVALUE(" + doc + ", '" + path + "')");
  };
  EXPECT_EQ(extract("/a"), "t");
  EXPECT_EQ(extract("/a[1]"), "t");
  EXPECT_EQ(extract("/a[2]"), "");  // the root has index 1 only
  EXPECT_EQ(extract("/z"), "");
  EXPECT_EQ(extract("/a/b[2]/c"), "z");
  EXPECT_EQ(extract("/a[1]/b[02]"), "y");
  EXPECT_EQ(extract("/"), "");      // no steps: resolves to nothing
  EXPECT_EQ(extract("/a/"), "t");   // a trailing '/' ends the path
  EXPECT_EQ(extract("/a/b/"), "x");
  EXPECT_EQ(extract("/a/b[0]"), "");
  EXPECT_EQ(extract("/a/b[]"), "");  // an empty index is index 0
  EXPECT_EQ(extract("/a/b[3]"), "");
  // Deeper than the document: resolves to nothing.
  EXPECT_EQ(extract("/a/b/c/d"), "");
  EXPECT_EQ(extract("/a/b[2]/c/c/c/c/c/c"), "");
  // An index above INT_MAX names no node (it used to wrap around: the
  // 4294967297th <b> read as the first).
  EXPECT_EQ(Eval("EXTRACTVALUE('<a><b>x</b></a>', '/a/b[4294967297]')"), "");
  EXPECT_EQ(Eval("EXTRACTVALUE('<a><b>x</b></a>', '/a/b[99999999999]')"), "");
  EXPECT_EQ(Eval("EXTRACTVALUE('<a><b>x</b></a>', '/a/b[2147483648]')"), "");
  EXPECT_EQ(Eval("EXTRACTVALUE('<a><b>x</b></a>', '/a/b[2147483647]')"), "");
  EXPECT_EQ(Eval("EXTRACTVALUE('<a>r<b>x</b></a>', '/a[4294967297]')"), "");
  EXPECT_EQ(Eval("UPDATEXML('<a><b/></a>', '/a/b[4294967297]', '<c/>')"), "<a><b/></a>");
  EXPECT_EQ(Message("EXTRACTVALUE('<a/>', '/a/b[99999999999x]')"), "non-numeric index in XPath");
  // Malformed paths are errors, whatever the document.
  EXPECT_EQ(extract(""), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Message("EXTRACTVALUE(" + doc + ", '')"), "XPath must start with '/'");
  EXPECT_EQ(Message("EXTRACTVALUE(" + doc + ", 'a/b')"), "XPath must start with '/'");
  EXPECT_EQ(Message("EXTRACTVALUE(" + doc + ", '//')"), "empty step in XPath");
  EXPECT_EQ(Message("EXTRACTVALUE(" + doc + ", '/a//b')"), "empty step in XPath");
  EXPECT_EQ(Message("EXTRACTVALUE(" + doc + ", '/a/[1]')"), "empty step in XPath");
  EXPECT_EQ(Message("EXTRACTVALUE(" + doc + ", '/a/b[1')"), "unterminated index in XPath");
  EXPECT_EQ(Message("EXTRACTVALUE(" + doc + ", '/a/b[x]')"), "non-numeric index in XPath");
  EXPECT_EQ(Message("EXTRACTVALUE(" + doc + ", '/a/b[-1]')"), "non-numeric index in XPath");
  EXPECT_EQ(Message("EXTRACTVALUE(" + doc + ", '/a/b[1/c]')"), "non-numeric index in XPath");
  EXPECT_EQ(Message("EXTRACTVALUE(" + doc + ", '/a/b[1]c')"), "malformed XPath");
  // The first offending step decides the error, even past a step that
  // already failed to resolve.
  EXPECT_EQ(Message("EXTRACTVALUE(" + doc + ", '/z/b[x]//')"), "non-numeric index in XPath");
  EXPECT_EQ(Message("EXTRACTVALUE(" + doc + ", '/a/b[1]x[y]')"), "malformed XPath");
  // A malformed step after a thousand valid ones is still an error.
  EXPECT_EQ(Message("EXTRACTVALUE(" + doc + ", CONCAT(REPEAT('/a', 1000), '//'))"),
            "empty step in XPath");
  EXPECT_EQ(Message("EXTRACTVALUE(" + doc + ", CONCAT(REPEAT('/a/b', 1000), '/c[1'))"),
            "unterminated index in XPath");
  EXPECT_EQ(Eval("EXTRACTVALUE(" + doc + ", REPEAT('/a', 1000))"), "");
  // A document error comes before a path error.
  EXPECT_EQ(Eval("EXTRACTVALUE('not xml', '//')"), "NULL");
  EXPECT_EQ(Eval("UPDATEXML('not xml', '//', '<b/>')"), "NULL");

  // UPDATEXML replaces the node in its parent, or the whole document at the
  // root.
  EXPECT_EQ(Eval("UPDATEXML('<a><b/><b>y</b></a>', '/a/b[2]', '<c/>')"), "<a><b></b><c></c></a>");
  EXPECT_EQ(Eval("UPDATEXML('<a><b><c/></b></a>', '/a/b/c', '<d>e</d>')"),
            "<a><b><d>e</d></b></a>");
  EXPECT_EQ(Eval("UPDATEXML('<a><b/></a>', '/a', '<c>z</c>')"), "<c>z</c>");
  EXPECT_EQ(Eval("UPDATEXML('<a><b/></a>', '/a/', '<c/>')"), "<c></c>");
  EXPECT_EQ(Eval("UPDATEXML('<a><b/></a>', '/a[2]', '<c/>')"), "<a><b/></a>");
  EXPECT_EQ(Eval("UPDATEXML('<a><b/></a>', '/', '<c/>')"), "<a><b/></a>");
  EXPECT_EQ(Eval("UPDATEXML('<a><b/></a>', '/a/b/c', '<c/>')"), "<a><b/></a>");
  EXPECT_EQ(Eval("UPDATEXML('<a><b/></a>', '/a/b', 'not xml')"), "<a><b/></a>");
  EXPECT_EQ(Message("UPDATEXML('<a><b/></a>', '/a//', '<c/>')"), "empty step in XPath");
  EXPECT_EQ(Message("UPDATEXML('<a><b/></a>', '/a/b[', '<c/>')"), "unterminated index in XPath");
}

TEST_F(StructuredTest, SpatialFamily) {
  EXPECT_EQ(Eval("ST_ASTEXT(POINT(1, 2))"), "POINT(1 2)");
  EXPECT_EQ(Eval("ST_X(POINT(1, 2))"), "1");
  EXPECT_EQ(Eval("ST_Y(POINT(1, 2))"), "2");
  EXPECT_EQ(Eval("ST_X(ST_GEOMFROMTEXT('LINESTRING(0 0, 1 1)'))"),
            "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("ST_LENGTH(ST_GEOMFROMTEXT('LINESTRING(0 0, 3 4)'))"), "5");
  EXPECT_EQ(Eval("ST_DISTANCE(POINT(0, 0), POINT(3, 4))"), "5");
  EXPECT_EQ(Eval("ST_NUMPOINTS(ST_GEOMFROMTEXT('LINESTRING(0 0, 1 1)'))"), "2");
  EXPECT_EQ(Eval("ST_EQUALS(POINT(1, 2), POINT(1, 2))"), "TRUE");
  EXPECT_EQ(Eval("ST_ASTEXT(BOUNDARY(ST_GEOMFROMTEXT('LINESTRING(0 0, 1 1, 2 0)')))"),
            "LINESTRING(0 0, 2 0)");
  EXPECT_EQ(Eval("BOUNDARY(POINT(1, 2))"), "NULL");
  // The reference implementation *rejects* the Case 6 chain cleanly.
  EXPECT_EQ(Eval("ST_ASTEXT(INET6_ATON('255.255.255.255'))"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("ST_ISVALID(POINT(1, 2))"), "TRUE");
  EXPECT_EQ(Eval("ST_ISVALID(x'00FF')"), "FALSE");
}

TEST_F(StructuredTest, ArrayFamily) {
  EXPECT_EQ(Eval("ARRAY_LENGTH(ARRAY[1, 2, 3])"), "3");
  EXPECT_EQ(Eval("ARRAY_LENGTH(ARRAY[])"), "0");
  EXPECT_EQ(Eval("ELEMENT_AT(ARRAY[1, 2, 3], 2)"), "2");
  EXPECT_EQ(Eval("ELEMENT_AT(ARRAY[1, 2, 3], -1)"), "3");
  EXPECT_EQ(Eval("ELEMENT_AT(ARRAY[1], 9)"), "NULL");
  EXPECT_EQ(Eval("ELEMENT_AT(ARRAY[1], 0)"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("ARRAY_CONCAT(ARRAY[1], ARRAY[2, 3])"), "[1, 2, 3]");
  EXPECT_EQ(Eval("ARRAY_APPEND(ARRAY[1], 'x')"), "[1, x]");
  EXPECT_EQ(Eval("ARRAY_CONTAINS(ARRAY[1, 2], 2)"), "TRUE");
  EXPECT_EQ(Eval("ARRAY_CONTAINS(ARRAY[], 1)"), "FALSE");
  EXPECT_EQ(Eval("ARRAY_SLICE(ARRAY[1, 2, 3], 2, 3)"), "[2, 3]");
  EXPECT_EQ(Eval("ARRAY_SLICE(ARRAY[1, 2, 3], -5, 99)"), "[1, 2, 3]");  // clamped
  EXPECT_EQ(Eval("ARRAY_REVERSE(ARRAY[1, 2])"), "[2, 1]");
  EXPECT_EQ(Eval("ARRAY_POSITION(ARRAY[5, 7], 7)"), "2");
  EXPECT_EQ(Eval("ARRAY_POSITION(ARRAY[5], 9)"), "NULL");
  EXPECT_EQ(Eval("CARDINALITY(ARRAY[1, 2])"), "2");
  EXPECT_EQ(Eval("CARDINALITY(5)"), "<TYPE_ERROR>");
}

TEST_F(StructuredTest, MapFamily) {
  EXPECT_EQ(Eval("MAP_EXTRACT(MAP(ARRAY['a', 'b'], ARRAY[1, 2]), 'b')"), "2");
  EXPECT_EQ(Eval("MAP_EXTRACT(MAP(ARRAY['a'], ARRAY[1]), 'zz')"), "NULL");
  EXPECT_EQ(Eval("MAP_KEYS(MAP(ARRAY['a'], ARRAY[1]))"), "[a]");
  EXPECT_EQ(Eval("MAP_VALUES(MAP(ARRAY['a'], ARRAY[1]))"), "[1]");
  EXPECT_EQ(Eval("MAP(ARRAY['a'], ARRAY[1, 2])"), "<INVALID_ARGUMENT>");  // length
  EXPECT_EQ(Eval("MAP(ARRAY[NULL], ARRAY[1])"), "<INVALID_ARGUMENT>");    // NULL key
  EXPECT_EQ(Eval("MAP_KEYS('x')"), "<TYPE_ERROR>");
}

TEST_F(StructuredTest, SystemFamily) {
  EXPECT_EQ(Eval("VERSION()"), "soft-engine 1.0.0");
  EXPECT_EQ(Eval("DATABASE()"), "main");
  EXPECT_EQ(Eval("CONNECTION_ID()"), "1");
  EXPECT_EQ(Eval("TYPEOF(1.5)"), "DECIMAL");
  EXPECT_EQ(Eval("TYPEOF('x')"), "STRING");
  EXPECT_EQ(Eval("TYPEOF(NULL)"), "NULL");
  EXPECT_EQ(Eval("CONTAINS('haystack', 'hay')"), "1");
  EXPECT_EQ(Eval("CONTAINS('haystack', 'zzz')"), "0");
  EXPECT_EQ(Eval("CONTAINS('ABC', 'abc', 'i')"), "1");
  // Case 2's star argument is rejected by the reference implementation.
  EXPECT_EQ(Eval("CONTAINS('x', 'x', *)"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("SLEEP(0)"), "0");
  EXPECT_EQ(Eval("SLEEP(-1)"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("BENCHMARK(10, 1 + 1)"), "0");
  EXPECT_EQ(Eval("BENCHMARK(99999999, 1)"), "<RESOURCE_EXHAUSTED>");
  EXPECT_EQ(Eval("UUID()"), Eval("UUID()"));  // deterministic per session
}

TEST_F(StructuredTest, SequenceFamily) {
  EXPECT_EQ(Eval("NEXTVAL('s1')"), "1");
  EXPECT_EQ(Eval("NEXTVAL('s1')"), "2");
  EXPECT_EQ(Eval("LASTVAL('s1')"), "2");
  EXPECT_EQ(Eval("LASTVAL('never')"), "NULL");
  EXPECT_EQ(Eval("SETVAL('s1', 100)"), "100");
  EXPECT_EQ(Eval("NEXTVAL('s1')"), "101");
  EXPECT_EQ(Eval("LAST_INSERT_ID()"), "101");
  EXPECT_EQ(Eval("NEXTVAL('')"), "<INVALID_ARGUMENT>");
}

class AggregateTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT, b STRING, d DOUBLE)").ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1, 'x', 1.0), (2, 'y', 2.0), "
                            "(3, 'x', 4.0), (NULL, 'z', NULL)")
                    .ok());
  }
  std::string Eval(const std::string& expr) {
    const StatementResult r = db_.Execute("SELECT " + expr + " FROM t");
    if (!r.ok()) {
      return std::string("<").append(StatusCodeName(r.status.code())).append(">");
    }
    return r.rows[0][0].ToDisplayString();
  }
  Database db_;
};

TEST_F(AggregateTest, CoreAggregates) {
  EXPECT_EQ(Eval("COUNT(*)"), "4");
  EXPECT_EQ(Eval("COUNT(a)"), "3");
  EXPECT_EQ(Eval("SUM(a)"), "6");
  EXPECT_EQ(Eval("MIN(b)"), "x");
  EXPECT_EQ(Eval("MAX(b)"), "z");
  EXPECT_EQ(Eval("AVG(d)"), "2.3333333333333335");  // double path
  EXPECT_EQ(Eval("GROUP_CONCAT(b)"), "x,y,x,z");
  EXPECT_EQ(Eval("GROUP_CONCAT(DISTINCT b)"), "x,y,z");
  EXPECT_EQ(Eval("STDDEV(d)"), Eval("STDDEV(d)"));
  EXPECT_EQ(Eval("VARIANCE(a)"), Eval("VARIANCE(a)"));
  EXPECT_EQ(Eval("BIT_OR(a)"), "3");
  EXPECT_EQ(Eval("BIT_AND(a)"), "0");
  EXPECT_EQ(Eval("BIT_XOR(a)"), "0");
  EXPECT_EQ(Eval("MEDIAN(a)"), "2");
  EXPECT_EQ(Eval("BOOL_AND(a > 0)"), "TRUE");
  EXPECT_EQ(Eval("BOOL_OR(a > 2)"), "TRUE");
  EXPECT_EQ(Eval("JSON_ARRAYAGG(a)"), "[1,2,3,null]");
}

TEST_F(AggregateTest, EmptySetSemantics) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE e (a INT)").ok());
  auto eval = [&](const std::string& expr) {
    const StatementResult r = db.Execute("SELECT " + expr + " FROM e");
    EXPECT_TRUE(r.ok()) << r.status.ToString();
    return r.rows.empty() ? "<no row>" : r.rows[0][0].ToDisplayString();
  };
  EXPECT_EQ(eval("COUNT(*)"), "0");
  EXPECT_EQ(eval("SUM(a)"), "NULL");
  EXPECT_EQ(eval("AVG(a)"), "NULL");
  EXPECT_EQ(eval("MIN(a)"), "NULL");
  EXPECT_EQ(eval("GROUP_CONCAT(a)"), "NULL");
  EXPECT_EQ(eval("BIT_AND(a)"), "-1");  // identity of AND
}

// An aggregator keeps copies of what it accumulates: each row's coerced
// argument views die with that row's function context. Nineteen-digit
// numbers render past the small-string buffer, so a kept view would read
// freed heap (caught by the ASan lane).
TEST(AggregateLifetime, GroupConcatOverCoercedInts) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE n (a INT)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO n VALUES (1234567890123456789), (2), (-1000000000000000000)").ok());
  const StatementResult r = db.Execute("SELECT GROUP_CONCAT(a, 9000000000000000000) FROM n");
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows[0][0].ToDisplayString(),
            "1234567890123456789900000000000000000029000000000000000000"
            "-1000000000000000000");
  const StatementResult keys = db.Execute("SELECT JSONB_OBJECT_AGG(a, a) FROM n");
  ASSERT_TRUE(keys.ok()) << keys.status.ToString();
  EXPECT_EQ(keys.rows[0][0].ToDisplayString(),
            "{\"1234567890123456789\":1.2345678901234568e+18,\"2\":2,"
            "\"-1000000000000000000\":-1e+18}");
}

TEST_F(AggregateTest, JsonbObjectAgg) {
  EXPECT_EQ(Eval("JSONB_OBJECT_AGG(b, a)"),
            "{\"x\":1,\"y\":2,\"x\":3,\"z\":null}");
  const StatementResult r = db_.Execute("SELECT JSONB_OBJECT_AGG(NULL, 1) FROM t");
  EXPECT_FALSE(r.ok());  // NULL keys rejected
}

TEST_F(AggregateTest, SumKeepsDecimalDigits) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE d (v DECIMAL(40,2))").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO d VALUES (99999999999999999999999999999999999.50),"
                         "(0.50)")
                  .ok());
  const StatementResult r = db.Execute("SELECT SUM(v) FROM d");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.rows[0][0].ToDisplayString(), "100000000000000000000000000000000000.00");
}

}  // namespace
}  // namespace soft
