// Behaviour tests for the string function library — the paper's largest bug
// category, so its boundary branches get the densest coverage here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/util/str_util.h"

namespace soft {
namespace {

class StringFunctionsTest : public testing::Test {
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

TEST_F(StringFunctionsTest, LengthFamily) {
  EXPECT_EQ(Eval("LENGTH('hello')"), "5");
  EXPECT_EQ(Eval("LENGTH('')"), "0");
  EXPECT_EQ(Eval("CHAR_LENGTH('ab')"), "2");
  EXPECT_EQ(Eval("LENGTH(123)"), "3");  // lenient coercion
}

TEST_F(StringFunctionsTest, CaseFamily) {
  EXPECT_EQ(Eval("UPPER('MiXeD')"), "MIXED");
  EXPECT_EQ(Eval("LOWER('MiXeD')"), "mixed");
  EXPECT_EQ(Eval("INITCAP('hello world')"), "Hello World");
}

TEST_F(StringFunctionsTest, ConcatFamily) {
  EXPECT_EQ(Eval("CONCAT('a', 'b', 'c')"), "abc");
  EXPECT_EQ(Eval("CONCAT('n', 42)"), "n42");
  EXPECT_EQ(Eval("CONCAT('a', NULL)"), "NULL");          // null-propagating
  EXPECT_EQ(Eval("CONCAT_WS('-', 'a', NULL, 'b')"), "a-b");  // skips NULLs
  EXPECT_EQ(Eval("CONCAT_WS(',', NULL, NULL)"), "");
}

TEST_F(StringFunctionsTest, SubstrBoundaries) {
  EXPECT_EQ(Eval("SUBSTR('abcdef', 2, 3)"), "bcd");
  EXPECT_EQ(Eval("SUBSTR('abcdef', 2)"), "bcdef");
  EXPECT_EQ(Eval("SUBSTR('abcdef', 0)"), "");        // position 0 → empty
  EXPECT_EQ(Eval("SUBSTR('abcdef', -2)"), "ef");     // negative from end
  EXPECT_EQ(Eval("SUBSTR('abcdef', -100)"), "");     // before the start
  EXPECT_EQ(Eval("SUBSTR('abcdef', 100)"), "");      // past the end
  EXPECT_EQ(Eval("SUBSTR('abcdef', 2, 0)"), "");     // zero length
  EXPECT_EQ(Eval("SUBSTR('abcdef', 2, -1)"), "");    // negative length
  EXPECT_EQ(Eval("SUBSTR('abcdef', 2, 100)"), "bcdef");
}

TEST_F(StringFunctionsTest, LeftRight) {
  EXPECT_EQ(Eval("LEFT('abcdef', 3)"), "abc");
  EXPECT_EQ(Eval("RIGHT('abcdef', 3)"), "def");
  EXPECT_EQ(Eval("LEFT('abc', 0)"), "");
  EXPECT_EQ(Eval("LEFT('abc', -1)"), "");
  EXPECT_EQ(Eval("RIGHT('abc', 100)"), "abc");
}

TEST_F(StringFunctionsTest, PadBoundaries) {
  EXPECT_EQ(Eval("LPAD('5', 3, '0')"), "005");
  EXPECT_EQ(Eval("RPAD('5', 3, '0')"), "500");
  EXPECT_EQ(Eval("LPAD('abc', 2, '0')"), "ab");   // truncating pad
  EXPECT_EQ(Eval("LPAD('a', 5, 'xy')"), "xyxya"); // multi-char pad
  EXPECT_EQ(Eval("LPAD('a', -1, '0')"), "NULL");  // negative target
  EXPECT_EQ(Eval("LPAD('a', 5, '')"), "");        // empty pad
  EXPECT_EQ(Eval("LPAD('a', 3)"), "  a");         // default space pad
  // The P1.2 pads: a 9,999,999-byte target, checked by length and both ends.
  EXPECT_EQ(Eval("LENGTH(LPAD('5', 9999999, '0'))"), "9999999");
  EXPECT_EQ(Eval("LEFT(LPAD('5', 9999999, '0'), 1)"), "0");
  EXPECT_EQ(Eval("RIGHT(LPAD('5', 9999999, '0'), 1)"), "5");
  EXPECT_EQ(Eval("LENGTH(RPAD('5', 9999999, '0'))"), "9999999");
  EXPECT_EQ(Eval("LEFT(RPAD('5', 9999999, '0'), 1)"), "5");
  EXPECT_EQ(Eval("RIGHT(RPAD('5', 9999999, '0'), 1)"), "0");
  EXPECT_EQ(Eval("LENGTH(SPACE(9999999))"), "9999999");
  // The last copy of a multi-byte pad is cut.
  EXPECT_EQ(Eval("RPAD('a', 10, 'xyz')"), "axyzxyzxyz");
  EXPECT_EQ(Eval("LPAD('a', 8, 'xyz')"), "xyzxyzxa");
  // A target of exactly max_string_len (16 MiB) is built; one byte more is not.
  EXPECT_EQ(Eval("LENGTH(RPAD('a', 16777216, 'bc'))"), "16777216");
  EXPECT_EQ(Eval("RIGHT(LPAD('a', 16777216, 'bc'), 2)"), "ba");
  EXPECT_EQ(Eval("RPAD('a', 16777217, 'bc')"), "<RESOURCE_EXHAUSTED>");
  EXPECT_EQ(Message("LPAD('a', 16777217, 'bc')"), "pad target exceeds engine string limit");
}

TEST_F(StringFunctionsTest, TrimFamily) {
  EXPECT_EQ(Eval("TRIM('  a  ')"), "a");
  EXPECT_EQ(Eval("LTRIM('  a  ')"), "a  ");
  EXPECT_EQ(Eval("RTRIM('  a  ')"), "  a");
  EXPECT_EQ(Eval("TRIM('    ')"), "");
}

TEST_F(StringFunctionsTest, ReplaceBoundaries) {
  EXPECT_EQ(Eval("REPLACE('banana', 'a', 'o')"), "bonono");
  EXPECT_EQ(Eval("REPLACE('banana', '', 'x')"), "banana");  // empty needle
  EXPECT_EQ(Eval("REPLACE('banana', 'an', '')"), "ba");
  EXPECT_EQ(Eval("REPLACE('aaa', 'aa', 'b')"), "ba");  // non-overlapping
}

TEST_F(StringFunctionsTest, RepeatBoundaries) {
  EXPECT_EQ(Eval("REPEAT('ab', 3)"), "ababab");
  EXPECT_EQ(Eval("REPEAT('ab', 0)"), "");
  EXPECT_EQ(Eval("REPEAT('ab', -1)"), "");
  EXPECT_EQ(Eval("REPEAT('a', 9999999999)"), "<RESOURCE_EXHAUSTED>");
  EXPECT_EQ(Eval("REPEAT('', 1000)"), "");
  EXPECT_EQ(Eval("REPEAT('', 1000000)"), "");
  EXPECT_EQ(Eval("REPEAT('ab', 1)"), "ab");
  // 7 = 4 + 3 repetitions: the last chunk is a partial copy of the first 4.
  EXPECT_EQ(Eval("REPEAT('abc', 7)"), "abcabcabcabcabcabcabc");
  EXPECT_EQ(Eval("REPEAT('xy', 5)"), "xyxyxyxyxy");
  // 8 bytes x 2097152 is exactly max_string_len (16 MiB); one more
  // repetition is over it.
  EXPECT_EQ(Eval("LENGTH(REPEAT('abcdefgh', 2097152))"), "16777216");
  EXPECT_EQ(Eval("SUBSTR(REPEAT('abcdefgh', 2097152), 8388605, 8)"), "efghabcd");
  EXPECT_EQ(Eval("RIGHT(REPEAT('abcdefgh', 2097152), 3)"), "fgh");
  EXPECT_EQ(Eval("REPEAT('abcdefgh', 2097153)"), "<RESOURCE_EXHAUSTED>");
  EXPECT_EQ(Message("REPEAT('abcdefgh', 2097153)"),
            "REPEAT result exceeds engine string limit");
  // n = max_repeat_count (2^22) is allowed, one more is not.
  EXPECT_EQ(Eval("LENGTH(REPEAT('a', 4194304))"), "4194304");
  EXPECT_EQ(Eval("REPEAT('a', 4194305)"), "<RESOURCE_EXHAUSTED>");
  EXPECT_EQ(Eval("LENGTH(REPEAT('abcd', 4194304))"), "16777216");
  EXPECT_EQ(Eval("REPEAT('abcd', 4194305)"), "<RESOURCE_EXHAUSTED>");
}

TEST_F(StringFunctionsTest, SearchFamily) {
  EXPECT_EQ(Eval("INSTR('banana', 'na')"), "3");
  EXPECT_EQ(Eval("INSTR('banana', 'xyz')"), "0");
  EXPECT_EQ(Eval("INSTR('banana', '')"), "1");
  EXPECT_EQ(Eval("LOCATE('na', 'banana', 4)"), "5");
  EXPECT_EQ(Eval("LOCATE('na', 'banana', 100)"), "0");
  EXPECT_EQ(Eval("LOCATE('na', 'banana', 0)"), "0");  // invalid start
}

TEST_F(StringFunctionsTest, AsciiChr) {
  EXPECT_EQ(Eval("ASCII('A')"), "65");
  EXPECT_EQ(Eval("ASCII('')"), "0");
  EXPECT_EQ(Eval("CHR(65)"), "A");
  EXPECT_EQ(Eval("CHR(-1)"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("LENGTH(CHR(955))"), "2");  // UTF-8 two-byter (lambda)
}

TEST_F(StringFunctionsTest, FormatClampsFractionDigits) {
  EXPECT_EQ(Eval("FORMAT(1234.567, 2)"), "1,234.57");
  EXPECT_EQ(Eval("FORMAT(1234567, 0)"), "1,234,567");
  EXPECT_EQ(Eval("FORMAT(0, 3)"), "0.000");
  EXPECT_EQ(Eval("FORMAT(-1234.5, 1)"), "-1,234.5");
  // The fixed MDEV-23415 behaviour: 50 digits clamp at 38, no scientific
  // notation, no overflow.
  const std::string out = Eval("FORMAT('0', 50, 'de_DE')");
  EXPECT_EQ(out, "0." + std::string(38, '0'));
  EXPECT_EQ(Eval("FORMAT(1, 2, 'bogus')"), "<INVALID_ARGUMENT>");
}

TEST_F(StringFunctionsTest, HexUnhexRoundTrip) {
  EXPECT_EQ(Eval("HEX('abc')"), "616263");
  EXPECT_EQ(Eval("HEX(255)"), "FF");
  EXPECT_EQ(Eval("UNHEX('616263')"), "x'616263'");
  EXPECT_EQ(Eval("UNHEX('ABC')"), "NULL");   // odd length
  EXPECT_EQ(Eval("UNHEX('XYZ1')"), "NULL");  // invalid digits
}

TEST_F(StringFunctionsTest, Base64RoundTrip) {
  EXPECT_EQ(Eval("TO_BASE64('abc')"), "YWJj");
  EXPECT_EQ(Eval("TO_BASE64('a')"), "YQ==");
  EXPECT_EQ(Eval("CAST(FROM_BASE64('YWJj') AS STRING)"), "abc");
  EXPECT_EQ(Eval("FROM_BASE64('!!!')"), "NULL");
}

TEST_F(StringFunctionsTest, MiscFunctions) {
  EXPECT_EQ(Eval("REVERSE('abc')"), "cba");
  EXPECT_EQ(Eval("SPACE(3)"), "   ");
  EXPECT_EQ(Eval("SPACE(-1)"), "");
  EXPECT_EQ(Eval("STRCMP('a', 'b')"), "-1");
  EXPECT_EQ(Eval("STRCMP('b', 'b')"), "0");
  EXPECT_EQ(Eval("ELT(2, 'a', 'b', 'c')"), "b");
  EXPECT_EQ(Eval("ELT(9, 'a', 'b')"), "NULL");
  EXPECT_EQ(Eval("FIELD('b', 'a', 'b')"), "2");
  EXPECT_EQ(Eval("FIELD('z', 'a', 'b')"), "0");
  EXPECT_EQ(Eval("QUOTE('it''s')"), "'it''s'");
  EXPECT_EQ(Eval("SOUNDEX('Robert')"), "R163");
  EXPECT_EQ(Eval("SOUNDEX('')"), "");
}

TEST_F(StringFunctionsTest, SplitPartBoundaries) {
  EXPECT_EQ(Eval("SPLIT_PART('a,b,c', ',', 2)"), "b");
  EXPECT_EQ(Eval("SPLIT_PART('a,b,c', ',', -1)"), "c");
  EXPECT_EQ(Eval("SPLIT_PART('a,b,c', ',', 9)"), "");
  EXPECT_EQ(Eval("SPLIT_PART('a,b,c', ',', 0)"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("SPLIT_PART('abc', '', 1)"), "abc");
  EXPECT_EQ(Eval("SPLIT_PART('abc', '', -1)"), "abc");
  EXPECT_EQ(Eval("SPLIT_PART('abc', '', 2)"), "");
  EXPECT_EQ(Message("SPLIT_PART('a,b,c', ',', 0)"), "field position must not be zero");
  // Multi-byte and overlapping delimiters: matches do not overlap.
  EXPECT_EQ(Eval("SPLIT_PART('a::b::c', '::', 2)"), "b");
  EXPECT_EQ(Eval("SPLIT_PART('a::b::c', '::', -3)"), "a");
  EXPECT_EQ(Eval("SPLIT_PART('aaaa', 'aa', 1)"), "");
  EXPECT_EQ(Eval("SPLIT_PART('aaaa', 'aa', 2)"), "");
  EXPECT_EQ(Eval("SPLIT_PART('aaaa', 'aa', 3)"), "");
  EXPECT_EQ(Eval("SPLIT_PART('aaa', 'aa', 2)"), "a");
  EXPECT_EQ(Eval("SPLIT_PART('aaa', 'aa', -1)"), "a");
  EXPECT_EQ(Eval("SPLIT_PART('aaXaa', 'aa', 2)"), "X");
  EXPECT_EQ(Eval("SPLIT_PART('abc', 'abcd', 1)"), "abc");
  // A delimiter at both ends makes empty first and last parts.
  EXPECT_EQ(Eval("SPLIT_PART(',a,', ',', 1)"), "");
  EXPECT_EQ(Eval("SPLIT_PART(',a,', ',', 2)"), "a");
  EXPECT_EQ(Eval("SPLIT_PART(',a,', ',', 3)"), "");
  EXPECT_EQ(Eval("SPLIT_PART(',a,', ',', -2)"), "a");
  EXPECT_EQ(Eval("SPLIT_PART(',a,', ',', -3)"), "");
  EXPECT_EQ(Eval("SPLIT_PART(',a,', ',', 4)"), "");
  // Negative n counts from the end; beyond the part count it is empty.
  EXPECT_EQ(Eval("SPLIT_PART('a,b,c', ',', -3)"), "a");
  EXPECT_EQ(Eval("SPLIT_PART('a,b,c', ',', -4)"), "");
  EXPECT_EQ(Eval("SPLIT_PART('a,b,c', ',', -9223372036854775807)"), "");
  EXPECT_EQ(Eval("SPLIT_PART('a,b,c', ',', -9223372036854775808)"), "");
  EXPECT_EQ(Eval("SPLIT_PART('a,b,c', ',', 9223372036854775807)"), "");
  EXPECT_EQ(Eval("SPLIT_PART(REPEAT('ab,', 100000), ',', 100000)"), "ab");
  EXPECT_EQ(Eval("SPLIT_PART(REPEAT('ab,', 100000), ',', -1)"), "");
  EXPECT_EQ(Eval("SPLIT_PART(REPEAT('ab,', 100000), ',', -100001)"), "ab");
}

TEST_F(StringFunctionsTest, TranslateDeletesUnmapped) {
  EXPECT_EQ(Eval("TRANSLATE('abc', 'abc', 'xyz')"), "xyz");
  EXPECT_EQ(Eval("TRANSLATE('abc', 'ac', 'x')"), "xb");  // c deleted
  EXPECT_EQ(Eval("TRANSLATE('abc', '', '')"), "abc");
  EXPECT_EQ(Eval("LENGTH(TRANSLATE(REPEAT('ab', 1100000), 'b', ''))"), "1100000");
  const std::vector<std::string> keys = db_.coverage().BranchKeys();
  EXPECT_NE(std::find(keys.begin(), keys.end(), "TRANSLATE#1"), keys.end());
}

TEST_F(StringFunctionsTest, RegexpLike) {
  EXPECT_EQ(Eval("REGEXP_LIKE('abc', 'a.c')"), "TRUE");
  EXPECT_EQ(Eval("REGEXP_LIKE('abc', '^b')"), "FALSE");
  EXPECT_EQ(Eval("REGEXP_LIKE('abc', 'c$')"), "TRUE");
  EXPECT_EQ(Eval("REGEXP_LIKE('aaab', 'a*b')"), "TRUE");
  EXPECT_EQ(Eval("REGEXP_LIKE('xyz', '[a-c]')"), "FALSE");
  EXPECT_EQ(Eval("REGEXP_LIKE('b', '[^a]')"), "TRUE");
  EXPECT_EQ(Eval("REGEXP_LIKE('abc', '')"), "TRUE");
}

TEST_F(StringFunctionsTest, RegexpCve20160773Shape) {
  // Codepoints at INT32_MAX in escapes are rejected, not overflowed — the
  // patched PostgreSQL behaviour.
  EXPECT_EQ(Eval("REGEXP_LIKE('abc', '[\\x61-\\x7a]')"), "TRUE");
  EXPECT_EQ(Eval("REGEXP_LIKE('abc', '[\\x41-\\x7fffffff]')"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("REGEXP_LIKE('abc', '\\x7fffffff')"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("REGEXP_LIKE('abc', '[z-a]')"), "<INVALID_ARGUMENT>");  // bad range
}

TEST_F(StringFunctionsTest, RegexpReplace) {
  EXPECT_EQ(Eval("REGEXP_REPLACE('banana', 'an', 'X')"), "bXXa");
  EXPECT_EQ(Eval("REGEXP_REPLACE('abc', 'z', 'X')"), "abc");
  EXPECT_EQ(Eval("REGEXP_REPLACE('abc', '', 'X')"), "abc");
  // The leftmost shortest window is replaced; an empty match consumes the
  // character it starts at.
  EXPECT_EQ(Eval("REGEXP_REPLACE('bbb', 'a*', 'X')"), "XXX");
  EXPECT_EQ(Eval("REGEXP_REPLACE('aab', 'a*', 'X')"), "XXX");
  EXPECT_EQ(Eval("REGEXP_REPLACE('abbb', 'ab*', 'X')"), "Xbbb");
  EXPECT_EQ(Eval("REGEXP_REPLACE('abc', '.', 'X')"), "XXX");
  EXPECT_EQ(Eval("REGEXP_REPLACE('a.c', 'a.c', 'X')"), "X");
  EXPECT_EQ(Eval("REGEXP_REPLACE('a1b22', '[0-9]', '#')"), "a#b##");
  EXPECT_EQ(Eval("REGEXP_REPLACE('a1b22', '[^0-9]', '#')"), "#1#22");
  EXPECT_EQ(Eval("REGEXP_REPLACE('a1b22', '[0-9]*', '#')"), "#####");
  // A star pattern that matches only late in the subject.
  EXPECT_EQ(Eval("REGEXP_REPLACE('xxxxxxxxxxabbbbc', 'ab*c', 'Y')"), "xxxxxxxxxxY");
  EXPECT_EQ(Eval("REGEXP_REPLACE('aaaaaaaaac', 'ab*c', 'Y')"), "aaaaaaaaY");
  EXPECT_EQ(Eval("REGEXP_REPLACE('abcabd', 'ab*c', 'Y')"), "Yabd");
  // '^' and '$' anchor nothing inside a window: every window is matched whole.
  EXPECT_EQ(Eval("REGEXP_REPLACE('aba', '^a', 'X')"), "XbX");
  EXPECT_EQ(Eval("REGEXP_REPLACE('aba', 'a$', 'X')"), "XbX");
  EXPECT_EQ(Eval("REGEXP_REPLACE('aba', '^a$', 'X')"), "XbX");
  EXPECT_EQ(Eval("REGEXP_REPLACE('ab', '^$', 'X')"), "XX");
  EXPECT_EQ(Eval("REGEXP_REPLACE('ab', '^', 'X')"), "XX");
  EXPECT_EQ(Eval("REGEXP_REPLACE('a$b', 'a$b', 'X')"), "X");
  EXPECT_EQ(Eval("REGEXP_REPLACE('abc', '[a', 'X')"), "<INVALID_ARGUMENT>");
  EXPECT_EQ(Eval("REGEXP_REPLACE('abc', '[z-a]', 'X')"), "<INVALID_ARGUMENT>");
  // The subject limit is 16,384 bytes.
  EXPECT_EQ(Eval("REGEXP_REPLACE(REPEAT('b', 16384), 'b', 'x') = REPEAT('x', 16384)"),
            "TRUE");
  EXPECT_EQ(Eval("LENGTH(REGEXP_REPLACE(REPEAT('ab', 8192), 'b', 'xy'))"), "24576");
  EXPECT_EQ(Eval("REGEXP_REPLACE(REPEAT('b', 16385), 'b', 'x')"), "<RESOURCE_EXHAUSTED>");
  EXPECT_EQ(Message("REGEXP_REPLACE(REPEAT('b', 16385), 'b', 'x')"),
            "REGEXP_REPLACE operand exceeds matcher limits");
  EXPECT_EQ(Eval("REGEXP_REPLACE(REPEAT('b', 16385), '', 'x') = REPEAT('b', 16385)"),
            "TRUE");
  // The result limit is checked as the output grows.
  EXPECT_EQ(Eval("REGEXP_REPLACE(REPEAT('b', 20), 'b', REPEAT('x', 1000000))"),
            "<RESOURCE_EXHAUSTED>");
  EXPECT_EQ(Message("REGEXP_REPLACE(REPEAT('b', 20), 'b', REPEAT('x', 1000000))"),
            "REGEXP_REPLACE result exceeds engine string limit");
}

// The inline ASCII helpers stand in for <cctype> in the "C" locale: they
// must agree with it on every byte value.
TEST(AsciiHelpers, EqualCctypeForEveryByte) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const unsigned char u = static_cast<unsigned char>(b);
    EXPECT_EQ(IsAsciiDigit(c), std::isdigit(u) != 0) << b;
    EXPECT_EQ(IsAsciiUpper(c), std::isupper(u) != 0) << b;
    EXPECT_EQ(IsAsciiLower(c), std::islower(u) != 0) << b;
    EXPECT_EQ(IsAsciiAlpha(c), std::isalpha(u) != 0) << b;
    EXPECT_EQ(IsAsciiAlnum(c), std::isalnum(u) != 0) << b;
    EXPECT_EQ(IsAsciiXDigit(c), std::isxdigit(u) != 0) << b;
    EXPECT_EQ(IsAsciiSpace(c), std::isspace(u) != 0) << b;
    EXPECT_EQ(ToAsciiLower(c), static_cast<char>(std::tolower(u))) << b;
    EXPECT_EQ(ToAsciiUpper(c), static_cast<char>(std::toupper(u))) << b;
  }
}

// LIKE reads coerced operands through views into its function context, which
// must outlive them. Nineteen-digit numbers render past the small-string
// buffer, so a view of a freed rendering is a heap use-after-free (caught
// by the ASan lane).
TEST_F(StringFunctionsTest, LikeOverCoercedOperands) {
  EXPECT_EQ(Eval("1234567890123456789 LIKE 1234567890123456789"), "TRUE");
  EXPECT_EQ(Eval("1234567890123456789 LIKE '12345678901234567%'"), "TRUE");
  EXPECT_EQ(Eval("'1234567890123456789' LIKE 1234567890123456788"), "FALSE");
  EXPECT_EQ(Eval("12.5 LIKE '12._'"), "TRUE");
}

// Megabyte arguments are read in place; the results are those of a copy.
TEST_F(StringFunctionsTest, MegabyteArguments) {
  EXPECT_EQ(Eval("LENGTH(REPEAT('AB', 1100000))"), "2200000");
  EXPECT_EQ(Eval("LOWER(REPEAT('AB', 1100000)) = REPEAT('ab', 1100000)"), "TRUE");
  EXPECT_EQ(Eval("INITCAP(REPEAT('aB c ', 300000)) = REPEAT('Ab C ', 300000)"), "TRUE");
  EXPECT_EQ(Eval("SOUNDEX(REPEAT('Robert', 200000))"), "R163");
  EXPECT_EQ(Eval("REPLACE(REPEAT('ab', 1100000), 'a', 'xy') = REPEAT('xyb', 1100000)"),
            "TRUE");
  EXPECT_EQ(Eval("REPLACE(REPEAT('abc', 500000), 'bc', '') = REPEAT('a', 500000)"), "TRUE");
  EXPECT_EQ(Eval("LENGTH(QUOTE(REPEAT('a''', 500000)))"), "1500002");
  EXPECT_EQ(Eval("CAST(FROM_BASE64(TO_BASE64(REPEAT('xyz', 400000))) AS VARCHAR) = "
                 "REPEAT('xyz', 400000)"),
            "TRUE");
  EXPECT_EQ(Eval("CAST(UNHEX(HEX(REPEAT('q', 1000000))) AS VARCHAR) = REPEAT('q', 1000000)"),
            "TRUE");
  EXPECT_EQ(Eval("TRANSLATE(REPEAT('abc', 400000), 'ab', 'x') = REPEAT('xc', 400000)"),
            "TRUE");
  EXPECT_EQ(Eval("REVERSE(REPEAT('ab', 500000)) = REPEAT('ba', 500000)"), "TRUE");
}

TEST_F(StringFunctionsTest, DigestsAreStable) {
  EXPECT_EQ(Eval("MD5('abc')"), Eval("MD5('abc')"));
  EXPECT_NE(Eval("MD5('abc')"), Eval("MD5('abd')"));
  EXPECT_EQ(Eval("LENGTH(MD5('abc'))"), "32");
  EXPECT_EQ(Eval("LENGTH(SHA1('abc'))"), "40");
}

}  // namespace
}  // namespace soft
