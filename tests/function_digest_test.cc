// Outcome pins for the functions whose bodies are written for megabyte
// arguments: REPEAT, REGEXP_REPLACE, EXTRACTVALUE, UPDATEXML, SPLIT_PART,
// INET_ATON, INET6_ATON and DATE_FORMAT (SOFT's P3.1 pattern passes them
// REPEAT(..., 1100000)-sized strings).
//
// Three pins per dialect:
//  - ResultsDigest: every seed-1 pool case that calls one of those
//    functions, executed in pool order, hashed over its status, crash bug id
//    and rendered rows. Campaign digests count outcomes but never read a
//    result value, so this is the pin that catches a wrong result. A
//    failure prints the new digest; re-pin only for an intended result
//    change.
//  - PoolResultsDigest: every other seed-1 pool case, hashed the same way.
//    Together the two pin the result of every pool case, so a change to the
//    lexer, the cast matrix or any function body shows here.
//  - FullSetDigest: `find_bugs <dialect> 250000`'s campaign (seed 1, stop
//    once the full bug set is found), pinned by its statement and bug counts
//    and both digests `find_bugs` prints.
//
// And one pin per dialect for the logic oracles:
//  - OracleDigest: a 20,000-statement seed-1 campaign with every logic
//    oracle armed, over every pattern but P3.1 (the pool of the benchmark's
//    `logic_oracles` workload), pinned by its statement and oracle counters
//    and both its logic and outcome digests. It catches any change in what
//    the oracles examine or conclude.
// Suite names stay clear of the TSan lane's ctest pattern: these run whole
// pools and campaigns, which is slow under TSan and exercises no threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>

#include "src/dialects/dialects.h"
#include "src/soft/chaos.h"
#include "src/soft/soft_fuzzer.h"
#include "src/util/fnv.h"

namespace soft {
namespace {

struct ResultsPin {
  const char* dialect;
  size_t cases;     // pool cases that call a pinned function
  uint64_t digest;  // over those cases' results
};

struct FullSetPin {
  const char* dialect;
  int statements;
  size_t bugs;
  uint64_t outcome_digest;  // DigestCampaignResult
  uint64_t bug_digest;      // DigestBugInventory
};

constexpr ResultsPin kResultsPins[] = {
    {"postgresql", 4535, 0x2cf644d63befb9f4},
    {"mysql", 5940, 0xbf35611fcbfbb006},
    {"mariadb", 5554, 0x834c0814ce305655},
    {"clickhouse", 7260, 0x05a6dbbe2f0a571d},
    {"monetdb", 2570, 0x7a8dbf840ab1cf3a},
    {"duckdb", 4446, 0x4dba706dcc4ad78d},
    {"virtuoso", 7205, 0xc6a6a2acfc5bfa48},
};

constexpr ResultsPin kPoolResultsPins[] = {
    {"postgresql", 45911, 0x5449f3026a82e5a9},
    {"mysql", 45806, 0x3d0c19ced0c43451},
    {"mariadb", 44958, 0x6a460819a27f240d},
    {"clickhouse", 60946, 0xa09de5f0a320472b},
    {"monetdb", 26558, 0x79c1791884c58a80},
    {"duckdb", 44958, 0x152a9d32d974aa04},
    {"virtuoso", 61183, 0x7dcd15a6e1b13761},
};

constexpr FullSetPin kFullSetPins[] = {
    {"postgresql", 7780, 1, 0x09e2d74bc5fa8160, 0xb1d9f3944259ee1f},
    {"mysql", 37032, 16, 0xd4facc495c8c1e44, 0x34600ca77af1c983},
    {"mariadb", 46639, 24, 0x55592893487eecae, 0x4cd7bc9ab67c9fd3},
    {"clickhouse", 47337, 6, 0x61daf962906b7917, 0xa11c01b64e081e56},
    {"monetdb", 19863, 19, 0xe3756615acfb2b94, 0x4a5cc19c48536440},
    {"duckdb", 36303, 21, 0xe0410cf36b0e597b, 0x53cf545b4786750a},
    {"virtuoso", 66858, 45, 0xb79373a1ceb4e656, 0x12ce3d5a08a97b5e},
};

struct OraclePin {
  const char* dialect;
  int statements;
  int checks;               // logic_checks
  int divergences;          // logic_divergences
  uint64_t logic_digest;    // DigestLogicOutcome
  uint64_t outcome_digest;  // DigestCampaignResult
};

constexpr OraclePin kOraclePins[] = {
    {"postgresql", 20000, 22043, 133, 0x08cbf9f0230e3c43, 0x60c8d523dd064607},
    {"mysql", 20000, 26774, 135, 0x0f3cc1c0809afb4d, 0x759954397f6e2eea},
    {"mariadb", 20000, 26011, 112, 0x0e2b40afabea03dc, 0x2e7562c613c10cfb},
    {"clickhouse", 20000, 26938, 112, 0xd5919f65dcbbe412, 0xa140b95ae688196e},
    {"monetdb", 20000, 26116, 212, 0x76a0742890d74b05, 0x3f72c0ffcb4407ee},
    {"duckdb", 20000, 22986, 161, 0x3d4de66a26d9ad5f, 0xfc0715f7acacbee1},
    {"virtuoso", 20000, 26736, 103, 0xad4d664ab6de989c, 0xd749371010358431},
};

// gtest prints a parameter into its ctest name; print the dialect, not the
// struct's bytes (which hold a pointer and so change from run to run).
void PrintTo(const ResultsPin& pin, std::ostream* os) { *os << pin.dialect; }
void PrintTo(const FullSetPin& pin, std::ostream* os) { *os << pin.dialect; }
void PrintTo(const OraclePin& pin, std::ostream* os) { *os << pin.dialect; }

constexpr std::string_view kPinnedCalls[] = {
    "REPEAT(",     "REGEXP_REPLACE(", "EXTRACTVALUE(", "UPDATEXML(",
    "SPLIT_PART(", "INET_ATON(",      "INET6_ATON(",   "DATE_FORMAT(",
};

bool CallsPinnedFunction(std::string sql) {
  std::transform(sql.begin(), sql.end(), sql.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return std::any_of(std::begin(kPinnedCalls), std::end(kPinnedCalls),
                     [&](std::string_view call) { return sql.find(call) != std::string::npos; });
}

// FNV-1a over one length-prefixed field, so field boundaries are unambiguous.
uint64_t MixField(uint64_t h, std::string_view bytes) {
  h = FnvMix(h, std::to_string(bytes.size()) + ":");
  return FnvMix(h, bytes);
}

// Executes, in pool order on a fresh database, the seed-1 pool cases whose
// CallsPinnedFunction equals `pinned`, and checks their count and digest.
void ExpectPoolResults(const ResultsPin& pin, bool pinned) {
  CampaignOptions options;
  options.seed = 1;
  const std::shared_ptr<const CasePool> pool = BuildCasePool(pin.dialect, options);
  ASSERT_NE(pool, nullptr);
  const std::unique_ptr<Database> db = MakeDialect(pin.dialect);
  for (const std::string& prereq : pool->prerequisites) {
    db->Execute(prereq);
  }
  size_t cases = 0;
  uint64_t digest = kFnvOffsetBasis;
  for (const GeneratedCase& test_case : pool->cases) {
    if (CallsPinnedFunction(test_case.sql) != pinned) {
      continue;
    }
    ++cases;
    const StatementResult r = db->Execute(test_case.sql);
    digest = MixField(digest, StatusCodeName(r.status.code()));
    digest = MixField(digest, r.status.message());
    digest = MixField(digest, std::to_string(r.crashed() ? r.crash->bug_id : 0));
    digest = MixField(digest, std::to_string(r.rows.size()));
    for (const ValueList& row : r.rows) {
      digest = MixField(digest, std::to_string(row.size()));
      for (const Value& value : row) {
        digest = MixField(digest, value.ToDisplayString());
      }
    }
  }
  EXPECT_EQ(cases, pin.cases) << pin.dialect;
  EXPECT_EQ(digest, pin.digest) << pin.dialect << std::hex << std::showbase
                                << ": results digest " << digest;
}

std::string DialectName(const testing::TestParamInfo<ResultsPin>& info) {
  return info.param.dialect;
}

class ResultsDigest : public testing::TestWithParam<ResultsPin> {};

TEST_P(ResultsDigest, MatchesPin) { ExpectPoolResults(GetParam(), /*pinned=*/true); }

INSTANTIATE_TEST_SUITE_P(Dialects, ResultsDigest, testing::ValuesIn(kResultsPins),
                         DialectName);

class PoolResultsDigest : public testing::TestWithParam<ResultsPin> {};

TEST_P(PoolResultsDigest, MatchesPin) { ExpectPoolResults(GetParam(), /*pinned=*/false); }

INSTANTIATE_TEST_SUITE_P(Dialects, PoolResultsDigest, testing::ValuesIn(kPoolResultsPins),
                         DialectName);

class FullSetDigest : public testing::TestWithParam<FullSetPin> {};

TEST_P(FullSetDigest, MatchesPin) {
  const FullSetPin& pin = GetParam();
  CampaignOptions options;
  options.seed = 1;
  options.max_statements = 250000;
  options.stop_when_all_bugs_found = true;
  const CampaignResult result = RunShardedSoftCampaign(pin.dialect, options, 1);
  EXPECT_EQ(result.statements_executed, pin.statements) << pin.dialect;
  EXPECT_EQ(result.unique_bugs.size(), pin.bugs) << pin.dialect;
  EXPECT_EQ(DigestCampaignResult(result), pin.outcome_digest) << pin.dialect;
  EXPECT_EQ(DigestBugInventory(result), pin.bug_digest) << pin.dialect;
}

INSTANTIATE_TEST_SUITE_P(Dialects, FullSetDigest, testing::ValuesIn(kFullSetPins),
                         [](const testing::TestParamInfo<FullSetPin>& info) {
                           return std::string(info.param.dialect);
                         });

class OracleDigest : public testing::TestWithParam<OraclePin> {};

TEST_P(OracleDigest, MatchesPin) {
  const OraclePin& pin = GetParam();
  CampaignOptions options;
  options.seed = 1;
  options.max_statements = 20000;
  options.logic_oracles = {"all"};
  SoftOptions soft_options;
  soft_options.only_patterns = {"P1.2", "P1.3", "P1.4", "P2.1",
                                "P2.2", "P2.3", "P3.2", "P3.3"};
  const CampaignResult result = RunShardedSoftCampaign(pin.dialect, options, 1, soft_options);
  EXPECT_EQ(result.statements_executed, pin.statements) << pin.dialect;
  EXPECT_EQ(result.logic_checks, pin.checks) << pin.dialect;
  EXPECT_EQ(result.logic_divergences, pin.divergences) << pin.dialect;
  EXPECT_EQ(result.logic_false_positives, 0) << pin.dialect;
  EXPECT_EQ(DigestLogicOutcome(result), pin.logic_digest)
      << pin.dialect << std::hex << std::showbase << ": logic digest "
      << DigestLogicOutcome(result);
  EXPECT_EQ(DigestCampaignResult(result), pin.outcome_digest)
      << pin.dialect << std::hex << std::showbase << ": outcome digest "
      << DigestCampaignResult(result);
}

INSTANTIATE_TEST_SUITE_P(Dialects, OracleDigest, testing::ValuesIn(kOraclePins),
                         [](const testing::TestParamInfo<OraclePin>& info) {
                           return std::string(info.param.dialect);
                         });

}  // namespace
}  // namespace soft
