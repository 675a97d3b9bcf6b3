// Golden wrong-result corpus: the logic PoC statements logged by a reference
// --oracle=all campaign (one per seeded LogicBugSpec, checked in under
// tests/golden/logic/) must each still be flagged when replayed directly —
// and by the same oracle. This is the regression net over the EET
// transformer, the differential siblings, and the evaluator's logic-fault
// hook: a silently defanged LogicBugSpec, a variant builder that stops
// rewriting, or a widened declared-difference table all break it without
// needing a fuzzing run. Regenerate with examples/gen_golden_pocs when the
// wrong-result corpus intentionally changes.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/dialects/dialects.h"
#include "src/soft/logic_oracle.h"

#ifndef SOFT_GOLDEN_DIR
#error "SOFT_GOLDEN_DIR must be defined to the tests/golden directory"
#endif

namespace soft {
namespace {

struct GoldenLogicPoc {
  int bug_id = 0;
  std::string oracle;  // "eet" | "diff" | "norec" | "tlp"
  std::string sql;
};

std::vector<GoldenLogicPoc> LoadGoldenLogicPocs(const std::string& dialect) {
  const std::string path =
      std::string(SOFT_GOLDEN_DIR) + "/logic/logic_" + dialect + ".txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden logic corpus: " << path;
  std::vector<GoldenLogicPoc> pocs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t first_tab = line.find('\t');
    const size_t second_tab =
        first_tab == std::string::npos ? std::string::npos
                                       : line.find('\t', first_tab + 1);
    EXPECT_NE(second_tab, std::string::npos) << "malformed golden line: " << line;
    if (second_tab == std::string::npos) {
      continue;
    }
    GoldenLogicPoc poc;
    poc.bug_id = std::stoi(line.substr(0, first_tab));
    poc.oracle = line.substr(first_tab + 1, second_tab - first_tab - 1);
    poc.sql = line.substr(second_tab + 1);
    pocs.push_back(std::move(poc));
  }
  return pocs;
}

class GoldenLogicPocTest : public testing::TestWithParam<std::string> {};

TEST_P(GoldenLogicPocTest, EverySeededLogicBugIsStillCaughtByItsOracle) {
  const std::string& dialect = GetParam();
  const std::vector<GoldenLogicPoc> pocs = LoadGoldenLogicPocs(dialect);
  ASSERT_EQ(static_cast<int>(pocs.size()), ExpectedLogicBugCount(dialect))
      << dialect << ": corpus must hold one PoC per seeded logic bug";

  auto db = MakeDialect(dialect);
  ASSERT_NE(db, nullptr);
  std::vector<std::unique_ptr<LogicOracle>> oracles =
      MakeLogicOracles({"all"}, dialect);
  ASSERT_EQ(oracles.size(), 4u);
  for (const std::string& prereq : LogicOraclePrerequisites()) {
    ASSERT_TRUE(db->Execute(prereq).ok()) << prereq;
    for (const std::unique_ptr<LogicOracle>& oracle : oracles) {
      oracle->ObserveSideEffect(prereq);
    }
  }
  // Arm after the prerequisites, exactly like the campaign: the stored rows
  // must be identical between the campaign database and the clean siblings.
  db->set_logic_faults_enabled(true);

  std::set<int> caught;
  for (const GoldenLogicPoc& poc : pocs) {
    const StatementResult r = db->Execute(poc.sql);
    ASSERT_TRUE(r.ok()) << dialect << ": logic PoC no longer executes: " << poc.sql;
    ASSERT_FALSE(r.logic_hits.empty())
        << dialect << ": PoC no longer fires its LogicBugSpec: " << poc.sql;
    // Replay the campaign's attribution rule: first flagging oracle wins,
    // every oracle reading the one parse of the PoC.
    const Statement stmt = ParseStatement(poc.sql).value();
    std::string flagged_by;
    for (const std::unique_ptr<LogicOracle>& oracle : oracles) {
      const LogicOracle::Verdict v = oracle->Check(*db, poc.sql, stmt, r);
      if (v.checked && v.divergence) {
        flagged_by = std::string(oracle->name());
        break;
      }
    }
    ASSERT_FALSE(flagged_by.empty())
        << dialect << ": no oracle flags seeded wrong-result bug " << poc.bug_id
        << " (" << poc.sql << ")";
    EXPECT_EQ(flagged_by, poc.oracle) << poc.sql;
    bool hit_recorded = false;
    for (const LogicBugInfo& hit : r.logic_hits) {
      caught.insert(hit.bug_id);
      hit_recorded = hit_recorded || hit.bug_id == poc.bug_id;
    }
    EXPECT_TRUE(hit_recorded)
        << dialect << ": PoC fired a different LogicBugSpec than recorded: "
        << poc.sql;
  }

  // Corpus completeness: every seeded spec is caught, none is missing.
  std::set<int> seeded;
  for (const LogicBugSpec& spec : db->faults().AllLogicBugs()) {
    seeded.insert(spec.id);
  }
  EXPECT_EQ(caught, seeded) << dialect;
}

INSTANTIATE_TEST_SUITE_P(AllDialects, GoldenLogicPocTest,
                         testing::ValuesIn(AllDialectNames()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(GoldenLogicCorpus, CoversEverySeededSpecAcrossAllDialects) {
  int total = 0;
  for (const std::string& dialect : AllDialectNames()) {
    total += static_cast<int>(LoadGoldenLogicPocs(dialect).size());
    EXPECT_EQ(static_cast<int>(LoadGoldenLogicPocs(dialect).size()),
              ExpectedLogicBugCount(dialect));
  }
  EXPECT_EQ(total, 21);  // 7 dialects x 3 seeded wrong-result bugs
}

}  // namespace
}  // namespace soft
