#include "src/corpus/study.h"

#include <cassert>
#include <set>


namespace soft {
namespace {

// Marginals reported by the paper.
//
// Table 1: bugs per DBMS.
constexpr int kPostgresBugs = 39;
constexpr int kMysqlBugs = 10;
constexpr int kMariadbBugs = 269;

// Finding 1: stages among the 230 bugs with identifiable backtraces.
constexpr int kStageExecute = 161;
constexpr int kStageOptimize = 45;
constexpr int kStageParse = 24;

// Table 2: statements by function-expression count (>=5 capped at 5 so that
// total occurrences come out at the paper's 508).
constexpr int kExprCount1 = 191;
constexpr int kExprCount2 = 87;
constexpr int kExprCount3 = 23;
constexpr int kExprCount4 = 11;
constexpr int kExprCount5 = 6;

// Figure 1 occurrences / unique functions per type. Only the string bar
// (117/57) and the aggregate occurrence count (91) are stated numerically;
// the other bars are reconstructed to sum to 508 (see study.h header).
struct TypeBar {
  const char* type;
  int occurrences;
  int unique_functions;
};
constexpr TypeBar kTypeBars[] = {
    {"string", 117, 57},   {"aggregate", 91, 23}, {"math", 55, 21},
    {"date", 52, 24},      {"json", 38, 14},      {"casting", 35, 12},
    {"spatial", 33, 17},   {"condition", 30, 10}, {"system", 28, 13},
    {"xml", 12, 5},        {"other", 11, 6},      {"sequence", 6, 3},
};

// Finding 4.
constexpr int kPrereqTableAndData = 151;
constexpr int kPrereqNone = 132;
constexpr int kPrereqEmptyTable = 35;

// Section 5 root causes.
constexpr int kCauseLiteral = 94;
constexpr int kCauseCast = 74;
constexpr int kCauseNested = 110;
constexpr int kCauseConfig = 8;
constexpr int kCauseTableDef = 24;
constexpr int kCauseSyntax = 8;

// Section 6 literal sub-classes (of the 94 literal-caused bugs).
constexpr int kLiteralExtremeNumeric = 32;
constexpr int kLiteralEmptyOrNull = 21;
constexpr int kLiteralCraftedFormat = 41;

}  // namespace

BugStudy::BugStudy() {
  constexpr int kTotal = 318;
  bugs_.resize(kTotal);

  // Attribute pools, consumed positionally. Using plain positional
  // assignment keeps the construction deterministic; the joint distribution
  // is synthetic by design (study.h).
  int idx = 0;
  for (StudiedBug& bug : bugs_) {
    bug.id = ++idx;
  }

  // DBMS.
  {
    int i = 0;
    for (int k = 0; k < kPostgresBugs; ++k) {
      bugs_[i++].dbms = "postgresql";
    }
    for (int k = 0; k < kMysqlBugs; ++k) {
      bugs_[i++].dbms = "mysql";
    }
    for (int k = 0; k < kMariadbBugs; ++k) {
      bugs_[i++].dbms = "mariadb";
    }
    assert(i == kTotal);
  }

  // Stage: first 230 get backtraces, the rest stay nullopt. Stride the
  // assignment (i % 318) so stages spread across DBMSs.
  {
    int i = 0;
    for (int k = 0; k < kStageExecute; ++k) {
      bugs_[i++].stage = Stage::kExecute;
    }
    for (int k = 0; k < kStageOptimize; ++k) {
      bugs_[i++].stage = Stage::kOptimize;
    }
    for (int k = 0; k < kStageParse; ++k) {
      bugs_[i++].stage = Stage::kParse;
    }
  }

  // Expression counts (Table 2).
  std::vector<int> expr_counts;
  expr_counts.insert(expr_counts.end(), kExprCount1, 1);
  expr_counts.insert(expr_counts.end(), kExprCount2, 2);
  expr_counts.insert(expr_counts.end(), kExprCount3, 3);
  expr_counts.insert(expr_counts.end(), kExprCount4, 4);
  expr_counts.insert(expr_counts.end(), kExprCount5, 5);
  assert(static_cast<int>(expr_counts.size()) == kTotal);
  // Interleave counts so multi-expression bugs spread over the corpus:
  // simple deterministic permutation i -> (i * 131) % 318 (131 coprime 318).
  for (int i = 0; i < kTotal; ++i) {
    const int count = expr_counts[static_cast<size_t>((i * 131) % kTotal)];
    bugs_[static_cast<size_t>(i)].expr_types.resize(static_cast<size_t>(count));
    bugs_[static_cast<size_t>(i)].expr_functions.resize(static_cast<size_t>(count));
  }

  // Function types per occurrence (Figure 1): fill a 508-slot pool, then
  // deal it across the occurrence slots. Function names cycle through each
  // type's unique-function set so the unique counts come out exactly.
  {
    std::vector<std::pair<std::string, std::string>> occurrence_pool;  // (type, fn)
    for (const TypeBar& bar : kTypeBars) {
      for (int k = 0; k < bar.occurrences; ++k) {
        const int fn_index = k % bar.unique_functions;
        // Every unique function appears at least once because occurrences
        // >= unique_functions for every bar.
        occurrence_pool.emplace_back(
            bar.type, std::string(bar.type) + "_fn_" + std::to_string(fn_index + 1));
      }
    }
    assert(occurrence_pool.size() == 508u);
    size_t pool_i = 0;
    for (StudiedBug& bug : bugs_) {
      for (size_t e = 0; e < bug.expr_types.size(); ++e) {
        bug.expr_types[e] = occurrence_pool[pool_i].first;
        bug.expr_functions[e] = occurrence_pool[pool_i].second;
        ++pool_i;
      }
    }
    assert(pool_i == occurrence_pool.size());
  }

  // Prerequisites (Finding 4), strided like the expression counts.
  {
    std::vector<StudiedBug::Prereq> pool;
    pool.insert(pool.end(), kPrereqTableAndData, StudiedBug::Prereq::kTableAndData);
    pool.insert(pool.end(), kPrereqNone, StudiedBug::Prereq::kNone);
    pool.insert(pool.end(), kPrereqEmptyTable, StudiedBug::Prereq::kEmptyTable);
    for (int i = 0; i < kTotal; ++i) {
      bugs_[static_cast<size_t>(i)].prereq = pool[static_cast<size_t>((i * 173) % kTotal)];
    }
  }

  // Root causes + literal sub-classes.
  {
    std::vector<StudiedBug::RootCause> pool;
    pool.insert(pool.end(), kCauseLiteral, StudiedBug::RootCause::kBoundaryLiteral);
    pool.insert(pool.end(), kCauseCast, StudiedBug::RootCause::kBoundaryCast);
    pool.insert(pool.end(), kCauseNested, StudiedBug::RootCause::kBoundaryNested);
    pool.insert(pool.end(), kCauseConfig, StudiedBug::RootCause::kConfiguration);
    pool.insert(pool.end(), kCauseTableDef, StudiedBug::RootCause::kTableDefinition);
    pool.insert(pool.end(), kCauseSyntax, StudiedBug::RootCause::kComplexSyntax);
    std::vector<StudiedBug::LiteralClass> literal_pool;
    literal_pool.insert(literal_pool.end(), kLiteralExtremeNumeric,
                        StudiedBug::LiteralClass::kExtremeNumeric);
    literal_pool.insert(literal_pool.end(), kLiteralEmptyOrNull,
                        StudiedBug::LiteralClass::kEmptyOrNull);
    literal_pool.insert(literal_pool.end(), kLiteralCraftedFormat,
                        StudiedBug::LiteralClass::kCraftedFormat);
    size_t literal_i = 0;
    for (int i = 0; i < kTotal; ++i) {
      StudiedBug& bug = bugs_[static_cast<size_t>(i)];
      bug.cause = pool[static_cast<size_t>(i)];
      if (bug.cause == StudiedBug::RootCause::kBoundaryLiteral) {
        bug.literal_class = literal_pool[literal_i++];
      }
    }
    assert(literal_i == literal_pool.size());
  }
}

const BugStudy& BugStudy::Instance() {
  static const BugStudy* kInstance = new BugStudy();
  return *kInstance;
}

std::map<std::string, int> BugStudy::CountByDbms() const {
  std::map<std::string, int> out;
  for (const StudiedBug& bug : bugs_) {
    out[bug.dbms] += 1;
  }
  return out;
}

BugStudy::StageStats BugStudy::CountByStage() const {
  StageStats out;
  for (const StudiedBug& bug : bugs_) {
    if (!bug.stage.has_value()) {
      ++out.without_backtrace;
      continue;
    }
    ++out.with_backtrace;
    switch (*bug.stage) {
      case Stage::kExecute:
        ++out.execute;
        break;
      case Stage::kOptimize:
        ++out.optimize;
        break;
      case Stage::kParse:
        ++out.parse;
        break;
    }
  }
  return out;
}

std::map<std::string, BugStudy::TypeStats> BugStudy::FunctionTypeStats() const {
  std::map<std::string, TypeStats> out;
  std::map<std::string, std::set<std::string>> unique;
  for (const StudiedBug& bug : bugs_) {
    for (size_t e = 0; e < bug.expr_types.size(); ++e) {
      out[bug.expr_types[e]].occurrences += 1;
      unique[bug.expr_types[e]].insert(bug.expr_functions[e]);
    }
  }
  for (auto& [type, stats] : out) {
    stats.unique_functions = static_cast<int>(unique[type].size());
  }
  return out;
}

int BugStudy::TotalOccurrences() const {
  int total = 0;
  for (const StudiedBug& bug : bugs_) {
    total += bug.expression_count();
  }
  return total;
}

std::map<int, int> BugStudy::CountByExpressionCount() const {
  std::map<int, int> out;
  for (const StudiedBug& bug : bugs_) {
    out[std::min(bug.expression_count(), 5)] += 1;
  }
  return out;
}

BugStudy::PrereqStats BugStudy::CountByPrereq() const {
  PrereqStats out;
  for (const StudiedBug& bug : bugs_) {
    switch (bug.prereq) {
      case StudiedBug::Prereq::kTableAndData:
        ++out.table_and_data;
        break;
      case StudiedBug::Prereq::kNone:
        ++out.none;
        break;
      case StudiedBug::Prereq::kEmptyTable:
        ++out.empty_table;
        break;
    }
  }
  return out;
}

BugStudy::CauseStats BugStudy::CountByCause() const {
  CauseStats out;
  for (const StudiedBug& bug : bugs_) {
    switch (bug.cause) {
      case StudiedBug::RootCause::kBoundaryLiteral:
        ++out.boundary_literal;
        break;
      case StudiedBug::RootCause::kBoundaryCast:
        ++out.boundary_cast;
        break;
      case StudiedBug::RootCause::kBoundaryNested:
        ++out.boundary_nested;
        break;
      case StudiedBug::RootCause::kConfiguration:
        ++out.configuration;
        break;
      case StudiedBug::RootCause::kTableDefinition:
        ++out.table_definition;
        break;
      case StudiedBug::RootCause::kComplexSyntax:
        ++out.complex_syntax;
        break;
    }
  }
  return out;
}

BugStudy::LiteralClassStats BugStudy::CountByLiteralClass() const {
  LiteralClassStats out;
  for (const StudiedBug& bug : bugs_) {
    switch (bug.literal_class) {
      case StudiedBug::LiteralClass::kExtremeNumeric:
        ++out.extreme_numeric;
        break;
      case StudiedBug::LiteralClass::kEmptyOrNull:
        ++out.empty_or_null;
        break;
      case StudiedBug::LiteralClass::kCraftedFormat:
        ++out.crafted_format;
        break;
      case StudiedBug::LiteralClass::kNotApplicable:
        break;
    }
  }
  return out;
}

}  // namespace soft
