// Branch coverage instrumentation for the SQL-function component.
//
// Tables 5 and 6 of the paper compare testing tools by (a) how many built-in
// SQL functions their generated statements trigger and (b) how many code
// branches of the DBMSs' SQL-function modules they cover. Our engine's
// function implementations report branch hits through this tracker: every
// call to FunctionContext::Cover(id) marks branch (current_function, id).
// Branch ids are placed at the real decision points of the implementations
// (argument-kind dispatch, validation branches, boundary checks), so a tool
// that never constructs boundary arguments genuinely covers fewer branches.
#ifndef SRC_COVERAGE_COVERAGE_H_
#define SRC_COVERAGE_COVERAGE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace soft {

class CoverageTracker {
 public:
  // Marks branch `branch_id` of `function` as covered and the function as
  // triggered.
  void Hit(const std::string& function, int branch_id);

  // Marks a function as triggered without a branch (entry hit, branch 0).
  void Trigger(const std::string& function) { Hit(function, 0); }

  size_t TriggeredFunctionCount() const { return functions_.size(); }
  size_t CoveredBranchCount() const { return branches_.size(); }

  std::vector<std::string> TriggeredFunctions() const;

  // Per-function covered-branch counts (sorted by function name).
  std::vector<std::pair<std::string, int>> BranchCountsByFunction() const;

  // Merges another tracker's hits into this one (used to union coverage
  // across a campaign's statements, mirroring the paper's query replay).
  void MergeFrom(const CoverageTracker& other);

  void Reset();

  // Raw branch keys ("FUNC#id"), sorted — with RestoreBranchKey this lets a
  // fleet worker or the unit spool serialize a tracker and the reader
  // rebuild an identical one (src/soft/wire.cc).
  std::vector<std::string> BranchKeys() const;
  void RestoreBranchKey(const std::string& key);

 private:
  std::unordered_set<std::string> functions_;
  // Key: "FUNC#id".
  std::unordered_set<std::string> branches_;
};

}  // namespace soft

#endif  // SRC_COVERAGE_COVERAGE_H_
