#include "src/soft/expr_collection.h"

#include <set>

#include "src/util/str_util.h"

namespace soft {
namespace {

bool IsIdentChar(char c) {
  return IsAsciiAlnum(c) || c == '_';
}

// Finds the matching ')' for the '(' at `open`, honouring string literals.
// Returns npos when unbalanced.
size_t MatchParen(const std::string& sql, size_t open) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = open; i < sql.size(); ++i) {
    const char c = sql[i];
    if (in_string) {
      if (c == '\'') {
        if (i + 1 < sql.size() && sql[i + 1] == '\'') {
          ++i;
        } else {
          in_string = false;
        }
      }
      continue;
    }
    if (c == '\'') {
      in_string = true;
    } else if (c == '(') {
      ++depth;
    } else if (c == ')') {
      --depth;
      if (depth == 0) {
        return i;
      }
    }
  }
  return std::string::npos;
}

}  // namespace

std::vector<std::string> ExtractFunctionExpressions(const std::string& sql,
                                                    const FunctionRegistry& registry) {
  std::vector<std::string> out;
  for (size_t i = 0; i < sql.size(); ++i) {
    if (sql[i] != '(') {
      continue;
    }
    // Token immediately before the '(' (skipping spaces).
    size_t end = i;
    while (end > 0 && IsAsciiSpace(sql[end - 1])) {
      --end;
    }
    size_t start = end;
    while (start > 0 && IsIdentChar(sql[start - 1])) {
      --start;
    }
    if (start == end) {
      continue;
    }
    const std::string name = sql.substr(start, end - start);
    if (!registry.Contains(name)) {
      continue;
    }
    const size_t close = MatchParen(sql, i);
    if (close == std::string::npos) {
      continue;
    }
    out.push_back(sql.substr(start, close - start + 1));
  }
  return out;
}

FunctionCorpus CollectCorpus(const Database& db,
                             const std::vector<std::string>& suite_scripts) {
  FunctionCorpus corpus;
  std::set<std::string> seen;

  // Documentation scan: every registry entry ships an example invocation.
  for (const FunctionDef* def : db.registry().All()) {
    if (!def->example.empty() && seen.insert(def->example).second) {
      corpus.expressions.push_back(def->example);
    }
  }

  // Regression-suite scan.
  for (const std::string& script : suite_scripts) {
    const std::string upper = AsciiUpper(script);
    if (StartsWith(upper, "CREATE ") || StartsWith(upper, "INSERT ") ||
        StartsWith(upper, "DROP ")) {
      corpus.prerequisites.push_back(script);
      continue;
    }
    for (std::string& expr : ExtractFunctionExpressions(script, db.registry())) {
      if (seen.insert(expr).second) {
        corpus.expressions.push_back(std::move(expr));
      }
    }
  }
  return corpus;
}

}  // namespace soft
