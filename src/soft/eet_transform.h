// EET-style equivalent-expression transformer (Jiang et al., PAPERS.md):
// rewrites a SELECT statement into variants that are semantically equivalent
// on a correct engine, so any result-set divergence between the original and
// a variant is a wrong-result logic bug.
//
// The rewrites are chosen to perturb exactly the properties the seeded
// LogicBugSpec scopes key on (src/fault/fault.h):
//   - a redundant COALESCE shell around each select item raises the item's
//     function-call depth (evades kTopLevelCall faults);
//   - an identity chain COALESCE(c, c) over a constant argument makes the
//     argument expression non-constant (evades kConstArgs faults);
//   - predicate wrapping over the three-valued-logic partitions — p AND TRUE,
//     p OR FALSE, NOT (NOT p) — exercises the WHERE path without changing
//     row selection.
//
// Soundness rests on two engine facts: COALESCE(e, e) returns its first
// non-null argument verbatim, and the WHERE clause coerces its condition
// with the same null-check + bool-coercion that AND/OR/NOT three-valued
// logic uses — so the wrapped predicates select exactly the same rows.
#ifndef SRC_SOFT_EET_TRANSFORM_H_
#define SRC_SOFT_EET_TRANSFORM_H_

#include <string>
#include <vector>

#include "src/sqlast/ast.h"

namespace soft {

struct EetVariant {
  std::string label;  // "shell.coalesce", "pred.and_true", ...
  std::string sql;    // the printed rewrite: the oracle's witness
  Statement stmt;     // the rewrite's own tree, which the oracle executes
};

// Builds every applicable equivalent rewrite of `stmt`, the parse of `sql`.
// Returns an empty vector when the statement is out of scope: not a SELECT,
// or it references a volatile function (dialect_diffs.h) whose value
// re-execution legitimately changes. A rewrite that prints back to `sql` is
// dropped. Variants that fail to execute are declared differences for the
// caller to skip, never divergences.
std::vector<EetVariant> BuildEetVariants(const Statement& stmt, const std::string& sql);

}  // namespace soft

#endif  // SRC_SOFT_EET_TRANSFORM_H_
