// Declared per-dialect difference table for the cross-dialect differential
// oracle (docs/DESIGN.md, "Logic-bug oracles").
//
// All seven dialects share one engine, so the same successful SELECT must
// produce the same rows everywhere — *except* along declared axes: catalog
// pruning (a sibling lacks the function and errors), cast strictness
// (strict dialects reject what lenient ones coerce), each dialect's own
// injected crash corpus, and functions whose value depends on mutable
// session state. Anything outside those axes that still diverges is a
// wrong-result logic bug.
#ifndef SRC_DIALECTS_DIALECT_DIFFS_H_
#define SRC_DIALECTS_DIALECT_DIFFS_H_

#include "src/engine/database.h"

namespace soft {

// True when `stmt` is a SELECT whose result sets are comparable across
// re-executions and equivalent rewrites on the SAME dialect: it references
// no function whose result depends on mutable session state (sequences,
// LAST_INSERT_ID). Re-executing or rewriting such a statement legitimately
// changes the answer, so a divergence proves nothing.
bool OracleComparable(const Statement& stmt);

// Oracle result-set equality: the same row and column counts and, row by
// row, the same number of values, each of the same kind and display text.
// Strings and blobs compare as bytes, so no value is rendered for them.
// Column HEADERS are deliberately excluded — they render the statement
// text, which equivalent rewrites intentionally change.
bool SameResultSet(const StatementResult& a, const StatementResult& b);

// Differential classification of one statement's outcome on the campaign
// dialect vs a sibling dialect.
enum class DialectDiffClass {
  kIdentical,           // both OK with the same result set (SameResultSet)
  kDeclaredDifference,  // outcome differs along a declared axis (either side
                        // errored or crashed: catalog pruning, cast
                        // strictness, or the sibling's own crash corpus)
  kDivergence,          // both OK, different rows — a logic bug on one side
};

DialectDiffClass ClassifyDifferential(const StatementResult& main,
                                      const StatementResult& sibling);

}  // namespace soft

#endif  // SRC_DIALECTS_DIALECT_DIFFS_H_
