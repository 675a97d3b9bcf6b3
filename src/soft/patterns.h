// The 10 boundary-value-generation patterns (Section 6).
//
//   P1.1  boundary-literal pool (src/soft/boundary_values.h)
//   P1.2  f(c) -> f(bound)                      pool literal as argument
//   P1.3  f(c) -> f(c[:i] + 99999 + c[i+1:])    digit stuffing
//   P1.4  f(c) -> f(c[:i] + c[i]c[i] + ...)     character repetition
//   P2.1  f(c) -> f(CAST(c AS type))            explicit cast
//   P2.2  f(c) -> f((SELECT c UNION SELECT type()))   implicit UNION cast
//   P2.3  f(c), f2(c2) -> f(c2)                 cross-function argument
//   P3.1  f(c) -> f(REPEAT(c[:i], bound))       extreme lengths / depths
//   P3.2  f(c), f2 -> f(f2(c))                  wrap the argument
//   P3.3  f(c), f2(c2) -> f(f2(c2))             nested-call replacement
//
// Generation respects the Finding-3 cutoff: seeds containing more than
// `max_seed_functions` function expressions are not expanded further.
#ifndef SRC_SOFT_PATTERNS_H_
#define SRC_SOFT_PATTERNS_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/engine/database.h"
#include "src/soft/boundary_values.h"
#include "src/util/rng.h"

namespace soft {

struct GeneratedCase {
  std::string sql;      // full statement ("SELECT ...")
  std::string pattern;  // "P1.2" ... "P3.3"
};

// The generating patterns, in the order GenerateAll applies them.
inline const std::vector<std::string> kPatternNames = {
    "P1.2", "P1.3", "P1.4", "P2.1", "P2.2", "P2.3", "P3.1", "P3.2", "P3.3"};

struct PatternOptions {
  // Finding-3 cutoff: seeds with more function calls than this are skipped.
  int max_seed_functions = 2;

  bool operator==(const PatternOptions&) const = default;
};

class PatternEngine {
 public:
  PatternEngine(const Database& db, uint64_t seed,
                PatternOptions options = PatternOptions());

  void set_pool(BoundaryPool pool) {
    pool_ = std::move(pool);
    snippet_sql_.reset();
  }
  const BoundaryPool& pool() const { return pool_; }

  // Applies `patterns` ("P1.2", ..., "P3.3"; other names apply nothing) in
  // list order to `seed_expr` (a function expression like
  // "JSON_LENGTH('[1]', '$')"), parsed once, using `corpus` as the donor set
  // for the cross-function patterns. Appends generated statements to `out`.
  void Generate(const std::vector<std::string>& patterns, const std::string& seed_expr,
                const std::vector<std::string>& corpus, std::vector<GeneratedCase>& out);

  // Generate with every pattern (kPatternNames).
  void GenerateAll(const std::string& seed_expr, const std::vector<std::string>& corpus,
                   std::vector<GeneratedCase>& out);

  // Generate with a single pattern; used by the per-pattern tests and the
  // ablation benches.
  void GenerateOne(const std::string& pattern, const std::string& seed_expr,
                   const std::vector<std::string>& corpus,
                   std::vector<GeneratedCase>& out);

 private:
  struct SeedTemplate;  // a parsed seed, each argument rendered as a hole

  // A corpus entry as a cross-function donor (P2.3, P3.3), parsed and
  // rendered once per engine.
  struct Donor {
    std::string text;  // the corpus entry this was built from
    ExprPtr tree;      // null when `text` does not parse
    std::string sql;   // tree's rendering
  };

  bool ParseSeed(const std::string& seed_expr, SeedTemplate& seed) const;
  const std::vector<std::string>& SnippetSql();
  const Donor& DonorAt(const std::vector<std::string>& corpus, size_t index);

  void Apply(std::string_view pattern, const SeedTemplate& seed,
             const std::vector<std::string>& corpus, std::vector<GeneratedCase>& out);
  void ApplyP12(const SeedTemplate& seed, std::vector<GeneratedCase>& out);
  void ApplyP13(const SeedTemplate& seed, std::vector<GeneratedCase>& out);
  void ApplyP14(const SeedTemplate& seed, std::vector<GeneratedCase>& out);
  void ApplyP21(const SeedTemplate& seed, std::vector<GeneratedCase>& out);
  void ApplyP22(const SeedTemplate& seed, std::vector<GeneratedCase>& out);
  void ApplyP23(const SeedTemplate& seed, const std::vector<std::string>& corpus,
                std::vector<GeneratedCase>& out);
  void ApplyP31(const SeedTemplate& seed, std::vector<GeneratedCase>& out);
  void ApplyP32(const SeedTemplate& seed, std::vector<GeneratedCase>& out);
  void ApplyP33(const SeedTemplate& seed, const std::vector<std::string>& corpus,
                std::vector<GeneratedCase>& out);

  const Database& db_;
  Rng rng_;
  PatternOptions options_;
  BoundaryPool pool_;
  std::optional<std::vector<std::string>> snippet_sql_;  // SnippetSql(), once built
  std::vector<const FunctionDef*> wrappers_;  // unary-capable catalog functions (P3.2)
  std::vector<Donor> donors_;                 // by corpus index
};

}  // namespace soft

#endif  // SRC_SOFT_PATTERNS_H_
