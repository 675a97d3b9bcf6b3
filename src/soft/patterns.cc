#include "src/soft/patterns.h"

#include <algorithm>

#include "src/sqlparser/parser.h"
#include "src/util/str_util.h"

namespace soft {
namespace {

// Donor sample size for the cross-function patterns (P2.3, P3.2, P3.3).
constexpr int kDonorSample = 8;

// Length bounds used by P3.1 (chosen to sweep across every dialect's
// internal thresholds without exceeding engine limits).
constexpr int64_t kRepeatBounds[] = {16, 100, 2000, 6000, 120000, 400000, 1100000};

// Types the cast patterns sweep over.
constexpr TypeKind kCastSweep[] = {
    TypeKind::kInt,      TypeKind::kDouble, TypeKind::kDecimal, TypeKind::kString,
    TypeKind::kBlob,     TypeKind::kBool,   TypeKind::kDate,    TypeKind::kDateTime,
    TypeKind::kJson,     TypeKind::kArray,  TypeKind::kInet,    TypeKind::kGeometry,
};

// Canonical literal text castable to each sweep type (the "typed
// constructor" variants of P2.1/P2.2).
const char* CanonicalTextFor(TypeKind kind) {
  switch (kind) {
    case TypeKind::kInt:
      return "'7'";
    case TypeKind::kDouble:
      return "'1.5'";
    case TypeKind::kDecimal:
      return "'1.5'";
    case TypeKind::kString:
      return "'zz'";
    case TypeKind::kBlob:
      return "'zz'";
    case TypeKind::kBool:
      return "'1'";
    case TypeKind::kDate:
      return "'2024-01-01'";
    case TypeKind::kDateTime:
      return "'2024-01-02 03:04:05'";
    case TypeKind::kJson:
      return "'[1]'";
    case TypeKind::kArray:
      return "'[1]'";
    case TypeKind::kInet:
      return "'1.2.3.4'";
    case TypeKind::kGeometry:
      return "'POINT(1 2)'";
    default:
      return "'0'";
  }
}

bool IsStringLiteral(const Expr& e) {
  return e.kind == ExprKind::kLiteral && e.literal.kind() == TypeKind::kString;
}

bool IsNumericLiteral(const Expr& e) {
  return e.kind == ExprKind::kLiteral && e.literal.is_numeric();
}

// Builds (SELECT lhs UNION SELECT rhs) as an expression.
ExprPtr UnionSubquery(ExprPtr lhs, ExprPtr rhs) {
  auto left = std::make_unique<SelectStmt>();
  left->items.emplace_back(std::move(lhs), "");
  auto right = std::make_unique<SelectStmt>();
  right->items.emplace_back(std::move(rhs), "");
  left->union_next = std::move(right);
  return MakeSubquery(std::move(left));
}

ExprPtr CastText(const char* text, TypeKind kind) {
  return MakeCast(MakeLiteral(Value::Str(std::string(text).substr(
                      1, std::string(text).size() - 2))),  // strip quotes
                  kind);
}

// A seed statement rendered with one node left out: a case replacing that
// node is prefix + the replacement's text + suffix.
struct Splice {
  std::string prefix;  // "SELECT " and the seed's text before the node
  std::string suffix;  // the seed's text after it

  Splice(const Expr& root, const Expr& hole) {
    std::string text = "SELECT ";
    const size_t at = root.AppendSql(text, &hole);
    suffix = text.substr(at);
    text.resize(at);
    prefix = std::move(text);
  }

  void Emit(std::string_view replacement, const char* pattern,
            std::vector<GeneratedCase>& out) const {
    std::string sql;
    sql.reserve(prefix.size() + replacement.size() + suffix.size());
    sql += prefix;
    sql += replacement;
    sql += suffix;
    out.push_back(GeneratedCase{std::move(sql), pattern});
  }
};

}  // namespace

struct PatternEngine::SeedTemplate {
  ExprPtr root;
  std::vector<Expr*> calls;               // pre-order, as CollectFunctionCalls
  std::vector<std::vector<Splice>> args;  // args[c][a]: argument a of calls[c]
};

PatternEngine::PatternEngine(const Database& db, uint64_t seed, PatternOptions options)
    : db_(db), rng_(seed), options_(std::move(options)) {
  pool_ = GenerateBoundaryPool();
  for (const FunctionDef* def : db_.registry().All()) {
    if (!def->is_aggregate && def->min_args <= 1 &&
        (def->max_args < 0 || def->max_args >= 1)) {
      wrappers_.push_back(def);
    }
  }
}

// The pool's snippets that parse, rendered: P1.2's replacements. Built at
// the first P1.2 use, not with the engine, so the first seed is parsed
// before them: a campaign whose parser fails from its 51st expression on
// (the chaos oracle's `parse.expr=after:50`) still generates that seed's
// cases and fills its budget.
const std::vector<std::string>& PatternEngine::SnippetSql() {
  if (!snippet_sql_.has_value()) {
    snippet_sql_.emplace();
    for (const std::string& snippet : pool_.snippets) {
      Result<ExprPtr> bound = ParseExpression(snippet);
      if (bound.ok()) {
        snippet_sql_->push_back((*bound)->ToSql());
      }
    }
  }
  return *snippet_sql_;
}

bool PatternEngine::ParseSeed(const std::string& seed_expr, SeedTemplate& seed) const {
  Result<ExprPtr> parsed = ParseExpression(seed_expr);
  if (!parsed.ok()) {
    return false;
  }
  seed.root = std::move(parsed).value();
  seed.root->CollectFunctionCalls(seed.calls);
  // Finding-3 cutoff: expressions with more than max_seed_functions function
  // calls are not expanded further.
  const int calls = static_cast<int>(seed.calls.size());
  if (calls < 1 || calls > options_.max_seed_functions) {
    return false;
  }
  for (const Expr* call : seed.calls) {
    std::vector<Splice>& args = seed.args.emplace_back();
    for (const ExprPtr& arg : call->args) {
      args.emplace_back(*seed.root, *arg);
    }
  }
  return true;
}

const PatternEngine::Donor& PatternEngine::DonorAt(const std::vector<std::string>& corpus,
                                                   size_t index) {
  if (donors_.size() < corpus.size()) {
    donors_.resize(corpus.size());
  }
  // Entries are checked against their text, so a call passing another
  // corpus rebuilds them. A default entry already is the build of the empty
  // text, which does not parse.
  Donor& donor = donors_[index];
  if (donor.text != corpus[index]) {
    donor.text = corpus[index];
    Result<ExprPtr> tree = ParseExpression(donor.text);
    donor.tree = tree.ok() ? std::move(tree).value() : nullptr;
    donor.sql = donor.tree == nullptr ? "" : donor.tree->ToSql();
  }
  return donor;
}

void PatternEngine::ApplyP12(const SeedTemplate& seed, std::vector<GeneratedCase>& out) {
  for (const std::vector<Splice>& args : seed.args) {
    for (const Splice& slot : args) {
      for (const std::string& bound : SnippetSql()) {
        slot.Emit(bound, "P1.2", out);
      }
    }
  }
}

void PatternEngine::ApplyP13(const SeedTemplate& seed, std::vector<GeneratedCase>& out) {
  for (size_t c = 0; c < seed.calls.size(); ++c) {
    for (size_t a = 0; a < seed.calls[c]->args.size(); ++a) {
      const Expr& arg = *seed.calls[c]->args[a];
      const Splice& slot = seed.args[c][a];
      for (int digits : {5, 20, 40, 45, 60, 65}) {
        const std::string stuffing(static_cast<size_t>(digits), '9');
        if (IsNumericLiteral(arg)) {
          // Stuff digits into the numeric text: 1.5 -> 1.999…995 etc.
          const std::string text = arg.literal.ToDisplayString();
          const size_t split = text.size() / 2 + (text[0] == '-' ? 1 : 0);
          const std::string stuffed =
              text.substr(0, split) + stuffing + text.substr(split);
          Result<Decimal> dec = Decimal::FromString(stuffed);
          if (!dec.ok()) {
            continue;
          }
          slot.Emit(Value::Dec(std::move(dec).value()).ToSqlLiteral(), "P1.3", out);
        } else if (IsStringLiteral(arg)) {
          const std::string& text = arg.literal.string_value();
          const size_t split = text.size() / 2;
          std::string stuffed = text.substr(0, split) + stuffing + text.substr(split);
          slot.Emit(Value::Str(std::move(stuffed)).ToSqlLiteral(), "P1.3", out);
        }
      }
    }
  }
}

void PatternEngine::ApplyP14(const SeedTemplate& seed, std::vector<GeneratedCase>& out) {
  for (size_t c = 0; c < seed.calls.size(); ++c) {
    for (size_t a = 0; a < seed.calls[c]->args.size(); ++a) {
      const Expr& arg = *seed.calls[c]->args[a];
      if (!IsStringLiteral(arg) || arg.literal.string_value().empty()) {
        continue;
      }
      const std::string& text = arg.literal.string_value();
      // Repeat each distinct structural character at its first occurrence.
      std::string seen;
      for (size_t i = 0; i < text.size(); ++i) {
        const char ch = text[i];
        if (seen.find(ch) != std::string::npos) {
          continue;
        }
        seen.push_back(ch);
        for (int reps : {4, 8, 16, 64, 256}) {
          std::string repeated =
              text.substr(0, i) + std::string(static_cast<size_t>(reps), ch) +
              text.substr(i);
          seed.args[c][a].Emit(Value::Str(std::move(repeated)).ToSqlLiteral(), "P1.4", out);
        }
      }
    }
  }
}

void PatternEngine::ApplyP21(const SeedTemplate& seed, std::vector<GeneratedCase>& out) {
  for (size_t c = 0; c < seed.calls.size(); ++c) {
    for (size_t a = 0; a < seed.calls[c]->args.size(); ++a) {
      const Expr& arg = *seed.calls[c]->args[a];
      const Splice& slot = seed.args[c][a];
      for (TypeKind kind : kCastSweep) {
        // CAST(c AS T): wrap the original argument.
        slot.Emit(MakeCast(arg.Clone(), kind)->ToSql(), "P2.1", out);
        // Typed-constructor variant: CAST('canonical' AS T).
        slot.Emit(CastText(CanonicalTextFor(kind), kind)->ToSql(), "P2.1", out);
      }
    }
  }
}

void PatternEngine::ApplyP22(const SeedTemplate& seed, std::vector<GeneratedCase>& out) {
  for (size_t c = 0; c < seed.calls.size(); ++c) {
    for (size_t a = 0; a < seed.calls[c]->args.size(); ++a) {
      const Expr& arg = *seed.calls[c]->args[a];
      const Splice& slot = seed.args[c][a];
      for (TypeKind kind :
           {TypeKind::kInt, TypeKind::kDouble, TypeKind::kDecimal, TypeKind::kString,
            TypeKind::kDate, TypeKind::kDateTime}) {
        // (SELECT c UNION SELECT CAST(canon AS T)): the original value is
        // implicitly unified with a typed constructor.
        slot.Emit(
            UnionSubquery(arg.Clone(), CastText(CanonicalTextFor(kind), kind))->ToSql(),
            "P2.2", out);
      }
      // Canonical two-branch variants that unify to temporal / numeric
      // supertypes regardless of the original argument.
      struct Pair {
        TypeKind a;
        TypeKind b;
      };
      for (const Pair& pair : {Pair{TypeKind::kDate, TypeKind::kDateTime},
                               Pair{TypeKind::kDate, TypeKind::kDate},
                               Pair{TypeKind::kInt, TypeKind::kDouble},
                               Pair{TypeKind::kInt, TypeKind::kDecimal}}) {
        slot.Emit(UnionSubquery(CastText(CanonicalTextFor(pair.a), pair.a),
                                CastText(CanonicalTextFor(pair.b), pair.b))
                      ->ToSql(),
                  "P2.2", out);
      }
    }
  }
}

void PatternEngine::ApplyP23(const SeedTemplate& seed, const std::vector<std::string>& corpus,
                             std::vector<GeneratedCase>& out) {
  // Donor argument *lists* from other corpus entries. The pattern as defined
  // is f(c), f2(c2) → f(c2): f receives f2's whole argument list. This is
  // how the paper's CVE-2023-5868 PoC arises — JSONB_OBJECT_AGG(DISTINCT
  // k, v) inheriting two string arguments from a string function.
  std::vector<const Expr*> donor_calls;
  std::vector<std::string> donor_args;  // individual donors for partial variants
  for (int i = 0; i < kDonorSample * 3 && !corpus.empty(); ++i) {
    const Expr* donor = DonorAt(corpus, rng_.NextBelow(corpus.size())).tree.get();
    if (donor == nullptr || donor->kind != ExprKind::kFunctionCall || donor->args.empty()) {
      continue;
    }
    const bool all_literalish =
        std::none_of(donor->args.begin(), donor->args.end(), [](const ExprPtr& arg) {
          return arg->CountFunctionCalls() > 0 ||
                 (arg->kind == ExprKind::kLiteral && arg->literal.is_star());
        });
    if (!all_literalish) {
      continue;
    }
    for (const ExprPtr& arg : donor->args) {
      if (arg->kind == ExprKind::kLiteral) {
        donor_args.push_back(arg->ToSql());
      }
    }
    donor_calls.push_back(donor);
    if (static_cast<int>(donor_calls.size()) >= kDonorSample) {
      break;
    }
  }

  for (size_t c = 0; c < seed.calls.size(); ++c) {
    // Full argument-list replacement (the pattern as written): the call
    // keeps its name and takes the donor's arguments.
    if (!donor_calls.empty()) {
      const Splice at_call(*seed.root, *seed.calls[c]);
      for (const Expr* donor : donor_calls) {
        std::vector<ExprPtr> args;
        for (const ExprPtr& arg : donor->args) {
          args.push_back(arg->Clone());
        }
        at_call.Emit(MakeFunctionCall(seed.calls[c]->func_name, std::move(args),
                                      seed.calls[c]->distinct_arg)
                         ->ToSql(),
                     "P2.3", out);
      }
    }
    // Single-argument donor variants (partial application of the pattern).
    for (const Splice& slot : seed.args[c]) {
      for (const std::string& donor : donor_args) {
        slot.Emit(donor, "P2.3", out);
      }
    }
  }
}

void PatternEngine::ApplyP31(const SeedTemplate& seed, std::vector<GeneratedCase>& out) {
  if (!db_.registry().Contains("REPEAT")) {
    return;
  }
  for (size_t c = 0; c < seed.calls.size(); ++c) {
    for (size_t a = 0; a < seed.calls[c]->args.size(); ++a) {
      const Expr& arg = *seed.calls[c]->args[a];
      // c[:i] of the original argument: string literals contribute their raw
      // text, other literals (numbers, blobs) their textual payload — the
      // pattern repeats a *prefix of the argument*, whatever its kind.
      if (arg.kind != ExprKind::kLiteral || arg.literal.is_null() ||
          arg.literal.is_star()) {
        continue;
      }
      const std::string text = arg.literal.kind() == TypeKind::kBlob
                                   ? arg.literal.blob_value()
                                   : arg.literal.ToDisplayString();
      if (text.empty()) {
        continue;
      }
      for (size_t prefix_len : {size_t{1}, size_t{2}, size_t{4}}) {
        if (prefix_len > text.size()) {
          break;
        }
        const std::string prefix = text.substr(0, prefix_len);
        for (int64_t bound : kRepeatBounds) {
          std::vector<ExprPtr> args;
          args.push_back(MakeLiteral(Value::Str(prefix)));
          args.push_back(MakeLiteral(Value::Int(bound)));
          seed.args[c][a].Emit(MakeFunctionCall("REPEAT", std::move(args))->ToSql(), "P3.1",
                               out);
        }
      }
    }
  }
}

void PatternEngine::ApplyP32(const SeedTemplate& seed, std::vector<GeneratedCase>& out) {
  if (wrappers_.empty()) {
    return;
  }
  for (size_t c = 0; c < seed.calls.size(); ++c) {
    for (size_t a = 0; a < seed.calls[c]->args.size(); ++a) {
      const Expr& arg = *seed.calls[c]->args[a];
      for (int k = 0; k < kDonorSample; ++k) {
        const FunctionDef* wrapper = wrappers_[rng_.NextBelow(wrappers_.size())];
        std::vector<ExprPtr> args;
        args.push_back(arg.Clone());
        seed.args[c][a].Emit(MakeFunctionCall(wrapper->name, std::move(args))->ToSql(),
                             "P3.2", out);
      }
    }
  }
}

void PatternEngine::ApplyP33(const SeedTemplate& seed, const std::vector<std::string>& corpus,
                             std::vector<GeneratedCase>& out) {
  if (corpus.empty()) {
    return;
  }
  for (const std::vector<Splice>& args : seed.args) {
    for (const Splice& slot : args) {
      for (int k = 0; k < kDonorSample; ++k) {
        const Donor& donor = DonorAt(corpus, rng_.NextBelow(corpus.size()));
        if (donor.tree == nullptr || donor.tree->kind != ExprKind::kFunctionCall) {
          continue;
        }
        slot.Emit(donor.sql, "P3.3", out);
      }
    }
  }
}

void PatternEngine::Apply(std::string_view pattern, const SeedTemplate& seed,
                          const std::vector<std::string>& corpus,
                          std::vector<GeneratedCase>& out) {
  if (pattern == "P1.2") {
    ApplyP12(seed, out);
  } else if (pattern == "P1.3") {
    ApplyP13(seed, out);
  } else if (pattern == "P1.4") {
    ApplyP14(seed, out);
  } else if (pattern == "P2.1") {
    ApplyP21(seed, out);
  } else if (pattern == "P2.2") {
    ApplyP22(seed, out);
  } else if (pattern == "P2.3") {
    ApplyP23(seed, corpus, out);
  } else if (pattern == "P3.1") {
    ApplyP31(seed, out);
  } else if (pattern == "P3.2") {
    ApplyP32(seed, out);
  } else if (pattern == "P3.3") {
    ApplyP33(seed, corpus, out);
  }
}

void PatternEngine::Generate(const std::vector<std::string>& patterns,
                             const std::string& seed_expr,
                             const std::vector<std::string>& corpus,
                             std::vector<GeneratedCase>& out) {
  SeedTemplate seed;
  if (!ParseSeed(seed_expr, seed)) {
    return;
  }
  for (const std::string& pattern : patterns) {
    Apply(pattern, seed, corpus, out);
  }
}

void PatternEngine::GenerateAll(const std::string& seed_expr,
                                const std::vector<std::string>& corpus,
                                std::vector<GeneratedCase>& out) {
  Generate(kPatternNames, seed_expr, corpus, out);
}

void PatternEngine::GenerateOne(const std::string& pattern, const std::string& seed_expr,
                                const std::vector<std::string>& corpus,
                                std::vector<GeneratedCase>& out) {
  Generate({pattern}, seed_expr, corpus, out);
}

}  // namespace soft
