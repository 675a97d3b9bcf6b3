// MutSquirrel: SQUIRREL-like IR mutation of seed queries.
//
// SQUIRREL lifts seed queries into an IR and applies validity-preserving
// mutations. We reproduce the three mutation classes that matter for
// function testing: benign literal replacement, same-category/same-arity
// function swaps (skipping '*' arguments — swapping COUNT(*) into SUM(*)
// would be invalid SQL, which SQUIRREL's validity analysis prevents), and
// clause addition.
#include "src/baselines/baselines.h"

#include <set>

#include "src/baselines/baseline_util.h"
#include "src/soft/seeds.h"
#include "src/sqlparser/parser.h"

namespace soft {
namespace {

void ReplaceLiterals(Expr& e, Rng& rng) {
  if (e.kind == ExprKind::kLiteral) {
    switch (e.literal.kind()) {
      case TypeKind::kInt:
        e.literal = Value::Int(static_cast<int64_t>(rng.NextBelow(10)));
        break;
      case TypeKind::kDouble:
      case TypeKind::kDecimal:
        e.literal = Value::DoubleVal(static_cast<double>(rng.NextBelow(100)) / 10.0);
        break;
      case TypeKind::kString:
        if (rng.NextBool(0.6)) {
          e.literal = Value::Str(rng.NextIdentifier(1 + rng.NextBelow(6)));
        }
        break;
      default:
        break;
    }
    return;
  }
  for (ExprPtr& a : e.args) {
    ReplaceLiterals(*a, rng);
  }
}

bool HasStarArg(const Expr& call) {
  for (const ExprPtr& a : call.args) {
    if (a->kind == ExprKind::kLiteral && a->literal.is_star()) {
      return true;
    }
  }
  return false;
}

void SwapFunctions(SelectStmt& sel, Rng& rng, const FunctionRegistry& registry,
                   const std::set<std::string>& seed_vocabulary) {
  std::vector<Expr*> calls;
  sel.CollectFunctionCalls(calls);
  if (calls.empty()) {
    return;
  }
  Expr* victim = calls[rng.NextBelow(calls.size())];
  const FunctionDef* current = registry.Find(victim->func_name);
  if (current == nullptr || HasStarArg(*victim)) {
    return;
  }
  // Candidates: same category, arity-compatible, and — like SQUIRREL's IR
  // recombination — drawn from the functions the seed corpus already uses,
  // not the whole catalog.
  std::vector<const FunctionDef*> candidates;
  const int argc = static_cast<int>(victim->args.size());
  for (const std::string& name : seed_vocabulary) {
    const FunctionDef* def = registry.Find(name);
    if (def != nullptr && def->type == current->type &&
        def->is_aggregate == current->is_aggregate && def->min_args <= argc &&
        (def->max_args < 0 || def->max_args >= argc) && def->name != current->name) {
      candidates.push_back(def);
    }
  }
  if (!candidates.empty()) {
    victim->func_name = candidates[rng.NextBelow(candidates.size())]->name;
  }
}

}  // namespace

CampaignResult MutSquirrel::Run(Database& db, const CampaignOptions& options) {
  CampaignResult result;
  result.tool = name();
  result.dialect = db.config().name;
  const telemetry::ScopedCollector telem(&result.telemetry);
  const ScopedBaselineRecorders recorders(result, options);
  Rng rng(options.seed ^ 0x535155ull);
  std::set<int> found_ids;
  ApplyCampaignLimits(db, options);

  const std::vector<std::string> suite = SeedSuiteFor(db.config().name);
  // Parse the SELECT seeds once; run DDL/DML seeds as prerequisites. Record
  // the seed function vocabulary for swap mutations.
  std::vector<std::unique_ptr<SelectStmt>> seeds;
  std::set<std::string> seed_vocabulary;
  for (const std::string& line : suite) {
    Result<Statement> parsed = ParseStatement(line);
    if (!parsed.ok()) {
      continue;
    }
    if (parsed->is_select()) {
      std::vector<Expr*> calls;
      parsed->mutable_select()->CollectFunctionCalls(calls);
      for (const Expr* call : calls) {
        seed_vocabulary.insert(call->func_name);
      }
      seeds.push_back(parsed->mutable_select()->Clone());
    } else {
      db.Execute(line);
    }
  }
  if (seeds.empty()) {
    return result;
  }

  while (result.statements_executed < options.max_statements) {
    const std::unique_ptr<SelectStmt>& seed = seeds[rng.NextBelow(seeds.size())];
    std::unique_ptr<SelectStmt> mutant = seed->Clone();

    // Literal replacement (always) + optional function swap + clause add.
    for (SelectItem& item : mutant->items) {
      ReplaceLiterals(*item.expr, rng);
    }
    if (rng.NextBool(0.5)) {
      SwapFunctions(*mutant, rng, db.registry(), seed_vocabulary);
    }
    if (rng.NextBool(0.3) && mutant->limit == std::nullopt) {
      mutant->limit = static_cast<int64_t>(1 + rng.NextBelow(5));
    }
    ExecuteAndRecord(db, mutant->ToSql(), name(), result, found_ids);
  }

  result.functions_triggered = db.coverage().TriggeredFunctionCount();
  result.branches_covered = db.coverage().CoveredBranchCount();
  return result;
}

}  // namespace soft
