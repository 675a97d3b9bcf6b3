// Built-in SQL function framework: categories, evaluation context, and the
// scalar/aggregate implementation interfaces.
//
// Function categories follow Figure 1 of the paper (the classification used
// in the study: string, aggregate, math, date, JSON, XML, spatial, system,
// condition, casting, array, map, sequence). Every implementation receives a
// FunctionContext carrying dialect limits, the coverage hook, and the
// nested-call depth — the three ingredients the injected fault corpus and the
// coverage experiments need.
#ifndef SRC_SQLFUNC_FUNCTION_H_
#define SRC_SQLFUNC_FUNCTION_H_

#include <cstdint>
#include <forward_list>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/coverage/coverage.h"
#include "src/sqlvalue/cast.h"
#include "src/sqlvalue/value.h"
#include "src/util/status.h"

namespace soft {

enum class FunctionType {
  kString = 0,
  kAggregate,
  kMath,
  kDate,
  kJson,
  kXml,
  kSpatial,
  kSystem,
  kCondition,
  kCasting,
  kArray,
  kMap,
  kSequence,
};

constexpr int kNumFunctionTypes = static_cast<int>(FunctionType::kSequence) + 1;

std::string_view FunctionTypeName(FunctionType type);

// Per-dialect execution limits. The paper's false positives came from
// REPEAT('a', 9999999999)-style resource exhaustion: the engine enforces
// these limits and reports kResourceExhausted, which the harness must NOT
// count as a crash.
struct EngineLimits {
  size_t max_string_len = 16u << 20;  // bytes a string function may build
  int64_t max_repeat_count = 1u << 22;
  int json_depth_limit = 512;
  int max_call_depth = 256;
};

// Session state shared by system/sequence functions.
struct SessionState {
  std::map<std::string, int64_t, std::less<>> sequences;
  int64_t last_sequence_value = 0;
  uint64_t connection_id = 1;
};

class FunctionContext {
 public:
  FunctionContext(CastOptions cast_options, EngineLimits limits, CoverageTracker* coverage,
                  SessionState* session)
      : cast_options_(cast_options),
        limits_(limits),
        coverage_(coverage),
        session_(session) {}

  const CastOptions& cast_options() const { return cast_options_; }
  const EngineLimits& limits() const { return limits_; }
  SessionState* session() const { return session_; }

  // Nested function-call depth of the current evaluation (1 = outermost).
  int call_depth() const { return call_depth_; }
  void set_call_depth(int depth) { call_depth_ = depth; }

  // The function currently being evaluated (upper-case); set by the engine
  // before dispatch so Cover() attributes branches correctly.
  const std::string& current_function() const { return current_function_; }
  void set_current_function(std::string name) { current_function_ = std::move(name); }

  // Marks a branch of the current function as covered.
  void Cover(int branch_id) const {
    if (coverage_ != nullptr) {
      coverage_->Hit(current_function_, branch_id);
    }
  }

  // Convenience coercions honouring the dialect's cast strictness.
  //
  // ArgString reads a STRING argument in place, and a BLOB one too (its
  // cast to STRING is its bytes unchanged). Any other kind is coerced into
  // storage this context owns. The view stays valid while both `v` and this
  // context live, so a body that keeps the text past its return, or rewrites
  // it, copies it.
  Result<std::string_view> ArgString(const Value& v);
  Result<int64_t> ArgInt(const Value& v) const;
  Result<double> ArgDouble(const Value& v) const;
  Result<Decimal> ArgDecimal(const Value& v) const;

 private:
  CastOptions cast_options_;
  EngineLimits limits_;
  CoverageTracker* coverage_;
  SessionState* session_;
  int call_depth_ = 1;
  std::string current_function_;
  // Coerced ArgString results; a list, so a view into one outlives later
  // insertions.
  std::forward_list<Value> coerced_;
};

using ScalarFunction = std::function<Result<Value>(FunctionContext&, const ValueList&)>;

// Aggregate protocol: one Aggregator per (group, call site).
class Aggregator {
 public:
  virtual ~Aggregator() = default;
  // `args` holds the per-row evaluated argument values.
  virtual Status Accumulate(FunctionContext& ctx, const ValueList& args) = 0;
  virtual Result<Value> Finalize(FunctionContext& ctx) = 0;
};

using AggregatorFactory = std::function<std::unique_ptr<Aggregator>()>;

struct FunctionDef {
  std::string name;  // upper-case
  FunctionType type = FunctionType::kSystem;
  int min_args = 0;
  int max_args = -1;  // -1 = variadic
  bool is_aggregate = false;
  // True when the function tolerates a '*' argument (COUNT(*)).
  bool accepts_star = false;
  // When true (the SQL default) the engine returns NULL without dispatching
  // if any argument is NULL. Condition functions (IFNULL, COALESCE, ...)
  // opt out to see the NULLs themselves.
  bool null_propagates = true;
  ScalarFunction scalar;          // when !is_aggregate
  AggregatorFactory aggregator;   // when is_aggregate
  std::string doc;                // one-line description ("documentation scan" source)
  // Example invocation used to seed the fuzzer corpus ("regression suite").
  std::string example;
};

class FunctionRegistry {
 public:
  // Registers a definition; later registrations override earlier ones (lets
  // dialects replace a common implementation with a dialect-specific one).
  void Register(FunctionDef def);

  const FunctionDef* Find(std::string_view name) const;
  bool Contains(std::string_view name) const { return Find(name) != nullptr; }

  // All definitions, sorted by name (the "documentation" SOFT scans).
  std::vector<const FunctionDef*> All() const;
  size_t size() const { return functions_.size(); }

  // Removes a function (dialect allowlisting).
  void Remove(std::string_view name);

 private:
  std::map<std::string, FunctionDef, std::less<>> functions_;
};

// Category registration entry points (implemented across the
// *_functions.cc files). RegisterAllBuiltins calls every one of them.
void RegisterStringFunctions(FunctionRegistry& registry);
void RegisterMathFunctions(FunctionRegistry& registry);
void RegisterDateFunctions(FunctionRegistry& registry);
void RegisterJsonFunctions(FunctionRegistry& registry);
void RegisterXmlFunctions(FunctionRegistry& registry);
void RegisterSpatialFunctions(FunctionRegistry& registry);
void RegisterSystemFunctions(FunctionRegistry& registry);
void RegisterConditionFunctions(FunctionRegistry& registry);
void RegisterCastingFunctions(FunctionRegistry& registry);
void RegisterArrayMapFunctions(FunctionRegistry& registry);
void RegisterSequenceFunctions(FunctionRegistry& registry);
void RegisterAggregateFunctions(FunctionRegistry& registry);
void RegisterAllBuiltins(FunctionRegistry& registry);

// The immutable builtin-catalog prototype: all category registrations run
// exactly once (std::call_once-guarded, so concurrent first-time Database
// construction from campaign shards is safe) and the result is shared
// read-only. RegisterAllBuiltins copies it into a per-instance registry,
// which dialects then prune/override independently.
const FunctionRegistry& BuiltinRegistry();

}  // namespace soft

#endif  // SRC_SQLFUNC_FUNCTION_H_
