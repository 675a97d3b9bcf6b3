// Injected-fault framework: the simulated memory-safety bugs of the seven
// dialects.
//
// Real DBMS function bugs are *missing validations*: a boundary argument
// reaches code that assumed it could not occur. We model each Table 4 bug as
// a BugSpec — pure data: which function, which boundary condition (a trigger
// predicate over the evaluated arguments and evaluation context), which crash
// type it would have caused, which paper pattern constructs it. The engine
// consults the FaultEngine *before* its own argument validation (that is
// exactly what "missing check" means); a triggered spec surfaces as a
// simulated crash in the statement result instead of real undefined
// behaviour, keeping the harness testable.
#ifndef SRC_FAULT_FAULT_H_
#define SRC_FAULT_FAULT_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/sqlvalue/value.h"
#include "src/util/status.h"

namespace soft {

// Crash taxonomy of Table 4.
enum class CrashType {
  kNullPointerDereference,
  kSegmentationViolation,
  kUseAfterFree,
  kHeapBufferOverflow,
  kGlobalBufferOverflow,
  kAssertionFailure,
  kStackOverflow,
  kDivideByZero,
};

std::string_view CrashTypeName(CrashType type);        // "NPD", "SEGV", ...
std::string_view CrashTypeLongName(CrashType type);    // "null pointer dereference"

// DBMS processing stage (Finding 1).
enum class Stage { kParse, kOptimize, kExecute };
std::string_view StageName(Stage stage);

// The boundary condition that triggers a bug.
enum class TriggerKind {
  kArgIsStar,                // argument is the '*' literal
  kArgIsNull,                // argument is NULL (reaching a non-null path)
  kArgEmptyString,           // argument is ''
  kDecimalDigitsAtLeast,     // DECIMAL argument with >= threshold total digits
  kDecimalFractionAtLeast,   // DECIMAL argument with >= threshold fraction digits
  kIntAtLeast,               // integer argument >= threshold
  kIntAtMost,                // integer argument <= threshold (negative extremes)
  kStringLengthAtLeast,      // string/blob argument with >= threshold bytes
  kJsonDepthAtLeast,         // string argument whose JSON nesting >= threshold
  kArgTypeIs,                // argument has TypeKind param_type (ROW, BLOB, ...)
  kBlobNotGeometry,          // BLOB argument that fails geometry decoding
  kStringContains,           // string argument contains param_text
  kCallDepthAtLeast,         // nested function-call depth >= threshold
  kArgCountAtLeast,          // invocation with >= threshold arguments
  kDistinctFlag,             // aggregate invoked with DISTINCT
  kDistinctAndAllArgsString, // DISTINCT aggregate whose args are all strings
                             // (the CVE-2023-5868 unknown-type shape)
  kCastTargetIs,             // cast-layer bug: cast to param_type
  kAlways,                   // unconditional for the spec's function+stage
};

struct BugSpec {
  int id = 0;                       // stable identifier (BUG-<dbms>-<n>)
  std::string dbms;                 // dialect name, lower-case
  std::string function;             // upper-case; "CAST" for cast-layer bugs
  std::string function_type;        // Figure 1 category label ("string", ...)
  CrashType crash = CrashType::kSegmentationViolation;
  std::string pattern;              // paper pattern credited, e.g. "P1.2"
  Stage stage = Stage::kExecute;

  TriggerKind trigger = TriggerKind::kAlways;
  int arg_index = -1;               // -1: any argument position
  int64_t threshold = 0;
  TypeKind param_type = TypeKind::kNull;
  std::string param_text;

  std::string description;          // one-line account, used in bug reports
};

// How a wrong-result (logic) bug perturbs a function's return value. Unlike
// a CrashType there is no signal and no error status: the statement succeeds
// and simply returns a wrong row or value — the bug class only a result-set
// oracle (EET, differential, NoREC, TLP) can observe.
enum class LogicEffect {
  kOffByOne,   // numeric +1, boolean flip, string gains a trailing byte
  kNegate,     // numeric sign flip / boolean negation
  kNullOut,    // result silently replaced by NULL
  kZeroOut,    // result replaced by the type's zero/empty value
  kTruncate,   // string halved / integer halved / double truncated
};

std::string_view LogicEffectName(LogicEffect effect);  // "off_by_one", ...

// Where in the statement a LogicBugSpec applies. The scopes are chosen so
// each maps onto a distinct detection channel: an EET rewrite perturbs call
// depth and argument const-ness, the WHERE scope is what NoREC's projection
// rewrite escapes, and kAnyCall is only observable differentially.
enum class LogicScope {
  kAnyCall,         // every evaluation of the function
  kTopLevelCall,    // only outermost calls (call depth 1) — an EET
                    // COALESCE shell pushes the call to depth 2 and evades it
  kConstArgs,       // only when every argument expression is constant — an
                    // EET identity chain over an argument evades it
  kWherePredicate,  // only while evaluating a WHERE predicate — NoREC's
                    // projection rewrite and the differential oracle see it
};

std::string_view LogicScopeName(LogicScope scope);  // "any_call", ...

// A seeded wrong-result bug: pure data, exactly like BugSpec, but firing
// perturbs the function's (successful) return value instead of raising a
// crash. The trigger fields mirror BugSpec so the same boundary-argument
// matching applies.
struct LogicBugSpec {
  int id = 0;                       // stable identifier (LBUG-<dbms>-<n>)
  std::string dbms;
  std::string function;             // upper-case
  std::string function_type;
  LogicEffect effect = LogicEffect::kOffByOne;
  LogicScope scope = LogicScope::kAnyCall;
  std::string pattern;              // paper pattern credited, e.g. "L1"

  TriggerKind trigger = TriggerKind::kAlways;
  int arg_index = -1;
  int64_t threshold = 0;
  TypeKind param_type = TypeKind::kNull;
  std::string param_text;

  std::string description;
};

// What the evaluator records when a LogicBugSpec fires. Recording is silent
// — the statement still succeeds — and exists only so campaigns can verify
// oracle verdicts against injected ground truth (and flag divergences with
// no recorded hit as oracle false positives).
struct LogicBugInfo {
  int bug_id = 0;
  std::string dbms;
  std::string function;
  LogicEffect effect = LogicEffect::kOffByOne;
  LogicScope scope = LogicScope::kAnyCall;
  std::string pattern;
  std::string description;

  std::string Summary() const;

  bool operator==(const LogicBugInfo&) const = default;
};

// Applies a LogicEffect to a successfully computed value. Total and
// deterministic; kinds an effect cannot meaningfully perturb become NULL.
Value ApplyLogicEffect(LogicEffect effect, const Value& v);

// What the harness observes when a spec fires.
struct CrashInfo {
  int bug_id = 0;
  std::string dbms;
  std::string function;
  CrashType crash = CrashType::kSegmentationViolation;
  Stage stage = Stage::kExecute;
  std::string pattern;
  std::string description;

  std::string Summary() const;

  bool operator==(const CrashInfo&) const = default;
};

// How a triggered BugSpec is realized (docs/ROBUSTNESS.md).
enum class CrashRealism {
  // The fault surfaces as a kCrash StatementResult in-process — the default,
  // and the mode every deterministic comparison runs in.
  kSimulated,
  // The fault surfaces exactly as under kSimulated, and is also realized: a
  // forked copy of the process raises the *actual* signal for its CrashType
  // (SIGSEGV for the memory errors, SIGABRT for assertion failures, SIGFPE
  // for divide-by-zero, real stack exhaustion for kStackOverflow) and dies
  // by it, while the process itself carries on (Database::OnCrashTriggered).
  kReal,
};

// Signal the kernel would deliver for a CrashType (SIGSEGV/SIGABRT/SIGFPE).
int ExpectedSignalFor(CrashType type);

// Raises the real signal for `type` after resetting its handler to SIG_DFL:
// genuine null/wild dereferences for the pointer bugs, abort() for assertion
// failures, a volatile division by zero for SIGFPE, and actual stack
// exhaustion (with an alternate signal stack installed so sanitizer handlers
// can still report) for kStackOverflow. Never returns. Async-signal-safe,
// so a child forked from any campaign thread may call it.
[[noreturn]] void RaiseRealCrashSignal(CrashType type);

class FaultEngine {
 public:
  void AddBug(BugSpec spec);
  size_t bug_count() const { return total_bugs_; }
  const std::vector<BugSpec>& AllBugs() const { return all_; }

  // Consulted by the evaluator before a function validates its arguments.
  // `distinct` is the aggregate-DISTINCT flag. Returns the triggered spec.
  std::optional<CrashInfo> CheckFunction(std::string_view function, const ValueList& args,
                                         int call_depth, bool distinct, Stage stage) const;

  // Consulted by the cast matrix wrapper for cast-layer bugs ("CAST" specs).
  std::optional<CrashInfo> CheckCast(TypeKind target, const Value& input,
                                     Stage stage) const;

  // Wrong-result (logic) bug corpus. Specs are seeded unconditionally by the
  // dialect constructors but only consulted when the owning Database has
  // logic faults enabled — the crash path and every existing campaign are
  // untouched by default.
  void AddLogicBug(LogicBugSpec spec);
  size_t logic_bug_count() const { return all_logic_.size(); }
  const std::vector<LogicBugSpec>& AllLogicBugs() const { return all_logic_; }
  bool HasLogicBugs(std::string_view function) const;

  // Consulted by the evaluator after a function call succeeds. `const_args`
  // is true when every argument *expression* was constant; `in_where` while
  // evaluating a WHERE predicate. Returns the first matching spec.
  std::optional<LogicBugInfo> CheckLogicFunction(std::string_view function,
                                                 const ValueList& args, int call_depth,
                                                 bool const_args, bool in_where) const;

 private:
  // Transparent hash: the maps below are searched by string_view, without a
  // copy of the name.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  template <typename Spec>
  using ByName = std::unordered_map<std::string, std::vector<Spec>, NameHash, std::equal_to<>>;

  ByName<BugSpec> by_function_;
  std::vector<BugSpec> all_;
  size_t total_bugs_ = 0;
  ByName<LogicBugSpec> logic_by_function_;
  std::vector<LogicBugSpec> all_logic_;
};

}  // namespace soft

#endif  // SRC_FAULT_FAULT_H_
