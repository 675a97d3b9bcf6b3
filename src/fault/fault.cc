#include "src/fault/fault.h"

#include <csignal>
#include <cstdint>
#include <cstdlib>

#include "src/sqlvalue/geometry.h"
#include "src/sqlvalue/json.h"
#include "src/util/str_util.h"

namespace soft {

std::string_view CrashTypeName(CrashType type) {
  switch (type) {
    case CrashType::kNullPointerDereference:
      return "NPD";
    case CrashType::kSegmentationViolation:
      return "SEGV";
    case CrashType::kUseAfterFree:
      return "UAF";
    case CrashType::kHeapBufferOverflow:
      return "HBOF";
    case CrashType::kGlobalBufferOverflow:
      return "GBOF";
    case CrashType::kAssertionFailure:
      return "AF";
    case CrashType::kStackOverflow:
      return "SO";
    case CrashType::kDivideByZero:
      return "DBZ";
  }
  return "?";
}

std::string_view CrashTypeLongName(CrashType type) {
  switch (type) {
    case CrashType::kNullPointerDereference:
      return "null pointer dereference";
    case CrashType::kSegmentationViolation:
      return "segmentation violation";
    case CrashType::kUseAfterFree:
      return "use-after-free";
    case CrashType::kHeapBufferOverflow:
      return "heap buffer overflow";
    case CrashType::kGlobalBufferOverflow:
      return "global buffer overflow";
    case CrashType::kAssertionFailure:
      return "assertion failure";
    case CrashType::kStackOverflow:
      return "stack overflow";
    case CrashType::kDivideByZero:
      return "divide-by-zero";
  }
  return "?";
}

int ExpectedSignalFor(CrashType type) {
  switch (type) {
    case CrashType::kAssertionFailure:
      return SIGABRT;
    case CrashType::kDivideByZero:
      return SIGFPE;
    default:
      // The pointer bugs (NPD/SEGV/UAF/HBOF/GBOF) and stack exhaustion all
      // die by SIGSEGV under default dispositions.
      return SIGSEGV;
  }
}

namespace {

// Resets the fatal-signal dispositions sanitizers/harnesses may have
// installed: real-crash mode wants the kernel default (terminate by signal)
// so the waiting parent can decode WTERMSIG, even under ASan.
void ResetFatalHandlers() {
  std::signal(SIGSEGV, SIG_DFL);
  std::signal(SIGBUS, SIG_DFL);
  std::signal(SIGABRT, SIG_DFL);
  std::signal(SIGFPE, SIG_DFL);
  std::signal(SIGILL, SIG_DFL);
}

// Real stack exhaustion: recursion with genuine frames. The volatile
// traffic keeps the optimizer from collapsing the recursion, and the
// data-dependent branch keeps -Winfinite-recursion quiet.
__attribute__((noinline)) int ExhaustStack(volatile char* parent) {
  volatile char frame[4096];
  frame[0] = parent == nullptr ? 1 : parent[0];
  if (frame[0] != 0) {
    return frame[0] + ExhaustStack(frame);
  }
  return 0;
}

}  // namespace

void RaiseRealCrashSignal(CrashType type) {
  ResetFatalHandlers();
  switch (type) {
    case CrashType::kNullPointerDereference: {
      volatile int* p = nullptr;
      *p = 1;  // genuine null dereference
      break;
    }
    case CrashType::kSegmentationViolation:
    case CrashType::kUseAfterFree:
    case CrashType::kHeapBufferOverflow:
    case CrashType::kGlobalBufferOverflow:
      // Performing the literal bad access would be undefined behaviour the
      // compiler may legally fold away; what the waiting parent observes
      // either way is death by SIGSEGV, so deliver exactly that.
      std::raise(SIGSEGV);
      break;
    case CrashType::kAssertionFailure:
      std::abort();
    case CrashType::kDivideByZero: {
      volatile int zero = 0;
      volatile int out = 1 / zero;
      (void)out;
      std::raise(SIGFPE);  // in case the hardware did not trap the division
      break;
    }
    case CrashType::kStackOverflow: {
      // Cap the exhaustion with an alternate signal stack so any handler a
      // sanitizer reinstates still has room to report instead of
      // double-faulting; under SIG_DFL the guard-page fault kills us.
      static char alt_stack[64 * 1024];
      stack_t ss = {};
      ss.ss_sp = alt_stack;
      ss.ss_size = sizeof(alt_stack);
      sigaltstack(&ss, nullptr);
      ExhaustStack(nullptr);
      std::raise(SIGSEGV);
      break;
    }
  }
  std::abort();  // unreachable under default dispositions; keep [[noreturn]] honest
}

std::string_view StageName(Stage stage) {
  switch (stage) {
    case Stage::kParse:
      return "parse";
    case Stage::kOptimize:
      return "optimize";
    case Stage::kExecute:
      return "execute";
  }
  return "?";
}

std::string CrashInfo::Summary() const {
  std::string out = "BUG-";
  out += dbms;
  out += "-";
  out += std::to_string(bug_id);
  out += " [";
  out += CrashTypeName(crash);
  out += "] in ";
  out += function;
  out += " at ";
  out += StageName(stage);
  out += " stage (";
  out += pattern;
  out += "): ";
  out += description;
  return out;
}

void FaultEngine::AddBug(BugSpec spec) {
  spec.function = AsciiUpper(spec.function);
  by_function_[spec.function].push_back(spec);
  all_.push_back(std::move(spec));
  ++total_bugs_;
}

namespace {

CrashInfo MakeCrash(const BugSpec& spec) {
  CrashInfo info;
  info.bug_id = spec.id;
  info.dbms = spec.dbms;
  info.function = spec.function;
  info.crash = spec.crash;
  info.stage = spec.stage;
  info.pattern = spec.pattern;
  info.description = spec.description;
  return info;
}

LogicBugInfo MakeLogicInfo(const LogicBugSpec& spec) {
  LogicBugInfo info;
  info.bug_id = spec.id;
  info.dbms = spec.dbms;
  info.function = spec.function;
  info.effect = spec.effect;
  info.scope = spec.scope;
  info.pattern = spec.pattern;
  info.description = spec.description;
  return info;
}

// The boundary-argument matchers are shared between the crash corpus
// (BugSpec) and the wrong-result corpus (LogicBugSpec): both spec types
// carry the same trigger fields.
template <typename Spec>
bool ArgMatches(const Spec& spec, const Value& v) {
  switch (spec.trigger) {
    case TriggerKind::kArgIsStar:
      return v.is_star();
    case TriggerKind::kArgIsNull:
      return v.is_null();
    case TriggerKind::kArgEmptyString:
      return v.kind() == TypeKind::kString && v.string_value().empty();
    case TriggerKind::kDecimalDigitsAtLeast:
      return v.kind() == TypeKind::kDecimal &&
             v.decimal_value().total_digits() >= spec.threshold;
    case TriggerKind::kDecimalFractionAtLeast:
      return v.kind() == TypeKind::kDecimal &&
             v.decimal_value().fraction_digits() >= spec.threshold;
    case TriggerKind::kIntAtLeast:
      return v.kind() == TypeKind::kInt && v.int_value() >= spec.threshold;
    case TriggerKind::kIntAtMost:
      return v.kind() == TypeKind::kInt && v.int_value() <= spec.threshold;
    case TriggerKind::kStringLengthAtLeast: {
      if (v.kind() == TypeKind::kString) {
        return static_cast<int64_t>(v.string_value().size()) >= spec.threshold;
      }
      if (v.kind() == TypeKind::kBlob) {
        return static_cast<int64_t>(v.blob_value().size()) >= spec.threshold;
      }
      return false;
    }
    case TriggerKind::kJsonDepthAtLeast: {
      if (v.kind() == TypeKind::kString) {
        return ProbeJsonNestingDepth(v.string_value()) >= spec.threshold;
      }
      if (v.kind() == TypeKind::kJson && v.json_value() != nullptr) {
        return v.json_value()->Depth() >= spec.threshold;
      }
      return false;
    }
    case TriggerKind::kArgTypeIs:
      return v.kind() == spec.param_type;
    case TriggerKind::kBlobNotGeometry:
      return v.kind() == TypeKind::kBlob && !GeometryFromBinary(v.blob_value()).ok();
    case TriggerKind::kStringContains:
      return v.kind() == TypeKind::kString &&
             v.string_value().find(spec.param_text) != std::string::npos;
    default:
      return false;
  }
}

template <typename Spec>
bool TriggerMatches(const Spec& spec, const ValueList& args, int call_depth,
                    bool distinct) {
  switch (spec.trigger) {
    case TriggerKind::kAlways:
      return true;
    case TriggerKind::kCallDepthAtLeast:
      return call_depth >= spec.threshold;
    case TriggerKind::kArgCountAtLeast:
      return static_cast<int64_t>(args.size()) >= spec.threshold;
    case TriggerKind::kDistinctFlag:
      return distinct;
    case TriggerKind::kDistinctAndAllArgsString: {
      if (!distinct || args.empty()) {
        return false;
      }
      for (const Value& v : args) {
        if (v.kind() != TypeKind::kString) {
          return false;
        }
      }
      return true;
    }
    case TriggerKind::kCastTargetIs:
      return false;  // cast-layer only
    default:
      break;
  }
  if (spec.arg_index >= 0) {
    if (spec.arg_index >= static_cast<int>(args.size())) {
      return false;
    }
    return ArgMatches(spec, args[static_cast<size_t>(spec.arg_index)]);
  }
  for (const Value& v : args) {
    if (ArgMatches(spec, v)) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::optional<CrashInfo> FaultEngine::CheckFunction(std::string_view function,
                                                    const ValueList& args, int call_depth,
                                                    bool distinct, Stage stage) const {
  const auto it = FindUpperCase(by_function_, function);
  if (it == by_function_.end()) {
    return std::nullopt;
  }
  for (const BugSpec& spec : it->second) {
    if (spec.stage != stage) {
      continue;
    }
    if (TriggerMatches(spec, args, call_depth, distinct)) {
      return MakeCrash(spec);
    }
  }
  return std::nullopt;
}

std::optional<CrashInfo> FaultEngine::CheckCast(TypeKind target, const Value& input,
                                                Stage stage) const {
  const auto it = by_function_.find("CAST");
  if (it == by_function_.end()) {
    return std::nullopt;
  }
  for (const BugSpec& spec : it->second) {
    if (spec.stage != stage) {
      continue;
    }
    if (spec.trigger == TriggerKind::kCastTargetIs) {
      if (spec.param_type == target &&
          (spec.param_text.empty() ||
           std::string(TypeKindName(input.kind())) == spec.param_text)) {
        return MakeCrash(spec);
      }
      continue;
    }
    if (ArgMatches(spec, input)) {
      return MakeCrash(spec);
    }
  }
  return std::nullopt;
}

std::string_view LogicEffectName(LogicEffect effect) {
  switch (effect) {
    case LogicEffect::kOffByOne:
      return "off_by_one";
    case LogicEffect::kNegate:
      return "negate";
    case LogicEffect::kNullOut:
      return "null_out";
    case LogicEffect::kZeroOut:
      return "zero_out";
    case LogicEffect::kTruncate:
      return "truncate";
  }
  return "?";
}

std::string_view LogicScopeName(LogicScope scope) {
  switch (scope) {
    case LogicScope::kAnyCall:
      return "any_call";
    case LogicScope::kTopLevelCall:
      return "top_level_call";
    case LogicScope::kConstArgs:
      return "const_args";
    case LogicScope::kWherePredicate:
      return "where_predicate";
  }
  return "?";
}

std::string LogicBugInfo::Summary() const {
  std::string out = "LBUG-";
  out += dbms;
  out += "-";
  out += std::to_string(bug_id);
  out += " [";
  out += LogicEffectName(effect);
  out += "/";
  out += LogicScopeName(scope);
  out += "] in ";
  out += function;
  out += " (";
  out += pattern;
  out += "): ";
  out += description;
  return out;
}

Value ApplyLogicEffect(LogicEffect effect, const Value& v) {
  switch (effect) {
    case LogicEffect::kOffByOne:
      switch (v.kind()) {
        case TypeKind::kInt:
          return Value::Int(v.int_value() == INT64_MAX ? INT64_MIN
                                                       : v.int_value() + 1);
        case TypeKind::kDouble:
          return Value::DoubleVal(v.double_value() + 1.0);
        case TypeKind::kBool:
          return Value::Boolean(!v.bool_value());
        case TypeKind::kString:
          return Value::Str(v.string_value() + "?");
        default:
          return Value::Null();
      }
    case LogicEffect::kNegate:
      switch (v.kind()) {
        case TypeKind::kInt:
          return Value::Int(v.int_value() == INT64_MIN ? INT64_MAX
                                                       : -v.int_value());
        case TypeKind::kDouble:
          return Value::DoubleVal(-v.double_value());
        case TypeKind::kBool:
          return Value::Boolean(!v.bool_value());
        default:
          return Value::Null();
      }
    case LogicEffect::kNullOut:
      return Value::Null();
    case LogicEffect::kZeroOut:
      switch (v.kind()) {
        case TypeKind::kInt:
          return Value::Int(0);
        case TypeKind::kDouble:
          return Value::DoubleVal(0.0);
        case TypeKind::kBool:
          return Value::Boolean(false);
        case TypeKind::kString:
          return Value::Str("");
        default:
          return Value::Null();
      }
    case LogicEffect::kTruncate:
      switch (v.kind()) {
        case TypeKind::kString:
          return Value::Str(v.string_value().substr(0, v.string_value().size() / 2));
        case TypeKind::kInt:
          return Value::Int(v.int_value() / 2);
        case TypeKind::kDouble:
          return Value::DoubleVal(static_cast<double>(static_cast<int64_t>(v.double_value())));
        default:
          return Value::Null();
      }
  }
  return Value::Null();
}

void FaultEngine::AddLogicBug(LogicBugSpec spec) {
  spec.function = AsciiUpper(spec.function);
  logic_by_function_[spec.function].push_back(spec);
  all_logic_.push_back(std::move(spec));
}

bool FaultEngine::HasLogicBugs(std::string_view function) const {
  if (logic_by_function_.empty()) {
    return false;
  }
  return FindUpperCase(logic_by_function_, function) != logic_by_function_.end();
}

std::optional<LogicBugInfo> FaultEngine::CheckLogicFunction(
    std::string_view function, const ValueList& args, int call_depth, bool const_args,
    bool in_where) const {
  const auto it = FindUpperCase(logic_by_function_, function);
  if (it == logic_by_function_.end()) {
    return std::nullopt;
  }
  for (const LogicBugSpec& spec : it->second) {
    switch (spec.scope) {
      case LogicScope::kAnyCall:
        break;
      case LogicScope::kTopLevelCall:
        if (call_depth != 1) {
          continue;
        }
        break;
      case LogicScope::kConstArgs:
        if (!const_args) {
          continue;
        }
        break;
      case LogicScope::kWherePredicate:
        if (!in_where) {
          continue;
        }
        break;
    }
    if (TriggerMatches(spec, args, call_depth, /*distinct=*/false)) {
      return MakeLogicInfo(spec);
    }
  }
  return std::nullopt;
}

}  // namespace soft
