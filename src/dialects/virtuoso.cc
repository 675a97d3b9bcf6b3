// Virtuoso dialect: the buggiest of the seven (45 Table 4 bugs, a third of
// the total), dominated by loosely-typed system/internal functions. On top
// of the full builtin catalog it registers a slice of Virtuoso-style
// internal system functions (VECTOR, AREF, RDF_BOX, SYS_STAT, ...) — the
// surface where 15 of its bugs live, headlined by CONTAINS('x','x',*)
// (Case 2 of the paper).
#include <cstdio>

#include "src/dialects/dialect_common.h"
#include "src/dialects/dialects.h"

namespace soft {
namespace {

void RegSystem(FunctionRegistry& r, const char* name, int min_args, int max_args,
               ScalarFunction fn, const char* doc, const char* example,
               bool null_prop = true) {
  FunctionDef def;
  def.name = name;
  def.type = FunctionType::kSystem;
  def.min_args = min_args;
  def.max_args = max_args;
  def.null_propagates = null_prop;
  def.scalar = std::move(fn);
  def.doc = doc;
  def.example = example;
  r.Register(std::move(def));
}

Result<Value> FnHashint(FunctionContext& ctx, const ValueList& args) {
  const std::string text = args[0].ToDisplayString();
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return Value::Int(static_cast<int64_t>(h & 0x7FFFFFFFFFFFFFFFull));
}

Result<Value> FnBlobToString(FunctionContext& ctx, const ValueList& args) {
  if (args[0].kind() == TypeKind::kBlob) {
    return Value::Str(args[0].blob_value());
  }
  ctx.Cover(1);
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  return Value::Str(std::string(s));
}

Result<Value> FnStringToBlob(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
  return Value::BlobVal(std::string(s));
}

Result<Value> FnVector(FunctionContext& ctx, const ValueList& args) {
  return Value::ArrayVal(args);
}

Result<Value> FnAref(FunctionContext& ctx, const ValueList& args) {
  if (args[0].kind() != TypeKind::kArray) {
    ctx.Cover(1);
    return TypeError("AREF requires a vector");
  }
  SOFT_ASSIGN_OR_RETURN(int64_t idx, ctx.ArgInt(args[1]));
  const ValueList& items = args[0].array_items();
  if (idx < 0 || idx >= static_cast<int64_t>(items.size())) {
    ctx.Cover(2);
    return InvalidArgument("AREF index out of bounds");
  }
  return items[static_cast<size_t>(idx)];
}

Result<Value> FnRdfBox(FunctionContext& ctx, const ValueList& args) {
  return Value::Str("rdf_box(" + args[0].ToDisplayString() + ")");
}

Result<Value> FnInternalTypeName(FunctionContext& ctx, const ValueList& args) {
  return Value::Str(std::string("DV_") + std::string(TypeKindName(args[0].kind())));
}

Result<Value> FnRowCount(FunctionContext& ctx, const ValueList& args) {
  return Value::Int(0);
}

Result<Value> FnTxnKill(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(int64_t id, ctx.ArgInt(args[0]));
  if (id < 0) {
    ctx.Cover(1);
    return InvalidArgument("invalid transaction id");
  }
  return Value::Int(0);
}

Result<Value> FnSysStat(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view name, ctx.ArgString(args[0]));
  if (name == "st_dbms_ver") {
    ctx.Cover(1);
    return Value::Str("07.20.3240");
  }
  return Value::Int(0);
}

}  // namespace

std::unique_ptr<Database> MakeVirtuosoDialect() {
  EngineConfig config;
  config.name = "virtuoso";
  config.cast_options.strict = false;
  auto db = std::make_unique<Database>(config);

  FunctionRegistry& r = db->registry();
  RegSystem(r, "HASHINT", 1, 1, FnHashint, "Internal hash of any value", "HASHINT('a')",
            false);
  RegSystem(r, "BLOB_TO_STRING", 1, 1, FnBlobToString, "Blob payload as text",
            "BLOB_TO_STRING(x'616263')");
  RegSystem(r, "STRING_TO_BLOB", 1, 1, FnStringToBlob, "Text as blob payload",
            "STRING_TO_BLOB('abc')");
  RegSystem(r, "VECTOR", 0, -1, FnVector, "Internal vector constructor",
            "VECTOR(1, 2, 3)", false);
  RegSystem(r, "AREF", 2, 2, FnAref, "Vector element access (0-based)",
            "AREF(VECTOR(1, 2), 1)");
  RegSystem(r, "RDF_BOX", 1, 1, FnRdfBox, "Wrap a value in an RDF box", "RDF_BOX(1)",
            false);
  RegSystem(r, "INTERNAL_TYPE_NAME", 1, 1, FnInternalTypeName,
            "Internal DV_* type tag of a value", "INTERNAL_TYPE_NAME(1)", false);
  RegSystem(r, "ROW_COUNT", 0, 0, FnRowCount, "Rows affected by the last statement",
            "ROW_COUNT()");
  RegSystem(r, "TXN_KILL", 1, 1, FnTxnKill, "Terminate a transaction by id",
            "TXN_KILL(1)");
  RegSystem(r, "SYS_STAT", 1, 1, FnSysStat, "Read a server statistic",
            "SYS_STAT('st_dbms_ver')");

  BugAdder bugs(*db, "virtuoso");
  // --- aggregate (5): NPD x4, SEGV; P1.2, P3.2, P3.3 x3 -------------------------
  bugs.Add({.function = "SUM",
            .function_type = "aggregate",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgIsStar,
            .description = "SUM(*) fetches a null sqlo column reference"});
  bugs.Add({.function = "AVG",
            .function_type = "aggregate",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P3.2",
            .trigger = TriggerKind::kArgTypeIs,
            .param_type = TypeKind::kJson,
            .description = "AVG unboxes wrapped JSON documents through a null "
                           "numeric box"});
  bugs.Add({.function = "MIN",
            .function_type = "aggregate",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P3.3",
            .trigger = TriggerKind::kArgTypeIs,
            .param_type = TypeKind::kGeometry,
            .description = "MIN compares geometry boxes via a null collation"});
  bugs.Add({.function = "MAX",
            .function_type = "aggregate",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P3.3",
            .trigger = TriggerKind::kArgTypeIs,
            .param_type = TypeKind::kBlob,
            .description = "MAX compares blob boxes via a null collation"});
  bugs.Add({.function = "GROUP_CONCAT",
            .function_type = "aggregate",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P3.3",
            .trigger = TriggerKind::kArgTypeIs,
            .param_type = TypeKind::kDate,
            .description = "GROUP_CONCAT renders DATE boxes from nested date "
                           "functions with a string box accessor"});
  // --- casting (2): AF x2; P1.2 x2 ------------------------------------------------
  bugs.Add({.function = "TO_NUMBER",
            .function_type = "casting",
            .crash = CrashType::kAssertionFailure,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgEmptyString,
            .description = "TO_NUMBER('') asserts a non-empty digit run"});
  bugs.Add({.function = "TO_CHAR",
            .function_type = "casting",
            .crash = CrashType::kAssertionFailure,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgIsStar,
            .description = "TO_CHAR(*) asserts on the star box tag"});
  // --- condition (3): NPD x2, SEGV; P3.3 x3 -----------------------------------------
  bugs.Add({.function = "IFNULL",
            .function_type = "condition",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P3.3",
            .trigger = TriggerKind::kArgTypeIs,
            .arg_index = 0,
            .param_type = TypeKind::kGeometry,
            .description = "IFNULL probes the nil flag of geometry boxes from "
                           "nested spatial functions"});
  bugs.Add({.function = "NULLIF",
            .function_type = "condition",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P3.3",
            .trigger = TriggerKind::kArgTypeIs,
            .param_type = TypeKind::kBlob,
            .description = "NULLIF equates blob boxes via a null comparer"});
  bugs.Add({.function = "GREATEST",
            .function_type = "condition",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P3.3",
            .trigger = TriggerKind::kArgTypeIs,
            .param_type = TypeKind::kJson,
            .description = "GREATEST orders JSON boxes by their serialized pointer"});
  // --- math (5): NPD x3, SEGV, DBZ; P1.2 x2, P2.1, P2.2, P2.3 --------------------------
  bugs.Add({.function = "SQRT",
            .function_type = "math",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P1.2",
            .trigger = TriggerKind::kIntAtMost,
            .threshold = -1000000000000000LL,
            .description = "SQRT routes -1e15 through a null complex-result shim"});
  bugs.Add({.function = "LOG",
            .function_type = "math",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgEmptyString,
            .description = "LOG('') numeric-boxes the empty string as a null "
                           "pointer"});
  bugs.Add({.function = "ABS",
            .function_type = "math",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P2.1",
            .trigger = TriggerKind::kArgTypeIs,
            .param_type = TypeKind::kBlob,
            .description = "ABS unboxes cast-produced blobs through the numeric "
                           "accessor"});
  bugs.Add({.function = "MOD",
            .function_type = "math",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P2.2",
            .trigger = TriggerKind::kArgTypeIs,
            .arg_index = 0,
            .param_type = TypeKind::kDateTime,
            .description = "MOD over UNION-unified DATETIME boxes indexes the "
                           "numeric dispatch table out of range"});
  bugs.Add({.function = "DIV",
            .function_type = "math",
            .crash = CrashType::kDivideByZero,
            .pattern = "P2.3",
            .trigger = TriggerKind::kArgTypeIs,
            .arg_index = 1,
            .param_type = TypeKind::kString,
            .description = "DIV coerces borrowed string divisors to 0 and divides"});
  // --- spatial (2): NPD, SEGV; P1.2, P2.1 -----------------------------------------------
  bugs.Add({.function = "ST_ASTEXT",
            .function_type = "spatial",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgIsNull,
            .arg_index = 0,
            .description = "ST_ASTEXT(NULL) renders the null geometry box"});
  bugs.Add({.function = "ST_GEOMFROMTEXT",
            .function_type = "spatial",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P2.1",
            .trigger = TriggerKind::kArgTypeIs,
            .arg_index = 0,
            .param_type = TypeKind::kBlob,
            .description = "ST_GEOMFROMTEXT scans cast-produced blobs as "
                           "NUL-terminated WKT"});
  // --- string (10): NPD x2, SEGV x6, SO, UAF; P1.2 x5, P2.3, P3.1 x3, P3.2 ----------------
  bugs.Add({.function = "SUBSTR",
            .function_type = "string",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P1.2",
            .trigger = TriggerKind::kIntAtLeast,
            .arg_index = 1,
            .threshold = 1000000000000LL,
            .description = "SUBSTR adds 1e12 offsets to the subject pointer before "
                           "bounds checks"});
  bugs.Add({.function = "LEFT",
            .function_type = "string",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P1.2",
            .trigger = TriggerKind::kIntAtMost,
            .arg_index = 1,
            .threshold = -1000000000000LL,
            .description = "LEFT casts -1e12 lengths to size_t and copies"});
  bugs.Add({.function = "RIGHT",
            .function_type = "string",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P1.2",
            .trigger = TriggerKind::kIntAtLeast,
            .arg_index = 1,
            .threshold = 1000000000000LL,
            .description = "RIGHT rewinds 1e12 bytes from the subject tail"});
  bugs.Add({.function = "LPAD",
            .function_type = "string",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgIsNull,
            .arg_index = 2,
            .description = "LPAD uses the NULL pad box as a char buffer"});
  bugs.Add({.function = "RPAD",
            .function_type = "string",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgEmptyString,
            .arg_index = 2,
            .description = "RPAD divides by the empty pad's zero length to count "
                           "repetitions and scribbles"});
  bugs.Add({.function = "INSTR",
            .function_type = "string",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P2.3",
            .trigger = TriggerKind::kStringContains,
            .arg_index = 1,
            .param_text = "POINT(",
            .description = "INSTR compiles WKT needles borrowed from spatial "
                           "functions as search automata"});
  bugs.Add({.function = "REPEAT",
            .function_type = "string",
            .crash = CrashType::kStackOverflow,
            .pattern = "P3.1",
            .trigger = TriggerKind::kStringLengthAtLeast,
            .arg_index = 0,
            .threshold = 200000,
            .description = "REPEAT recurses per copied chunk for 200 KB subjects"});
  bugs.Add({.function = "CONCAT",
            .function_type = "string",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P3.1",
            .trigger = TriggerKind::kStringLengthAtLeast,
            .threshold = 500000,
            .description = "CONCAT's length accumulator truncates at 500 KB and "
                           "copies past the result box"});
  bugs.Add({.function = "UPPER",
            .function_type = "string",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P3.1",
            .trigger = TriggerKind::kStringLengthAtLeast,
            .threshold = 1000000,
            .description = "UPPER's wide-char staging allocation is unchecked for "
                           "1 MB subjects"});
  bugs.Add({.function = "LOWER",
            .function_type = "string",
            .crash = CrashType::kUseAfterFree,
            .pattern = "P3.2",
            .trigger = TriggerKind::kArgTypeIs,
            .param_type = TypeKind::kJson,
            .description = "LOWER retains the serialized buffer of a JSON wrapper "
                           "after the box is freed"});
  // --- xml (3): NPD x3; P1.2 x3 --------------------------------------------------------------
  bugs.Add({.function = "EXTRACTVALUE",
            .function_type = "xml",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgEmptyString,
            .arg_index = 1,
            .description = "empty XPath dereferences a null step list"});
  bugs.Add({.function = "UPDATEXML",
            .function_type = "xml",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgIsNull,
            .arg_index = 1,
            .description = "NULL XPath box is dereferenced during path compilation"});
  bugs.Add({.function = "XML_VALID",
            .function_type = "xml",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgEmptyString,
            .arg_index = 0,
            .description = "empty document reaches the root-element accessor"});
  // --- system (15): NPD x8, SEGV x6, HBOF; P1.2 x11, P3.1 x3, P3.3 -----------------------------
  bugs.Add({.function = "CONTAINS",
            .function_type = "system",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgIsStar,
            .description = "CONTAINS('x','x',*) treats the star box as a search "
                           "option list (Case 2 of the paper)"});
  bugs.Add({.function = "SLEEP",
            .function_type = "system",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P1.2",
            .trigger = TriggerKind::kIntAtMost,
            .arg_index = 0,
            .threshold = -1000000,
            .description = "negative durations index the timer wheel backwards "
                           "into a null page"});
  bugs.Add({.function = "BENCHMARK",
            .function_type = "system",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P1.2",
            .trigger = TriggerKind::kIntAtLeast,
            .arg_index = 0,
            .threshold = 100000000000LL,
            .description = "1e11 iteration counts overflow the loop bookkeeping "
                           "box"});
  bugs.Add({.function = "TYPEOF",
            .function_type = "system",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgIsStar,
            .description = "TYPEOF(*) reads the tag byte of the null star box"});
  bugs.Add({.function = "CHARSET",
            .function_type = "system",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgEmptyString,
            .description = "CHARSET('') probes the charset of a zero-length box"});
  bugs.Add({.function = "COLLATION",
            .function_type = "system",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgEmptyString,
            .description = "COLLATION('') dereferences an empty collation chain"});
  bugs.Add({.function = "COERCIBILITY",
            .function_type = "system",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgIsNull,
            .description = "COERCIBILITY(NULL) skips the nil fast path and reads "
                           "the box tag"});
  bugs.Add({.function = "HASHINT",
            .function_type = "system",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgIsStar,
            .description = "HASHINT(*) hashes the star box payload pointer"});
  bugs.Add({.function = "AREF",
            .function_type = "system",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P1.2",
            .trigger = TriggerKind::kIntAtMost,
            .arg_index = 1,
            .threshold = -1000000000LL,
            .description = "AREF adds -1e9 indexes to the vector base before the "
                           "bounds check"});
  bugs.Add({.function = "SYS_STAT",
            .function_type = "system",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgEmptyString,
            .arg_index = 0,
            .description = "empty statistic names walk the stat table with an "
                           "uninitialized cursor"});
  bugs.Add({.function = "RDF_BOX",
            .function_type = "system",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P1.2",
            .trigger = TriggerKind::kArgIsNull,
            .arg_index = 0,
            .description = "RDF_BOX(NULL) boxes a null payload pointer"});
  bugs.Add({.function = "BLOB_TO_STRING",
            .function_type = "system",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P3.1",
            .trigger = TriggerKind::kStringLengthAtLeast,
            .arg_index = 0,
            .threshold = 300000,
            .description = "300 KB payloads overflow the blob page iterator"});
  bugs.Add({.function = "STRING_TO_BLOB",
            .function_type = "system",
            .crash = CrashType::kSegmentationViolation,
            .pattern = "P3.1",
            .trigger = TriggerKind::kStringLengthAtLeast,
            .arg_index = 0,
            .threshold = 300000,
            .description = "300 KB subjects split across pages with a stale "
                           "continuation pointer"});
  bugs.Add({.function = "INTERNAL_TYPE_NAME",
            .function_type = "system",
            .crash = CrashType::kHeapBufferOverflow,
            .pattern = "P3.1",
            .trigger = TriggerKind::kStringLengthAtLeast,
            .arg_index = 0,
            .threshold = 1000000,
            .description = "type-name rendering copies a 1 MB preview into a "
                           "fixed 128-byte label"});
  bugs.Add({.function = "VECTOR",
            .function_type = "system",
            .crash = CrashType::kNullPointerDereference,
            .pattern = "P3.3",
            .trigger = TriggerKind::kArgTypeIs,
            .param_type = TypeKind::kGeometry,
            .description = "VECTOR deep-copies geometry boxes via a null clone "
                           "hook"});

  // Seeded wrong-result corpus (inert until logic faults are enabled):
  // ground truth for the EET / differential logic oracles.
  LogicBugAdder logic(*db, "virtuoso");
  logic.Add({.function = "FLOOR",
             .function_type = "math",
             .effect = LogicEffect::kNegate,
             .scope = LogicScope::kConstArgs,
             .pattern = "L1.1",
             .description = "constant-folded FLOOR negates its result in the box "
                            "conversion"});
  logic.Add({.function = "REVERSE",
             .function_type = "string",
             .effect = LogicEffect::kOffByOne,
             .scope = LogicScope::kTopLevelCall,
             .pattern = "L2.1",
             .description = "top-level REVERSE appends a stray terminator byte"});
  logic.Add({.function = "LENGTH",
             .function_type = "string",
             .effect = LogicEffect::kNegate,
             .scope = LogicScope::kWherePredicate,
             .pattern = "L3.1",
             .description = "LENGTH inside a WHERE predicate returns a negated count"});
  return db;
}

}  // namespace soft
