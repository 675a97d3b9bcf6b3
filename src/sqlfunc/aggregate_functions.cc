// Built-in aggregate functions.
//
// Aggregates are the paper's second-largest bug category (17.9% of
// occurrences) and its richest cross-type surface: they see every value a
// column can produce. SUM/AVG accumulate exactly in Decimal so digit-count
// boundaries (the MySQL AVG(1.2999…) global overflow) are observable;
// JSONB_OBJECT_AGG mirrors the CVE-2023-5868 unknown-type-argument surface.
#include <algorithm>
#include <cmath>

#include "src/sqlfunc/function.h"

namespace soft {
namespace {

class CountAggregator : public Aggregator {
 public:
  Status Accumulate(FunctionContext& ctx, const ValueList& args) override {
    if (args.empty() || args[0].is_star()) {
      ctx.Cover(1);
      ++count_;
      return OkStatus();
    }
    if (!args[0].is_null()) {
      ++count_;
    }
    return OkStatus();
  }
  Result<Value> Finalize(FunctionContext& ctx) override { return Value::Int(count_); }

 private:
  int64_t count_ = 0;
};

// Exact numeric accumulation: decimal until a double shows up.
class SumAggregator : public Aggregator {
 public:
  explicit SumAggregator(bool average) : average_(average) {}

  Status Accumulate(FunctionContext& ctx, const ValueList& args) override {
    const Value& v = args[0];
    if (v.is_null()) {
      return OkStatus();
    }
    if (!v.is_numeric()) {
      // Lenient engines coerce; strict ones error — honour the dialect.
      if (ctx.cast_options().strict) {
        ctx.Cover(1);
        return TypeError("SUM/AVG argument is not numeric");
      }
      ctx.Cover(2);
    }
    ++count_;
    if (v.kind() == TypeKind::kDouble || use_double_) {
      if (!use_double_) {
        ctx.Cover(3);
        use_double_ = true;
        dsum_ = sum_.ToDouble();
      }
      SOFT_ASSIGN_OR_RETURN(Value d, CoerceValue(v, TypeKind::kDouble, ctx.cast_options()));
      dsum_ += d.is_null() ? 0.0 : d.double_value();
      return OkStatus();
    }
    SOFT_ASSIGN_OR_RETURN(Value d, CoerceValue(v, TypeKind::kDecimal, ctx.cast_options()));
    if (d.is_null()) {
      return OkStatus();
    }
    if (d.decimal_value().total_digits() > Decimal::kMaxPrecision) {
      ctx.Cover(4);  // past-precision path: the fixed engines truncate safely
    }
    sum_ = Decimal::Add(sum_, d.decimal_value());
    return OkStatus();
  }

  Result<Value> Finalize(FunctionContext& ctx) override {
    if (count_ == 0) {
      ctx.Cover(5);
      return Value::Null();
    }
    if (use_double_) {
      return Value::DoubleVal(average_ ? dsum_ / static_cast<double>(count_) : dsum_);
    }
    if (!average_) {
      return Value::Dec(sum_);
    }
    SOFT_ASSIGN_OR_RETURN(Decimal avg, Decimal::Div(sum_, Decimal::FromInt64(count_), 8));
    return Value::Dec(avg);
  }

 private:
  bool average_;
  bool use_double_ = false;
  Decimal sum_;
  double dsum_ = 0;
  int64_t count_ = 0;
};

class ExtremeAggregator : public Aggregator {
 public:
  explicit ExtremeAggregator(bool want_max) : want_max_(want_max) {}

  Status Accumulate(FunctionContext& ctx, const ValueList& args) override {
    const Value& v = args[0];
    if (v.is_null()) {
      return OkStatus();
    }
    if (!has_value_) {
      best_ = v;
      has_value_ = true;
      return OkStatus();
    }
    const Result<int> cmp = Value::Compare(v, best_);
    if (!cmp.ok()) {
      ctx.Cover(1);
      return cmp.status();
    }
    if ((want_max_ && *cmp > 0) || (!want_max_ && *cmp < 0)) {
      best_ = v;
    }
    return OkStatus();
  }

  Result<Value> Finalize(FunctionContext& ctx) override {
    if (!has_value_) {
      ctx.Cover(2);
      return Value::Null();
    }
    return best_;
  }

 private:
  bool want_max_;
  bool has_value_ = false;
  Value best_;
};

class GroupConcatAggregator : public Aggregator {
 public:
  Status Accumulate(FunctionContext& ctx, const ValueList& args) override {
    if (args[0].is_null()) {
      return OkStatus();
    }
    // The views die with this call: out_ keeps copies.
    SOFT_ASSIGN_OR_RETURN(std::string_view s, ctx.ArgString(args[0]));
    std::string_view sep = ",";
    if (args.size() >= 2) {
      SOFT_ASSIGN_OR_RETURN(sep, ctx.ArgString(args[1]));
    }
    if (!out_.empty()) {
      out_ += sep;
    }
    out_ += s;
    if (out_.size() > ctx.limits().max_string_len) {
      ctx.Cover(1);
      return ResourceExhausted("GROUP_CONCAT result exceeds engine string limit");
    }
    empty_ = false;
    return OkStatus();
  }

  Result<Value> Finalize(FunctionContext& ctx) override {
    if (empty_) {
      ctx.Cover(2);
      return Value::Null();
    }
    return Value::Str(out_);
  }

 private:
  std::string out_;
  bool empty_ = true;
};

class VarianceAggregator : public Aggregator {
 public:
  explicit VarianceAggregator(bool stddev) : stddev_(stddev) {}

  Status Accumulate(FunctionContext& ctx, const ValueList& args) override {
    if (args[0].is_null()) {
      return OkStatus();
    }
    SOFT_ASSIGN_OR_RETURN(Value d, CoerceValue(args[0], TypeKind::kDouble,
                                               ctx.cast_options()));
    if (d.is_null()) {
      return OkStatus();
    }
    // Welford's online algorithm.
    ++n_;
    const double x = d.double_value();
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    return OkStatus();
  }

  Result<Value> Finalize(FunctionContext& ctx) override {
    if (n_ == 0) {
      ctx.Cover(1);
      return Value::Null();
    }
    const double var = m2_ / static_cast<double>(n_);
    return Value::DoubleVal(stddev_ ? std::sqrt(var) : var);
  }

 private:
  bool stddev_;
  int64_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
};

class BitAggregator : public Aggregator {
 public:
  enum class Op { kAnd, kOr, kXor };
  explicit BitAggregator(Op op)
      : op_(op), acc_(op == Op::kAnd ? ~0ull : 0ull) {}

  Status Accumulate(FunctionContext& ctx, const ValueList& args) override {
    if (args[0].is_null()) {
      return OkStatus();
    }
    SOFT_ASSIGN_OR_RETURN(int64_t v, ctx.ArgInt(args[0]));
    const uint64_t u = static_cast<uint64_t>(v);
    switch (op_) {
      case Op::kAnd:
        acc_ &= u;
        break;
      case Op::kOr:
        acc_ |= u;
        break;
      case Op::kXor:
        acc_ ^= u;
        break;
    }
    seen_ = true;
    return OkStatus();
  }

  Result<Value> Finalize(FunctionContext& ctx) override {
    if (!seen_ && op_ == Op::kAnd) {
      ctx.Cover(1);
      return Value::Int(-1);  // MySQL: BIT_AND of empty set = all ones
    }
    return Value::Int(static_cast<int64_t>(acc_));
  }

 private:
  Op op_;
  uint64_t acc_;
  bool seen_ = false;
};

// JSONB_OBJECT_AGG(key, value) — PostgreSQL-style. The reference behaviour
// stringifies the key argument through the audited cast path instead of
// assuming '\0' termination (the CVE-2023-5868 flaw).
class JsonObjectAggAggregator : public Aggregator {
 public:
  Status Accumulate(FunctionContext& ctx, const ValueList& args) override {
    if (args.size() < 2) {
      ctx.Cover(1);
      return InvalidArgument("JSONB_OBJECT_AGG requires key and value");
    }
    if (args[0].is_null()) {
      ctx.Cover(2);
      return InvalidArgument("JSONB_OBJECT_AGG key must not be NULL");
    }
    SOFT_ASSIGN_OR_RETURN(std::string_view key, ctx.ArgString(args[0]));
    JsonPtr val;
    switch (args[1].kind()) {
      case TypeKind::kNull:
        val = JsonValue::MakeNull();
        break;
      case TypeKind::kBool:
        val = JsonValue::MakeBool(args[1].bool_value());
        break;
      case TypeKind::kInt:
        val = JsonValue::MakeNumber(static_cast<double>(args[1].int_value()));
        break;
      case TypeKind::kDouble:
        val = JsonValue::MakeNumber(args[1].double_value());
        break;
      case TypeKind::kJson:
        val = args[1].json_value();
        break;
      default: {
        SOFT_ASSIGN_OR_RETURN(std::string_view text, ctx.ArgString(args[1]));
        val = JsonValue::MakeString(std::string(text));
      }
    }
    members_.emplace_back(std::string(key), std::move(val));
    return OkStatus();
  }

  Result<Value> Finalize(FunctionContext& ctx) override {
    return Value::JsonVal(JsonValue::MakeObject(members_));
  }

 private:
  JsonValue::Object members_;
};

class JsonArrayAggAggregator : public Aggregator {
 public:
  Status Accumulate(FunctionContext& ctx, const ValueList& args) override {
    switch (args[0].kind()) {
      case TypeKind::kNull:
        items_.push_back(JsonValue::MakeNull());
        break;
      case TypeKind::kInt:
        items_.push_back(JsonValue::MakeNumber(static_cast<double>(args[0].int_value())));
        break;
      case TypeKind::kDouble:
        items_.push_back(JsonValue::MakeNumber(args[0].double_value()));
        break;
      case TypeKind::kJson:
        items_.push_back(args[0].json_value());
        break;
      default: {
        SOFT_ASSIGN_OR_RETURN(std::string_view text, ctx.ArgString(args[0]));
        items_.push_back(JsonValue::MakeString(std::string(text)));
      }
    }
    return OkStatus();
  }

  Result<Value> Finalize(FunctionContext& ctx) override {
    return Value::JsonVal(JsonValue::MakeArray(items_));
  }

 private:
  JsonValue::Array items_;
};

class BoolAggregator : public Aggregator {
 public:
  explicit BoolAggregator(bool want_and) : want_and_(want_and), acc_(want_and) {}

  Status Accumulate(FunctionContext& ctx, const ValueList& args) override {
    if (args[0].is_null()) {
      return OkStatus();
    }
    SOFT_ASSIGN_OR_RETURN(Value b, CoerceValue(args[0], TypeKind::kBool,
                                               ctx.cast_options()));
    if (b.is_null()) {
      return OkStatus();
    }
    seen_ = true;
    acc_ = want_and_ ? (acc_ && b.bool_value()) : (acc_ || b.bool_value());
    return OkStatus();
  }

  Result<Value> Finalize(FunctionContext& ctx) override {
    if (!seen_) {
      ctx.Cover(1);
      return Value::Null();
    }
    return Value::Boolean(acc_);
  }

 private:
  bool want_and_;
  bool acc_;
  bool seen_ = false;
};

class MedianAggregator : public Aggregator {
 public:
  Status Accumulate(FunctionContext& ctx, const ValueList& args) override {
    if (args[0].is_null()) {
      return OkStatus();
    }
    SOFT_ASSIGN_OR_RETURN(Value d, CoerceValue(args[0], TypeKind::kDouble,
                                               ctx.cast_options()));
    if (!d.is_null()) {
      values_.push_back(d.double_value());
    }
    return OkStatus();
  }

  Result<Value> Finalize(FunctionContext& ctx) override {
    if (values_.empty()) {
      ctx.Cover(1);
      return Value::Null();
    }
    std::sort(values_.begin(), values_.end());
    const size_t n = values_.size();
    if (n % 2 == 1) {
      return Value::DoubleVal(values_[n / 2]);
    }
    ctx.Cover(2);
    return Value::DoubleVal((values_[n / 2 - 1] + values_[n / 2]) / 2.0);
  }

 private:
  std::vector<double> values_;
};

void Reg(FunctionRegistry& r, const char* name, int min_args, int max_args,
         AggregatorFactory factory, const char* doc, const char* example,
         bool accepts_star = false) {
  FunctionDef def;
  def.name = name;
  def.type = FunctionType::kAggregate;
  def.min_args = min_args;
  def.max_args = max_args;
  def.is_aggregate = true;
  def.accepts_star = accepts_star;
  def.null_propagates = false;  // aggregates handle NULL rows themselves
  def.aggregator = std::move(factory);
  def.doc = doc;
  def.example = example;
  r.Register(std::move(def));
}

}  // namespace

void RegisterAggregateFunctions(FunctionRegistry& r) {
  Reg(r, "COUNT", 1, 1, [] { return std::make_unique<CountAggregator>(); },
      "Row / non-NULL count", "COUNT(*)", /*accepts_star=*/true);
  Reg(r, "SUM", 1, 1, [] { return std::make_unique<SumAggregator>(false); },
      "Exact numeric sum", "SUM(1.5)");
  Reg(r, "AVG", 1, 1, [] { return std::make_unique<SumAggregator>(true); },
      "Arithmetic mean", "AVG(2)");
  Reg(r, "MIN", 1, 1, [] { return std::make_unique<ExtremeAggregator>(false); },
      "Smallest value", "MIN(3)");
  Reg(r, "MAX", 1, 1, [] { return std::make_unique<ExtremeAggregator>(true); },
      "Largest value", "MAX(3)");
  Reg(r, "GROUP_CONCAT", 1, 2, [] { return std::make_unique<GroupConcatAggregator>(); },
      "Concatenated group text", "GROUP_CONCAT('a')");
  Reg(r, "STRING_AGG", 2, 2, [] { return std::make_unique<GroupConcatAggregator>(); },
      "Concatenated group text with separator", "STRING_AGG('a', ',')");
  Reg(r, "STDDEV", 1, 1, [] { return std::make_unique<VarianceAggregator>(true); },
      "Population standard deviation", "STDDEV(1)");
  Reg(r, "VARIANCE", 1, 1, [] { return std::make_unique<VarianceAggregator>(false); },
      "Population variance", "VARIANCE(1)");
  Reg(r, "BIT_AND", 1, 1,
      [] { return std::make_unique<BitAggregator>(BitAggregator::Op::kAnd); },
      "Bitwise AND of a group", "BIT_AND(7)");
  Reg(r, "BIT_OR", 1, 1,
      [] { return std::make_unique<BitAggregator>(BitAggregator::Op::kOr); },
      "Bitwise OR of a group", "BIT_OR(1)");
  Reg(r, "BIT_XOR", 1, 1,
      [] { return std::make_unique<BitAggregator>(BitAggregator::Op::kXor); },
      "Bitwise XOR of a group", "BIT_XOR(1)");
  Reg(r, "JSONB_OBJECT_AGG", 2, 2,
      [] { return std::make_unique<JsonObjectAggAggregator>(); },
      "Aggregate key/value pairs into a JSON object", "JSONB_OBJECT_AGG('a', 1)");
  Reg(r, "JSON_ARRAYAGG", 1, 1, [] { return std::make_unique<JsonArrayAggAggregator>(); },
      "Aggregate values into a JSON array", "JSON_ARRAYAGG(1)");
  Reg(r, "BOOL_AND", 1, 1, [] { return std::make_unique<BoolAggregator>(true); },
      "Conjunction of a boolean group", "BOOL_AND(TRUE)");
  Reg(r, "BOOL_OR", 1, 1, [] { return std::make_unique<BoolAggregator>(false); },
      "Disjunction of a boolean group", "BOOL_OR(FALSE)");
  Reg(r, "MEDIAN", 1, 1, [] { return std::make_unique<MedianAggregator>(); },
      "Median of a numeric group", "MEDIAN(2)");
}

}  // namespace soft
