#include "src/sqlvalue/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "src/util/str_util.h"

namespace soft {

JsonPtr JsonValue::MakeNull() {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = JsonKind::kNull;
  return v;
}

JsonPtr JsonValue::MakeBool(bool b) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = JsonKind::kBool;
  v->data_ = b;
  return v;
}

JsonPtr JsonValue::MakeNumber(double n) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = JsonKind::kNumber;
  v->data_ = n;
  return v;
}

JsonPtr JsonValue::MakeString(std::string s) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = JsonKind::kString;
  v->data_ = std::move(s);
  return v;
}

JsonPtr JsonValue::MakeArray(Array items) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = JsonKind::kArray;
  v->data_ = std::move(items);
  return v;
}

JsonPtr JsonValue::MakeObject(Object members) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = JsonKind::kObject;
  v->data_ = std::move(members);
  return v;
}

int JsonValue::Depth() const {
  switch (kind_) {
    case JsonKind::kArray: {
      int best = 0;
      for (const auto& item : array_items()) {
        best = std::max(best, item->Depth());
      }
      return best + 1;
    }
    case JsonKind::kObject: {
      int best = 0;
      for (const auto& [key, val] : object_members()) {
        best = std::max(best, val->Depth());
      }
      return best + 1;
    }
    default:
      return 1;
  }
}

namespace {

void EscapeJsonString(std::string_view s, std::string& out) {
  out.reserve(out.size() + s.size() + 2);
  out.push_back('"');
  size_t plain = 0;  // start of the run of bytes copied as they are
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out.append(s, plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s, plain);
  out.push_back('"');
}

void SerializeTo(const JsonValue& v, std::string& out) {
  switch (v.kind()) {
    case JsonKind::kNull:
      out += "null";
      break;
    case JsonKind::kBool:
      out += v.bool_value() ? "true" : "false";
      break;
    case JsonKind::kNumber: {
      const double n = v.number_value();
      if (std::isfinite(n) && n == std::floor(n) && std::fabs(n) < 1e15) {
        out += std::to_string(static_cast<long long>(n));
      } else {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", n);
        out += buf;
      }
      break;
    }
    case JsonKind::kString:
      EscapeJsonString(v.string_value(), out);
      break;
    case JsonKind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& item : v.array_items()) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        SerializeTo(*item, out);
      }
      out.push_back(']');
      break;
    }
    case JsonKind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, val] : v.object_members()) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        EscapeJsonString(key, out);
        out.push_back(':');
        SerializeTo(*val, out);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(*this, out);
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class JsonParser {
 public:
  JsonParser(std::string_view text, int max_depth) : text_(text), max_depth_(max_depth) {}

  Result<JsonParseResult> Parse() {
    SkipWhitespace();
    SOFT_ASSIGN_OR_RETURN(JsonPtr root, ParseValue(1));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return InvalidArgument("trailing characters after JSON document");
    }
    JsonParseResult out;
    out.value = std::move(root);
    out.max_depth = deepest_;
    return out;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() && IsAsciiSpace(text_[pos_])) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonPtr> ParseValue(int depth) {
    deepest_ = std::max(deepest_, depth);
    if (depth > max_depth_) {
      return ResourceExhausted("JSON nesting depth limit exceeded");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return InvalidArgument("unexpected end of JSON input");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        SOFT_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::MakeString(std::move(s));
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          return JsonValue::MakeBool(true);
        }
        return InvalidArgument("malformed JSON literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          return JsonValue::MakeBool(false);
        }
        return InvalidArgument("malformed JSON literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          return JsonValue::MakeNull();
        }
        return InvalidArgument("malformed JSON literal");
      default:
        return ParseNumber();
    }
  }

  Result<JsonPtr> ParseArray(int depth) {
    ++pos_;  // consume '['
    JsonValue::Array items;
    SkipWhitespace();
    if (Consume(']')) {
      return JsonValue::MakeArray(std::move(items));
    }
    for (;;) {
      SOFT_ASSIGN_OR_RETURN(JsonPtr item, ParseValue(depth + 1));
      items.push_back(std::move(item));
      SkipWhitespace();
      if (Consume(']')) {
        return JsonValue::MakeArray(std::move(items));
      }
      if (!Consume(',')) {
        return InvalidArgument("expected ',' or ']' in JSON array");
      }
    }
  }

  Result<JsonPtr> ParseObject(int depth) {
    ++pos_;  // consume '{'
    JsonValue::Object members;
    SkipWhitespace();
    if (Consume('}')) {
      return JsonValue::MakeObject(std::move(members));
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return InvalidArgument("expected string key in JSON object");
      }
      SOFT_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) {
        return InvalidArgument("expected ':' in JSON object");
      }
      SOFT_ASSIGN_OR_RETURN(JsonPtr val, ParseValue(depth + 1));
      members.emplace_back(std::move(key), std::move(val));
      SkipWhitespace();
      if (Consume('}')) {
        return JsonValue::MakeObject(std::move(members));
      }
      if (!Consume(',')) {
        return InvalidArgument("expected ',' or '}' in JSON object");
      }
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // consume '"'
    std::string out;
    while (pos_ < text_.size()) {
      // Plain bytes up to the next quote or escape are appended as one run.
      const size_t run_start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
        ++pos_;
      }
      out.append(text_, run_start, pos_ - run_start);
      if (pos_ == text_.size()) {
        break;
      }
      if (text_[pos_++] == '"') {
        return out;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return InvalidArgument("truncated \\u escape in JSON string");
          }
          unsigned code = 0;
          auto [p, ec] = std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4,
                                         code, 16);
          if (ec != std::errc() || p != text_.data() + pos_ + 4) {
            return InvalidArgument("malformed \\u escape in JSON string");
          }
          pos_ += 4;
          // Encode as UTF-8 (BMP only; surrogates passed through raw).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return InvalidArgument("invalid escape in JSON string");
      }
    }
    return InvalidArgument("unterminated JSON string");
  }

  Result<JsonPtr> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (IsAsciiDigit(text_[pos_]) || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' || text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return InvalidArgument("malformed JSON value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double n = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return InvalidArgument("malformed JSON number");
    }
    return JsonValue::MakeNumber(n);
  }

  std::string_view text_;
  int max_depth_;
  size_t pos_ = 0;
  int deepest_ = 0;
};

Result<JsonParseResult> ParseJson(std::string_view text, int max_depth) {
  JsonParser parser(text, max_depth);
  return parser.Parse();
}

int ProbeJsonNestingDepth(std::string_view text) {
  int depth = 0;
  int best = 0;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '[':
      case '{':
        ++depth;
        best = std::max(best, depth);
        break;
      case ']':
      case '}':
        if (depth > 0) {
          --depth;
        }
        break;
      default:
        break;
    }
  }
  return best;
}

Result<JsonPtr> EvalJsonPath(const JsonPtr& root, std::string_view path) {
  if (path.empty() || path[0] != '$') {
    return InvalidArgument("JSON path must start with '$'");
  }
  JsonPtr cur = root;
  size_t pos = 1;
  while (pos < path.size()) {
    if (cur == nullptr) {
      return JsonPtr();
    }
    if (path[pos] == '.') {
      ++pos;
      const size_t start = pos;
      while (pos < path.size() && path[pos] != '.' && path[pos] != '[') {
        ++pos;
      }
      const std::string key(path.substr(start, pos - start));
      if (key.empty()) {
        return InvalidArgument("empty member name in JSON path");
      }
      if (cur->kind() != JsonKind::kObject) {
        return JsonPtr();
      }
      JsonPtr next;
      for (const auto& [k, v] : cur->object_members()) {
        if (k == key) {
          next = v;
          break;
        }
      }
      cur = next;
    } else if (path[pos] == '[') {
      const size_t close = path.find(']', pos);
      if (close == std::string_view::npos) {
        return InvalidArgument("unterminated index in JSON path");
      }
      const std::string_view idx_text = path.substr(pos + 1, close - pos - 1);
      size_t idx = 0;
      auto [p, ec] = std::from_chars(idx_text.data(), idx_text.data() + idx_text.size(), idx);
      if (ec != std::errc() || p != idx_text.data() + idx_text.size()) {
        return InvalidArgument("malformed index in JSON path");
      }
      pos = close + 1;
      if (cur->kind() != JsonKind::kArray || idx >= cur->array_items().size()) {
        cur = JsonPtr();
      } else {
        cur = cur->array_items()[idx];
      }
    } else {
      return InvalidArgument("malformed JSON path");
    }
  }
  return cur;
}

}  // namespace soft
