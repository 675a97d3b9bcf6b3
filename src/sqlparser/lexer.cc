#include "src/sqlparser/lexer.h"

#include "src/util/str_util.h"

namespace soft {

bool Token::IsKeyword(std::string_view keyword) const {
  return kind == TokenKind::kIdent && EqualsIgnoreCase(text, keyword);
}

namespace {

bool IsIdentStart(char c) {
  return IsAsciiAlpha(c) || c == '_';
}

bool IsIdentChar(char c) {
  return IsAsciiAlnum(c) || c == '_' || c == '$';
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view sql) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = sql.size();

  auto push = [&](TokenKind kind, std::string text, size_t offset) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.offset = offset;
    out.push_back(std::move(t));
  };

  while (i < n) {
    const char c = sql[i];
    if (IsAsciiSpace(c)) {
      ++i;
      continue;
    }
    // Line comments.
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') {
        ++i;
      }
      continue;
    }
    // Block comments.
    if (c == '/' && i + 1 < n && sql[i + 1] == '*') {
      const size_t close = sql.find("*/", i + 2);
      if (close == std::string_view::npos) {
        return ParseError("unterminated block comment");
      }
      i = close + 2;
      continue;
    }
    // Hex blob literal x'AB'.
    if ((c == 'x' || c == 'X') && i + 1 < n && sql[i + 1] == '\'') {
      const size_t start = i;
      size_t j = i + 2;
      std::string bytes;
      std::string hex;
      while (j < n && sql[j] != '\'') {
        hex.push_back(sql[j]);
        ++j;
      }
      if (j >= n) {
        return ParseError("unterminated hex literal");
      }
      if (hex.size() % 2 != 0) {
        return ParseError("odd-length hex literal");
      }
      for (size_t k = 0; k < hex.size(); k += 2) {
        auto nibble = [](char h) -> int {
          if (h >= '0' && h <= '9') {
            return h - '0';
          }
          if (h >= 'a' && h <= 'f') {
            return h - 'a' + 10;
          }
          if (h >= 'A' && h <= 'F') {
            return h - 'A' + 10;
          }
          return -1;
        };
        const int hi = nibble(hex[k]);
        const int lo = nibble(hex[k + 1]);
        if (hi < 0 || lo < 0) {
          return ParseError("invalid hex digit in blob literal");
        }
        bytes.push_back(static_cast<char>((hi << 4) | lo));
      }
      push(TokenKind::kBlobHex, std::move(bytes), start);
      i = j + 1;
      continue;
    }
    // Identifier / keyword.
    if (IsIdentStart(c)) {
      const size_t start = i;
      while (i < n && IsIdentChar(sql[i])) {
        ++i;
      }
      push(TokenKind::kIdent, std::string(sql.substr(start, i - start)), start);
      continue;
    }
    // Number: digits, optional fraction/exponent; also ".5" form.
    if (IsAsciiDigit(c) || (c == '.' && i + 1 < n && IsAsciiDigit(sql[i + 1]))) {
      const size_t start = i;
      bool seen_dot = false;
      bool seen_exp = false;
      while (i < n) {
        const char d = sql[i];
        if (IsAsciiDigit(d)) {
          ++i;
        } else if (d == '.' && !seen_dot && !seen_exp) {
          seen_dot = true;
          ++i;
        } else if ((d == 'e' || d == 'E') && !seen_exp && i + 1 < n &&
                   (IsAsciiDigit(sql[i + 1]) ||
                    ((sql[i + 1] == '+' || sql[i + 1] == '-') && i + 2 < n &&
                     IsAsciiDigit(sql[i + 2])))) {
          seen_exp = true;
          i += (sql[i + 1] == '+' || sql[i + 1] == '-') ? 2 : 1;
        } else {
          break;
        }
      }
      push(TokenKind::kNumber, std::string(sql.substr(start, i - start)), start);
      continue;
    }
    // String literal with '' escaping.
    if (c == '\'') {
      const size_t start = i;
      ++i;
      std::string content;
      for (;;) {
        if (i >= n) {
          return ParseError("unterminated string literal");
        }
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {
            content.push_back('\'');
            i += 2;
            continue;
          }
          ++i;
          break;
        }
        content.push_back(sql[i]);
        ++i;
      }
      push(TokenKind::kString, std::move(content), start);
      continue;
    }
    // Multi-char operators first.
    auto try_op = [&](std::string_view symbol) {
      if (sql.substr(i, symbol.size()) == symbol) {
        push(TokenKind::kOp, std::string(symbol), i);
        i += symbol.size();
        return true;
      }
      return false;
    };
    if (try_op("::") || try_op("||") || try_op("<=") || try_op(">=") || try_op("<>") ||
        try_op("!=")) {
      continue;
    }
    switch (c) {
      case '(':
      case ')':
      case ',':
      case ';':
      case '+':
      case '-':
      case '*':
      case '/':
      case '%':
      case '=':
      case '<':
      case '>':
      case '[':
      case ']':
      case '.':
        push(TokenKind::kOp, std::string(1, c), i);
        ++i;
        break;
      default:
        return ParseError("unexpected character '" + std::string(1, c) + "' at offset " +
                          std::to_string(i));
    }
  }
  push(TokenKind::kEnd, "", n);
  return out;
}

}  // namespace soft
