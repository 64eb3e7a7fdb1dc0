#include "sqldb/lexer.h"

#include <algorithm>
#include <limits>
#include <span>
#include <string>

namespace p3pdb::sqldb {

namespace {

constexpr bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}
constexpr bool IsDigit(char c) { return c >= '0' && c <= '9'; }
constexpr bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
constexpr bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }

struct KeywordEntry {
  std::string_view upper;
  Keyword id;
};

// The keywords grouped by length, so a lookup compares only same-length
// spellings.
constexpr KeywordEntry kLength2[] = {
    {"AS", Keyword::kAs}, {"BY", Keyword::kBy}, {"IF", Keyword::kIf},
    {"IN", Keyword::kIn}, {"IS", Keyword::kIs}, {"ON", Keyword::kOn},
    {"OR", Keyword::kOr}};
constexpr KeywordEntry kLength3[] = {
    {"AND", Keyword::kAnd}, {"ASC", Keyword::kAsc}, {"INT", Keyword::kInt},
    {"KEY", Keyword::kKey}, {"MAX", Keyword::kMax}, {"MIN", Keyword::kMin},
    {"NOT", Keyword::kNot}, {"SET", Keyword::kSet}, {"SUM", Keyword::kSum}};
constexpr KeywordEntry kLength4[] = {
    {"CHAR", Keyword::kChar}, {"CLOB", Keyword::kClob},
    {"DESC", Keyword::kDesc}, {"DROP", Keyword::kDrop},
    {"FROM", Keyword::kFrom}, {"INTO", Keyword::kInto},
    {"LIKE", Keyword::kLike}, {"NULL", Keyword::kNull},
    {"TEXT", Keyword::kText}, {"TRUE", Keyword::kTrue}};
constexpr KeywordEntry kLength5[] = {
    {"COUNT", Keyword::kCount}, {"FALSE", Keyword::kFalse},
    {"GROUP", Keyword::kGroup}, {"INDEX", Keyword::kIndex},
    {"LIMIT", Keyword::kLimit}, {"ORDER", Keyword::kOrder},
    {"TABLE", Keyword::kTable}, {"UNION", Keyword::kUnion},
    {"WHERE", Keyword::kWhere}};
constexpr KeywordEntry kLength6[] = {
    {"BIGINT", Keyword::kBigint}, {"CREATE", Keyword::kCreate},
    {"DELETE", Keyword::kDelete}, {"ESCAPE", Keyword::kEscape},
    {"EXISTS", Keyword::kExists}, {"INSERT", Keyword::kInsert},
    {"SELECT", Keyword::kSelect}, {"UNIQUE", Keyword::kUnique},
    {"UPDATE", Keyword::kUpdate}, {"VALUES", Keyword::kValues}};
constexpr KeywordEntry kLength7[] = {
    {"ANALYZE", Keyword::kAnalyze}, {"EXPLAIN", Keyword::kExplain},
    {"FOREIGN", Keyword::kForeign}, {"INTEGER", Keyword::kInteger},
    {"PRIMARY", Keyword::kPrimary}, {"VARCHAR", Keyword::kVarchar}};
constexpr KeywordEntry kLength8[] = {{"DISTINCT", Keyword::kDistinct}};
constexpr KeywordEntry kLength10[] = {
    {"REFERENCES", Keyword::kReferences}};

constexpr std::span<const KeywordEntry> kKeywordsByLength[] = {
    {}, {}, kLength2, kLength3, kLength4, kLength5, kLength6, kLength7,
    kLength8, {}, kLength10};

/// The keyword `word` spells, case-insensitively, or kNone. `word` holds
/// identifier characters only, so clearing bit 5 upper-cases its letters
/// and cannot turn a digit or '_' into a letter.
Keyword ClassifyWord(std::string_view word) {
  if (word.size() >= std::size(kKeywordsByLength)) return Keyword::kNone;
  char upper[std::size(kKeywordsByLength)];
  for (size_t i = 0; i < word.size(); ++i) {
    upper[i] = static_cast<char>(word[i] & ~0x20);
  }
  const std::string_view folded(upper, word.size());
  for (const KeywordEntry& kw : kKeywordsByLength[word.size()]) {
    if (kw.upper == folded) return kw.id;
  }
  return Keyword::kNone;
}

}  // namespace

std::string_view KeywordSpelling(Keyword kw) {
  for (std::span<const KeywordEntry> group : kKeywordsByLength) {
    for (const KeywordEntry& spelling : group) {
      if (spelling.id == kw) return spelling.upper;
    }
  }
  return {};
}

Result<TokenList> Tokenize(std::string_view sql) {
  TokenList list;
  std::vector<Token>& tokens = list.tokens_;
  // The translators' rule queries run at most one token per ~3.9 bytes of
  // text, so one token per 4 bytes (plus kEnd and a spare) keeps the vector
  // at a single allocation. Past 64 KiB of text (a script, a long literal)
  // the vector grows as usual rather than reserving ten times the text.
  constexpr size_t kMaxReservedText = 64 << 10;
  tokens.reserve(std::min(sql.size(), kMaxReservedText) / 4 + 2);
  size_t i = 0;
  const size_t n = sql.size();

  auto push = [&](TokenType type, std::string_view text, size_t offset) {
    Token& t = tokens.emplace_back();
    t.type = type;
    t.text = text;
    t.offset = offset;
    return &t;
  };

  while (i < n) {
    const char c = sql[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    const size_t start = i;
    if (IsIdentStart(c)) {
      ++i;
      while (i < n && IsIdentChar(sql[i])) ++i;
      const std::string_view word = sql.substr(start, i - start);
      push(TokenType::kIdentifier, word, start)->keyword = ClassifyWord(word);
      continue;
    }
    if (IsDigit(c)) {
      constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
      int64_t value = 0;
      while (i < n && IsDigit(sql[i])) {
        const int digit = sql[i] - '0';
        if (value > (kMax - digit) / 10) {
          return Status::ParseError("integer literal out of range at offset " +
                                    std::to_string(start));
        }
        value = value * 10 + digit;
        ++i;
      }
      push(TokenType::kInteger, sql.substr(start, i - start), start)
          ->int_value = value;
      continue;
    }
    if (c == '\'') {
      ++i;
      const size_t body = i;
      bool escaped = false;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {
            escaped = true;
            i += 2;
            continue;
          }
          closed = true;
          break;
        }
        ++i;
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start));
      }
      std::string_view text = sql.substr(body, i - body);
      ++i;  // closing quote
      if (escaped) {
        if (list.decoded_ == nullptr) {
          list.decoded_ = std::make_unique<char[]>(n);
        }
        char* out = list.decoded_.get() + list.decoded_size_;
        size_t len = 0;
        for (size_t k = 0; k < text.size(); ++k) {
          out[len++] = text[k];
          if (text[k] == '\'') ++k;  // the second quote of a '' pair
        }
        list.decoded_size_ += len;
        text = std::string_view(out, len);
      }
      push(TokenType::kString, text, start);
      continue;
    }
    switch (c) {
      case '(':
        push(TokenType::kLeftParen, "(", start);
        ++i;
        continue;
      case ')':
        push(TokenType::kRightParen, ")", start);
        ++i;
        continue;
      case ',':
        push(TokenType::kComma, ",", start);
        ++i;
        continue;
      case '.':
        push(TokenType::kDot, ".", start);
        ++i;
        continue;
      case '*':
        push(TokenType::kStar, "*", start);
        ++i;
        continue;
      case ';':
        push(TokenType::kSemicolon, ";", start);
        ++i;
        continue;
      case '?':
        push(TokenType::kQuestion, "?", start);
        ++i;
        continue;
      case '=':
        push(TokenType::kOperator, "=", start);
        ++i;
        continue;
      case '<':
        if (i + 1 < n && sql[i + 1] == '>') {
          push(TokenType::kOperator, "<>", start);
          i += 2;
        } else if (i + 1 < n && sql[i + 1] == '=') {
          push(TokenType::kOperator, "<=", start);
          i += 2;
        } else {
          push(TokenType::kOperator, "<", start);
          ++i;
        }
        continue;
      case '>':
        if (i + 1 < n && sql[i + 1] == '=') {
          push(TokenType::kOperator, ">=", start);
          i += 2;
        } else {
          push(TokenType::kOperator, ">", start);
          ++i;
        }
        continue;
      case '!':
        if (i + 1 < n && sql[i + 1] == '=') {
          push(TokenType::kOperator, "<>", start);
          i += 2;
          continue;
        }
        return Status::ParseError("unexpected '!' at offset " +
                                  std::to_string(start));
      default:
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at offset " + std::to_string(start));
    }
  }
  push(TokenType::kEnd, "", n);
  return list;
}

}  // namespace p3pdb::sqldb
