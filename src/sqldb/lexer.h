// SQL tokenizer.
//
// Zero-copy: a token's text is a view into the SQL text handed to Tokenize,
// so the text must outlive the TokenList. The two exceptions own or borrow
// stable storage instead: a '' -escaped string literal is decoded into a
// buffer the TokenList owns, and `!=` yields the static spelling `<>`.
// Identifiers are classified against the dialect's keywords once, here, so
// the parser compares Keyword ids instead of spellings.

#ifndef P3PDB_SQLDB_LEXER_H_
#define P3PDB_SQLDB_LEXER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace p3pdb::sqldb {

enum class TokenType {
  kIdentifier,  // unquoted word that is not punctuation (keywords included)
  kString,      // 'text' with '' escaping
  kInteger,     // [0-9]+
  kOperator,    // = <> != < <= > >=
  kLeftParen,
  kRightParen,
  kComma,
  kDot,
  kStar,
  kSemicolon,
  kQuestion,    // ? bind-parameter placeholder
  kEnd,
};

/// Every word the parser treats as a keyword (matched case-insensitively).
/// Keywords are not reserved: an identifier token carries its keyword id
/// and still serves as a table, column or alias name where one is expected.
enum class Keyword : uint8_t {
  kNone,  // not a keyword (or not an identifier token)
  kAnalyze, kAnd, kAs, kAsc, kBigint, kBy, kChar, kClob, kCount, kCreate,
  kDelete, kDesc, kDistinct, kDrop, kEscape, kExists, kExplain, kFalse,
  kForeign, kFrom, kGroup, kIf, kIn, kIndex, kInsert, kInt, kInteger, kInto,
  kIs, kKey, kLike, kLimit, kMax, kMin, kNot, kNull, kOn, kOr, kOrder,
  kPrimary, kReferences, kSelect, kSet, kSum, kTable, kText, kTrue, kUnion,
  kUnique, kUpdate, kValues, kVarchar, kWhere,
};

/// The keyword's upper-case spelling ("" for kNone), for error messages.
std::string_view KeywordSpelling(Keyword kw);

struct Token {
  TokenType type = TokenType::kEnd;
  Keyword keyword = Keyword::kNone;  // identifiers only
  std::string_view text;  // identifier spelling / operator / decoded string
  int64_t int_value = 0;
  size_t offset = 0;      // byte offset in the input, for error messages

  bool IsKeyword(Keyword kw) const { return keyword == kw; }
};

/// The tokens of one SQL text; always ends with a kEnd token. Moving the
/// list keeps every token's text valid.
class TokenList {
 public:
  const Token& operator[](size_t i) const { return tokens_[i]; }
  size_t size() const { return tokens_.size(); }
  const Token& back() const { return tokens_.back(); }
  std::vector<Token>::const_iterator begin() const { return tokens_.begin(); }
  std::vector<Token>::const_iterator end() const { return tokens_.end(); }

 private:
  friend Result<TokenList> Tokenize(std::string_view sql);

  std::vector<Token> tokens_;
  // Decoded '' -escaped literals, packed back to back. Allocated at the
  // text's length on the first escape (decoding only shrinks a literal), so
  // it never reallocates and views into it stay valid.
  std::unique_ptr<char[]> decoded_;
  size_t decoded_size_ = 0;
};

/// Tokenizes `sql`. Comments (`-- ...` to end of line) are skipped. Integer
/// literals beyond int64 are a ParseError.
Result<TokenList> Tokenize(std::string_view sql);

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_LEXER_H_
