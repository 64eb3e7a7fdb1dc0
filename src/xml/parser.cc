#include "xml/parser.h"

#include <cstdio>

#include "common/string_util.h"

namespace p3pdb::xml {

namespace {

/// Cursor over the input with line/column tracking for error messages.
class Cursor {
 public:
  explicit Cursor(std::string_view input) : input_(input) {}

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return PeekAt(0); }
  char PeekAt(size_t offset) const {
    size_t i = pos_ + offset;
    return i < input_.size() ? input_[i] : '\0';
  }

  char Advance() {
    char c = input_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  bool Consume(char c) {
    if (!AtEnd() && Peek() == c) {
      Advance();
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (input_.substr(pos_).substr(0, lit.size()) != lit) return false;
    for (size_t i = 0; i < lit.size(); ++i) Advance();
    return true;
  }

  bool LooksAt(std::string_view lit) const {
    return input_.substr(pos_).substr(0, lit.size()) == lit;
  }

  void SkipWhitespace() {
    while (!AtEnd() && IsAsciiSpace(Peek())) Advance();
  }

  Status Error(std::string_view what) const {
    char loc[48];
    std::snprintf(loc, sizeof(loc), " at %zu:%zu", line_, col_);
    return Status::ParseError(std::string(what) + loc);
  }

  size_t pos() const { return pos_; }
  std::string_view Slice(size_t from, size_t to) const {
    return input_.substr(from, to - from);
  }

 private:
  std::string_view input_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t col_ = 1;
};

bool IsNameStartChar(char c) {
  return IsAsciiAlpha(c) || c == '_' || c == ':' ||
         static_cast<unsigned char>(c) >= 0x80;
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || IsAsciiDigit(c) || c == '-' || c == '.';
}

class Parser {
 public:
  explicit Parser(std::string_view input) : cur_(input) {}

  Result<Document> ParseDocument() {
    P3PDB_RETURN_IF_ERROR(SkipMisc());
    if (cur_.AtEnd() || cur_.Peek() != '<') {
      return cur_.Error("expected root element");
    }
    auto root = ParseElement();
    if (!root.ok()) return root.status();
    P3PDB_RETURN_IF_ERROR(SkipMisc());
    if (!cur_.AtEnd()) {
      return cur_.Error("trailing content after root element");
    }
    Document doc;
    doc.root = std::move(root).value();
    return doc;
  }

 private:
  /// Skips whitespace, comments, PIs, and DOCTYPE between markup.
  Status SkipMisc() {
    for (;;) {
      cur_.SkipWhitespace();
      if (cur_.LooksAt("<?")) {
        P3PDB_RETURN_IF_ERROR(SkipUntil("?>"));
      } else if (cur_.LooksAt("<!--")) {
        P3PDB_RETURN_IF_ERROR(SkipUntil("-->"));
      } else if (cur_.LooksAt("<!DOCTYPE")) {
        P3PDB_RETURN_IF_ERROR(SkipDoctype());
      } else {
        return Status::OK();
      }
    }
  }

  Status SkipUntil(std::string_view terminator) {
    while (!cur_.AtEnd()) {
      if (cur_.ConsumeLiteral(terminator)) return Status::OK();
      cur_.Advance();
    }
    return cur_.Error(std::string("unterminated construct, expected ") +
                      std::string(terminator));
  }

  Status SkipDoctype() {
    // Consume until the matching '>' at bracket depth zero; internal subsets
    // in [...] are skipped without expansion.
    int bracket_depth = 0;
    while (!cur_.AtEnd()) {
      char c = cur_.Advance();
      if (c == '[') ++bracket_depth;
      if (c == ']') --bracket_depth;
      if (c == '>' && bracket_depth <= 0) return Status::OK();
    }
    return cur_.Error("unterminated DOCTYPE");
  }

  Result<std::string> ParseName() {
    if (cur_.AtEnd() || !IsNameStartChar(cur_.Peek())) {
      return cur_.Error("expected name");
    }
    size_t start = cur_.pos();
    while (!cur_.AtEnd() && IsNameChar(cur_.Peek())) cur_.Advance();
    return std::string(cur_.Slice(start, cur_.pos()));
  }

  Result<std::string> ParseAttrValue() {
    char quote = cur_.Peek();
    if (quote != '"' && quote != '\'') {
      return cur_.Error("expected quoted attribute value");
    }
    cur_.Advance();
    size_t start = cur_.pos();
    while (!cur_.AtEnd() && cur_.Peek() != quote) {
      if (cur_.Peek() == '<') return cur_.Error("'<' in attribute value");
      cur_.Advance();
    }
    if (cur_.AtEnd()) return cur_.Error("unterminated attribute value");
    std::string_view raw = cur_.Slice(start, cur_.pos());
    cur_.Advance();  // closing quote
    return DecodeEntities(raw);
  }

  Result<std::unique_ptr<Element>> ParseElement() {
    if (!cur_.Consume('<')) return cur_.Error("expected '<'");
    P3PDB_ASSIGN_OR_RETURN(std::string name, ParseName());
    auto elem = std::make_unique<Element>(std::move(name));

    // Attributes.
    for (;;) {
      cur_.SkipWhitespace();
      if (cur_.AtEnd()) return cur_.Error("unterminated start tag");
      char c = cur_.Peek();
      if (c == '>' || c == '/') break;
      P3PDB_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      cur_.SkipWhitespace();
      if (!cur_.Consume('=')) return cur_.Error("expected '=' in attribute");
      cur_.SkipWhitespace();
      P3PDB_ASSIGN_OR_RETURN(std::string value, ParseAttrValue());
      if (elem->HasAttr(attr_name)) {
        return cur_.Error("duplicate attribute '" + attr_name + "'");
      }
      elem->SetAttr(attr_name, value);
    }

    if (cur_.Consume('/')) {
      if (!cur_.Consume('>')) return cur_.Error("expected '>' after '/'");
      return elem;  // self-closing
    }
    if (!cur_.Consume('>')) return cur_.Error("expected '>'");

    // Content.
    for (;;) {
      if (cur_.AtEnd()) {
        return cur_.Error("unterminated element '" + elem->name() + "'");
      }
      if (cur_.LooksAt("</")) {
        cur_.ConsumeLiteral("</");
        P3PDB_ASSIGN_OR_RETURN(std::string end_name, ParseName());
        if (end_name != elem->name()) {
          return cur_.Error("mismatched end tag '" + end_name +
                            "', expected '" + elem->name() + "'");
        }
        cur_.SkipWhitespace();
        if (!cur_.Consume('>')) return cur_.Error("expected '>' in end tag");
        return elem;
      }
      if (cur_.LooksAt("<!--")) {
        P3PDB_RETURN_IF_ERROR(SkipUntil("-->"));
        continue;
      }
      if (cur_.LooksAt("<![CDATA[")) {
        cur_.ConsumeLiteral("<![CDATA[");
        size_t start = cur_.pos();
        for (;;) {
          if (cur_.AtEnd()) return cur_.Error("unterminated CDATA");
          if (cur_.LooksAt("]]>")) break;
          cur_.Advance();
        }
        elem->AppendText(cur_.Slice(start, cur_.pos()));
        cur_.ConsumeLiteral("]]>");
        continue;
      }
      if (cur_.LooksAt("<?")) {
        P3PDB_RETURN_IF_ERROR(SkipUntil("?>"));
        continue;
      }
      if (cur_.Peek() == '<') {
        auto child = ParseElement();
        if (!child.ok()) return child.status();
        elem->AddChild(std::move(child).value());
        continue;
      }
      // Character data up to the next '<'.
      size_t start = cur_.pos();
      while (!cur_.AtEnd() && cur_.Peek() != '<') cur_.Advance();
      P3PDB_ASSIGN_OR_RETURN(std::string text,
                             DecodeEntities(cur_.Slice(start, cur_.pos())));
      elem->AppendText(text);
    }
  }

  Cursor cur_;
};

}  // namespace

Result<Document> Parse(std::string_view input) {
  Parser parser(input);
  return parser.ParseDocument();
}

Result<std::string> DecodeEntities(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '&') {
      out.push_back(s[i]);
      continue;
    }
    size_t semi = s.find(';', i + 1);
    if (semi == std::string_view::npos) {
      return Status::ParseError("unterminated entity reference");
    }
    std::string_view name = s.substr(i + 1, semi - i - 1);
    if (name == "lt") {
      out.push_back('<');
    } else if (name == "gt") {
      out.push_back('>');
    } else if (name == "amp") {
      out.push_back('&');
    } else if (name == "apos") {
      out.push_back('\'');
    } else if (name == "quot") {
      out.push_back('"');
    } else if (!name.empty() && name[0] == '#') {
      int base = 10;
      std::string_view digits = name.substr(1);
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        base = 16;
        digits = digits.substr(1);
      }
      if (digits.empty()) return Status::ParseError("empty character ref");
      unsigned long code = 0;
      for (char c : digits) {
        int d;
        if (IsAsciiDigit(c)) {
          d = c - '0';
        } else if (base == 16 && c >= 'a' && c <= 'f') {
          d = c - 'a' + 10;
        } else if (base == 16 && c >= 'A' && c <= 'F') {
          d = c - 'A' + 10;
        } else {
          return Status::ParseError("bad character reference &" +
                                    std::string(name) + ";");
        }
        code = code * base + static_cast<unsigned long>(d);
        if (code > 0x10FFFF) {
          return Status::ParseError("character reference out of range");
        }
      }
      // UTF-8 encode.
      if (code < 0x80) {
        out.push_back(static_cast<char>(code));
      } else if (code < 0x800) {
        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else if (code < 0x10000) {
        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else {
        out.push_back(static_cast<char>(0xF0 | (code >> 18)));
        out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      }
    } else {
      return Status::ParseError("unknown entity &" + std::string(name) + ";");
    }
    i = semi;
  }
  return out;
}

std::string EncodeEntities(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace p3pdb::xml
