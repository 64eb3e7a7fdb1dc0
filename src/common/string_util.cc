#include "common/string_util.h"

#include <algorithm>
#include <cstdio>

namespace p3pdb {

bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }

bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

std::string_view TrimView(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && IsAsciiSpace(s[begin])) ++begin;
  size_t end = s.size();
  while (end > begin && IsAsciiSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::string Trim(std::string_view s) { return std::string(TrimView(s)); }

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    char ca = a[i], cb = b[i];
    if (ca >= 'A' && ca <= 'Z') ca = static_cast<char>(ca - 'A' + 'a');
    if (cb >= 'A' && cb <= 'Z') cb = static_cast<char>(cb - 'A' + 'a');
    if (ca != cb) return false;
  }
  return true;
}

bool LessIgnoreCase::operator()(std::string_view a, std::string_view b) const {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    auto ca = static_cast<unsigned char>(a[i]);
    auto cb = static_cast<unsigned char>(b[i]);
    if (ca >= 'A' && ca <= 'Z') ca = static_cast<unsigned char>(ca - 'A' + 'a');
    if (cb >= 'A' && cb <= 'Z') cb = static_cast<unsigned char>(cb - 'A' + 'a');
    if (ca != cb) return ca < cb;
  }
  return a.size() < b.size();
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  size_t pos = 0;
  while (pos < s.size()) {
    size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      break;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  return out;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char code[7];
          std::snprintf(code, sizeof(code), "\\u%04x",
                        static_cast<unsigned>(c));
          out += code;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string SqlQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('\'');
  for (char c : s) {
    if (c == '\'') out.push_back('\'');
    out.push_back(c);
  }
  out.push_back('\'');
  return out;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace p3pdb
