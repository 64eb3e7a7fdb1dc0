// Small string helpers shared by the lexers, parsers, and writers.

#ifndef P3PDB_COMMON_STRING_UTIL_H_
#define P3PDB_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace p3pdb {

/// Returns `s` with leading and trailing ASCII whitespace removed.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lower-casing (P3P vocabulary tokens are ASCII).
std::string ToLower(std::string_view s);

/// Case-insensitive ASCII equality (SQL keywords).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Case-insensitive ASCII ordering: the order of the lower-cased strings.
/// Transparent, so a map keyed by it finds a std::string_view with no
/// lower-cased copy.
struct LessIgnoreCase {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const;
};

bool IsAsciiSpace(char c);
bool IsAsciiDigit(char c);
bool IsAsciiAlpha(char c);

/// Replaces every occurrence of `from` (non-empty) in `s` with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// Escapes a string for inclusion in a single-quoted SQL literal
/// (doubles embedded quotes).
std::string SqlQuote(std::string_view s);

/// Escapes `s` for the inside of a JSON string literal: `"` and `\` take a
/// backslash, newline, carriage return and tab their short escapes, and
/// every other byte below 0x20 becomes \u00XX.
std::string JsonEscape(std::string_view s);

/// Formats a double with `digits` fractional digits (for report tables).
std::string FormatDouble(double value, int digits);

}  // namespace p3pdb

#endif  // P3PDB_COMMON_STRING_UTIL_H_
