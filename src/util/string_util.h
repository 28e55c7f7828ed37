// Small string helpers shared across parsers and table printers.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace shapestats {

/// Hashes std::string and std::string_view alike, so a StringMap can be
/// probed with a view and no temporary std::string.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view key) const {
    return std::hash<std::string_view>{}(key);
  }
};

/// A std::string-keyed hash map with heterogeneous (string_view) lookup.
template <typename V>
using StringMap =
    std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// True for the six characters std::isspace accepts in the C locale:
/// ' ', '\t', '\n', '\v', '\f', '\r'. Inline, and free of the locale call
/// std::isspace makes, so tokenizers can test every byte with it.
inline bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Strips ASCII whitespace (IsAsciiSpace) from both ends.
std::string_view Trim(std::string_view s);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Formats an integer with thousands separators: 1234567 -> "1,234,567".
std::string WithCommas(uint64_t n);

/// Formats a double compactly (up to 2 decimals, trailing zeros trimmed).
std::string CompactDouble(double v);

/// Escapes a literal for N-Triples output (backslash, quote, newline, tab).
std::string EscapeLiteral(std::string_view raw);

/// Reverses EscapeLiteral.
std::string UnescapeLiteral(std::string_view escaped);

/// Reads a whole file into a string: a copy of its FileView (util/file_view.h).
Result<std::string> ReadFile(const std::string& path);

}  // namespace shapestats
