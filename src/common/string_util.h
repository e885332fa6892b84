// Small string helpers used by the CSV layer, constraint serialization
// and checkpoints.

#ifndef CCS_COMMON_STRING_UTIL_H_
#define CCS_COMMON_STRING_UTIL_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"

namespace ccs {

/// Splits `text` at every occurrence of `delimiter` (no quoting rules; the
/// CSV reader has its own quote-aware splitter).
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// Joins `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Parses a double; rejects trailing garbage, empty strings, NaN spellings.
std::optional<double> ParseDouble(std::string_view text);

/// Parses a base-10 integer; rejects trailing garbage and empty strings.
std::optional<int64_t> ParseInt(std::string_view text);

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Formats a double compactly (shortest representation round-tripping to
/// 10 significant digits, trailing zeros trimmed).
std::string FormatDouble(double value);

/// Lowercases ASCII characters.
std::string ToLower(std::string_view text);

/// Walks `text` one '\n'-separated line at a time — the cursor of the
/// line-oriented parsers (model files, checkpoints). Every read is
/// mandatory, so running out of lines is an error, not an empty line.
class LineReader {
 public:
  /// Reads `text`, which must outlive the reader. `error_prefix` leads
  /// the error Next returns past the last line.
  LineReader(std::string_view text, std::string error_prefix)
      : text_(text), error_prefix_(std::move(error_prefix)) {}

  /// The next line without its '\n'; InvalidArgument
  /// "<error_prefix>: unexpected end of input" past the last line.
  StatusOr<std::string> Next();

  /// 1-based number of the line Next last returned.
  size_t line_number() const { return line_number_; }

 private:
  std::string_view text_;
  std::string error_prefix_;
  size_t pos_ = 0;
  size_t line_number_ = 0;
};

}  // namespace ccs

#endif  // CCS_COMMON_STRING_UTIL_H_
