// The one JSON reader and string escaper in the tree. Every JSON format
// CCSynth reads (fault specs, scenario specs) or writes (those specs,
// Chrome traces, the metrics dump, `ccsynth gauntlet --json`) goes
// through this file.
//
// The reader is a strict cursor over a known schema, not a DOM: callers
// walk objects key by key and read each value with the typed getter the
// schema expects, so an unknown key or a wrong type is an error at the
// byte it occurs. It accepts exactly the JSON subset the formats use:
// objects, arrays, strings and numbers (no true/false/null). Integers
// are read exactly — never through a double — and strings decode
// exactly the escapes AppendJsonString emits.

#ifndef CCS_COMMON_JSON_H_
#define CCS_COMMON_JSON_H_

#include <charconv>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/statusor.h"

namespace ccs::common {

class JsonReader {
 public:
  /// Reads `text`, which must outlive the reader. `context` prefixes
  /// every error message, e.g. "fault spec JSON".
  JsonReader(std::string_view text, std::string context)
      : text_(text), context_(std::move(context)) {}

  /// Reads an object, calling `on_key` once per member with the cursor
  /// on the member's value; `on_key` must read that value (or return an
  /// error, e.g. Error("unknown key ...")).
  Status Object(const std::function<Status(const std::string& key)>& on_key);

  /// Reads an array, calling `on_element` with the cursor on each
  /// element; `on_element` must read it.
  Status Array(const std::function<Status()>& on_element);

  /// Reads a string. Escapes: \" \\ \/ \n \r \t and \u00XX for ASCII;
  /// any other escape, a raw control byte, or a missing closing quote is
  /// an error.
  Status String(std::string* out);

  /// Reads a finite number.
  Status Double(double* out);

  /// Reads an unsigned integer exactly. A sign, fraction, exponent or a
  /// value above the type's maximum is an error, never a silent cast.
  template <typename UInt>
  Status Uint(UInt* out) {
    static_assert(std::is_unsigned_v<UInt>, "Uint reads unsigned types");
    const std::string_view token = NumberToken();
    UInt value = 0;
    const char* end = token.data() + token.size();
    auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (token.empty() || ec != std::errc() || ptr != end) {
      return NotAnUnsignedInteger(token);
    }
    *out = value;
    return Status::OK();
  }

  /// Rejects anything but whitespace after the top-level value.
  Status Finish();

  /// InvalidArgument "<context>: <what>", for callers' schema errors.
  Status Error(const std::string& what) const;

 private:
  void SkipSpace();
  /// Skips whitespace, then consumes `c` if it is next.
  bool Consume(char c);
  Status Expect(char c);
  /// The maximal run of number characters at the cursor (may be empty).
  std::string_view NumberToken();
  Status NotAnUnsignedInteger(std::string_view token) const;

  std::string_view text_;
  std::string context_;
  size_t pos_ = 0;
};

/// Appends `s` as a quoted JSON string: `"` and `\` are backslashed,
/// \n \r \t use their short escapes, and every other byte below 0x20
/// becomes \u00XX. Bytes from 0x20 up are copied as-is.
void AppendJsonString(std::string* out, std::string_view s);

}  // namespace ccs::common

#endif  // CCS_COMMON_JSON_H_
