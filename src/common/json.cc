#include "common/json.h"

#include <optional>

#include "common/string_util.h"

namespace ccs::common {

namespace {

bool IsNumberChar(char c) {
  return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
         c == 'e' || c == 'E';
}

}  // namespace

Status JsonReader::Object(
    const std::function<Status(const std::string& key)>& on_key) {
  CCS_RETURN_IF_ERROR(Expect('{'));
  if (Consume('}')) return Status::OK();
  while (true) {
    std::string key;
    CCS_RETURN_IF_ERROR(String(&key));
    CCS_RETURN_IF_ERROR(Expect(':'));
    CCS_RETURN_IF_ERROR(on_key(key));
    if (Consume('}')) return Status::OK();
    CCS_RETURN_IF_ERROR(Expect(','));
  }
}

Status JsonReader::Array(const std::function<Status()>& on_element) {
  CCS_RETURN_IF_ERROR(Expect('['));
  if (Consume(']')) return Status::OK();
  while (true) {
    CCS_RETURN_IF_ERROR(on_element());
    if (Consume(']')) return Status::OK();
    CCS_RETURN_IF_ERROR(Expect(','));
  }
}

Status JsonReader::String(std::string* out) {
  CCS_RETURN_IF_ERROR(Expect('"'));
  const size_t start = pos_ - 1;
  out->clear();
  while (pos_ < text_.size() && text_[pos_] != '"') {
    const char c = text_[pos_++];
    if (static_cast<unsigned char>(c) < 0x20) {
      return Error("raw control byte in string at offset " +
                   std::to_string(pos_ - 1));
    }
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) break;  // Reported as unterminated below.
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': case '\\': case '/': out->push_back(esc); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        // ASCII code points only: the writer never emits more, and a
        // higher one would need UTF-8 encoding.
        const std::string_view hex = text_.substr(pos_, 4);
        unsigned code = 0;
        auto [ptr, ec] =
            std::from_chars(hex.data(), hex.data() + hex.size(), code, 16);
        if (hex.size() != 4 || ec != std::errc() ||
            ptr != hex.data() + hex.size() || code >= 0x80) {
          return Error("unsupported \\u escape at offset " +
                       std::to_string(pos_ - 2));
        }
        out->push_back(static_cast<char>(code));
        pos_ += 4;
        break;
      }
      default:
        return Error("unknown escape at offset " + std::to_string(pos_ - 2));
    }
  }
  if (pos_ >= text_.size()) {
    return Error("unterminated string at offset " + std::to_string(start));
  }
  ++pos_;  // Closing quote.
  return Status::OK();
}

Status JsonReader::Double(double* out) {
  const std::string_view token = NumberToken();
  std::optional<double> v = ParseDouble(token);
  if (!v.has_value()) {
    return Error("bad number at " + std::to_string(pos_ - token.size()));
  }
  *out = *v;
  return Status::OK();
}

Status JsonReader::Finish() {
  SkipSpace();
  if (pos_ != text_.size()) return Error("trailing content");
  return Status::OK();
}

Status JsonReader::Error(const std::string& what) const {
  return Status::InvalidArgument(context_ + ": " + what);
}

void JsonReader::SkipSpace() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
          text_[pos_] == '\t')) {
    ++pos_;
  }
}

bool JsonReader::Consume(char c) {
  SkipSpace();
  if (pos_ >= text_.size() || text_[pos_] != c) return false;
  ++pos_;
  return true;
}

Status JsonReader::Expect(char c) {
  if (Consume(c)) return Status::OK();
  return Error(std::string("expected '") + c + "' at offset " +
               std::to_string(pos_));
}

std::string_view JsonReader::NumberToken() {
  SkipSpace();
  const size_t start = pos_;
  while (pos_ < text_.size() && IsNumberChar(text_[pos_])) ++pos_;
  return text_.substr(start, pos_ - start);
}

Status JsonReader::NotAnUnsignedInteger(std::string_view token) const {
  return Error("expected an unsigned integer at offset " +
               std::to_string(pos_ - token.size()) + ", got '" +
               std::string(token) + "'");
}

void AppendJsonString(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += "\\u00";
          out->push_back(kHex[c >> 4]);
          out->push_back(kHex[c & 0xf]);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace ccs::common
