#include "dataframe/csv.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/string_util.h"

namespace ccs::dataframe {

namespace internal {

namespace {

constexpr size_t kInitialBufferBytes = 64 * 1024;

// Removes the quoting of one field: a quote outside quotes opens them, a
// quote inside closes them unless doubled ("" stands for one quote).
std::string_view Unescape(std::string_view raw, std::string* out) {
  out->clear();
  bool in_quotes = false;
  for (size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    if (c != '"') {
      out->push_back(c);
    } else if (!in_quotes) {
      in_quotes = true;
    } else if (i + 1 < raw.size() && raw[i + 1] == '"') {
      out->push_back('"');
      ++i;
    } else {
      in_quotes = false;
    }
  }
  return *out;
}

}  // namespace

CsvTokenizer::CsvTokenizer(std::istream* in, char delimiter)
    : in_(in), delimiter_(delimiter), buffer_(kInitialBufferBytes) {
  for (char c : {'"', '\n', '\r', delimiter}) {
    special_[static_cast<unsigned char>(c)] = true;
  }
}

bool CsvTokenizer::Refill() {
  if (eof_) return false;
  if (begin_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (end_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
  // Never ask for a fixed amount: on a pipe that would block until it
  // arrived, holding back records that are already complete.
  std::streambuf* source = in_->rdbuf();
  std::streamsize available = source->in_avail();
  if (available <= 0) {
    using Traits = std::char_traits<char>;
    if (Traits::eq_int_type(source->sgetc(), Traits::eof())) {
      eof_ = true;
      return false;
    }
    // A streambuf without a get area (unbuffered stdio) reports 0 even
    // after the underflow; take the one byte it promised.
    available = std::max<std::streamsize>(source->in_avail(), 1);
  }
  const std::streamsize got = source->sgetn(
      buffer_.data() + end_,
      std::min<std::streamsize>(
          available, static_cast<std::streamsize>(buffer_.size() - end_)));
  if (got <= 0) {
    eof_ = true;
    return false;
  }
  end_ += static_cast<size_t>(got);
  return true;
}

StatusOr<bool> CsvTokenizer::Next() {
  fields_.clear();
  lines_ = 0;
  if (begin_ == end_ && !Refill()) return false;

  // Find the record's end and its delimiters outside quotes. A quote
  // just toggles quoted mode: a doubled quote inside quotes toggles it
  // twice, so the escape needs no lookahead here.
  splits_.clear();
  bool in_quotes = false;
  bool quoted = false;
  size_t newlines = 0;  // Inside quoted fields.
  size_t off = 0;       // Offset of the next byte to scan, from begin_.
  size_t consumed = 0;  // Record bytes plus terminator.
  while (true) {
    const char* record = buffer_.data() + begin_;
    const size_t buffered = end_ - begin_;
    for (; off < buffered; ++off) {
      const char c = record[off];
      if (!special_[static_cast<unsigned char>(c)]) continue;
      if (c == '"') {
        in_quotes = !in_quotes;
        quoted = true;
      } else if (in_quotes) {
        if (c == '\n') ++newlines;
      } else if (c == delimiter_) {
        splits_.push_back(off);
      } else if (c == '\n' || c == '\r') {
        break;
      }
    }
    if (off < buffered) {
      if (record[off] == '\n') {
        consumed = off + 1;
        break;
      }
      // A '\r' swallows one following '\n'.
      if (off + 1 < buffered) {
        consumed = off + (record[off + 1] == '\n' ? 2 : 1);
        break;
      }
      if (!Refill()) {
        consumed = off + 1;
        break;
      }
      continue;  // Rescan the '\r' with the byte after it in view.
    }
    if (!Refill()) {  // End of stream without a final newline.
      if (in_quotes) {
        lines_ = newlines + 1;
        begin_ = end_;
        return Status::InvalidArgument("unterminated quoted field");
      }
      consumed = off;
      break;
    }
  }

  // Split at the delimiters; only fields holding a quote are copied.
  const char* record = buffer_.data() + begin_;
  splits_.push_back(off);
  if (quoted && unescaped_.size() < splits_.size()) {
    unescaped_.resize(splits_.size());
  }
  size_t start = 0;
  for (size_t k = 0; k < splits_.size(); ++k) {
    std::string_view field(record + start, splits_[k] - start);
    if (quoted && field.find('"') != std::string_view::npos) {
      field = Unescape(field, &unescaped_[k]);
    }
    fields_.push_back(field);
    start = splits_[k] + 1;
  }
  begin_ += consumed;
  lines_ = newlines + 1;
  return true;
}

}  // namespace internal

namespace {

// Numeric-cell conversion shared by ReadCsv and CsvChunkReader: empty
// cells map to `missing`; nullopt means a non-empty cell that does not
// parse as a double.
std::optional<double> NumericCell(std::string_view cell, double missing) {
  cell = Trim(cell);
  if (cell.empty()) return missing;
  return ParseDouble(cell);
}

// One column's cells packed end to end: cell r is
// bytes[ends[r - 1], ends[r]).
struct PackedCells {
  std::string bytes;
  std::vector<size_t> ends;

  void Append(std::string_view cell) {
    bytes.append(cell);
    ends.push_back(bytes.size());
  }
  size_t size() const { return ends.size(); }
  std::string_view operator[](size_t r) const {
    const size_t begin = r == 0 ? 0 : ends[r - 1];
    return std::string_view(bytes).substr(begin, ends[r] - begin);
  }
};

// The column's values when every non-empty cell parses as a double and
// at least one cell is non-empty; nullopt otherwise (categorical).
std::optional<std::vector<double>> InferNumeric(const PackedCells& cells,
                                                double missing) {
  std::vector<double> values;
  values.reserve(cells.size());
  bool any_value = false;
  for (size_t r = 0; r < cells.size(); ++r) {
    const std::string_view cell = Trim(cells[r]);
    if (cell.empty()) {
      values.push_back(missing);
      continue;
    }
    any_value = true;
    std::optional<double> parsed = ParseDouble(cell);
    if (!parsed.has_value()) return std::nullopt;
    values.push_back(*parsed);
  }
  if (!any_value) return std::nullopt;  // All-empty column: categorical.
  return values;
}

Column InternCells(const PackedCells& cells) {
  DictionaryBuilder dict;
  std::vector<uint32_t> codes;
  codes.reserve(cells.size());
  std::string key;
  for (size_t r = 0; r < cells.size(); ++r) {
    key.assign(cells[r]);
    codes.push_back(dict.Intern(key));
  }
  return Column::CategoricalFromCodes(std::move(codes), dict.snapshot());
}

}  // namespace

StatusOr<DataFrame> ReadCsv(std::istream& in, const CsvOptions& options) {
  internal::CsvTokenizer tokenizer(&in, options.delimiter);
  std::vector<std::string> header;
  std::vector<PackedCells> cells;  // Column-major.
  size_t num_cols = 0;
  size_t row_index = 0;

  while (true) {
    StatusOr<bool> got_or = tokenizer.Next();
    if (!got_or.ok()) {
      return Status::InvalidArgument("CSV: " + got_or.status().message());
    }
    if (!*got_or) break;
    const std::vector<std::string_view>& record = tokenizer.fields();
    if (row_index == 0) {
      num_cols = record.size();
      cells.resize(num_cols);
      if (options.has_header) {
        for (std::string_view name : record) header.emplace_back(name);
        ++row_index;
        continue;
      }
    }
    if (record.size() != num_cols) {
      return Status::InvalidArgument(
          "CSV: row " + std::to_string(row_index) + " has " +
          std::to_string(record.size()) + " fields, expected " +
          std::to_string(num_cols));
    }
    for (size_t c = 0; c < num_cols; ++c) cells[c].Append(record[c]);
    ++row_index;
  }

  if (num_cols == 0) {
    return Status::InvalidArgument("CSV: empty input");
  }
  if (header.empty()) {
    for (size_t c = 0; c < num_cols; ++c) {
      header.push_back("c" + std::to_string(c));
    }
  }

  DataFrame df;
  for (size_t c = 0; c < num_cols; ++c) {
    std::optional<std::vector<double>> values;
    if (options.infer_types) {
      values = InferNumeric(cells[c], options.missing_numeric);
    }
    if (values.has_value()) {
      CCS_RETURN_IF_ERROR(df.AddNumericColumn(header[c], std::move(*values)));
    } else {
      CCS_RETURN_IF_ERROR(df.AddColumn(header[c], InternCells(cells[c])));
    }
    cells[c] = PackedCells();  // Release as the frame takes shape.
  }
  return df;
}

StatusOr<DataFrame> ReadCsvFile(const std::string& path,
                                const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open file: " + path);
  return ReadCsv(in, options);
}

CsvChunkReader::CsvChunkReader(std::istream* in, Schema schema,
                               CsvOptions options)
    : tokenizer_(in, options.delimiter),
      schema_(std::move(schema)),
      options_(options),
      dicts_(schema_.num_attributes()) {}

Status CsvChunkReader::ReadHeader() {
  col_map_.assign(schema_.num_attributes(), 0);
  if (!options_.has_header) {
    // Positional mapping: schema attribute i <- stream field i.
    stream_columns_ = schema_.num_attributes();
    for (size_t i = 0; i < schema_.num_attributes(); ++i) col_map_[i] = i;
    header_done_ = true;
    return Status::OK();
  }
  StatusOr<bool> got = tokenizer_.Next();
  if (!got.ok()) {
    return Status::InvalidArgument("CsvChunkReader: header (line 1): " +
                                   got.status().message());
  }
  line_ += tokenizer_.lines();
  if (!*got) {
    return Status::InvalidArgument("CsvChunkReader: empty input");
  }
  const std::vector<std::string_view>& header = tokenizer_.fields();
  stream_columns_ = header.size();
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    const std::string& name = schema_.attribute(i).name;
    auto found = std::find(header.begin(), header.end(), name);
    if (found == header.end()) {
      return Status::InvalidArgument(
          "CsvChunkReader: stream header is missing schema column '" + name +
          "'");
    }
    col_map_[i] = static_cast<size_t>(found - header.begin());
  }
  header_done_ = true;
  return Status::OK();
}

StatusOr<DataFrame> CsvChunkReader::ReadChunk(size_t max_rows) {
  // A malformed row diagnosed on the previous call (after good rows had
  // already been parsed into that chunk) was deferred so the good prefix
  // could be delivered first; surface it now.
  if (!pending_error_.ok()) {
    Status error = std::move(pending_error_);
    pending_error_ = Status::OK();
    return error;
  }
  if (!header_done_) CCS_RETURN_IF_ERROR(ReadHeader());

  const size_t m = schema_.num_attributes();
  // Reserved up front (capped, as max_rows may stand for "all").
  const size_t expected_rows = std::min<size_t>(max_rows, 1 << 16);
  std::vector<std::vector<double>> numeric(m);
  std::vector<std::vector<uint32_t>> categorical(m);
  for (size_t i = 0; i < m; ++i) {
    if (schema_.attribute(i).type == AttributeType::kNumeric) {
      numeric[i].reserve(expected_rows);
    } else {
      categorical[i].reserve(expected_rows);
    }
  }

  // Diagnoses the malformed record on physical line `record_line` and
  // either returns it (no rows parsed yet) or stashes it and truncates
  // the partially-parsed row, so the caller first receives every good
  // row and then — on its next call — the error. Teardown behavior is
  // therefore independent of where chunk boundaries fall.
  size_t rows = 0;
  Status malformed;
  while (rows < max_rows) {
    StatusOr<bool> got = tokenizer_.Next();
    const size_t record_line = line_ + 1;  // 1-based physical line.
    line_ += tokenizer_.lines();
    if (!got.ok()) {
      malformed = Status::InvalidArgument(
          "CsvChunkReader: line " + std::to_string(record_line) +
          " (data row " + std::to_string(rows_read_ + rows + 1) + "): " +
          got.status().message());
      break;
    }
    if (!*got) break;  // End of stream.
    const std::vector<std::string_view>& record = tokenizer_.fields();
    // Header-mapped streams must match the header width exactly (the
    // ragged-row rule of ReadCsv); headerless streams may carry extra
    // trailing fields beyond the schema's.
    bool ragged = options_.has_header ? record.size() != stream_columns_
                                      : record.size() < stream_columns_;
    if (ragged) {
      malformed = Status::InvalidArgument(
          "CsvChunkReader: line " + std::to_string(record_line) +
          " (data row " + std::to_string(rows_read_ + rows + 1) + "): has " +
          std::to_string(record.size()) + " fields, expected " +
          std::to_string(stream_columns_));
      break;
    }
    for (size_t i = 0; i < m; ++i) {
      const std::string_view cell = record[col_map_[i]];
      if (schema_.attribute(i).type == AttributeType::kNumeric) {
        auto parsed = NumericCell(cell, options_.missing_numeric);
        if (!parsed.has_value()) {
          malformed = Status::InvalidArgument(
              "CsvChunkReader: line " + std::to_string(record_line) +
              " (data row " + std::to_string(rows_read_ + rows + 1) +
              "), column '" + schema_.attribute(i).name + "' (stream field " +
              std::to_string(col_map_[i]) + "): cannot parse '" +
              std::string(cell) + "' as a number");
          break;
        }
        numeric[i].push_back(*parsed);
      } else {
        // Intern into the stream-lifetime dictionary: steady-state
        // chunks share one dictionary object, so downstream code paths
        // compare codes without consulting the strings.
        key_.assign(cell);
        categorical[i].push_back(dicts_[i].Intern(key_));
      }
    }
    if (!malformed.ok()) break;
    ++rows;
  }

  if (!malformed.ok()) {
    if (rows == 0) return malformed;  // Nothing good to deliver first.
    pending_error_ = std::move(malformed);
    // Drop the malformed row's partially-parsed cells: every per-column
    // vector must end at the last good row.
    for (size_t i = 0; i < m; ++i) {
      if (numeric[i].size() > rows) numeric[i].resize(rows);
      if (categorical[i].size() > rows) categorical[i].resize(rows);
    }
  }

  DataFrame df;
  for (size_t i = 0; i < m; ++i) {
    const Attribute& attr = schema_.attribute(i);
    if (attr.type == AttributeType::kNumeric) {
      CCS_RETURN_IF_ERROR(
          df.AddNumericColumn(attr.name, std::move(numeric[i])));
    } else {
      CCS_RETURN_IF_ERROR(df.AddColumn(
          attr.name, Column::CategoricalFromCodes(std::move(categorical[i]),
                                                  dicts_[i].snapshot())));
    }
  }
  rows_read_ += rows;
  return df;
}

namespace {

void WriteField(std::ostream& out, const std::string& field, char delimiter) {
  bool needs_quotes = field.find(delimiter) != std::string::npos ||
                      field.find('"') != std::string::npos ||
                      field.find('\n') != std::string::npos ||
                      field.find('\r') != std::string::npos;
  if (!needs_quotes) {
    out << field;
    return;
  }
  out << '"';
  for (char c : field) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

}  // namespace

Status WriteCsv(const DataFrame& df, std::ostream& out,
                const CsvOptions& options) {
  const char d = options.delimiter;
  if (options.has_header) {
    for (size_t c = 0; c < df.num_columns(); ++c) {
      if (c > 0) out << d;
      WriteField(out, df.schema().attribute(c).name, d);
    }
    out << '\n';
  }
  for (size_t r = 0; r < df.num_rows(); ++r) {
    for (size_t c = 0; c < df.num_columns(); ++c) {
      if (c > 0) out << d;
      const Column& col = df.column(c);
      if (col.is_numeric()) {
        out << FormatDouble(col.NumericAt(r));
      } else {
        WriteField(out, col.CategoricalAt(r), d);
      }
    }
    out << '\n';
  }
  if (!out) return Status::IoError("CSV write failed");
  return Status::OK();
}

Status WriteCsvFile(const DataFrame& df, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open file for write: " + path);
  return WriteCsv(df, out, options);
}

}  // namespace ccs::dataframe
