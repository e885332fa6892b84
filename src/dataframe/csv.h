// CSV reader (with type inference) and writer for DataFrames.

#ifndef CCS_DATAFRAME_CSV_H_
#define CCS_DATAFRAME_CSV_H_

#include <array>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "dataframe/dataframe.h"

namespace ccs::dataframe {

/// CSV parsing options.
struct CsvOptions {
  char delimiter = ',';
  /// First line holds column names. When false, columns are named c0..cK.
  bool has_header = true;
  /// A column is inferred numeric iff every non-empty cell parses as a
  /// double; otherwise it is categorical. When false, all columns are
  /// categorical.
  bool infer_types = true;
  /// Replacement for empty cells in a column inferred numeric.
  double missing_numeric = 0.0;
};

/// Parses a CSV stream into a DataFrame.
///
/// Supports RFC-4180-style double-quoted fields with embedded delimiters,
/// quotes ("" escaping), and newlines. Returns InvalidArgument on ragged
/// rows or unterminated quotes. Every cell is held (packed per column)
/// until EOF, because a column's type is known only once all of its
/// cells have been seen.
StatusOr<DataFrame> ReadCsv(std::istream& in,
                            const CsvOptions& options = CsvOptions());

/// Reads a CSV file from disk. IoError if the file cannot be opened.
StatusOr<DataFrame> ReadCsvFile(const std::string& path,
                                const CsvOptions& options = CsvOptions());

namespace internal {

/// Splits a CSV byte stream into records: the one record splitter behind
/// ReadCsv and CsvChunkReader.
///
/// Bytes are copied from the stream's buffer into a reusable buffer
/// (64 KiB, doubled only when one record does not fit) and each record's
/// fields are yielded as views into it. A field holding a quote is
/// unescaped into a reused scratch string instead. A refill takes only
/// what the streambuf already holds (in_avail), and blocks in one
/// underflow only when it holds nothing, so a record is returned as soon
/// as its terminating newline has arrived: a live pipe is never read
/// past the record being parsed, except for the one byte a bare '\r'
/// needs to tell "\r" from "\r\n".
class CsvTokenizer {
 public:
  /// Reads from `in` (not owned; must outlive the tokenizer).
  CsvTokenizer(std::istream* in, char delimiter);

  /// Reads the next record into fields(). Returns false at end of stream
  /// with nothing consumed, and InvalidArgument "unterminated quoted
  /// field" when the stream ends inside quotes (the rest of the stream
  /// is then consumed). A record ends at '\n', "\r\n", a bare '\r' or
  /// EOF; an empty line is a record with one empty field.
  StatusOr<bool> Next();

  /// The last record's fields, unescaped. Views are invalidated by the
  /// next call to Next.
  const std::vector<std::string_view>& fields() const { return fields_; }

  /// Physical lines the last Next consumed: 1 plus the newlines inside
  /// quoted fields, counting a final line without a newline as one; 0 at
  /// end of stream.
  size_t lines() const { return lines_; }

 private:
  // Appends what the stream holds to the buffer, after moving the
  // unconsumed bytes to its front. False at end of stream.
  bool Refill();

  std::istream* in_;
  char delimiter_;
  std::array<bool, 256> special_{};  // Quote, newlines, delimiter.
  std::vector<char> buffer_;
  size_t begin_ = 0;  // First unconsumed byte.
  size_t end_ = 0;    // One past the last buffered byte.
  bool eof_ = false;
  std::vector<size_t> splits_;  // Delimiter offsets within the record.
  std::vector<std::string_view> fields_;
  std::vector<std::string> unescaped_;  // Scratch for quoted fields.
  size_t lines_ = 0;
};

}  // namespace internal

/// Incremental, schema-driven CSV reader for streaming ingestion.
///
/// Unlike ReadCsv, which must see every cell before it can infer column
/// types, CsvChunkReader is given the schema up front (typically the
/// reference DataFrame's) and parses a bounded number of rows per call,
/// so a serving pipeline can start scoring long before EOF and its
/// memory stays proportional to the chunk size. The stream must carry
/// every schema column: matched by header name when options.has_header
/// is true (extra stream columns are ignored), positionally otherwise.
/// Numeric cells must parse as doubles; empty numeric cells map to
/// options.missing_numeric.
///
/// Categorical cells are interned at parse time into a per-column
/// dictionary that persists across chunks: once a stream's categorical
/// domain has been seen, chunks share one dictionary object, so
/// downstream consumers (Windower, PartitionBy, grouped scoring) compare
/// integer codes and never re-hash strings.
class CsvChunkReader {
 public:
  /// Reads from `in` (not owned; must outlive the reader) rows shaped
  /// like `schema`.
  CsvChunkReader(std::istream* in, Schema schema,
                 CsvOptions options = CsvOptions());

  /// Parses up to `max_rows` data rows into a DataFrame with exactly
  /// the schema's columns in schema order. Returns a 0-row frame at end
  /// of stream; InvalidArgument on ragged rows, unparseable numeric
  /// cells, unterminated quotes, or a header missing schema columns.
  ///
  /// Malformed mid-stream rows are diagnosed structurally — the error
  /// message carries the 1-based physical line, the 1-based data row,
  /// and (for cell errors) the schema column, stream field index, and
  /// offending cell text. When good rows were already parsed into the
  /// current chunk, that good prefix is returned first and the error is
  /// deferred to the *next* ReadChunk call, so every well-formed row
  /// before the malformation is delivered exactly once regardless of
  /// where chunk boundaries fall (StreamPipeline scores those windows,
  /// then tears down cleanly with this status).
  StatusOr<DataFrame> ReadChunk(size_t max_rows);

  /// Data rows successfully returned so far (header excluded).
  size_t rows_read() const { return rows_read_; }

  /// Physical lines consumed so far (header and quoted-field newlines
  /// included) — the line counter the malformed-row diagnostics report.
  size_t lines_consumed() const { return line_; }

  const Schema& schema() const { return schema_; }

 private:
  Status ReadHeader();

  internal::CsvTokenizer tokenizer_;
  Schema schema_;
  CsvOptions options_;
  std::vector<size_t> col_map_;  // schema index -> stream field index
  // One persistent interner per categorical schema slot (unused entries
  // stay empty for numeric slots).
  std::vector<DictionaryBuilder> dicts_;
  std::string key_;  // Reused lookup key for interning categorical cells.
  size_t stream_columns_ = 0;
  bool header_done_ = false;
  size_t rows_read_ = 0;
  size_t line_ = 0;  // Physical lines consumed.
  // Malformed-row error deferred until the good prefix is delivered.
  Status pending_error_;
};

/// Writes a DataFrame as CSV (header row + data rows). Fields containing
/// the delimiter, quotes, or newlines are quoted.
Status WriteCsv(const DataFrame& df, std::ostream& out,
                const CsvOptions& options = CsvOptions());

/// Writes a DataFrame to a file.
Status WriteCsvFile(const DataFrame& df, const std::string& path,
                    const CsvOptions& options = CsvOptions());

}  // namespace ccs::dataframe

#endif  // CCS_DATAFRAME_CSV_H_
