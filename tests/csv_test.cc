// Tests for the CSV reader/writer.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>

#include "common/string_util.h"
#include "dataframe/csv.h"

namespace ccs::dataframe {
namespace {

StatusOr<DataFrame> Parse(const std::string& text,
                          CsvOptions options = CsvOptions()) {
  std::istringstream in(text);
  return ReadCsv(in, options);
}

TEST(CsvTest, BasicReadWithHeader) {
  auto df = Parse("x,y,tag\n1,10,a\n2,20,b\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 2u);
  EXPECT_EQ(df->num_columns(), 3u);
  EXPECT_DOUBLE_EQ(df->NumericValue(1, "y").value(), 20.0);
  EXPECT_EQ(df->CategoricalValue(0, "tag").value(), "a");
}

TEST(CsvTest, TypeInferenceNumericVsCategorical) {
  auto df = Parse("a,b\n1,x1\n2.5,x2\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->schema().attribute(0).type, AttributeType::kNumeric);
  EXPECT_EQ(df->schema().attribute(1).type, AttributeType::kCategorical);
}

TEST(CsvTest, MixedColumnFallsBackToCategorical) {
  auto df = Parse("a\n1\nhello\n3\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->schema().attribute(0).type, AttributeType::kCategorical);
}

TEST(CsvTest, NoHeaderGeneratesNames) {
  CsvOptions options;
  options.has_header = false;
  auto df = Parse("1,2\n3,4\n", options);
  ASSERT_TRUE(df.ok());
  EXPECT_TRUE(df->schema().Contains("c0"));
  EXPECT_TRUE(df->schema().Contains("c1"));
  EXPECT_EQ(df->num_rows(), 2u);
}

TEST(CsvTest, InferTypesOffMakesEverythingCategorical) {
  CsvOptions options;
  options.infer_types = false;
  auto df = Parse("a\n1\n2\n", options);
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->schema().attribute(0).type, AttributeType::kCategorical);
}

TEST(CsvTest, QuotedFieldWithDelimiter) {
  auto df = Parse("name,v\n\"hello, world\",1\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->CategoricalValue(0, "name").value(), "hello, world");
}

TEST(CsvTest, EscapedQuotes) {
  auto df = Parse("name\n\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->CategoricalValue(0, "name").value(), "say \"hi\"");
}

TEST(CsvTest, QuotedNewlineInsideField) {
  auto df = Parse("name,v\n\"line1\nline2\",3\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 1u);
  EXPECT_EQ(df->CategoricalValue(0, "name").value(), "line1\nline2");
}

TEST(CsvTest, CrLfLineEndings) {
  auto df = Parse("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(df->NumericValue(1, "b").value(), 4.0);
}

TEST(CsvTest, MissingNumericCellUsesFillValue) {
  CsvOptions options;
  options.missing_numeric = -1.0;
  auto df = Parse("a\n1\n\n3\n", options);
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->schema().attribute(0).type, AttributeType::kNumeric);
  EXPECT_DOUBLE_EQ(df->NumericValue(1, "a").value(), -1.0);
}

TEST(CsvTest, AllEmptyColumnIsCategorical) {
  auto df = Parse("a,b\n1,\n2,\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->schema().attribute(1).type, AttributeType::kCategorical);
}

TEST(CsvTest, RaggedRowIsError) {
  auto df = Parse("a,b\n1,2\n3\n");
  EXPECT_FALSE(df.ok());
  EXPECT_EQ(df.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, UnterminatedQuoteIsError) {
  EXPECT_FALSE(Parse("a\n\"oops\n").ok());
}

TEST(CsvTest, EmptyInputIsError) { EXPECT_FALSE(Parse("").ok()); }

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  auto df = Parse("a;b\n1;2\n", options);
  ASSERT_TRUE(df.ok());
  EXPECT_DOUBLE_EQ(df->NumericValue(0, "b").value(), 2.0);
}

TEST(CsvTest, WriteThenReadRoundTrips) {
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", {1.5, -2.25}).ok());
  ASSERT_TRUE(df.AddCategoricalColumn("s", {"plain", "with,comma"}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(df, out).ok());
  auto back = Parse(out.str());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(back->NumericValue(1, "x").value(), -2.25);
  EXPECT_EQ(back->CategoricalValue(1, "s").value(), "with,comma");
}

TEST(CsvTest, WriteQuotesSpecialCharacters) {
  DataFrame df;
  ASSERT_TRUE(df.AddCategoricalColumn("s", {"a\"b"}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(df, out).ok());
  EXPECT_NE(out.str().find("\"a\"\"b\""), std::string::npos);
}

TEST(CsvTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/ccs_csv_test.csv";
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("v", {3.0, 7.0}).ok());
  ASSERT_TRUE(WriteCsvFile(df, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(back->NumericValue(1, "v").value(), 7.0);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIoError) {
  auto df = ReadCsvFile("/nonexistent/dir/file.csv");
  EXPECT_EQ(df.status().code(), StatusCode::kIoError);
}

// ----------------------- RFC-4180 edge cases -------------------------

TEST(CsvTest, QuotedFieldWithEmbeddedNewline) {
  auto df = Parse("x,note\n1,\"line one\nline two\"\n2,plain\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 2u);
  EXPECT_EQ(df->CategoricalValue(0, "note").value(), "line one\nline two");
  EXPECT_EQ(df->CategoricalValue(1, "note").value(), "plain");
  EXPECT_DOUBLE_EQ(df->NumericValue(1, "x").value(), 2.0);
}

TEST(CsvTest, QuotedFieldWithEscapedQuotes) {
  auto df = Parse("x,say\n1,\"she said \"\"hi\"\"\"\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->CategoricalValue(0, "say").value(), "she said \"hi\"");
}

TEST(CsvTest, EmbeddedNewlineSurvivesWriteReadRoundTrip) {
  DataFrame df;
  ASSERT_TRUE(df.AddCategoricalColumn("s", {"a\nb", "c\"d"}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(df, out).ok());
  auto back = Parse(out.str());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->CategoricalValue(0, "s").value(), "a\nb");
  EXPECT_EQ(back->CategoricalValue(1, "s").value(), "c\"d");
}

TEST(CsvTest, CrlfLineEndings) {
  auto df = Parse("x,tag\r\n1,a\r\n2,b\r\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(df->NumericValue(0, "x").value(), 1.0);
  // No stray \r glued onto the last field of a record.
  EXPECT_EQ(df->CategoricalValue(1, "tag").value(), "b");
}

TEST(CsvTest, CrlfInsideQuotedFieldIsPreserved) {
  auto df = Parse("x,note\r\n1,\"a\r\nb\"\r\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->CategoricalValue(0, "note").value(), "a\r\nb");
}

TEST(CsvTest, TrailingEmptyField) {
  // "1," has two fields; the trailing one is empty — the column must not
  // collapse, and empty cells force the column categorical... unless the
  // non-empty cells parse numeric, in which case they are missing values.
  auto df = Parse("x,opt\n1,\n2,z\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 2u);
  EXPECT_EQ(df->CategoricalValue(0, "opt").value(), "");
  EXPECT_EQ(df->CategoricalValue(1, "opt").value(), "z");
}

TEST(CsvTest, TrailingEmptyNumericFieldUsesMissingValue) {
  CsvOptions options;
  options.missing_numeric = -1.0;
  auto df = Parse("x,v\n1,\n2,7\n", options);
  ASSERT_TRUE(df.ok());
  EXPECT_DOUBLE_EQ(df->NumericValue(0, "v").value(), -1.0);
  EXPECT_DOUBLE_EQ(df->NumericValue(1, "v").value(), 7.0);
}

// ------------------- Buffered tokenizer vs block edges ----------------

// Hands the reader `bytes` in fixed-size blocks, one per underflow, the
// way a pipe hands over whatever has arrived.
class BlockStreambuf : public std::streambuf {
 public:
  BlockStreambuf(std::string bytes, size_t block)
      : bytes_(std::move(bytes)), block_(block) {}

  /// Blocks handed out so far.
  size_t underflows() const { return underflows_; }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ == bytes_.size()) return traits_type::eof();
    ++underflows_;
    char* begin = &bytes_[next_];
    const size_t n = std::min(block_, bytes_.size() - next_);
    setg(begin, begin, begin + n);
    next_ += n;
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::string bytes_;
  size_t block_;
  size_t next_ = 0;
  size_t underflows_ = 0;
};

// The reference record splitter: the grammar stated byte by byte, one
// istream::get per byte and one std::string per field. `lines` gets the
// physical lines the record spanned.
StatusOr<bool> ReferenceRecord(std::istream& in,
                               std::vector<std::string>* fields,
                               size_t* lines) {
  fields->clear();
  *lines = 0;
  if (in.peek() == std::char_traits<char>::eof()) return false;
  std::string field;
  bool in_quotes = false;
  char c;
  while (in.get(c)) {
    if (in_quotes) {
      if (c == '"') {
        if (in.peek() == '"') {
          in.get(c);
          field.push_back('"');
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++*lines;
        field.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields->push_back(std::move(field));
      field.clear();
    } else if (c == '\n' || c == '\r') {
      if (c == '\r' && in.peek() == '\n') in.get(c);
      break;
    } else {
      field.push_back(c);
    }
  }
  ++*lines;  // The terminated line, or a final line without one.
  if (in_quotes) return Status::InvalidArgument("unterminated quoted field");
  fields->push_back(std::move(field));
  return true;
}

// Streams in these tests carry the header "n,s": n numeric, s
// categorical.
Schema TestSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddAttribute("n", AttributeType::kNumeric).ok());
  EXPECT_TRUE(schema.AddAttribute("s", AttributeType::kCategorical).ok());
  return schema;
}

std::string Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return std::to_string(bits);
}

std::string Position(size_t rows, size_t lines) {
  return " @rows=" + std::to_string(rows) + " lines=" + std::to_string(lines);
}

// What a CsvChunkReader delivers, flattened to be independent of chunk
// size: each good row (numeric cells bitwise), each error with the
// reader's counters when it surfaced, and the final counters.
using Transcript = std::vector<std::string>;

Transcript ChunkTranscript(std::istream* in, size_t chunk_rows) {
  CsvChunkReader reader(in, TestSchema());
  Transcript out;
  while (true) {
    StatusOr<DataFrame> chunk = reader.ReadChunk(chunk_rows);
    if (!chunk.ok()) {
      out.push_back("E " + chunk.status().message() +
                    Position(reader.rows_read(), reader.lines_consumed()));
      if (chunk.status().message().find("header") != std::string::npos) break;
      continue;
    }
    if (chunk->num_rows() == 0) break;
    EXPECT_LE(chunk->num_rows(), chunk_rows);
    for (size_t r = 0; r < chunk->num_rows(); ++r) {
      out.push_back("R " + Bits(chunk->column(0).NumericAt(r)) + " " +
                    chunk->column(1).CategoricalAt(r));
    }
  }
  out.push_back("END" + Position(reader.rows_read(), reader.lines_consumed()));
  return out;
}

// The transcript CsvChunkReader must produce, derived from the
// reference splitter and the reader's documented diagnostics.
Transcript ReferenceTranscript(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> fields;
  size_t lines = 0;
  size_t line = 0;
  size_t rows = 0;
  Transcript out;
  StatusOr<bool> header = ReferenceRecord(in, &fields, &lines);
  EXPECT_TRUE(header.ok() && *header && fields.size() == 2);
  line += lines;
  while (true) {
    StatusOr<bool> got = ReferenceRecord(in, &fields, &lines);
    const std::string where = "CsvChunkReader: line " +
                              std::to_string(line + 1) + " (data row " +
                              std::to_string(rows + 1) + ")";
    line += lines;
    if (!got.ok()) {
      out.push_back("E " + where + ": " + got.status().message() +
                    Position(rows, line));
      continue;
    }
    if (!*got) break;
    if (fields.size() != 2) {
      out.push_back("E " + where + ": has " + std::to_string(fields.size()) +
                    " fields, expected 2" + Position(rows, line));
      continue;
    }
    std::optional<double> n =
        Trim(fields[0]).empty() ? 0.0 : ParseDouble(fields[0]);
    if (!n.has_value()) {
      out.push_back("E " + where +
                    ", column 'n' (stream field 0): cannot parse '" +
                    fields[0] + "' as a number" + Position(rows, line));
      continue;
    }
    out.push_back("R " + Bits(*n) + " " + fields[1]);
    ++rows;
  }
  out.push_back("END" + Position(rows, line));
  return out;
}

// ReadCsv's outcome: the error text, or the frame written back out.
std::string WholeOutcome(std::istream* in) {
  StatusOr<DataFrame> df = ReadCsv(*in);
  if (!df.ok()) return df.status().message();
  std::ostringstream out;
  EXPECT_TRUE(WriteCsv(*df, out).ok());
  return out.str();
}

void ExpectSameAtEveryBlockEdge(const std::string& text) {
  const Transcript expected = ReferenceTranscript(text);
  std::istringstream whole_in(text);
  const std::string whole = WholeOutcome(&whole_in);
  for (size_t block : {1, 3, 7, 4096}) {
    for (size_t chunk_rows : {1, 7, 1024}) {
      BlockStreambuf buf(text, block);
      std::istream in(&buf);
      EXPECT_EQ(ChunkTranscript(&in, chunk_rows), expected)
          << "block " << block << ", chunk " << chunk_rows;
    }
    BlockStreambuf buf(text, block);
    std::istream in(&buf);
    EXPECT_EQ(WholeOutcome(&in), whole) << "block " << block;
  }
}

TEST(CsvTokenizerTest, QuotesEscapesAndLineEndingsMatchReference) {
  ExpectSameAtEveryBlockEdge(
      "n,s\n"
      "1,plain\n"
      "2,\"quoted, with comma\"\n"
      "3,\"say \"\"hi\"\"\"\n"
      "4,\"two\nlines\"\n"
      "5,crlf\r\n"
      "6,bare cr\r"
      "7,\"cr\r\nkept\"\n"
      "\n"
      " 8 ,mid\"quote\"d\n"
      ",missing\n"
      "x9,bad number\n"
      "10,too,many\n"
      "11,\"\"\n"
      "12,no final newline");
}

TEST(CsvTokenizerTest, UnterminatedQuoteConsumesTheRest) {
  ExpectSameAtEveryBlockEdge("n,s\n1,a\n2,\"open\n3,b\n4,c\n");
}

TEST(CsvTokenizerTest, EmptyLinesAndTerminators) {
  ExpectSameAtEveryBlockEdge("n,s\n\n\r\n\r1,a\n\n");
  ExpectSameAtEveryBlockEdge("n,s");
  ExpectSameAtEveryBlockEdge("n,s\r\n");
}

TEST(CsvTokenizerTest, RecordLongerThanTheInitialBuffer) {
  std::string text = "n,s\n1,a\n2,\"";
  for (int i = 0; i < 9000; ++i) text += "0123456\"\"\n";  // ~90 KB field.
  text += "\"\n3,";
  text += std::string(70000, 'z');
  text += "\n4,b\n";
  ExpectSameAtEveryBlockEdge(text);
}

// A quote, a doubled quote, "\r\n", a bare '\r' and '\n' each placed so
// that they straddle the 4096-byte block edge at every offset.
TEST(CsvTokenizerTest, SpecialBytesOnTheBlockEdge) {
  for (const std::string special :
       {"\"q\"", "\"a\"\"b\"", "\r\n", "\r", "\n", "\"x\ny\""}) {
    for (size_t shift = 0; shift < 4; ++shift) {
      const std::string head = "n,s\n1,";
      std::string text =
          head + std::string(4096 - head.size() - 2 + shift, 'p') + special;
      text += "\n2,after\n";
      ExpectSameAtEveryBlockEdge(text);
    }
  }
}

TEST(CsvTokenizerTest, RandomStreamsMatchReference) {
  std::mt19937 rng(20240607);
  const std::string alphabet = "ab1.-, \"\"\n\r";
  for (int trial = 0; trial < 12; ++trial) {
    std::string text = "n,s\n";
    std::uniform_int_distribution<size_t> length(0, 3000);
    const size_t n = length(rng);
    std::uniform_int_distribution<size_t> pick(0, alphabet.size() + 5);
    for (size_t i = 0; i < n; ++i) {
      const size_t k = pick(rng);
      // Bias towards well-formed numeric rows so good rows interleave
      // with the malformed ones.
      text += k < alphabet.size() ? std::string(1, alphabet[k])
                                  : std::string("\n4.5,v");
    }
    ExpectSameAtEveryBlockEdge(text);
  }
}

// The live-pipe property: ReadChunk(k) returns its k rows without
// pulling any block past the one holding row k's newline.
TEST(CsvTokenizerTest, ReadChunkPullsNoBlockPastItsLastNewline) {
  std::string text = "n,s\n";
  std::vector<size_t> newline;  // Offset of each data row's newline.
  for (int r = 0; r < 300; ++r) {
    text += std::to_string(r) + ".25,cat" + std::to_string(r % 5) + "\n";
    newline.push_back(text.size() - 1);
  }
  for (size_t block : {1, 3, 7, 64, 4096}) {
    for (size_t k : {1, 5, 64}) {
      BlockStreambuf buf(text, block);
      std::istream in(&buf);
      CsvChunkReader reader(&in, TestSchema());
      size_t rows = 0;
      while (rows + k <= newline.size()) {
        StatusOr<DataFrame> chunk = reader.ReadChunk(k);
        ASSERT_TRUE(chunk.ok());
        ASSERT_EQ(chunk->num_rows(), k);
        rows += k;
        EXPECT_EQ(buf.underflows(), newline[rows - 1] / block + 1)
            << "block " << block << ", chunk " << k << ", row " << rows;
      }
    }
  }
}

}  // namespace
}  // namespace ccs::dataframe
