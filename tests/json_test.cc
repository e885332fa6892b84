// Tests for the shared JSON reader and escaper (common/json.h) and the
// two spec formats built on them: fault specs (common/fault.h) and
// scenario specs (scenario/scenario.h). Integer fields read exactly or
// fail, strings round-trip every escapable byte, and malformed strings
// are structured errors.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "common/status.h"
#include "scenario/scenario.h"

namespace ccs::common {
namespace {

using fault::FaultPoint;
using fault::FaultSpec;
using fault::FaultSpecToJson;
using fault::ParseFaultSpecJson;
using scenario::ParseSpecJson;
using scenario::ScenarioSpec;
using scenario::SpecToJson;

// Every malformed integer the old double-based readers cast or truncated.
const std::vector<std::string> kBadUints = {
    "1e30", "-1", "1.5", "18446744073709551616", "+1", "1e2", "", "0x10"};

// A string holding every byte class the escaper treats specially.
const std::string kNasty = "q\"uo\\te\nnew\ttab\x01" "ctl\r/end";

StatusOr<uint64_t> ReadUint(const std::string& text) {
  JsonReader in(text, "test JSON");
  uint64_t v = 0;
  CCS_RETURN_IF_ERROR(in.Uint(&v));
  CCS_RETURN_IF_ERROR(in.Finish());
  return v;
}

StatusOr<std::string> ReadString(const std::string& text) {
  JsonReader in(text, "test JSON");
  std::string s;
  CCS_RETURN_IF_ERROR(in.String(&s));
  CCS_RETURN_IF_ERROR(in.Finish());
  return s;
}

// Every byte below 0x20 in `json` is layout (a newline between
// members), never string content.
void ExpectNoRawControlBytesBeyondLayout(const std::string& json,
                                         const std::string& plain_json) {
  size_t newlines = 0, plain_newlines = 0;
  for (char c : json) {
    if (static_cast<unsigned char>(c) < 0x20) {
      EXPECT_EQ(c, '\n') << json;
      ++newlines;
    }
  }
  for (char c : plain_json) plain_newlines += c == '\n';
  EXPECT_EQ(newlines, plain_newlines) << json;
}

// ------------------------------ reader ------------------------------

TEST(JsonReaderTest, UintIsExact) {
  EXPECT_EQ(ReadUint("0").value(), 0u);
  EXPECT_EQ(ReadUint(" 18446744073709551615 ").value(), UINT64_MAX);
  EXPECT_EQ(ReadUint("9007199254740993").value(), 9007199254740993ull);
  for (const std::string& bad : kBadUints) {
    EXPECT_EQ(ReadUint(bad).status().code(), StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(JsonReaderTest, UintRangeFollowsTheTargetType) {
  JsonReader in("256", "test JSON");
  uint8_t small = 7;
  EXPECT_EQ(in.Uint(&small).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(small, 7u);  // Untouched on error.
}

TEST(JsonReaderTest, DoubleRejectsNonNumbers) {
  for (const char* bad : {"", "inf", "nan", "1e999", "--1", "1.2.3"}) {
    JsonReader in(bad, "test JSON");
    double v = 0.0;
    EXPECT_FALSE(in.Double(&v).ok()) << bad;
  }
  JsonReader in("-2.5e-3", "test JSON");
  double v = 0.0;
  ASSERT_TRUE(in.Double(&v).ok());
  EXPECT_EQ(v, -2.5e-3);
}

TEST(JsonReaderTest, StringDecodesTheWriterEscapes) {
  EXPECT_EQ(ReadString(R"("a\"b\\c\/d\ne\rf\tg\u0001h\u007F")").value(),
            "a\"b\\c/d\ne\rf\tg\x01h\x7f");
}

TEST(JsonReaderTest, StringRejectsUnknownEscapesAndUnterminated) {
  for (const char* bad :
       {R"("\x41")", R"("\a")", R"("\b")", R"("\u0080")", R"("\u00e9")",
        R"("\u12")", R"("\u00G1")", R"("\u+07f")", "\"abc", "\"abc\\",
        "\"abc\\\"", "\"raw\nnewline\"", "\"raw\ttab\""}) {
    auto s = ReadString(bad);
    EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(JsonReaderTest, ErrorsCarryTheCallerPrefix) {
  auto s = ReadUint("1.5");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().message().rfind("test JSON: ", 0), 0u)
      << s.status();
}

TEST(JsonReaderTest, ObjectAndArrayStructure) {
  std::vector<uint64_t> got;
  JsonReader in(R"( {"a": [1, 2 ,3], "b": []} )", "test JSON");
  Status st = in.Object([&](const std::string& key) {
    EXPECT_TRUE(key == "a" || key == "b");
    return in.Array([&] {
      got.emplace_back();
      return in.Uint(&got.back());
    });
  });
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_TRUE(in.Finish().ok());
  EXPECT_EQ(got, (std::vector<uint64_t>{1, 2, 3}));

  for (const char* bad :
       {"{\"a\": [1,]}", "{\"a\": [1] ,}", "{,}", "{\"a\" [1]}", "[1]",
        "{\"a\": [1]} x", "{\"a\": [1]"}) {
    JsonReader bad_in(bad, "test JSON");
    Status bad_st = bad_in.Object([&](const std::string&) {
      return bad_in.Array([&] {
        uint64_t v = 0;
        return bad_in.Uint(&v);
      });
    });
    if (bad_st.ok()) bad_st = bad_in.Finish();
    EXPECT_EQ(bad_st.code(), StatusCode::kInvalidArgument) << bad;
  }
}

// ------------------------------ escaper -----------------------------

TEST(AppendJsonStringTest, EscapesExactlyTheControlBytes) {
  std::string out;
  AppendJsonString(&out, "a\"b\\c\nd\re\tf\x01g\x1f/\x7f\xc3\xa9");
  EXPECT_EQ(out,
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001f/\x7f\xc3\xa9\"");
}

TEST(AppendJsonStringTest, EveryByteRoundTrips) {
  std::string all;
  for (int b = 1; b < 256; ++b) all.push_back(static_cast<char>(b));
  all.push_back('\0');
  std::string json;
  AppendJsonString(&json, all);
  for (size_t i = 1; i + 1 < json.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(json[i]), 0x20) << i;
  }
  EXPECT_EQ(ReadString(json).value(), all);
}

// ---------------------------- fault specs ---------------------------

std::string FaultSpecWith(const std::string& field, const std::string& value) {
  if (field == "seed") return "{\"seed\": " + value + ", \"points\": []}";
  const std::string trigger = field == "at" ? "once" : "every";
  return "{\"points\": [{\"point\": \"p\", \"trigger\": \"" + trigger +
         "\", \"" + field + "\": " + value + "}]}";
}

TEST(FaultSpecJsonTest, IntegerFieldsRejectNonIntegers) {
  for (const std::string field : {"seed", "at", "every"}) {
    ASSERT_TRUE(ParseFaultSpecJson(FaultSpecWith(field, "3")).ok()) << field;
    for (const std::string& bad : kBadUints) {
      EXPECT_EQ(ParseFaultSpecJson(FaultSpecWith(field, bad)).status().code(),
                StatusCode::kInvalidArgument)
          << field << ": " << bad;
    }
  }
}

TEST(FaultSpecJsonTest, IntegersRoundTripExactly) {
  FaultSpec spec;
  spec.seed = 9007199254740993ull;  // 2^53 + 1: not a double.
  FaultPoint once;
  once.point = "stream.score.window";
  once.at = UINT64_MAX;
  FaultPoint every;
  every.point = "stream.ingest.read";
  every.trigger = "every";
  every.every = UINT64_MAX;
  spec.points = {once, every};
  auto back = ParseFaultSpecJson(FaultSpecToJson(spec));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->seed, 9007199254740993ull);
  EXPECT_EQ(back->points[0].at, UINT64_MAX);
  EXPECT_EQ(back->points[1].every, UINT64_MAX);
  EXPECT_EQ(ParseFaultSpecJson("{\"seed\": 18446744073709551615}")->seed,
            UINT64_MAX);
}

TEST(FaultSpecJsonTest, StringsRoundTripEveryEscape) {
  FaultSpec spec;
  FaultPoint p;
  p.point = "stream.score.window";
  p.message = kNasty;
  spec.points = {p};
  const std::string json = FaultSpecToJson(spec);
  auto back = ParseFaultSpecJson(json);
  ASSERT_TRUE(back.ok()) << back.status() << "\n" << json;
  EXPECT_EQ(back->points[0].message, kNasty);
  EXPECT_EQ(FaultSpecToJson(*back), json);
  spec.points[0].message = "plain";
  ExpectNoRawControlBytesBeyondLayout(json, FaultSpecToJson(spec));
}

TEST(FaultSpecJsonTest, RejectsBadStrings) {
  for (const char* bad :
       {R"({"points": [{"point": "p\q"}]})", R"({"points": [{"point": "p)",
        R"({"points": [{"point": "p", "message": "\u0100"}]})"}) {
    EXPECT_EQ(ParseFaultSpecJson(bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

// --------------------------- scenario specs -------------------------

TEST(ScenarioSpecJsonTest, IntegerFieldsRejectNonIntegers) {
  std::vector<std::string> templates;
  for (const std::string key :
       {"reference_rows", "stream_rows", "window_rows", "slide_rows",
        "refresh_every", "chunk_rows"}) {
    templates.push_back("{\"" + key + "\": @}");
  }
  for (const std::string key : {"begin_row", "end_row", "period"}) {
    templates.push_back("{\"stages\": [{\"kind\": \"reorder\", \"" + key +
                        "\": @}]}");
  }
  templates.push_back(
      "{\"faults\": [{\"point\": \"p\", \"trigger\": \"once\", \"at\": @}]}");
  templates.push_back(
      "{\"faults\": [{\"point\": \"p\", \"trigger\": \"every\", "
      "\"every\": @}]}");
  for (const std::string& t : templates) {
    auto with = [&](const std::string& value) {
      std::string text = t;
      text.replace(text.find('@'), 1, value);
      return text;
    };
    ASSERT_TRUE(ParseSpecJson(with("5")).ok()) << t;
    for (const std::string& bad : kBadUints) {
      EXPECT_EQ(ParseSpecJson(with(bad)).status().code(),
                StatusCode::kInvalidArgument)
          << with(bad);
    }
  }
}

TEST(ScenarioSpecJsonTest, IntegersRoundTripExactly) {
  auto spec = ParseSpecJson(
      "{\"window_rows\": 18446744073709551615, \"stages\": [{\"kind\": "
      "\"reorder\", \"begin_row\": 9007199254740993}]}");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->window_rows, SIZE_MAX);
  EXPECT_EQ(spec->stages[0].begin_row, size_t{9007199254740993ull});
  auto back = ParseSpecJson(SpecToJson(*spec));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->window_rows, SIZE_MAX);
  EXPECT_EQ(back->stages[0].begin_row, size_t{9007199254740993ull});
}

TEST(ScenarioSpecJsonTest, StringsRoundTripEveryEscape) {
  ScenarioSpec spec;
  spec.name = kNasty;
  spec.score_policy = kNasty;
  scenario::StageSpec stage;
  stage.kind = "garble";
  stage.column = kNasty;
  spec.stages = {stage};
  FaultPoint p;
  p.point = kNasty;
  p.message = kNasty;
  spec.faults = {p};
  const std::string json = SpecToJson(spec);
  auto back = ParseSpecJson(json);
  ASSERT_TRUE(back.ok()) << back.status() << "\n" << json;
  EXPECT_EQ(back->name, kNasty);
  EXPECT_EQ(back->score_policy, kNasty);
  EXPECT_EQ(back->stages[0].column, kNasty);
  EXPECT_EQ(back->faults[0].point, kNasty);
  EXPECT_EQ(back->faults[0].message, kNasty);
  EXPECT_EQ(SpecToJson(*back), json);

  ScenarioSpec plain = spec;
  plain.name = plain.score_policy = plain.stages[0].column = "plain";
  plain.faults[0].point = plain.faults[0].message = "plain";
  ExpectNoRawControlBytesBeyondLayout(json, SpecToJson(plain));
}

TEST(ScenarioSpecJsonTest, RejectsBadStrings) {
  for (const char* bad :
       {R"({"name": "a\qb"})", R"({"name": "abc)", R"({"name": "abc\)",
        R"({"stages": [{"kind": "\u00ff"}]})",
        R"({"faults": [{"point": "p\x"}]})", "{\"name\": \"a\nb\"}"}) {
    EXPECT_EQ(ParseSpecJson(bad).status().code(), StatusCode::kInvalidArgument)
        << bad;
  }
}

}  // namespace
}  // namespace ccs::common
