// Tests for dataframe/: Schema, Column, DataFrame operations.

#include <gtest/gtest.h>

#include "common/random.h"
#include "dataframe/dataframe.h"

namespace ccs::dataframe {
namespace {

DataFrame MakeSample() {
  DataFrame df;
  CCS_CHECK(df.AddNumericColumn("x", {1.0, 2.0, 3.0, 4.0}).ok());
  CCS_CHECK(df.AddNumericColumn("y", {10.0, 20.0, 30.0, 40.0}).ok());
  CCS_CHECK(df.AddCategoricalColumn("tag", {"a", "b", "a", "b"}).ok());
  return df;
}

// --------------------------- Schema ----------------------------------

TEST(SchemaTest, AddAndLookup) {
  Schema s;
  ASSERT_TRUE(s.AddAttribute("x", AttributeType::kNumeric).ok());
  ASSERT_TRUE(s.AddAttribute("tag", AttributeType::kCategorical).ok());
  EXPECT_EQ(s.num_attributes(), 2u);
  EXPECT_EQ(s.IndexOf("tag").value(), 1u);
  EXPECT_TRUE(s.Contains("x"));
  EXPECT_FALSE(s.Contains("z"));
  EXPECT_EQ(s.IndexOf("z").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, RejectsDuplicateNames) {
  Schema s;
  ASSERT_TRUE(s.AddAttribute("x", AttributeType::kNumeric).ok());
  EXPECT_EQ(s.AddAttribute("x", AttributeType::kCategorical).code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaTest, TypeIndexPartition) {
  Schema s;
  ASSERT_TRUE(s.AddAttribute("a", AttributeType::kNumeric).ok());
  ASSERT_TRUE(s.AddAttribute("b", AttributeType::kCategorical).ok());
  ASSERT_TRUE(s.AddAttribute("c", AttributeType::kNumeric).ok());
  EXPECT_EQ(s.NumericIndices(), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(s.CategoricalIndices(), (std::vector<size_t>{1}));
}

TEST(SchemaTest, AttributeTypeToString) {
  EXPECT_STREQ(AttributeTypeToString(AttributeType::kNumeric), "numeric");
  EXPECT_STREQ(AttributeTypeToString(AttributeType::kCategorical),
               "categorical");
}

// --------------------------- Column ----------------------------------

TEST(ColumnTest, NumericColumn) {
  Column c = Column::Numeric({1.0, 2.0});
  EXPECT_TRUE(c.is_numeric());
  EXPECT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c.NumericAt(1), 2.0);
  c.AppendNumeric(3.0);
  EXPECT_EQ(c.size(), 3u);
}

TEST(ColumnTest, CategoricalDistinctPreservesFirstAppearanceOrder) {
  Column c = Column::Categorical({"b", "a", "b", "c", "a"});
  EXPECT_EQ(c.DistinctValues(), (std::vector<std::string>{"b", "a", "c"}));
}

TEST(ColumnTest, GatherReordersAndRepeats) {
  Column c = Column::Numeric({1.0, 2.0, 3.0});
  Column g = c.Gather({2, 0, 2});
  EXPECT_EQ(g.size(), 3u);
  EXPECT_DOUBLE_EQ(g.NumericAt(0), 3.0);
  EXPECT_DOUBLE_EQ(g.NumericAt(2), 3.0);
}

TEST(ColumnTest, CategoricalIsDictionaryEncoded) {
  Column c = Column::Categorical({"b", "a", "b", "c"});
  // Dictionary in first-appearance order; codes index it.
  EXPECT_EQ(c.dictionary(), (std::vector<std::string>{"b", "a", "c"}));
  EXPECT_EQ(c.CodeAt(0), 0u);
  EXPECT_EQ(c.CodeAt(1), 1u);
  EXPECT_EQ(c.CodeAt(2), 0u);
  EXPECT_EQ(c.CodeAt(3), 2u);
  EXPECT_EQ(c.CategoricalAt(3), "c");
  EXPECT_EQ(c.categorical_data(),
            (std::vector<std::string>{"b", "a", "b", "c"}));
}

TEST(ColumnTest, GatherIsAZeroCopyView) {
  Column c = Column::Numeric({1.0, 2.0, 3.0, 4.0});
  Column g = c.Gather({3, 1});
  EXPECT_TRUE(g.is_view());
  // The view shares the source's physical buffer.
  EXPECT_EQ(&g.numeric_buffer(), &c.numeric_buffer());
  Column flat = g.Materialize();
  EXPECT_FALSE(flat.is_view());
  EXPECT_DOUBLE_EQ(flat.NumericAt(0), 4.0);
  EXPECT_DOUBLE_EQ(flat.NumericAt(1), 2.0);
}

TEST(ColumnTest, AppendDetachesSharedStorageLeavingViewsIntact) {
  Column c = Column::Numeric({1.0, 2.0, 3.0});
  Column view = c.Gather({0, 2});
  c.AppendNumeric(4.0);  // Must not disturb the view (copy-on-write).
  EXPECT_EQ(c.size(), 4u);
  EXPECT_DOUBLE_EQ(c.NumericAt(3), 4.0);
  EXPECT_EQ(view.size(), 2u);
  EXPECT_DOUBLE_EQ(view.NumericAt(0), 1.0);
  EXPECT_DOUBLE_EQ(view.NumericAt(1), 3.0);

  Column cat = Column::Categorical({"x", "y"});
  Column cat_view = cat.Gather({1});
  cat.AppendCategorical("z");
  cat.AppendCategorical("y");  // Existing value reuses its code.
  EXPECT_EQ(cat.size(), 4u);
  EXPECT_EQ(cat.CategoricalAt(2), "z");
  EXPECT_EQ(cat.CodeAt(3), cat.CodeAt(1));
  EXPECT_EQ(cat_view.CategoricalAt(0), "y");
}

// --------------------------- DataFrame --------------------------------

TEST(DataFrameTest, BuildAndInspect) {
  DataFrame df = MakeSample();
  EXPECT_EQ(df.num_rows(), 4u);
  EXPECT_EQ(df.num_columns(), 3u);
  EXPECT_DOUBLE_EQ(df.NumericValue(2, "y").value(), 30.0);
  EXPECT_EQ(df.CategoricalValue(1, "tag").value(), "b");
}

TEST(DataFrameTest, RejectsLengthMismatch) {
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", {1.0, 2.0}).ok());
  EXPECT_EQ(df.AddNumericColumn("y", {1.0}).code(),
            StatusCode::kInvalidArgument);
}

TEST(DataFrameTest, RejectsDuplicateColumn) {
  DataFrame df;
  ASSERT_TRUE(df.AddNumericColumn("x", {1.0}).ok());
  EXPECT_EQ(df.AddCategoricalColumn("x", {"a"}).code(),
            StatusCode::kAlreadyExists);
}

TEST(DataFrameTest, TypedAccessErrors) {
  DataFrame df = MakeSample();
  EXPECT_FALSE(df.NumericValue(0, "tag").ok());
  EXPECT_FALSE(df.CategoricalValue(0, "x").ok());
  EXPECT_EQ(df.NumericValue(99, "x").status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(df.NumericValue(0, "missing").ok());
}

TEST(DataFrameTest, NumericRowSkipsCategoricals) {
  DataFrame df = MakeSample();
  linalg::Vector row = df.NumericRow(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_DOUBLE_EQ(row[0], 2.0);
  EXPECT_DOUBLE_EQ(row[1], 20.0);
}

TEST(DataFrameTest, NumericMatrixShapeAndContent) {
  DataFrame df = MakeSample();
  linalg::Matrix m = df.NumericMatrix();
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(3, 1), 40.0);
}

TEST(DataFrameTest, NumericViewForSelectsAndOrders) {
  DataFrame df = MakeSample();
  auto view = df.NumericViewFor({"y", "x"});
  ASSERT_TRUE(view.ok());
  linalg::Matrix m = view->ToMatrix();
  EXPECT_DOUBLE_EQ(m(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 1.0);
  EXPECT_FALSE(df.NumericViewFor({"tag"}).ok());
  EXPECT_FALSE(df.NumericViewFor({"nope"}).ok());
}

TEST(DataFrameTest, NameLists) {
  DataFrame df = MakeSample();
  EXPECT_EQ(df.NumericNames(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(df.CategoricalNames(), (std::vector<std::string>{"tag"}));
}

TEST(DataFrameTest, FilterKeepsMatchingRows) {
  DataFrame df = MakeSample();
  DataFrame evens = df.Filter([&](size_t i) {
    return df.NumericValue(i, "x").value() > 2.5;
  });
  EXPECT_EQ(evens.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(evens.NumericValue(0, "x").value(), 3.0);
}

TEST(DataFrameTest, SliceClampsBounds) {
  DataFrame df = MakeSample();
  EXPECT_EQ(df.Slice(1, 3).num_rows(), 2u);
  EXPECT_EQ(df.Slice(2, 100).num_rows(), 2u);
  EXPECT_EQ(df.Slice(3, 1).num_rows(), 0u);
}

TEST(DataFrameTest, GatherWithRepeats) {
  DataFrame df = MakeSample();
  DataFrame g = df.Gather({0, 0, 3});
  EXPECT_EQ(g.num_rows(), 3u);
  EXPECT_EQ(g.CategoricalValue(2, "tag").value(), "b");
}

TEST(DataFrameTest, SamplePreservesSchemaAndClampsK) {
  Rng rng(5);
  DataFrame df = MakeSample();
  DataFrame s = df.Sample(2, &rng);
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.schema(), df.schema());
  EXPECT_EQ(df.Sample(100, &rng).num_rows(), 4u);
}

TEST(DataFrameTest, ConcatAppendsRows) {
  DataFrame a = MakeSample();
  DataFrame b = MakeSample();
  auto c = a.Concat(b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->num_rows(), 8u);
  EXPECT_DOUBLE_EQ(c->NumericValue(4, "x").value(), 1.0);
}

TEST(DataFrameTest, ConcatRejectsSchemaMismatch) {
  DataFrame a = MakeSample();
  DataFrame b;
  ASSERT_TRUE(b.AddNumericColumn("x", {1.0}).ok());
  EXPECT_FALSE(a.Concat(b).ok());
}

TEST(DataFrameTest, PartitionByGroupsAllRows) {
  DataFrame df = MakeSample();
  auto parts = df.PartitionBy("tag");
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 2u);
  EXPECT_EQ(parts->at("a").num_rows(), 2u);
  EXPECT_EQ(parts->at("b").num_rows(), 2u);
  EXPECT_DOUBLE_EQ(parts->at("a").NumericValue(1, "x").value(), 3.0);
}

TEST(DataFrameTest, PartitionByRejectsNumeric) {
  DataFrame df = MakeSample();
  EXPECT_FALSE(df.PartitionBy("x").ok());
}

TEST(DataFrameTest, DropColumns) {
  DataFrame df = MakeSample();
  auto dropped = df.DropColumns({"y"});
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->num_columns(), 2u);
  EXPECT_FALSE(dropped->schema().Contains("y"));
  EXPECT_EQ(dropped->num_rows(), 4u);
  EXPECT_FALSE(df.DropColumns({"nope"}).ok());
}

TEST(DataFrameTest, SelectColumnsReorders) {
  DataFrame df = MakeSample();
  auto sel = df.SelectColumns({"tag", "x"});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->num_columns(), 2u);
  EXPECT_EQ(sel->schema().attribute(0).name, "tag");
  EXPECT_FALSE(df.SelectColumns({"zzz"}).ok());
}

TEST(DataFrameTest, DescribeMentionsEveryColumn) {
  DataFrame df = MakeSample();
  std::string desc = df.Describe();
  EXPECT_NE(desc.find("x"), std::string::npos);
  EXPECT_NE(desc.find("tag"), std::string::npos);
  EXPECT_NE(desc.find("4 rows"), std::string::npos);
}

TEST(DataFrameTest, EmptyFrame) {
  DataFrame df;
  EXPECT_EQ(df.num_rows(), 0u);
  EXPECT_EQ(df.num_columns(), 0u);
  EXPECT_EQ(df.NumericMatrix().rows(), 0u);
}

}  // namespace
}  // namespace ccs::dataframe
