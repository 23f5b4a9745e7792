#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/rdf.h"
#include "data/row.h"
#include "data/schema.h"
#include "data/table.h"

namespace bigdansing {
namespace {

TEST(Schema, IndexLookup) {
  Schema s({"a", "b", "c"});
  EXPECT_EQ(s.num_attributes(), 3u);
  EXPECT_EQ(*s.IndexOf("b"), 1u);
  EXPECT_FALSE(s.IndexOf("missing").ok());
  EXPECT_TRUE(s.Contains("c"));
  EXPECT_FALSE(s.Contains("d"));
}

TEST(Schema, FromCsvHeaderTrims) {
  Schema s = Schema::FromCsvHeader(" name , zipcode,city ");
  EXPECT_EQ(s.attributes(),
            (std::vector<std::string>{"name", "zipcode", "city"}));
}

TEST(Schema, Project) {
  Schema s({"a", "b", "c", "d"});
  Schema p = s.Project({2, 0});
  EXPECT_EQ(p.attributes(), (std::vector<std::string>{"c", "a"}));
  EXPECT_EQ(*p.IndexOf("a"), 1u);
}

TEST(Row, SourceColumnsDefaultToIdentity) {
  Row r(7, {Value("x"), Value("y")});
  EXPECT_EQ(r.source_column(0), 0u);
  EXPECT_EQ(r.source_column(1), 1u);
  r.set_source_columns({3, 1});
  EXPECT_EQ(r.source_column(0), 3u);
  EXPECT_EQ(r.source_column(1), 1u);
}

TEST(Table, AppendAssignsSequentialIds) {
  Table t(Schema({"a"}));
  t.AppendRow({Value(static_cast<int64_t>(10))});
  t.AppendRow({Value(static_cast<int64_t>(20))});
  EXPECT_EQ(t.row(0).id(), 0);
  EXPECT_EQ(t.row(1).id(), 1);
  EXPECT_EQ(t.FindRowById(1)->value(0).as_int(), 20);
  EXPECT_EQ(t.FindRowById(99), nullptr);
}

TEST(Table, FindRowByIdAfterNonSequentialIds) {
  Table t(Schema({"a"}));
  Row r(42, {Value("x")});
  t.AppendRowWithId(r);
  ASSERT_NE(t.FindRowById(42), nullptr);
  EXPECT_EQ(t.FindRowById(42)->value(0), Value("x"));
  EXPECT_EQ(t.FindRowById(0), nullptr);
}

TEST(Table, ValueAtChecksBounds) {
  Table t(Schema({"a", "b"}));
  t.AppendRow({Value("x"), Value("y")});
  EXPECT_EQ(*t.ValueAt(0, "b"), Value("y"));
  EXPECT_FALSE(t.ValueAt(5, "b").ok());
  EXPECT_FALSE(t.ValueAt(0, "zz").ok());
}

TEST(Table, CountDifferingCells) {
  auto a = ReadCsvString("x,y\n1,2\n3,4\n", CsvOptions{});
  auto b = ReadCsvString("x,y\n1,9\n3,4\n", CsvOptions{});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a->CountDifferingCells(*b), 1u);
  auto c = ReadCsvString("x,y\n1,2\n", CsvOptions{});
  EXPECT_FALSE(a->CountDifferingCells(*c).ok());  // Misaligned.
}

TEST(Csv, QuotedFields) {
  auto t = ReadCsvString("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n", CsvOptions{});
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->row(0).value(0).as_string(), "x,y");
  EXPECT_EQ(t->row(0).value(1).as_string(), "he said \"hi\"");
}

TEST(Csv, UnterminatedQuoteIsError) {
  auto t = ReadCsvString("a\n\"oops\n", CsvOptions{});
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kParseError);
}

TEST(Csv, FieldCountMismatchIsError) {
  auto t = ReadCsvString("a,b\n1,2\n3\n", CsvOptions{});
  EXPECT_FALSE(t.ok());
}

TEST(Csv, NoHeaderNamesColumns) {
  CsvOptions options;
  options.has_header = false;
  auto t = ReadCsvString("1,2\n3,4\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().attributes(), (std::vector<std::string>{"c0", "c1"}));
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST(Csv, TypeInferenceToggle) {
  CsvOptions typed;
  auto t1 = ReadCsvString("a\n42\n", typed);
  ASSERT_TRUE(t1.ok());
  EXPECT_TRUE(t1->row(0).value(0).is_int());

  CsvOptions untyped;
  untyped.infer_types = false;
  auto t2 = ReadCsvString("a\n42\n", untyped);
  ASSERT_TRUE(t2.ok());
  EXPECT_TRUE(t2->row(0).value(0).is_string());
}

TEST(Csv, EmptyFieldIsNull) {
  auto t = ReadCsvString("a,b\n,x\n", CsvOptions{});
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->row(0).value(0).is_null());
}

TEST(Csv, WriteRoundTrip) {
  auto t = ReadCsvString("a,b\n1,hello\n2,\"x,y\"\n", CsvOptions{});
  ASSERT_TRUE(t.ok());
  // Line breaks inside a value, and doubles %g would round or turn into
  // ints (or, past int64, strings).
  t->AppendRow({Value(int64_t{3}), Value("two\nlines")});
  t->AppendRow({Value(int64_t{4}), Value("crlf\r\nvalue")});
  for (double d : {123456.789, 0.1, 1e-300, 1.2345678901234567e19}) {
    t->AppendRow({Value(d), Value("double")});
  }
  std::string text = WriteCsvString(*t, CsvOptions{});
  auto t2 = ReadCsvString(text, CsvOptions{});
  ASSERT_TRUE(t2.ok()) << t2.status().ToString();
  EXPECT_EQ(*t, *t2);
  for (size_t r = 4; r < t->num_rows(); ++r) {
    EXPECT_TRUE(t2->row(r).value(0).is_double()) << text;
  }
  // A quote still open at the end of the input is malformed.
  EXPECT_EQ(ReadCsvString(text + "5,\"open\n", CsvOptions{}).status().code(),
            StatusCode::kParseError);
}

TEST(Csv, FileRoundTrip) {
  auto t = ReadCsvString("a,b\n1,x\n", CsvOptions{});
  ASSERT_TRUE(t.ok());
  std::string path = ::testing::TempDir() + "/bigdansing_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(*t, path, CsvOptions{}).ok());
  auto t2 = ReadCsvFile(path, CsvOptions{});
  ASSERT_TRUE(t2.ok()) << t2.status().ToString();
  EXPECT_EQ(*t, *t2);
}

TEST(Csv, MissingFileIsIoError) {
  auto t = ReadCsvFile("/nonexistent/nope.csv", CsvOptions{});
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kIoError);
}

TEST(Rdf, TableRoundTrip) {
  TripleStore store({{"s1", "p1", "o1"}, {"s2", "p2", "o2"}});
  Table t = store.ToTable();
  EXPECT_EQ(t.num_rows(), 2u);
  auto back = TripleStore::FromTable(t);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->triples(), store.triples());
}

TEST(Rdf, WithPredicateFilters) {
  TripleStore store({{"a", "knows", "b"}, {"a", "likes", "c"},
                     {"b", "knows", "c"}});
  auto knows = store.WithPredicate("knows");
  EXPECT_EQ(knows.size(), 2u);
}

TEST(Rdf, FromTableRejectsWrongSchema) {
  Table t(Schema({"x", "y", "z"}));
  EXPECT_FALSE(TripleStore::FromTable(t).ok());
}

}  // namespace
}  // namespace bigdansing
