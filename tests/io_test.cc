#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <utility>

#include "io/csv.h"
#include "io/table_printer.h"
#include "io/timeline.h"

namespace conservation::io {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(CsvTest, RoundTrip) {
  TempFile file("roundtrip.csv");
  auto counts = series::CountSequence::Create({1, 2.5, 3}, {4, 5, 6.25});
  ASSERT_TRUE(counts.ok());
  ASSERT_TRUE(WriteCountsCsv(file.path(), *counts).ok());
  auto loaded = ReadCountsCsv(file.path());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->n(), 3);
  EXPECT_DOUBLE_EQ(loaded->a(2), 2.5);
  EXPECT_DOUBLE_EQ(loaded->b(3), 6.25);
}

TEST(CsvTest, MissingFile) {
  auto loaded = ReadCountsCsv("/nonexistent/never.csv");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST(CsvTest, CustomColumnsAndSeparator) {
  TempFile file("columns.csv");
  {
    std::ofstream out(file.path());
    out << "ts;in;out\n1;10;7\n2;11;8\n";
  }
  CsvReadOptions options;
  options.separator = ';';
  options.column_a = 2;  // out
  options.column_b = 1;  // in
  auto loaded = ReadCountsCsv(file.path(), options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->a(1), 7.0);
  EXPECT_DOUBLE_EQ(loaded->b(2), 11.0);
}

TEST(CsvTest, MalformedRowFailsByDefault) {
  TempFile file("malformed.csv");
  {
    std::ofstream out(file.path());
    out << "a,b\n1,2\nx,y\n";
  }
  EXPECT_FALSE(ReadCountsCsv(file.path()).ok());
  CsvReadOptions options;
  options.skip_malformed_rows = true;
  auto loaded = ReadCountsCsv(file.path(), options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->n(), 1);
}

TEST(CsvTest, BlankLinesSkipped) {
  TempFile file("blank.csv");
  {
    std::ofstream out(file.path());
    out << "a,b\n1,2\n\n3,4\n   \n";
  }
  auto loaded = ReadCountsCsv(file.path());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->n(), 2);
}

TEST(CsvTest, NegativeColumnIsInvalidArgument) {
  TempFile file("negative_column.csv");
  {
    std::ofstream out(file.path());
    out << "a,b\n1,2\n";
  }
  for (const auto& [column_a, column_b] :
       {std::pair{-1, 1}, std::pair{0, -5000000}, std::pair{-7, -7}}) {
    CsvReadOptions options;
    options.column_a = column_a;
    options.column_b = column_b;
    options.skip_malformed_rows = true;
    const auto loaded = ReadCountsCsv(file.path(), options);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().ToString().find("columns must be >= 0"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(CsvTest, LargestColumnIsAMalformedRow) {
  // INT_MAX is a valid column index that no row reaches; counting the
  // needed columns must not overflow.
  TempFile file("large_column.csv");
  {
    std::ofstream out(file.path());
    out << "a,b\n1,2\n";
  }
  CsvReadOptions options;
  options.column_b = std::numeric_limits<int>::max();
  const auto loaded = ReadCountsCsv(file.path(), options);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().ToString(),
            "INVALID_ARGUMENT: " + file.path() + ":2: malformed row");
}

TEST(CsvTest, WriteColumns) {
  TempFile file("cols.csv");
  ASSERT_TRUE(WriteColumnsCsv(file.path(),
                              {{"x", {1, 2}}, {"y", {3, 4}}})
                  .ok());
  std::ifstream in(file.path());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,3");
}

TEST(CsvTest, WriteColumnsLengthMismatch) {
  TempFile file("bad_cols.csv");
  EXPECT_FALSE(
      WriteColumnsCsv(file.path(), {{"x", {1, 2}}, {"y", {3}}}).ok());
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter printer({"name", "value"});
  printer.AddRow({"alpha", "1"});
  printer.AddRow({"b", "12345"});
  const std::string out = printer.ToString();
  EXPECT_NE(out.find("name   value"), std::string::npos);
  EXPECT_NE(out.find("alpha  1"), std::string::npos);
  EXPECT_NE(out.find("b      12345"), std::string::npos);
  EXPECT_EQ(printer.num_rows(), 2u);
}

TEST(MonthTimelineTest, LabelsAndRanges) {
  const MonthTimeline timeline(1981, 1);
  EXPECT_EQ(timeline.Label(1), "Jan 1981");
  EXPECT_EQ(timeline.Label(12), "Dec 1981");
  EXPECT_EQ(timeline.Label(13), "Jan 1982");
  EXPECT_EQ(timeline.LabelRange({323, 324}), "Nov-Dec 2007");
  EXPECT_EQ(timeline.LabelRange({324, 325}), "Dec 2007 - Jan 2008");
  EXPECT_EQ(timeline.LabelRange({5, 5}), "May 1981");
}

TEST(MonthTimelineTest, TickOf) {
  const MonthTimeline timeline(1981, 1);
  EXPECT_EQ(timeline.TickOf(1981, 1), 1);
  EXPECT_EQ(timeline.TickOf(2007, 11), 323);
  EXPECT_EQ(timeline.TickOf(1980, 12), 0);  // before start
}

TEST(MonthTimelineTest, MidYearStart) {
  const MonthTimeline timeline(2005, 7);
  EXPECT_EQ(timeline.Label(1), "Jul 2005");
  EXPECT_EQ(timeline.Label(7), "Jan 2006");
}

TEST(SlotTimelineTest, LabelsAndRanges) {
  const SlotTimeline timeline(48);
  EXPECT_EQ(timeline.DayOf(1), 0);
  EXPECT_EQ(timeline.SlotOf(1), 0);
  EXPECT_EQ(timeline.Label(1), "day 000 00:00");
  EXPECT_EQ(timeline.Label(48), "day 000 23:30");
  EXPECT_EQ(timeline.Label(49), "day 001 00:00");
  EXPECT_EQ(timeline.LabelRange({23, 29}),
            "day 000 11:00-14:00");
  EXPECT_EQ(timeline.LabelRange({48, 49}),
            "day 000 23:30 - day 001 00:00");
}

}  // namespace
}  // namespace conservation::io
