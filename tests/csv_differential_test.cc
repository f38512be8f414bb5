// Differential test: io::ReadCountsCsv (one buffer, string_view fields,
// std::from_chars fast path) must read every file exactly as the preserved
// line-by-line reader (tests/reference_csv.h) does — the same values bit
// for bit, or the same error text, line number included. Covered: every
// crgen dataset family, field spellings at the edges of the fast path
// (signs, hex, whitespace, overflow, underflow, subnormals, -0, inf, nan,
// over-long fields), line-ending and blank-file shapes, custom separators
// and columns, each with skip_malformed_rows on and off.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "datagen/credit_card.h"
#include "datagen/job_log.h"
#include "datagen/people_count.h"
#include "datagen/perturb.h"
#include "datagen/power_grid.h"
#include "datagen/router.h"
#include "datagen/tcp_trace.h"
#include "io/csv.h"
#include "tests/reference_csv.h"

namespace conservation::io {
namespace {

class TempCsv {
 public:
  explicit TempCsv(const std::string& content)
      : path_(::testing::TempDir() + "/csv_differential.csv") {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << content;
  }
  ~TempCsv() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void ExpectSameRead(const std::string& path, CsvReadOptions options,
                    const std::string& label) {
  for (const bool skip : {false, true}) {
    options.skip_malformed_rows = skip;
    EXPECT_EQ(CsvReadMismatch(ReadCountsCsv(path, options),
                              ReferenceReadCountsCsv(path, options)),
              "")
        << label << " skip_malformed_rows=" << skip;
  }
}

void ExpectSameContent(const std::string& content,
                       const CsvReadOptions& options = {}) {
  const TempCsv file(content);
  ExpectSameRead(file.path(), options, "content '" + content + "'");
}

TEST(CsvDifferentialTest, EveryCrgenFamily) {
  std::vector<std::pair<std::string, series::CountSequence>> families;
  families.emplace_back("credit_card",
                        datagen::GenerateCreditCard({}).counts);
  families.emplace_back("people_count",
                        datagen::GeneratePeopleCount({}).counts);
  for (const auto profile : {datagen::RouterProfile::kClean,
                             datagen::RouterProfile::kUnmonitoredLink}) {
    datagen::RouterParams params;
    params.profile = profile;
    params.num_ticks = 3000;
    families.emplace_back("router", datagen::GenerateRouter(params).counts);
  }
  {
    datagen::TcpTraceParams params;
    params.num_ticks = 3000;
    families.emplace_back("tcp", datagen::GenerateTcpTrace(params).counts);
  }
  {
    datagen::JobLogParams params;
    params.num_ticks = 3000;
    families.emplace_back("joblog", datagen::GenerateJobLog(params).counts);
  }
  const series::CountSequence wellbehaved =
      datagen::GenerateWellBehavedTraffic(3000, 12345);
  families.emplace_back("wellbehaved", wellbehaved);
  {
    datagen::PerturbationSpec spec;
    spec.fraction = 0.1;
    spec.latest_start_fraction = 0.5;
    spec.seed = 12346;
    datagen::PerturbationInfo info;
    families.emplace_back("wellbehaved_perturbed",
                          datagen::ApplyPerturbation(wellbehaved, spec, &info));
  }
  for (const bool theft : {false, true}) {
    datagen::PowerGridParams params;
    params.num_ticks = 3000;
    if (theft) params.theft_start_tick = params.num_ticks / 3;
    families.emplace_back("powergrid",
                          datagen::GeneratePowerGrid(params).counts);
  }

  const std::string path = ::testing::TempDir() + "/csv_family.csv";
  for (const auto& [name, counts] : families) {
    ASSERT_TRUE(WriteCountsCsv(path, counts).ok()) << name;
    ExpectSameRead(path, {}, name);
    CsvReadOptions swapped;
    swapped.column_a = 1;
    swapped.column_b = 0;
    ExpectSameRead(path, swapped, name + " swapped columns");
  }
  std::remove(path.c_str());
}

TEST(CsvDifferentialTest, FieldSpellings) {
  const std::vector<std::string> fields = {
      "+1", "0x1p3", " 7 ", "1e400", "1e-400", "4.9e-324", "-0", "inf",
      "nan", "-inf", "1.", ".5", "1e", "1.5e+3", "00012", "", " ", "-",
      "2.2250738585072011e-308",  // subnormal
      "2.2250738585072014e-308",  // smallest normal
      "1.7976931348623157e308", "0.1", "123456789012345678901234567890",
      "7\t", "1,5", "x",
      std::string(64, '1'),               // 64 digits: too long
      std::string(63, '1'),               // 63 digits: accepted
      std::string(62, ' ') + "7 ",        // 64 characters, short value
      "0." + std::string(61, '0') + "1",  // 64 characters
  };
  for (const std::string& field : fields) {
    ExpectSameContent("a,b\n" + field + ",2\n3,4\n");
    ExpectSameContent("a,b\n1,2\n3," + field + "\n");
    ExpectSameContent("a,b\n1,2\n3," + field);
  }
}

TEST(CsvDifferentialTest, LineEndingsAndBlankFiles) {
  for (const std::string content : {
           "a,b\r\n1,2\r\n3,4\r\n", "a,b\r\n1,2\r\n\r\n3,4", "a,b\n1,2\n3,4",
           "a,b", "a,b\n", "", "\n", "\n\n\n", "  \n\t\n", "a,b\n\n1,2\n \n",
           "\n1,2\n", "a,b\n1,2\n3\n", "a,b\n1,2\r\n3,4\r", "1,2\n3,4\n"}) {
    for (const bool header : {true, false}) {
      CsvReadOptions options;
      options.has_header = header;
      ExpectSameContent(content, options);
    }
  }
}

TEST(CsvDifferentialTest, PathsThatAreNotRegularFiles) {
  // A directory opens but reads as empty; a missing file does not open.
  ExpectSameRead(::testing::TempDir(), {}, "directory");
  ExpectSameRead(::testing::TempDir() + "/no_such_dir/none.csv", {},
                 "missing file");
}

TEST(CsvDifferentialTest, SeparatorsAndColumns) {
  struct Case {
    char separator;
    int column_a;
    int column_b;
  };
  const Case cases[] = {{';', 2, 1}, {';', 0, 0}, {'\t', 1, 3},
                        {' ', 0, 1}, {'|', 3, 0}, {',', 5, 1}};
  for (const Case& c : cases) {
    const std::string s(1, c.separator);
    const std::string content = "ts" + s + "in" + s + "out" + s + "x\n" +
                                "1" + s + "10" + s + "7" + s + "0.5\n" +
                                "2" + s + "11" + s + "8\n" +        // 3 fields
                                "3" + s + s + "9" + s + "1\n" +     // empty
                                "4" + s + "12" + s + "9" + s + "2\n";
    CsvReadOptions options;
    options.separator = c.separator;
    options.column_a = c.column_a;
    options.column_b = c.column_b;
    ExpectSameContent(content, options);
  }
}

}  // namespace
}  // namespace conservation::io
