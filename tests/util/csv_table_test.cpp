#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace clrearly::util {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

class CsvWriterTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs each test as its own process, in parallel.
  std::string path_ =
      (std::filesystem::temp_directory_path() /
       (std::string("clrearly_csv_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".csv"))
          .string();

  void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(CsvWriterTest, WritesPlainRows) {
  {
    CsvWriter csv(path_);
    csv.row({"a", "b", "c"});
    csv.row({"1", "2", "3"});
  }
  EXPECT_EQ(read_file(path_), "a,b,c\n1,2,3\n");
}

TEST_F(CsvWriterTest, EscapesSpecialCharacters) {
  {
    CsvWriter csv(path_);
    csv.row({"plain", "with,comma", "with\"quote", "with\nnewline"});
  }
  EXPECT_EQ(read_file(path_),
            "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
}

TEST_F(CsvWriterTest, FieldByFieldComposition) {
  {
    CsvWriter csv(path_);
    csv.field("x").field(1.5).field(static_cast<long long>(-7));
    csv.end_row();
    csv.field(std::size_t{42});
    csv.end_row();
  }
  EXPECT_EQ(read_file(path_), "x,1.5,-7\n42\n");
}

TEST_F(CsvWriterTest, DoubleRoundTripsPrecision) {
  const double value = 0.1234567890123456789;
  {
    CsvWriter csv(path_);
    csv.field(value);
    csv.end_row();
  }
  const double parsed = std::stod(read_file(path_));
  EXPECT_DOUBLE_EQ(parsed, value);
}

TEST(CsvWriterErrors, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"), std::runtime_error);
}

TEST(FormatCompactTest, FormatsShortNumbers) {
  EXPECT_EQ(format_compact(1.5), "1.5");
  EXPECT_EQ(format_compact(1000000.0), "1e+06");
  EXPECT_EQ(format_compact(0.0), "0");
}

TEST(TextTableTest, AlignsColumns) {
  TextTable table;
  table.header({"name", "value"});
  table.row("a", 1);
  table.row("longer", 123);
  const std::string out = table.to_string();
  // Header rule present, rows aligned at fixed offsets.
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("------"), std::string::npos);
  EXPECT_NE(out.find("longer  123"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTableTest, HandlesRaggedRows) {
  TextTable table;
  table.header({"a", "b", "c"});
  table.row("only-one");
  EXPECT_NO_THROW(table.to_string());
}

TEST(TextTableTest, NoHeaderMeansNoRule) {
  TextTable table;
  table.row("x", "y");
  const std::string out = table.to_string();
  EXPECT_EQ(out.find('-'), std::string::npos);
}

TEST(TextTableTest, DoubleCellsUseCompactFormat) {
  TextTable table;
  table.row(3.14159265);
  EXPECT_NE(table.to_string().find("3.14159"), std::string::npos);
}

TEST(LogTest, LevelsFilter) {
  const LogLevel prior = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  // No crash when filtered / emitted.
  log_info() << "suppressed " << 42;
  log_error() << "emitted " << 43;
  set_log_level(prior);
}

}  // namespace
}  // namespace clrearly::util
