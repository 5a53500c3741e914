// Tests of telemetry/result formatting.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cea/core/aggregation_operator.h"
#include "cea/core/stats_io.h"
#include "cea/obs/json_writer.h"
#include "test_util.h"

namespace cea {
namespace {

TEST(FormatExecStats, ContainsKeyFigures) {
  ExecStats s;
  s.rows_hashed = 100;
  s.rows_partitioned = 50;
  s.tables_flushed = 3;
  s.passes = 2;
  s.switches_to_partition = 1;
  s.sum_alpha = 8.0;
  s.num_alpha = 2;
  s.max_level = 1;
  s.rows_hashed_at_level[0] = 100;
  s.rows_partitioned_at_level[0] = 50;
  s.chunks_allocated = 7;
  s.chunks_recycled = 9;
  s.mem_peak_bytes = 3 << 20;
  std::string out = FormatExecStats(s);
  EXPECT_NE(out.find("100 hashed"), std::string::npos);
  EXPECT_NE(out.find("50 partitioned"), std::string::npos);
  EXPECT_NE(out.find("mean alpha: 4.00"), std::string::npos);
  EXPECT_NE(out.find("7 chunks allocated"), std::string::npos);
  EXPECT_NE(out.find("9 recycled"), std::string::npos);
  EXPECT_NE(out.find("peak 3.0 MiB"), std::string::npos);
  EXPECT_NE(out.find("level 1"), std::string::npos);
}

TEST(ResultToCsv, SingleKeyAndAggregates) {
  Column keys = {1, 2, 2};
  Column values = {10, 20, 30};
  AggregationOperator op({{AggFn::kSum, 0}, {AggFn::kAvg, 0}},
                         TinyCacheOptions());
  ResultTable result;
  ASSERT_TRUE(
      op.Execute(InputTable::FromColumns(keys, {&values}), &result).ok());
  SortResultByKey(&result);
  std::string csv = ResultToCsv(result);
  EXPECT_EQ(csv,
            "key,SUM,AVG\n"
            "1,10,10\n"
            "2,50,25\n");
}

TEST(ResultToCsv, CompositeKeysAndRowLimit) {
  Column k0 = {1, 1, 2};
  Column k1 = {7, 8, 7};
  AggregationOperator op({{AggFn::kCount, -1}}, TinyCacheOptions());
  ResultTable result;
  ASSERT_TRUE(
      op.Execute(InputTable::FromKeyColumns({&k0, &k1}, {}), &result).ok());
  SortResultByKey(&result);
  std::string csv = ResultToCsv(result, /*max_rows=*/2);
  EXPECT_EQ(csv,
            "key,key1,COUNT\n"
            "1,7,1\n"
            "1,8,1\n");
}

TEST(ResultToCsv, EmptyResult) {
  ResultTable empty;
  EXPECT_EQ(ResultToCsv(empty), "key\n");
}

TEST(CsvEscapeField, Rfc4180) {
  EXPECT_EQ(CsvEscapeField("plain"), "plain");
  EXPECT_EQ(CsvEscapeField(""), "");
  EXPECT_EQ(CsvEscapeField("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscapeField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscapeField("line1\nline2"), "\"line1\nline2\"");
  EXPECT_EQ(CsvEscapeField("cr\rlf"), "\"cr\rlf\"");
  EXPECT_EQ(CsvEscapeField(",\"\n"), "\",\"\"\n\"");
}

// Minimal RFC 4180 parser for the round-trip check below.
std::vector<std::string> ParseCsvHeader(const std::string& csv) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  size_t i = 0;
  while (i < csv.size()) {
    char c = csv[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < csv.size() && csv[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else if (c == '\n') {
      break;
    } else {
      cur += c;
    }
    ++i;
  }
  fields.push_back(cur);
  return fields;
}

TEST(ResultToCsv, NamesWithCommasAndQuotesRoundTrip) {
  Column keys = {1, 2};
  Column values = {10, 20};
  AggregationOperator op({{AggFn::kSum, 0}}, TinyCacheOptions());
  ResultTable result;
  ASSERT_TRUE(
      op.Execute(InputTable::FromColumns(keys, {&values}), &result).ok());
  SortResultByKey(&result);

  const std::vector<std::string> names = {"region, country",
                                          "sum of \"amount\""};
  std::string csv = ResultToCsv(result, 0, names);
  // The embedded comma must not create a 3rd header column.
  std::vector<std::string> parsed = ParseCsvHeader(csv);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], names[0]);
  EXPECT_EQ(parsed[1], names[1]);
  // Data rows are untouched.
  EXPECT_NE(csv.find("\n1,10\n"), std::string::npos);
  EXPECT_NE(csv.find("\n2,20\n"), std::string::npos);
}

TEST(ResultToCsv, MissingAndEmptyNamesFallBackToDefaults) {
  Column keys = {5};
  Column values = {1};
  AggregationOperator op({{AggFn::kSum, 0}, {AggFn::kCount, -1}},
                         TinyCacheOptions());
  ResultTable result;
  ASSERT_TRUE(
      op.Execute(InputTable::FromColumns(keys, {&values}), &result).ok());
  // Empty first name and too-short list: defaults fill the gaps.
  std::string csv = ResultToCsv(result, 0, {"", "total"});
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "key,total,COUNT");
}

TEST(ExecStatsToJson, ValidJsonWithAllFields) {
  ExecStats s;
  s.rows_hashed = 100;
  s.rows_partitioned = 50;
  s.tables_flushed = 3;
  s.passes = 2;
  s.sum_alpha = 8.0;
  s.num_alpha = 2;
  s.max_level = 1;
  s.rows_hashed_at_level[0] = 100;
  s.rows_hashed_at_level[1] = 30;
  s.rows_partitioned_at_level[0] = 50;
  s.seconds_at_level[1] = 0.125;
  s.chunks_allocated = 7;
  s.chunks_recycled = 9;
  s.mem_peak_bytes = 4096;
  std::string json = ExecStatsToJson(s);
  EXPECT_TRUE(obs::JsonLooksValid(json)) << json;
  EXPECT_NE(json.find("\"rows_hashed\":100"), std::string::npos);
  EXPECT_NE(json.find("\"mean_alpha\":4"), std::string::npos);
  EXPECT_NE(json.find("\"chunks_allocated\":7"), std::string::npos);
  EXPECT_NE(json.find("\"chunks_recycled\":9"), std::string::npos);
  EXPECT_NE(json.find("\"mem_peak_bytes\":4096"), std::string::npos);
  // One levels entry per level up to max_level.
  EXPECT_NE(json.find("\"level\":0"), std::string::npos);
  EXPECT_NE(json.find("\"level\":1"), std::string::npos);
  EXPECT_EQ(json.find("\"level\":2"), std::string::npos);
}

TEST(MachineInfoToJson, ValidJson) {
  std::string json = MachineInfoToJson(DetectMachine());
  EXPECT_TRUE(obs::JsonLooksValid(json)) << json;
  EXPECT_NE(json.find("\"cache_line_bytes\":64"), std::string::npos);
}

TEST(PerfSampleToJson, InvalidEventsAreNull) {
  obs::PerfSample s;
  s.value[obs::kCycles] = 123;
  s.valid[obs::kCycles] = true;
  std::string json = PerfSampleToJson(s);
  EXPECT_TRUE(obs::JsonLooksValid(json)) << json;
  EXPECT_NE(json.find("\"cycles\":123"), std::string::npos);
  EXPECT_NE(json.find("\"llc_misses\":null"), std::string::npos);
}

}  // namespace
}  // namespace cea
