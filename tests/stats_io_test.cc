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
  s.switches_to_partition = 11;
  s.switches_to_hash = 12;
  s.final_hash_passes = 13;
  s.distinct_shortcut_runs = 14;
  s.fallback_buckets = 15;
  s.passes = 2;
  s.morsels = 16;
  s.chunks_allocated = 7;
  s.chunks_recycled = 9;
  s.mem_peak_bytes = 4096;
  s.spilled_bytes = 8192;
  s.spill_read_bytes = 12288;
  s.spill_files = 1;
  s.max_level = 1;
  s.sum_alpha = 8.5;
  s.num_alpha = 2;
  s.rows_hashed_at_level[0] = 100;
  s.rows_hashed_at_level[1] = 30;
  s.rows_partitioned_at_level[0] = 50;
  s.seconds_at_level[1] = 0.125;
  std::string json = ExecStatsToJson(s);
  EXPECT_TRUE(obs::JsonLooksValid(json)) << json;

  // Every top-level key with its value. The scalars precede "levels", whose
  // entries reuse the rows_* names, so they are looked up before it; the
  // trailing comma pins the whole value.
  const size_t levels = json.find("\"levels\":[");
  ASSERT_NE(levels, std::string::npos) << json;
  const std::string scalars = json.substr(0, levels);
  const std::vector<std::string> want = {
      "\"rows_hashed\":100,",
      "\"rows_partitioned\":50,",
      "\"tables_flushed\":3,",
      "\"switches_to_partition\":11,",
      "\"switches_to_hash\":12,",
      "\"final_hash_passes\":13,",
      "\"distinct_shortcut_runs\":14,",
      "\"fallback_buckets\":15,",
      "\"passes\":2,",
      "\"morsels\":16,",
      "\"chunks_allocated\":7,",
      "\"chunks_recycled\":9,",
      "\"mem_peak_bytes\":4096,",
      "\"spilled_bytes\":8192,",
      "\"spill_read_bytes\":12288,",
      "\"spill_files\":1,",
      "\"max_level\":1,",
      "\"sum_alpha\":8.5,",
      "\"num_alpha\":2,",
      "\"mean_alpha\":4.25,",
  };
  for (const std::string& key_value : want) {
    EXPECT_NE(scalars.find(key_value), std::string::npos)
        << key_value << " in " << json;
  }
  // No other key: each scalar is one "key": pair, and "levels" is last.
  size_t keys = 0;
  for (size_t pos = scalars.find("\":"); pos != std::string::npos;
       pos = scalars.find("\":", pos + 1)) {
    ++keys;
  }
  EXPECT_EQ(keys, want.size()) << json;
  EXPECT_EQ(json.substr(json.size() - 2), "]}") << json;
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
