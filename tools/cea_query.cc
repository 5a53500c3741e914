// cea_query: command-line driver for the aggregation operator.
//
// Generates a synthetic input (or reads keys from a binary file of
// little-endian u64) and runs an aggregation, printing timing, telemetry
// and optionally the result as CSV.
//
// Examples:
//   cea_query --n=4194304 --k=65536 --dist=zipf --aggs=count,sum:0
//   cea_query --n=1000000 --k=100 --aggs=sum:0,avg:0 --csv --csv_rows=10
//   cea_query --keys_file=keys.bin --aggs=count --policy=hashing
//
// Flags:
//   --n, --k, --dist, --seed      synthetic input shape (Section 6.5 names)
//   --keys_file=PATH              read keys from file instead of generating
//   --aggs=LIST                   comma list of fn[:value_col]; fns: count,
//                                 sum, min, max, avg; value_col is decimal
//                                 digits (default 0; count ignores it).
//                                 Each referenced value column is generated
//                                 (uniform < 2^20, seed 1000 + value_col).
//   --threads, --table_bytes, --policy=adaptive|hashing|partition
//   --passes (for partition), --alpha0, --c, --k_hint
//   --deadline_ms=N               fail the query with kDeadlineExceeded if
//                                 it runs longer than N milliseconds
//                                 (cooperative: checked at morsel/flush
//                                 boundaries). Must be positive.
//   --mem_budget_mb=N             cap run-store memory at N MiB; exceeding
//                                 the cap fails the query with a status.
//                                 Must be positive (omit for unlimited).
//                                 --no_huge_pages disables the THP madvise
//                                 on fresh pool slabs.
//   --spill_dir=PATH              under memory pressure, spill partition
//                                 runs to unlinked temp files in PATH and
//                                 stream them back instead of failing with
//                                 a resource-exhausted status. PATH must be
//                                 an existing writable directory; requires
//                                 --mem_budget_mb (no budget, no pressure).
//   --spill_threshold=F           fraction of the budget at which spilling
//                                 starts (default 0.8; 0 < F <= 1.0).
//                                 Requires --spill_dir.
//   --csv [--csv_rows=N]          print result as CSV (first N rows; 0,
//                                 the default, prints every row)
//   --stats                       print execution telemetry (text, stderr)
//   --stats=json                  print telemetry as one JSON object on
//                                 stdout (machine info, timing, ExecStats,
//                                 hardware counters when available)
//   --trace=PATH                  write a Chrome trace-event file of every
//                                 pass (open in Perfetto / chrome://tracing)
//   --profile                     print the hierarchical runtime profile of
//                                 the execution as an indented tree on
//                                 stdout; with --stats=json the same tree
//                                 also nests under the "profile" key
//   --metrics[=PATH]              dump the process metric registry in
//                                 Prometheus text format after the query
//                                 (stdout, or PATH when given)
//   --metrics_jsonl=PATH [--metrics_period_ms=N]
//                                 append periodic JSONL metric snapshots to
//                                 PATH while the query runs (default period
//                                 250 ms; a final snapshot always lands)
//
// Any other flag is a usage error (exit 2), and so is a count that must be
// positive (--k, --threads, --passes, --deadline_ms, --mem_budget_mb,
// --metrics_period_ms) given as zero or negative, a size that may be zero
// (--n, --table_bytes, --k_hint, --c, --csv_rows) given as negative, a
// --seed that is not an unsigned 64-bit decimal integer, an unknown --dist
// or --policy, an --alpha0 that is not a finite number >= 0, an --aggs
// item with an unknown function or a column that is not decimal digits,
// and a --stats value other than bare --stats or --stats=json. A
// --keys_file that cannot be opened exits 1, like a failed query.

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <memory>

#include "cea/common/flags.h"
#include "cea/core/aggregation_operator.h"
#include "cea/core/stats_io.h"
#include "cea/datagen/generators.h"
#include "cea/obs/json_writer.h"
#include "cea/obs/metrics.h"
#include "cea/obs/obs.h"

namespace {

// Parses --aggs, a comma list of fn[:col] items. `col` is decimal digits
// only and defaults to 0; COUNT ignores it. An unknown function or any
// other column text is a usage error.
bool ParseAggs(const std::string& spec_list,
               std::vector<cea::AggregateSpec>* specs) {
  if (spec_list.empty()) return true;  // pure DISTINCT
  size_t pos = 0;
  while (pos < spec_list.size()) {
    size_t comma = spec_list.find(',', pos);
    std::string item = spec_list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec_list.size() : comma + 1;

    std::string fn_name = item;
    int col = 0;
    size_t colon = item.find(':');
    if (colon != std::string::npos) {
      fn_name = item.substr(0, colon);
      const std::string digits = item.substr(colon + 1);
      // Up to 9 digits, so the column cannot overflow an int.
      if (digits.empty() || digits.size() > 9 ||
          digits.find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr,
                     "usage error: --aggs item '%s' (the column must be a "
                     "non-negative integer below 10^9)\n",
                     item.c_str());
        return false;
      }
      col = std::stoi(digits);
    }
    cea::AggFn fn;
    if (fn_name == "count") {
      fn = cea::AggFn::kCount;
      col = -1;
    } else if (fn_name == "sum") {
      fn = cea::AggFn::kSum;
    } else if (fn_name == "min") {
      fn = cea::AggFn::kMin;
    } else if (fn_name == "max") {
      fn = cea::AggFn::kMax;
    } else if (fn_name == "avg") {
      fn = cea::AggFn::kAvg;
    } else {
      std::fprintf(stderr,
                   "usage error: --aggs: unknown aggregate '%s' (count, sum, "
                   "min, max, avg)\n",
                   fn_name.c_str());
      return false;
    }
    specs->push_back({fn, col});
  }
  return true;
}

// Flag sanity: `name`, when present, must be an integer of at least `min`
// (1: a positive count, 0: a size where 0 means empty or automatic).
// GetUint parses with strtoull, which silently wraps "-5" into a huge
// positive value — validate on the raw string instead so nonsense fails
// loudly.
bool RequireAtLeast(const cea::Flags& flags, const char* name, int min) {
  if (!flags.Has(name)) return true;
  std::string v = flags.GetString(name, "");
  char* end = nullptr;
  long long x = std::strtoll(v.c_str(), &end, 0);
  if (end == v.c_str() || *end != '\0' || x < min) {
    std::fprintf(stderr, "usage error: --%s=%s (must be a %s integer)\n",
                 name, v.c_str(), min > 0 ? "positive" : "non-negative");
    return false;
  }
  return true;
}

// Parses `v` as an unsigned 64-bit integer of decimal digits only:
// strtoull alone would read "abc" as 0, "1x" as 1 and wrap "-3".
bool ParseU64(const std::string& v, uint64_t* out) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(v.c_str(), nullptr, 10);
  return errno != ERANGE;
}

}  // namespace

int main(int argc, char** argv) {
  cea::Flags flags(argc, argv);
  if (flags.Has("help")) {
    std::printf("see the header comment of tools/cea_query.cc for flags\n");
    return 0;
  }
  // A misspelled flag would otherwise be ignored and the query run with
  // the default it meant to override.
  const std::string unknown = flags.FirstUnknown(
      {"help", "n", "k", "dist", "seed", "keys_file", "aggs", "threads",
       "table_bytes", "policy", "passes", "alpha0", "c", "k_hint",
       "deadline_ms", "mem_budget_mb", "no_huge_pages", "spill_dir",
       "spill_threshold", "csv", "csv_rows", "stats", "trace", "profile",
       "metrics", "metrics_jsonl", "metrics_period_ms"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "usage error: unknown flag %s (see --help)\n",
                 unknown.c_str());
    return 2;
  }
  // A budget of 0 MiB, zero worker threads, zero groups, zero partition
  // passes, a zero metrics period, a negative deadline or a negative size
  // are nonsense; reject them up front instead of running a query that
  // cannot succeed, failing a CHECK later, or wrapping the value into a
  // huge count. Zero rows, a zero table size (the detected L3 share), a
  // zero k_hint (no hint), c = 0 and csv_rows = 0 (every row) are valid.
  if (!RequireAtLeast(flags, "mem_budget_mb", 1) ||
      !RequireAtLeast(flags, "deadline_ms", 1) ||
      !RequireAtLeast(flags, "threads", 1) ||
      !RequireAtLeast(flags, "k", 1) || !RequireAtLeast(flags, "passes", 1) ||
      !RequireAtLeast(flags, "metrics_period_ms", 1) ||
      !RequireAtLeast(flags, "n", 0) ||
      !RequireAtLeast(flags, "table_bytes", 0) ||
      !RequireAtLeast(flags, "k_hint", 0) || !RequireAtLeast(flags, "c", 0) ||
      !RequireAtLeast(flags, "csv_rows", 0)) {
    return 2;
  }
  // The adaptive policy compares reduction factors against alpha0; a
  // negative, non-numeric or non-finite threshold has no meaning.
  if (flags.Has("alpha0")) {
    std::string v = flags.GetString("alpha0", "");
    char* end = nullptr;
    const double alpha0 = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0' || !std::isfinite(alpha0) ||
        alpha0 < 0.0) {
      std::fprintf(stderr,
                   "usage error: --alpha0=%s (must be a finite number >= 0)\n",
                   v.c_str());
      return 2;
    }
  }

  // Input shape and policy: a typo must not run some other query.
  const std::string seed_text = flags.GetString("seed", "42");
  uint64_t seed = 0;
  if (!ParseU64(seed_text, &seed)) {
    std::fprintf(stderr,
                 "usage error: --seed=%s (must be an unsigned 64-bit decimal "
                 "integer)\n",
                 seed_text.c_str());
    return 2;
  }
  const std::string dist_name = flags.GetString("dist", "uniform");
  cea::Distribution dist = cea::Distribution::kUniform;
  if (!cea::ParseDistribution(dist_name, &dist)) {
    std::fprintf(stderr, "usage error: --dist=%s (unknown distribution)\n",
                 dist_name.c_str());
    return 2;
  }
  using PolicyKind = cea::AggregationOptions::PolicyKind;
  const std::string policy = flags.GetString("policy", "adaptive");
  PolicyKind policy_kind = PolicyKind::kAdaptive;
  if (policy == "hashing") {
    policy_kind = PolicyKind::kHashingOnly;
  } else if (policy == "partition") {
    policy_kind = PolicyKind::kPartitionAlways;
  } else if (policy != "adaptive") {
    std::fprintf(stderr,
                 "usage error: --policy=%s (use adaptive, hashing or "
                 "partition)\n",
                 policy.c_str());
    return 2;
  }

  std::vector<cea::AggregateSpec> specs;
  if (!ParseAggs(flags.GetString("aggs", "count"), &specs)) return 2;
  // Bare --stats reads as "1"; any other value would silently fall back to
  // the text summary.
  const std::string stats_mode = flags.GetString("stats", "");
  if (flags.Has("stats") && stats_mode != "1" && stats_mode != "json") {
    std::fprintf(stderr,
                 "usage error: --stats=%s (use --stats or --stats=json)\n",
                 stats_mode.c_str());
    return 2;
  }

  // Spill flags. Each failure mode gets its own message: a silently
  // ignored --spill_dir typo would run the query with the old
  // reject-on-exhaustion behavior, which is exactly the failure the flag
  // exists to avoid.
  const std::string spill_dir = flags.GetString("spill_dir", "");
  double spill_threshold = 0.8;
  if (flags.Has("spill_threshold")) {
    if (spill_dir.empty()) {
      std::fprintf(stderr,
                   "usage error: --spill_threshold requires --spill_dir\n");
      return 2;
    }
    std::string v = flags.GetString("spill_threshold", "");
    char* end = nullptr;
    spill_threshold = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0' || spill_threshold <= 0.0 ||
        spill_threshold > 1.0) {
      std::fprintf(stderr,
                   "usage error: --spill_threshold=%s (must be a fraction in "
                   "(0, 1])\n",
                   v.c_str());
      return 2;
    }
  }
  if (!spill_dir.empty()) {
    if (!flags.Has("mem_budget_mb")) {
      std::fprintf(stderr,
                   "usage error: --spill_dir requires --mem_budget_mb (with "
                   "an unlimited budget nothing ever spills)\n");
      return 2;
    }
    struct stat st;
    if (::stat(spill_dir.c_str(), &st) != 0) {
      std::fprintf(stderr,
                   "usage error: --spill_dir=%s does not exist: %s\n",
                   spill_dir.c_str(), std::strerror(errno));
      return 2;
    }
    if (!S_ISDIR(st.st_mode)) {
      std::fprintf(stderr, "usage error: --spill_dir=%s is not a directory\n",
                   spill_dir.c_str());
      return 2;
    }
    if (::access(spill_dir.c_str(), W_OK | X_OK) != 0) {
      std::fprintf(stderr, "usage error: --spill_dir=%s is not writable: %s\n",
                   spill_dir.c_str(), std::strerror(errno));
      return 2;
    }
  }

  // Input keys.
  std::vector<uint64_t> keys;
  std::string keys_file = flags.GetString("keys_file", "");
  if (!keys_file.empty()) {
    std::ifstream in(keys_file, std::ios::binary | std::ios::ate);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", keys_file.c_str());
      return 1;
    }
    std::streamsize bytes = in.tellg();
    in.seekg(0);
    if (bytes % static_cast<std::streamsize>(sizeof(uint64_t)) != 0) {
      std::fprintf(stderr,
                   "warning: %s is not a multiple of 8 bytes; trailing %lld "
                   "bytes ignored\n",
                   keys_file.c_str(),
                   static_cast<long long>(bytes % 8));
    }
    keys.resize(static_cast<size_t>(bytes) / sizeof(uint64_t));
    in.read(reinterpret_cast<char*>(keys.data()),
            static_cast<std::streamsize>(keys.size() * sizeof(uint64_t)));
  } else {
    cea::GenParams gp;
    gp.n = flags.GetUint("n", 1 << 20);
    gp.k = flags.GetUint("k", 1 << 10);
    gp.seed = seed;
    gp.dist = dist;
    keys = cea::GenerateKeys(gp);
  }

  // Value columns: only those the aggregates reference, column c from seed
  // 1000 + c, numbered densely in order of first use.
  std::map<int, int> slot_of;  // referenced column -> index in `values`
  std::vector<cea::Column> values;
  for (cea::AggregateSpec& spec : specs) {
    if (!cea::NeedsInput(spec.fn)) continue;
    auto [it, fresh] = slot_of.emplace(spec.input_column,
                                       static_cast<int>(values.size()));
    if (fresh) {
      values.push_back(
          cea::GenerateValues(keys.size(), 1000 + spec.input_column));
    }
    spec.input_column = it->second;
  }

  // Run-store memory knobs (process-wide, set before the operator runs).
  cea::MemoryBudget::Global().SetLimit(flags.GetUint("mem_budget_mb", 0) *
                                       (size_t{1} << 20));
  if (flags.Has("no_huge_pages")) {
    cea::ChunkPool::Global().set_huge_pages(false);
  }

  // Operator options.
  cea::AggregationOptions options;
  options.num_threads = static_cast<int>(flags.GetUint("threads", 0));
  options.table_bytes = flags.GetUint("table_bytes", 0);
  options.k_hint = flags.GetUint("k_hint", 0);
  options.alpha0 = flags.GetDouble("alpha0", 11.0);
  options.c = flags.GetUint("c", 10);
  options.deadline = std::chrono::milliseconds(
      static_cast<int64_t>(flags.GetUint("deadline_ms", 0)));
  options.spill_dir = spill_dir;
  options.spill_threshold = spill_threshold;
  options.policy = policy_kind;
  if (policy_kind == PolicyKind::kPartitionAlways) {
    options.partition_passes = static_cast<int>(flags.GetUint("passes", 2));
  }

  cea::InputTable input;
  input.keys = keys.data();
  for (const cea::Column& v : values) input.values.push_back(v.data());
  input.num_rows = keys.size();

  // Observability: --trace needs spans, --stats=json benefits from
  // counters, --profile needs the runtime profile; any of them attaches
  // the context.
  const bool stats_json = stats_mode == "json";
  const std::string trace_path = flags.GetString("trace", "");
  const bool want_profile = flags.Has("profile");
  cea::obs::ObsContext obs(cea::obs::ObsContext::Options{
      /*counters=*/stats_json || !trace_path.empty(),
      /*trace=*/!trace_path.empty(),
      /*profile=*/want_profile || stats_json});
  if (stats_json || !trace_path.empty() || want_profile) options.obs = &obs;

  // Metrics exposition: register the process-wide gauges up front so the
  // JSONL sink's very first snapshot already carries them.
  const bool want_metrics = flags.Has("metrics");
  const std::string metrics_jsonl = flags.GetString("metrics_jsonl", "");
  if (want_metrics || !metrics_jsonl.empty()) {
    cea::obs::RegisterProcessMetrics(&cea::obs::MetricRegistry::Global());
  }
  std::unique_ptr<cea::obs::JsonlMetricSink> metric_sink;
  if (!metrics_jsonl.empty()) {
    metric_sink = std::make_unique<cea::obs::JsonlMetricSink>(
        &cea::obs::MetricRegistry::Global(), metrics_jsonl,
        static_cast<int64_t>(flags.GetUint("metrics_period_ms", 250)));
    if (!metric_sink->ok()) {
      std::fprintf(stderr, "metrics: cannot write %s\n",
                   metrics_jsonl.c_str());
      return 1;
    }
  }

  cea::AggregationOperator op(specs, options);
  cea::ResultTable result;
  cea::ExecStats stats;
  auto start = std::chrono::steady_clock::now();
  cea::Status status = op.Execute(input, &result, &stats);
  double sec = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    return 1;
  }
  if (want_metrics || metric_sink != nullptr) {
    cea::obs::MetricRegistry::Global()
        .RegisterHistogram("cea_query_latency_us",
                           "End-to-end query latency in microseconds")
        ->Record(static_cast<uint64_t>(sec * 1e6));
  }

  std::fprintf(stderr,
               "%zu rows -> %zu groups in %.3f ms (%.2f ns/row, policy %s, "
               "%d threads)\n",
               keys.size(), result.num_groups(), sec * 1e3,
               sec / static_cast<double>(keys.size()) * 1e9,
               op.policy().Name().c_str(), op.num_threads());
  if (stats.spill_files != 0) {
    std::fprintf(stderr,
                 "spilled %.1f MiB to %s (%llu files, %.1f MiB read back)\n",
                 static_cast<double>(stats.spilled_bytes) / (1024.0 * 1024.0),
                 spill_dir.c_str(),
                 static_cast<unsigned long long>(stats.spill_files),
                 static_cast<double>(stats.spill_read_bytes) /
                     (1024.0 * 1024.0));
  }
  if (stats_json) {
    cea::obs::JsonWriter w;
    w.BeginObject();
    w.Key("rows").Uint(keys.size());
    w.Key("groups").Uint(result.num_groups());
    w.Key("seconds").Double(sec);
    w.Key("ns_per_row").Double(sec / static_cast<double>(keys.size()) * 1e9);
    w.Key("policy").String(op.policy().Name());
    w.Key("threads").Int(op.num_threads());
    w.Key("machine").Raw(cea::MachineInfoToJson(options.machine));
    w.Key("stats").Raw(cea::ExecStatsToJson(stats));
    w.Key("counters").Raw(cea::PerfSampleToJson(obs.counter_totals()));
    w.Key("profile");
    obs.profile().ToJson(&w);
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  } else if (flags.Has("stats")) {
    std::fprintf(stderr, "%s", cea::FormatExecStats(stats).c_str());
  }
  // With --stats=json the profile is already nested in the JSON document;
  // printing the text tree too would corrupt stdout for JSON consumers.
  if (want_profile && !stats_json) {
    std::string tree = obs.profile().ToText();
    std::fwrite(tree.data(), 1, tree.size(), stdout);
  }
  if (metric_sink != nullptr) {
    cea::Status sink_status = metric_sink->Stop();
    if (!sink_status.ok()) {
      std::fprintf(stderr, "error: %s\n", sink_status.message().c_str());
      return 1;
    }
  }
  if (want_metrics) {
    std::string text = cea::obs::MetricRegistry::Global().PrometheusText();
    std::string metrics_path = flags.GetString("metrics", "");
    // Bare --metrics parses as "1": dump to stdout (same convention as
    // BenchReporter's --json).
    if (metrics_path.empty() || metrics_path == "1") {
      std::fwrite(text.data(), 1, text.size(), stdout);
    } else {
      std::FILE* f = std::fopen(metrics_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "metrics: cannot write %s\n",
                     metrics_path.c_str());
        return 1;
      }
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
    }
  }
  if (!trace_path.empty()) {
    cea::Status trace_status = obs.trace().WriteChromeJson(trace_path);
    if (trace_status.ok()) {
      std::fprintf(stderr, "trace: %zu spans -> %s\n",
                   obs.trace().num_spans(), trace_path.c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", trace_status.message().c_str());
      return 1;
    }
  }
  if (flags.Has("csv")) {
    std::string csv =
        cea::ResultToCsv(result, flags.GetUint("csv_rows", 0));
    std::fwrite(csv.data(), 1, csv.size(), stdout);
  }
  return 0;
}
