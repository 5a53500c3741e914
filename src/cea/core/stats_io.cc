#include "cea/core/stats_io.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "cea/obs/json_writer.h"

namespace cea {
namespace {

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min<size_t>(n, sizeof(buf) - 1));
}

// The JSON value of an ExecStats field, by the field's type.
void WriteValue(obs::JsonWriter& w, uint64_t v) { w.Uint(v); }
void WriteValue(obs::JsonWriter& w, int v) { w.Int(v); }
void WriteValue(obs::JsonWriter& w, double v) { w.Double(v); }

}  // namespace

std::string FormatExecStats(const ExecStats& stats) {
  std::string out;
  uint64_t total = stats.rows_hashed + stats.rows_partitioned;
  double hash_pct =
      total == 0 ? 0.0
                 : 100.0 * static_cast<double>(stats.rows_hashed) /
                       static_cast<double>(total);
  Appendf(&out,
          "rows: %" PRIu64 " hashed (%.1f%%), %" PRIu64 " partitioned\n",
          stats.rows_hashed, hash_pct, stats.rows_partitioned);
  Appendf(&out,
          "passes: %" PRIu64 ", morsels: %" PRIu64 ", tables flushed: %" PRIu64
          ", final hash passes: %" PRIu64 ", shortcut runs: %" PRIu64 "\n",
          stats.passes, stats.morsels, stats.tables_flushed,
          stats.final_hash_passes, stats.distinct_shortcut_runs);
  Appendf(&out,
          "switches: %" PRIu64 " to partitioning, %" PRIu64
          " back to hashing; mean alpha: %.2f (%" PRIu64 " samples)\n",
          stats.switches_to_partition, stats.switches_to_hash,
          stats.mean_alpha(), stats.num_alpha);
  Appendf(&out,
          "run-store memory: %" PRIu64 " chunks allocated, %" PRIu64
          " recycled, peak %.1f MiB\n",
          stats.chunks_allocated, stats.chunks_recycled,
          static_cast<double>(stats.mem_peak_bytes) / (1024.0 * 1024.0));
  if (stats.spill_files != 0) {
    Appendf(&out,
            "spill: %.1f MiB written, %.1f MiB read back, %" PRIu64
            " files\n",
            static_cast<double>(stats.spilled_bytes) / (1024.0 * 1024.0),
            static_cast<double>(stats.spill_read_bytes) / (1024.0 * 1024.0),
            stats.spill_files);
  }
  Appendf(&out, "levels (rows hashed / partitioned / cpu-seconds):\n");
  for (int l = 0; l <= stats.max_level &&
                  l < static_cast<int>(stats.rows_hashed_at_level.size());
       ++l) {
    Appendf(&out, "  level %d: %" PRIu64 " / %" PRIu64 " / %.4f\n", l,
            stats.rows_hashed_at_level[l], stats.rows_partitioned_at_level[l],
            stats.seconds_at_level[l]);
  }
  return out;
}

std::string ExecStatsToJson(const ExecStats& stats) {
  obs::JsonWriter w;
  w.BeginObject();
#define CEA_JSON_FIELD(type, name, merge, node, counter, unit) \
  WriteValue(w.Key(#name), stats.name);
  CEA_EXEC_STATS_FIELDS(CEA_JSON_FIELD)
#undef CEA_JSON_FIELD
  w.Key("mean_alpha").Double(stats.mean_alpha());
  w.Key("levels").BeginArray();
  for (int l = 0; l <= stats.max_level &&
                  l < static_cast<int>(stats.rows_hashed_at_level.size());
       ++l) {
    w.BeginObject();
    w.Key("level").Int(l);
    w.Key("rows_hashed").Uint(stats.rows_hashed_at_level[l]);
    w.Key("rows_partitioned").Uint(stats.rows_partitioned_at_level[l]);
    w.Key("seconds").Double(stats.seconds_at_level[l]);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string MachineInfoToJson(const MachineInfo& info) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("hardware_threads").Int(info.hardware_threads);
  w.Key("l3_bytes_total").Uint(info.l3_bytes_total);
  w.Key("l3_bytes_per_thread").Uint(info.l3_bytes_per_thread);
  w.Key("cache_line_bytes").Uint(kCacheLineBytes);
  w.EndObject();
  return w.str();
}

std::string PerfSampleToJson(const obs::PerfSample& sample) {
  obs::JsonWriter w;
  w.BeginObject();
  for (int e = 0; e < obs::kNumPerfEvents; ++e) {
    w.Key(obs::PerfEventName(e));
    if (sample.valid[e]) {
      w.Uint(sample.value[e]);
    } else {
      w.Null();
    }
  }
  w.EndObject();
  return w.str();
}

std::string CsvEscapeField(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string ResultToCsv(const ResultTable& table, size_t max_rows) {
  return ResultToCsv(table, max_rows, {});
}

std::string ResultToCsv(const ResultTable& table, size_t max_rows,
                        const std::vector<std::string>& column_names) {
  const size_t key_cols = 1 + table.extra_keys.size();
  auto header = [&](size_t index, const std::string& fallback) {
    const std::string& name =
        index < column_names.size() ? column_names[index] : fallback;
    return CsvEscapeField(name.empty() ? fallback : name);
  };

  std::string out = header(0, "key");
  for (size_t w = 0; w < table.extra_keys.size(); ++w) {
    out += ",";
    out += header(w + 1, "key" + std::to_string(w + 1));
  }
  for (size_t a = 0; a < table.aggregates.size(); ++a) {
    out += ",";
    out += header(key_cols + a, AggFnName(table.aggregates[a].fn));
  }
  out += "\n";

  size_t rows = table.num_groups();
  if (max_rows != 0 && max_rows < rows) rows = max_rows;
  for (size_t i = 0; i < rows; ++i) {
    Appendf(&out, "%" PRIu64, table.keys[i]);
    for (const auto& col : table.extra_keys) {
      Appendf(&out, ",%" PRIu64, col[i]);
    }
    for (const ResultColumn& col : table.aggregates) {
      if (col.fn == AggFn::kAvg) {
        Appendf(&out, ",%.6g", col.f64[i]);
      } else {
        Appendf(&out, ",%" PRIu64, col.u64[i]);
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace cea
