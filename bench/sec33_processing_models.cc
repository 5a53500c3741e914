// Section 3.3: processing-model comparison for column stores. Three ways
// to evaluate SELECT key, SUM(v1..vC) GROUP BY key:
//
//   integrated  — this library: mapping vectors stay per-run (in cache),
//                 aggregate columns processed in tight loops, recursive
//                 cache-efficient partitioning (the X100-style model the
//                 paper adopts inside the operator)
//   col-at-time — MonetDB style: materialized mapping vector + per-column
//                 aggregation directly into the output (naive HASHAGG
//                 access pattern for large K)
//   row-at-time — all columns of a row processed together against one
//                 exact-key table (effectively an NSM operator)
//
// Usage: sec33_processing_models [--log_n=21] [--agg_cols=4]
//        [--min_k_log=4] [--max_k_log=20] [--json[=PATH]]

#include <cstdio>
#include <vector>

#include "agg_bench.h"
#include "cea/columnar/column_at_a_time.h"
#include "cea/core/routines.h"

using namespace cea;        // NOLINT
using namespace cea::bench; // NOLINT

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t n = uint64_t{1} << flags.GetUint("log_n", 21);
  const int agg_cols = static_cast<int>(flags.GetUint("agg_cols", 4));
  const int min_k = static_cast<int>(flags.GetUint("min_k_log", 4));
  const int max_k = static_cast<int>(flags.GetUint("max_k_log", 20));
  const int reps = static_cast<int>(flags.GetUint("reps", 1));

  std::vector<Column> values;
  std::vector<const Column*> value_ptrs;
  std::vector<AggregateSpec> specs;
  for (int c = 0; c < agg_cols; ++c) {
    values.push_back(GenerateValues(n, 10 + c));
  }
  for (int c = 0; c < agg_cols; ++c) {
    value_ptrs.push_back(&values[c]);
    specs.push_back({AggFn::kSum, c});
  }

  BenchReporter reporter("sec33_processing_models", flags);

  if (!reporter.enabled()) {
    std::printf("# Section 3.3: processing models, %d SUM columns, uniform, "
                "N=2^%llu, 1 thread (element time over %d columns, ns)\n",
                agg_cols, (unsigned long long)flags.GetUint("log_n", 21),
                1 + agg_cols);
    std::printf("%8s %14s %14s %14s\n", "log2(K)", "integrated",
                "col-at-time", "row-at-time");
  }

  for (int lk = min_k; lk <= max_k; lk += 2) {
    GenParams gp;
    gp.n = n;
    gp.k = uint64_t{1} << lk;
    std::vector<uint64_t> keys = GenerateKeys(gp);

    InputTable input;
    input.keys = keys.data();
    for (const Column* c : value_ptrs) input.values.push_back(c->data());
    input.num_rows = n;

    const int cols = 1 + agg_cols;
    auto emit = [&](const char* model, const TimingStats& timing) {
      if (!reporter.enabled()) return;
      BenchRecord r;
      r.Param("model", model)
          .Param("log_n", flags.GetUint("log_n", 21))
          .Param("log_k", lk)
          .Param("agg_cols", agg_cols);
      r.Metric("element_time_ns",
               ElementTimeNs(timing.median_s, 1, n, cols));
      r.Timing(timing);
      reporter.Emit(r);
    };

    AggregationOptions options;
    options.num_threads = 1;
    TimingStats integrated_t;
    double integrated = TimeAggregation(keys, specs, value_ptrs, options,
                                        reps, nullptr, nullptr,
                                        &integrated_t);
    emit("integrated", integrated_t);

    TimingStats col_t = MeasureSeconds(reps, [&] {
      ResultTable r = ColumnAtATimeAggregate(input, specs, gp.k);
      DoNotOptimize(r.keys.data());
    });
    emit("col-at-time", col_t);

    TimingStats row_t = MeasureSeconds(reps, [&] {
      StateLayout layout(specs);
      Run out(1, layout);
      AggregateExact({InputMorsel(input, layout, 0, n)}, 1, layout, gp.k,
                     &out);
      DoNotOptimize(out.size());
    });
    emit("row-at-time", row_t);

    if (!reporter.enabled()) {
      std::printf("%8d %14.2f %14.2f %14.2f\n", lk,
                  ElementTimeNs(integrated, 1, n, cols),
                  ElementTimeNs(col_t.median_s, 1, n, cols),
                  ElementTimeNs(row_t.median_s, 1, n, cols));
    }
  }
  return 0;
}
