// Figure 12 (this repo's extension): graceful degradation under memory
// pressure. Sweeps the run-store budget as a fraction of the query's
// working-set size (measured by an unlimited calibration run in this
// fresh process) from 2x down to 0.1x with spilling enabled, and reports
// wall time plus spill telemetry per point. Because the chunk pool
// retains carved slabs (used() is monotone), each point is granted its
// fraction of the working set as fresh *headroom* above the current
// used() mark — the equivalent of an absolute limit in a fresh process.
// Comfortable fractions complete without spilling; the spilled-byte
// curve grows as the fraction shrinks, while every point returns the
// calibration result bit-for-bit. Each point builds one operator and runs
// its --reps executions on it, as a long-lived executor would, so every
// rep after the first rewinds and overwrites the operator's spill file.
//
// Usage: fig12_memory_fraction [--log_n=22] [--log_k=20] [--threads=2]
//        [--fractions=2.0,1.5,1.0,0.75,0.5,0.25,0.1] [--spill_dir=/tmp]
//        [--spill_threshold=0.8] [--reps=1] [--json[=PATH]]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "agg_bench.h"
#include "cea/mem/chunk_pool.h"

using namespace cea;        // NOLINT
using namespace cea::bench; // NOLINT

namespace {

std::vector<double> ParseFractions(const std::string& spec) {
  std::vector<double> out;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    char* end = nullptr;
    double f = std::strtod(item.c_str(), &end);
    if (end == item.c_str() || *end != '\0' || f <= 0.0) {
      std::fprintf(stderr, "bad fraction '%s'\n", item.c_str());
      std::exit(2);
    }
    out.push_back(f);
  }
  return out;
}

// Order-insensitive result fingerprint: group count plus plain sums over
// the key and aggregate columns. Identical groups => identical sums.
struct Fingerprint {
  size_t groups = 0;
  uint64_t key_sum = 0;
  uint64_t agg_sum = 0;

  bool operator==(const Fingerprint& o) const {
    return groups == o.groups && key_sum == o.key_sum && agg_sum == o.agg_sum;
  }
};

Fingerprint FingerprintOf(const ResultTable& result) {
  Fingerprint fp;
  fp.groups = result.num_groups();
  for (uint64_t k : result.keys) fp.key_sum += k;
  for (const ResultColumn& col : result.aggregates) {
    for (uint64_t v : col.u64) fp.agg_sum += v;
  }
  return fp;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t n = uint64_t{1} << flags.GetUint("log_n", 22);
  const uint64_t k = uint64_t{1} << flags.GetUint("log_k", 20);
  const int threads = static_cast<int>(flags.GetUint("threads", 2));
  const int reps = static_cast<int>(flags.GetUint("reps", 1));
  const std::string spill_dir = flags.GetString("spill_dir", "/tmp");
  const double spill_threshold = flags.GetDouble("spill_threshold", 0.8);
  const std::vector<double> fractions = ParseFractions(
      flags.GetString("fractions", "2.0,1.5,1.0,0.75,0.5,0.25,0.1"));

  GenParams gp;
  gp.n = n;
  gp.k = k;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  const std::vector<AggregateSpec> specs = {{AggFn::kCount, -1},
                                            {AggFn::kSum, 0}};
  Column values = GenerateValues(n, 17);
  InputTable input;
  input.keys = keys.data();
  input.values.push_back(values.data());
  input.num_rows = keys.size();

  auto run_once = [&](AggregationOperator* op, ResultTable* result,
                      ExecStats* stats) {
    Status s = op->Execute(input, result, stats);
    if (!s.ok()) {
      std::fprintf(stderr, "aggregation failed: %s\n", s.message().c_str());
      std::exit(1);
    }
  };

  // Calibration: unlimited budget in this fresh process, so the budget's
  // peak is the query's run-store working set.
  AggregationOptions base;
  base.num_threads = threads;
  MemoryBudget::Global().SetLimit(0);
  ResultTable expect;
  ExecStats calib;
  {
    AggregationOperator op(specs, base);
    run_once(&op, &expect, &calib);
  }
  const Fingerprint want = FingerprintOf(expect);
  const uint64_t working_set = calib.mem_peak_bytes;

  BenchReporter reporter("fig12_memory_fraction", flags);
  if (!reporter.enabled()) {
    std::printf("# Figure 12: budget fraction sweep (N=2^%llu, K=2^%llu, "
                "%d threads); working set %.1f MiB\n",
                (unsigned long long)flags.GetUint("log_n", 22),
                (unsigned long long)flags.GetUint("log_k", 20), threads,
                static_cast<double>(working_set) / (1024.0 * 1024.0));
    std::printf("%10s %12s %14s %14s %8s\n", "fraction", "ns/row",
                "spilled[MiB]", "read[MiB]", "files");
  }

  for (double frac : fractions) {
    // The pool retains carved slabs, so used() is monotone across the
    // sweep; each point therefore grants `frac * working_set` of *fresh
    // headroom* above whatever earlier runs already carved — the same
    // quantity a fresh process with an absolute limit would see.
    const size_t headroom = std::max<size_t>(
        1 << 20, static_cast<size_t>(frac * static_cast<double>(working_set)));
    const size_t limit = MemoryBudget::Global().used() + headroom;
    MemoryBudget::Global().SetLimit(limit);
    AggregationOptions options = base;
    options.spill_dir = spill_dir;
    options.spill_threshold = spill_threshold;

    AggregationOperator op(specs, options);
    ExecStats stats;
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
      ResultTable result;
      ExecStats s;
      Timer t;
      run_once(&op, &result, &s);
      times.push_back(t.Seconds());
      if (!(FingerprintOf(result) == want)) {
        std::fprintf(stderr,
                     "fraction %.2f: result diverges from calibration\n",
                     frac);
        return 1;
      }
      stats = s;
    }
    TimingStats timing = TimingFromSamples(std::move(times));
    double sec = timing.median_s;

    if (reporter.enabled()) {
      BenchRecord r;
      r.Param("log_n", flags.GetUint("log_n", 22))
          .Param("log_k", flags.GetUint("log_k", 20))
          .Param("threads", threads)
          .Param("mem_fraction", frac)
          .Param("spill_threshold", spill_threshold);
      r.MetricUint("budget_bytes", limit)
          .MetricUint("headroom_bytes", headroom)
          .MetricUint("working_set_bytes", working_set)
          .Metric("element_time_ns", ElementTimeNs(sec, threads, n, 1))
          .MetricUint("spilled_bytes", stats.spilled_bytes)
          .MetricUint("spill_read_bytes", stats.spill_read_bytes)
          .MetricUint("spill_files", stats.spill_files);
      r.Timing(timing).Stats(stats);
      reporter.Emit(r);
    } else {
      std::printf("%10.2f %12.2f %14.1f %14.1f %8llu\n", frac,
                  ElementTimeNs(sec, threads, n, 1),
                  static_cast<double>(stats.spilled_bytes) / (1024.0 * 1024.0),
                  static_cast<double>(stats.spill_read_bytes) /
                      (1024.0 * 1024.0),
                  (unsigned long long)stats.spill_files);
    }
  }
  MemoryBudget::Global().SetLimit(0);
  return 0;
}
