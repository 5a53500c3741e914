// Tests of the observability layer: JSON writer, trace recorder, hardware
// counters (both availability outcomes), and operator integration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cea/datagen/generators.h"
#include "cea/obs/json_writer.h"
#include "cea/obs/obs.h"
#include "cea/obs/perf_counters.h"
#include "cea/obs/trace.h"
#include "test_util.h"

namespace cea::obs {
namespace {

TEST(JsonWriter, ObjectsArraysAndTypes) {
  JsonWriter w;
  w.BeginObject();
  w.Key("u").Uint(18446744073709551615ull);
  w.Key("i").Int(-42);
  w.Key("d").Double(1.5);
  w.Key("b").Bool(true);
  w.Key("n").Null();
  w.Key("s").String("hi");
  w.Key("a").BeginArray();
  w.Uint(1);
  w.BeginObject();
  w.Key("nested").Bool(false);
  w.EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"u\":18446744073709551615,\"i\":-42,\"d\":1.5,\"b\":true,"
            "\"n\":null,\"s\":\"hi\",\"a\":[1,{\"nested\":false}]}");
  EXPECT_TRUE(JsonLooksValid(w.str()));
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::nan(""));
  w.Double(INFINITY);
  w.Double(-INFINITY);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,null]");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNullInObjectValues) {
  // Regression coverage for every double position: an object value after
  // Key(), interleaved with finite values, and nested containers — the
  // output must stay structurally valid with `null` in place, never an
  // "inf"/"nan" token (which JSON does not have).
  JsonWriter w;
  w.BeginObject();
  w.Key("nan").Double(std::nan(""));
  w.Key("ok").Double(1.5);
  w.Key("inf").Double(INFINITY);
  w.Key("nested").BeginArray();
  w.BeginObject().Key("ninf").Double(-INFINITY).EndObject();
  w.Double(2.0);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"nan\":null,\"ok\":1.5,\"inf\":null,"
            "\"nested\":[{\"ninf\":null},2]}");
  EXPECT_TRUE(JsonLooksValid(w.str()));
}

TEST(JsonWriter, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("tab\tnl\ncr\r"), "tab\\tnl\\ncr\\r");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
  // UTF-8 passes through untouched.
  EXPECT_EQ(JsonEscape("käse"), "käse");

  JsonWriter w;
  w.BeginObject();
  w.Key("we\"ird\n").String("va\\lue");
  w.EndObject();
  EXPECT_TRUE(JsonLooksValid(w.str()));
}

TEST(JsonLooksValid, AcceptsAndRejects) {
  EXPECT_TRUE(JsonLooksValid("{}"));
  EXPECT_TRUE(JsonLooksValid("[1, 2.5, -3e4, \"x\", null, true, false]"));
  EXPECT_TRUE(JsonLooksValid("{\"a\":{\"b\":[{}]}}"));
  EXPECT_FALSE(JsonLooksValid(""));
  EXPECT_FALSE(JsonLooksValid("{"));
  EXPECT_FALSE(JsonLooksValid("{\"a\":1,}"));
  EXPECT_FALSE(JsonLooksValid("[1 2]"));
  EXPECT_FALSE(JsonLooksValid("{\"a\":1} trailing"));
  EXPECT_FALSE(JsonLooksValid("\"unterminated"));
}

TEST(TraceRecorder, RecordsSpansFromManyThreadsAndExportsChromeJson) {
  TraceRecorder rec(8);
  rec.EnsureThreads(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < 100; ++i) {
        TraceSpan span;
        span.name = "pass";
        span.routine = "HASHING";
        span.tid = t;
        span.level = i % 3;
        span.pass_id = static_cast<uint64_t>(i);
        span.rows = 64;
        span.start_ns = rec.NowNs();
        span.dur_ns = 10;
        rec.Record(t, span);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(rec.num_spans(), 800u);

  std::string json = rec.ToChromeJson();
  EXPECT_TRUE(JsonLooksValid(json)) << json.substr(0, 200);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("HASHING"), std::string::npos);

  rec.Clear();
  EXPECT_EQ(rec.num_spans(), 0u);
}

TEST(TraceRecorder, OutOfRangeTidIsDroppedNotCrashed) {
  TraceRecorder rec(2);
  rec.EnsureThreads(2);
  TraceSpan span;
  span.name = "pass";
  rec.Record(99, span);
  rec.Record(-1, span);
  EXPECT_EQ(rec.num_spans(), 0u);
  EXPECT_TRUE(JsonLooksValid(rec.ToChromeJson()));
}

TEST(TraceRecorder, CoalescesAdjacentTinySpans) {
  TraceRecorder rec(2);
  rec.EnsureThreads(2);
  auto mk = [](uint64_t start, uint64_t dur, int level) {
    TraceSpan s;
    s.name = "exact";
    s.level = level;
    s.start_ns = start;
    s.dur_ns = dur;
    s.rows = 10;
    return s;
  };
  rec.RecordCoalesced(0, mk(1000, 500, 1), /*max_gap_ns=*/100);
  rec.RecordCoalesced(0, mk(1550, 500, 1), 100);  // gap 50: merged
  EXPECT_EQ(rec.num_spans(), 1u);
  rec.RecordCoalesced(0, mk(10000, 500, 1), 100);  // gap too big: new span
  EXPECT_EQ(rec.num_spans(), 2u);
  rec.RecordCoalesced(0, mk(10600, 500, 2), 100);  // other level: new span
  EXPECT_EQ(rec.num_spans(), 3u);
  rec.RecordCoalesced(1, mk(1550, 500, 1), 100);  // other thread: own buffer
  EXPECT_EQ(rec.num_spans(), 4u);

  // The merged span spans both tasks and accumulates their rows.
  std::string json = rec.ToChromeJson();
  EXPECT_TRUE(JsonLooksValid(json));
  EXPECT_NE(json.find("\"rows\":20"), std::string::npos);
}

TEST(PerfCounters, OpenEitherWorksOrDegradesGracefully) {
  PerfCounterGroup group;
  int opened = group.Open();
  if (opened > 0) {
    ASSERT_TRUE(group.available());
    group.Start();
    // Burn some cycles so the counters move.
    volatile uint64_t sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
    PerfSample s = group.Stop();
    EXPECT_TRUE(s.any_valid());
    bool some_nonzero = false;
    for (int e = 0; e < kNumPerfEvents; ++e) {
      if (s.valid[e] && s.value[e] > 0) some_nonzero = true;
    }
    EXPECT_TRUE(some_nonzero);
  } else {
    // No perf_event access (non-Linux / container): everything must be a
    // clean no-op.
    EXPECT_FALSE(group.available());
    group.Start();
    PerfSample s = group.Stop();
    EXPECT_FALSE(s.any_valid());
  }
  group.Close();
}

TEST(PerfCounters, SampleAccumulateMergesValues) {
  PerfSample a, b;
  a.value[kCycles] = 10;
  a.valid[kCycles] = true;
  b.value[kCycles] = 5;
  b.valid[kCycles] = true;
  b.value[kInstructions] = 7;
  b.valid[kInstructions] = true;
  a.Accumulate(b);
  EXPECT_EQ(a.value[kCycles], 15u);
  EXPECT_TRUE(a.valid[kInstructions]);
  EXPECT_EQ(a.value[kInstructions], 7u);
  EXPECT_FALSE(a.valid[kLLCMisses]);
}

TEST(PerfCounters, AccumulatePropagatesScaledMarker) {
  // Once any interval's contribution was a multiplex estimate, the total
  // is marked scaled for that event; raw-only events stay unscaled.
  PerfSample a, b;
  a.value[kCycles] = 10;
  a.valid[kCycles] = true;  // raw
  b.value[kCycles] = 5;
  b.valid[kCycles] = true;
  b.scaled[kCycles] = true;  // estimate
  b.value[kInstructions] = 7;
  b.valid[kInstructions] = true;  // raw
  a.Accumulate(b);
  EXPECT_TRUE(a.scaled[kCycles]);
  EXPECT_FALSE(a.scaled[kInstructions]);
  // An invalid contribution never sets the marker.
  PerfSample c;
  c.scaled[kLLCMisses] = true;  // but valid stays false
  a.Accumulate(c);
  EXPECT_FALSE(a.scaled[kLLCMisses]);
}

TEST(WorkerCounters, TakeTotalDrains) {
  WorkerCounters wc;
  wc.BeginInterval();
  volatile uint64_t sink = 0;
  for (int i = 0; i < 10000; ++i) sink = sink + i;
  PerfSample interval = wc.EndInterval();
  PerfSample total = wc.TakeTotal();
  // Whatever was measured (possibly nothing), the total is drained.
  EXPECT_EQ(total.any_valid(), interval.any_valid());
  EXPECT_FALSE(wc.TakeTotal().any_valid());
}

TEST(PassScope, NullContextIsANoOp) {
  obs::PassScope scope(nullptr, nullptr, 0, "pass", 0, 0);
  scope.set_rows(100);
  scope.set_routine("HASHING");
  // Destruction must not touch anything.
}

TEST(ObsIntegration, OperatorRecordsSpansAndTotals) {
  GenParams gp;
  gp.n = 200000;
  gp.k = 50000;
  std::vector<uint64_t> keys = GenerateKeys(gp);

  ObsContext obs;
  AggregationOptions options = TinyCacheOptions(2);
  options.obs = &obs;
  AggregationOperator op({{AggFn::kCount, -1}}, options);

  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();
  ResultTable result;
  ExecStats stats;
  ASSERT_TRUE(op.Execute(input, &result, &stats).ok());

  // Every pass produced a span; the adaptive run on this input has
  // several levels, so expect at least a handful.
  EXPECT_GT(obs.trace().num_spans(), 0u);
  std::string json = obs.trace().ToChromeJson();
  EXPECT_TRUE(JsonLooksValid(json));
  EXPECT_NE(json.find("\"pass\""), std::string::npos);

  // Counter totals: valid where the platform allows it; never garbage.
  // (counter_totals().any_valid() may legitimately be false here.)
  PerfSample totals = obs.counter_totals();
  for (int e = 0; e < kNumPerfEvents; ++e) {
    if (!totals.valid[e]) {
      EXPECT_EQ(totals.value[e], 0u);
    }
  }

  // A second execution keeps appending spans to the same context.
  size_t spans_after_first = obs.trace().num_spans();
  ResultTable result2;
  ASSERT_TRUE(op.Execute(input, &result2, nullptr).ok());
  EXPECT_GT(obs.trace().num_spans(), spans_after_first);
  EXPECT_EQ(result2.num_groups(), result.num_groups());
}

TEST(ObsIntegration, TraceOnlyAndCountersOnlyModes) {
  GenParams gp;
  gp.n = 50000;
  gp.k = 1000;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();

  {
    ObsContext trace_only(ObsContext::Options{false, true});
    AggregationOptions options = TinyCacheOptions(1);
    options.obs = &trace_only;
    AggregationOperator op({}, options);
    ResultTable result;
    ASSERT_TRUE(op.Execute(input, &result).ok());
    EXPECT_GT(trace_only.trace().num_spans(), 0u);
    EXPECT_FALSE(trace_only.counter_totals().any_valid());
  }
  {
    ObsContext counters_only(ObsContext::Options{true, false});
    AggregationOptions options = TinyCacheOptions(1);
    options.obs = &counters_only;
    AggregationOperator op({}, options);
    ResultTable result;
    ASSERT_TRUE(op.Execute(input, &result).ok());
    EXPECT_EQ(counters_only.trace().num_spans(), 0u);
  }
}

// The operator's spans (`pass`, `stream_batch`, `exact`) in a Chrome-trace
// export: how many, their summed duration and the largest tid among them.
struct OperatorSpans {
  size_t count = 0;
  double seconds = 0;
  int max_tid = -1;
};

OperatorSpans ParseOperatorSpans(const std::string& json) {
  OperatorSpans out;
  const std::string open = "{\"name\":\"";
  for (size_t pos = json.find(open); pos != std::string::npos;
       pos = json.find(open, pos)) {
    pos += open.size();
    const size_t name_end = json.find('"', pos);
    const std::string name = json.substr(pos, name_end - pos);
    if (name != "pass" && name != "stream_batch" && name != "exact") continue;
    // "tid" and "dur" precede the span's "args" object.
    const size_t args = json.find("\"args\"", name_end);
    auto field = [&](const char* key) {
      const size_t at = json.find(key, name_end);
      EXPECT_LT(at, args) << key;
      return std::strtod(json.c_str() + at + std::strlen(key), nullptr);
    };
    out.seconds += field("\"dur\":") * 1e-6;  // microseconds
    out.max_tid = std::max(out.max_tid, static_cast<int>(field("\"tid\":")));
    ++out.count;
  }
  return out;
}

// Span/clock closure: the operator's spans cover the intervals its own
// clock adds to seconds_at_level (within 5%), and every span sits on a
// worker's tid — the calling thread records none, so each tid's buffer
// has one writer.
void ExpectSpansCloseWithLevelClock(ObsContext* obs, const ExecStats& stats,
                                    int threads) {
  const OperatorSpans spans = ParseOperatorSpans(obs->trace().ToChromeJson());
  double clock = 0;
  for (double sec : stats.seconds_at_level) clock += sec;
  ASSERT_GT(spans.count, 0u);
  ASSERT_GT(clock, 0.0);
  EXPECT_NEAR(spans.seconds, clock, 0.05 * clock)
      << spans.count << " spans";
  EXPECT_GE(spans.max_tid, 0);
  EXPECT_LT(spans.max_tid, threads);
}

AggregationOptions ClosureOptions(ObsContext* obs) {
  AggregationOptions options;
  options.num_threads = 4;
  options.table_bytes = 1 << 16;  // recursion below level 0
  options.obs = obs;
  return options;
}

TEST(ObsIntegration, ExecuteSpansCloseWithLevelClock) {
  GenParams gp;
  gp.n = 1 << 19;
  gp.k = 1 << 16;
  std::vector<uint64_t> keys = GenerateKeys(gp);
  InputTable input;
  input.keys = keys.data();
  input.num_rows = keys.size();

  ObsContext obs(ObsContext::Options{false, true, false});
  AggregationOperator op({{AggFn::kCount, -1}}, ClosureOptions(&obs));
  ResultTable result;
  ExecStats stats;
  ASSERT_TRUE(op.Execute(input, &result, &stats).ok());
  ExpectResultsMatch(&result, ReferenceAggregate(input, {{AggFn::kCount, -1}}));
  EXPECT_GT(stats.max_level, 0);
  ExpectSpansCloseWithLevelClock(&obs, stats, op.num_threads());
}

TEST(ObsIntegration, StreamSpansCloseWithLevelClock) {
  GenParams gp;
  gp.n = 1 << 19;
  gp.k = 1 << 16;
  std::vector<uint64_t> keys = GenerateKeys(gp);

  ObsContext obs(ObsContext::Options{false, true, false});
  AggregationOperator op({{AggFn::kCount, -1}}, ClosureOptions(&obs));
  ASSERT_TRUE(op.BeginStream().ok());
  const size_t batch_rows = 1 << 16;  // 8 batches, 4 morsels each
  for (size_t off = 0; off < keys.size(); off += batch_rows) {
    InputTable batch;
    batch.keys = keys.data() + off;
    batch.num_rows = std::min(batch_rows, keys.size() - off);
    ASSERT_TRUE(op.ConsumeBatch(batch).ok());
  }
  ResultTable result;
  ExecStats stats;
  ASSERT_TRUE(op.FinishStream(&result, &stats).ok());
  InputTable whole;
  whole.keys = keys.data();
  whole.num_rows = keys.size();
  ExpectResultsMatch(&result, ReferenceAggregate(whole, {{AggFn::kCount, -1}}));
  EXPECT_GT(stats.max_level, 0);
  ExpectSpansCloseWithLevelClock(&obs, stats, op.num_threads());
}

TEST(ObsIntegration, StreamingModeRecordsBatchSpans) {
  ObsContext obs;
  AggregationOptions options = TinyCacheOptions(1);
  options.obs = &obs;
  AggregationOperator op({{AggFn::kCount, -1}}, options);

  ASSERT_TRUE(op.BeginStream().ok());
  std::vector<uint64_t> keys(10000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i % 777;
  InputTable batch;
  batch.keys = keys.data();
  batch.num_rows = keys.size();
  ASSERT_TRUE(op.ConsumeBatch(batch).ok());
  ASSERT_TRUE(op.ConsumeBatch(batch).ok());
  ResultTable result;
  ASSERT_TRUE(op.FinishStream(&result).ok());
  EXPECT_EQ(result.num_groups(), 777u);

  std::string json = obs.trace().ToChromeJson();
  EXPECT_TRUE(JsonLooksValid(json));
  EXPECT_NE(json.find("stream_batch"), std::string::npos);
}

}  // namespace
}  // namespace cea::obs
