// The two run-producing routines of the framework (Algorithm 1) and the
// per-worker context that executes them with seamless switching.
//
// A *pass* processes all runs of one bucket at one radix level. The pass
// input is cut into morsels (one per source chunk); workers claim morsels
// from a shared atomic cursor — this is the work-stealing parallelization
// of the main loop (Section 3.2). Each worker owns a PassContext holding
// its private hash table, SWC buffers and output run set; nothing on the
// processing path is shared between threads.
//
// HASHING inserts rows into the cache-sized blocked table, aggregating
// early; a full table is split into one (distinct) run per partition.
// PARTITIONING moves rows to per-partition runs via software
// write-combining, producing a per-morsel mapping vector that the
// aggregate columns replay in tight per-column loops (Section 3.3).
// The Policy decides which routine handles the next stretch of rows; the
// switch happens between segments and never discards completed work.

#ifndef CEA_CORE_ROUTINES_H_
#define CEA_CORE_ROUTINES_H_

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "cea/columnar/aggregate_function.h"
#include "cea/columnar/column.h"
#include "cea/core/policy.h"
#include "cea/core/run.h"
#include "cea/exec/cancellation.h"
#include "cea/hash/radix.h"
#include "cea/mem/swc_buffer.h"
#include "cea/obs/perf_counters.h"
#include "cea/table/blocked_hash_table.h"

namespace cea {

class SpillManager;

// One contiguous stretch of pass input. `key_cols` holds one pointer per
// grouping key word and `cols` one pointer per aggregate state word
// (StateLayout::total_words of them). Raw input rows are states too (a
// raw row is the state of its one-row group): a value column serves as
// the SUM/MIN/MAX word or AVG's sum word, and a null pointer stands for
// the constant 1 of COUNT(*) and of AVG's count word. Run input carries
// no null pointers.
struct Morsel {
  std::vector<const uint64_t*> key_cols;
  size_t n = 0;
  std::vector<const uint64_t*> cols;
};

// The morsel of rows [off, off + n) of the caller's input under `layout`.
Morsel InputMorsel(const InputTable& input, const StateLayout& layout,
                   size_t off, size_t n);

// The one declaration of ExecStats' scalar fields: the members, Merge, the
// scalar keys of ExecStatsToJson and the ExecStats counters of the runtime
// profile (AggregationOperator::FillProfile) are generated from it, in list
// order, so a new counter is one entry plus the code that counts it. Each
// entry is X(type, name, merge, node, counter, unit): `merge` (Sum or Max)
// folds another worker's value in and is the profile counter's MergeOp;
// `node` and `counter` name the profile child and counter (nullptr: not in
// the profile; fields of an absent node, spill without a spill directory,
// are skipped); `unit` is the counter's RuntimeProfile::Unit. The list is
// in profile order, which tools/check_profile_golden.py pins.
//
// morsels counts PassContext::ProcessMorsel calls; per worker it is the
// work-distribution signal of the profile's worker nodes. The chunk counts
// (fresh OS memory vs. recycled from the pool) and mem_peak_bytes are
// process-wide ChunkPool/MemoryBudget deltas the operator captures per
// execution. The spill fields are the logical run bytes written to and
// read back from the spill file, and 1 when the execution spilled, with a
// new or a reused file; all zero when nothing spilled.
#define CEA_EXEC_STATS_FIELDS(X)                                                          \
  X(uint64_t, rows_hashed,            Sum, nullptr,    nullptr,                  Rows)   \
  X(uint64_t, rows_partitioned,       Sum, nullptr,    nullptr,                  Rows)   \
  X(double,   sum_alpha,              Sum, nullptr,    nullptr,                  Double) \
  X(uint64_t, num_alpha,              Sum, "strategy", "alpha_samples",          None)   \
  X(uint64_t, switches_to_partition,  Sum, "strategy", "switches_to_partition",  None)   \
  X(uint64_t, switches_to_hash,       Sum, "strategy", "switches_to_hash",       None)   \
  X(uint64_t, final_hash_passes,      Sum, "strategy", "final_hash_passes",      None)   \
  X(uint64_t, distinct_shortcut_runs, Sum, "strategy", "distinct_shortcut_runs", None)   \
  X(uint64_t, fallback_buckets,       Sum, "strategy", "fallback_buckets",       None)   \
  X(uint64_t, passes,                 Sum, "passes",   "passes",                 None)   \
  X(uint64_t, morsels,                Sum, "passes",   "morsels",                None)   \
  X(uint64_t, tables_flushed,         Sum, "passes",   "tables_flushed",         None)   \
  X(uint64_t, mem_peak_bytes,         Max, "memory",   "peak_bytes",             Bytes)  \
  X(uint64_t, chunks_allocated,       Sum, "memory",   "chunks_fresh",           None)   \
  X(uint64_t, chunks_recycled,        Sum, "memory",   "chunks_recycled",        None)   \
  X(uint64_t, spilled_bytes,          Sum, "spill",    "spilled_bytes",          Bytes)  \
  X(uint64_t, spill_read_bytes,       Sum, "spill",    "read_bytes",             Bytes)  \
  X(uint64_t, spill_files,            Sum, "spill",    "files",                  None)   \
  X(int,      max_level,              Max, nullptr,    nullptr,                  None)

// Execution telemetry, kept per worker and merged by the operator. The
// per-level breakdowns drive the Figure 4/5 pass-breakdown benches; the
// alpha statistics drive Figure 10.
struct ExecStats {
#define CEA_EXEC_STATS_MEMBER(type, name, merge, node, counter, unit) \
  type name = 0;
  CEA_EXEC_STATS_FIELDS(CEA_EXEC_STATS_MEMBER)
#undef CEA_EXEC_STATS_MEMBER

  std::array<uint64_t, kMaxRadixLevel + 1> rows_hashed_at_level{};
  std::array<uint64_t, kMaxRadixLevel + 1> rows_partitioned_at_level{};
  std::array<double, kMaxRadixLevel + 1> seconds_at_level{};

  void Merge(const ExecStats& other);
  double mean_alpha() const {
    return num_alpha == 0 ? 0.0 : sum_alpha / static_cast<double>(num_alpha);
  }
};

// Reusable per-worker heavy state (hash table, staging buffers, SWC
// writers). A worker processes at most one pass at a time, so one
// WorkerResources instance per worker serves all passes.
class WorkerResources {
 public:
  WorkerResources(int key_words, const StateLayout& layout,
                  size_t table_bytes, size_t max_morsel_rows,
                  double table_max_fill = 0.25);
  WorkerResources(const StateLayout& layout, size_t table_bytes,
                  size_t max_morsel_rows)
      : WorkerResources(1, layout, table_bytes, max_morsel_rows) {}

  WorkerResources(const WorkerResources&) = delete;
  WorkerResources& operator=(const WorkerResources&) = delete;

  BlockedOpenHashTable& table() { return table_; }
  uint32_t* slots() { return slots_.data(); }
  uint8_t* dests() { return dests_.data(); }
  SwcWriter& key_writer(int word) { return *key_writers_[word]; }
  SwcWriter& state_writer(int word) { return *state_writers_[word]; }
  size_t max_morsel_rows() const { return slots_.size(); }
  int key_words() const { return key_words_; }

  // Hardware counters of this worker slot; intervals are opened around
  // each pass by the operator when an ObsContext is attached and stay
  // dormant (no perf fds) otherwise.
  obs::WorkerCounters& counters() { return counters_; }

  // Restores the invariants PassContext's constructor relies on after an
  // aborted pass (error-propagation path): buffered SWC lines are garbage
  // and their destinations point into freed runs, so drop both and empty
  // the table. Never called on the hot path.
  void ResetForRecovery() {
    table_.Clear();
    for (auto& w : key_writers_) w->Reset();
    for (auto& w : state_writers_) w->Reset();
  }

 private:
  int key_words_;
  BlockedOpenHashTable table_;
  std::vector<uint32_t> slots_;  // hashing mapping vector (slot per row)
  std::vector<uint8_t> dests_;   // partitioning mapping vector (digit per row)
  std::vector<std::unique_ptr<SwcWriter>> key_writers_;
  std::vector<std::unique_ptr<SwcWriter>> state_writers_;
  obs::WorkerCounters counters_;
};

// Per-(worker, pass) execution state.
class PassContext {
 public:
  // key width is taken from `resources` (which owns the table).
  // `control`, when non-null, is polled at morsel entry and at table-flush
  // boundaries; a fired token unwinds the pass by throwing StatusError
  // (cea/exec/cancellation.h), which the scheduler converts back into a
  // typed Status.
  // `spill`, when non-null, is consulted at the same morsel/flush
  // boundaries: under memory pressure completed partition runs are written
  // to the pass's spill streams (keyed by `pass_id`) and their chunks
  // returned to the pool.
  PassContext(const StateLayout& layout, const Policy& policy,
              WorkerResources* resources, int level, ExecStats* stats,
              const QueryControl* control = nullptr,
              SpillManager* spill = nullptr, uint64_t pass_id = 0);

  // Processes one morsel with the current mode, switching routines at
  // table-flush / quota boundaries as the policy dictates. Throws
  // StatusError when the attached QueryControl fired (cooperative
  // cancellation at morsel/flush granularity, never per row).
  void ProcessMorsel(const Morsel& morsel);

  // Called once when the worker can claim no more morsels. If this worker
  // alone processed the entire pass (`rows_processed() == pass_total_rows`)
  // with pure, never-flushed hashing, the table holds the bucket's final
  // aggregate: it is emitted as one distinct run into *final_run and the
  // function returns true. Otherwise leftovers are split/flushed into
  // runs() and false is returned.
  bool Finalize(size_t pass_total_rows, Run* final_run);

  std::array<Run, kFanOut>& runs() { return runs_; }
  size_t rows_processed() const { return rows_processed_; }
  Mode mode() const { return mode_; }

 private:
  // Inserts rows [from, from+n) of the morsel's keys into the table,
  // recording slots into the mapping buffer at absolute positions
  // [from, from+*consumed). Returns true if the table filled up (then
  // *consumed < n).
  bool InsertKeys(const Morsel& m, size_t from, size_t n, size_t* consumed);

  void ApplyValuesHash(const Morsel& m, size_t from, size_t len);
  void PartitionRange(const Morsel& m, size_t from, size_t to);
  void SplitTable();
  // Under budget pressure, flushes the SWC writers and spills every run
  // that accumulated at least kMinSpillRunRows to this pass's streams.
  void MaybeSpill();

  const StateLayout& layout_;
  const Policy& policy_;
  WorkerResources& res_;
  int level_;
  ExecStats* stats_;
  const QueryControl* control_;
  SpillManager* spill_;
  uint64_t pass_id_;

  std::array<Run, kFanOut> runs_;
  std::array<uint32_t, kFanOut> split_touches_{};  // splits that hit partition p
  bool partitioned_any_ = false;

  Mode mode_;
  uint64_t partition_budget_ = 0;
  uint64_t table_rows_in_ = 0;   // rows inserted since last Clear
  uint64_t rows_processed_ = 0;
  uint32_t flushes_ = 0;

  // Test access to the private routine entry points (InsertKeys contracts
  // are covered directly in routines_test).
  friend struct PassContextTestPeer;
};

// Exact-key aggregation of a morsel sequence with a growable table. Used
// for max-depth fallback buckets and PartitionAlways' final pass. Appends
// the aggregate as one distinct run. `control`, when non-null, is polled
// between morsels (throws StatusError once it fired).
void AggregateExact(const std::vector<Morsel>& morsels, int key_words,
                    const StateLayout& layout, size_t expected_groups,
                    Run* final_run, const QueryControl* control = nullptr);

// Builds the morsel list of a bucket (one morsel per key chunk, with the
// state chunks attached). The bucket must stay alive while morsels are
// used.
std::vector<Morsel> MorselsForBucket(const Bucket& bucket, int key_words,
                                     const StateLayout& layout);

}  // namespace cea

#endif  // CEA_CORE_ROUTINES_H_
