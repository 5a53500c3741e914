// AggregationOperator: the public GROUP-BY/aggregation operator.
//
// This is the paper's contribution assembled: a recursive MSD radix sort
// on hash values (Algorithm 2) whose per-run routine — HASHING with early
// aggregation or tuned PARTITIONING — is chosen at runtime by a Policy,
// by default the ADAPTIVE strategy of Section 5. The operator is
// cache-efficient for any output cardinality K without knowing K in
// advance, parallelizes over both input morsels and recursive buckets,
// and emits results as soon as buckets complete.
//
// Usage:
//   AggregationOperator op({{AggFn::kSum, 0}, {AggFn::kCount, -1}});
//   ResultTable result;
//   Status s = op.Execute(InputTable::FromColumns(keys, {&amounts}), &result);
//
// Execute may be called repeatedly; thread pool, per-thread hash tables
// and the spill file (see AggregationOptions::spill_dir) are reused across
// calls.

#ifndef CEA_CORE_AGGREGATION_OPERATOR_H_
#define CEA_CORE_AGGREGATION_OPERATOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cea/columnar/aggregate_function.h"
#include "cea/columnar/column.h"
#include "cea/common/machine.h"
#include "cea/common/status.h"
#include "cea/core/policy.h"
#include "cea/core/routines.h"
#include "cea/exec/cancellation.h"
#include "cea/exec/task_scheduler.h"
#include "cea/mem/chunk_pool.h"
#include "cea/mem/spill_file.h"
#include "cea/obs/obs.h"

namespace cea {

class SpillManager;

// Pre-size hint for the growable table of an exact (fallback/final) pass
// at `level`: the caller's k_hint scaled down by the fan-out of every
// completed radix level, clamped to a floor — deep recursions would
// otherwise divide the hint to zero and pay doubling/rehash churn from a
// minimal table. A zero k_hint (cardinality unknown) stays zero.
size_t ExactGroupsHint(size_t k_hint, int level);

struct AggregationOptions {
  enum class PolicyKind { kAdaptive, kHashingOnly, kPartitionAlways };

  // Worker threads; 0 = all hardware threads.
  int num_threads = 0;

  // Per-thread hash table budget in bytes; 0 = detected L3 share
  // (Section 4.1: the table is fixed to the thread's share of L3).
  size_t table_bytes = 0;

  // Fill rate at which the HASHING table is considered full (Section 4.1:
  // 25% keeps collisions near zero; the ablation bench sweeps this).
  double table_max_fill = 0.25;

  PolicyKind policy = PolicyKind::kAdaptive;
  // Adaptive constants (Appendix A): switch to partitioning when the
  // reduction factor of a full table is below alpha0; switch back after
  // c * table-capacity partitioned rows.
  double alpha0 = 11.0;
  uint64_t c = 10;
  // Total passes for PolicyKind::kPartitionAlways.
  int partition_passes = 2;

  // Rows per level-0 morsel (also the work-stealing granularity).
  size_t morsel_rows = 1 << 16;

  // Optional output-cardinality hint. Only pre-sizes the growable tables
  // of fallback/final passes (the competitors of Section 6.4 *require*
  // this; ADAPTIVE never does).
  size_t k_hint = 0;

  // Existing writable directory for the spill file; empty disables
  // spilling, in which case tripping the MemoryBudget fails the execution
  // with kResourceExhausted. With a directory set and a non-zero budget
  // limit, completed partition runs are written to an unlinked temp file
  // under pressure and read back during recursion in waves of up to one
  // bucket per worker (spill_manager.h), so working sets far beyond the
  // budget complete. The operator creates the file at its first spill and
  // keeps it until destruction, rewinding it for each execution: an idle
  // operator holds as much disk as its largest execution spilled.
  std::string spill_dir;
  // Fraction of the budget limit that MemoryBudget::used() may reach
  // before spilling starts (and, used() being monotone, stays on);
  // checked at morsel/flush boundaries, so values close to 1 leave no
  // headroom for in-flight allocations.
  double spill_threshold = 0.8;

  MachineInfo machine = DetectMachine();

  // Shared worker pool (e.g. QuerySession::scheduler()); non-owning, must
  // outlive the operator. With nullptr the operator owns a private pool of
  // num_threads workers. With a shared pool num_threads is ignored — the
  // per-worker resources are sized to the pool, because worker ids arrive
  // from it.
  TaskScheduler* scheduler = nullptr;

  // External cancellation handle (CancellationSource::token()). Checked
  // cooperatively at morsel and SWC-flush boundaries and at
  // bucket-schedule points: once it fires, Execute/ConsumeBatch/
  // FinishStream return kCancelled within about one morsel of work per
  // worker and the operator stays reusable. A default token never fires.
  CancellationToken cancel_token;

  // Per-execution time budget, armed when Execute/BeginStream starts
  // (for streaming it covers BeginStream through FinishStream). Zero or
  // negative = no deadline. Expiry surfaces as kDeadlineExceeded with the
  // same cooperative granularity as cancellation.
  std::chrono::nanoseconds deadline{0};

  // Tags this operator's trace spans (concurrent queries share one
  // ObsContext trace); 0 = untagged standalone execution.
  uint64_t query_id = 0;

  // Optional observability session (hardware counters + trace spans per
  // pass). Non-owning; must outlive the operator. With nullptr the hot
  // path pays a single pointer test per pass. Counter totals of each
  // execution are written back into the context at result collection; the
  // trace accumulates across executions until ObsContext::trace().Clear().
  obs::ObsContext* obs = nullptr;

  // Test-only fault injection for the correctness harness: when set, every
  // scheduled pass/fallback task invokes this with its radix level before
  // processing. A hook that throws exercises the error-propagation path —
  // the scheduler captures the exception and Execute/ConsumeBatch/
  // FinishStream return it as a Status. Must be thread-safe; leave null in
  // production.
  std::function<void(int level)> fault_hook;
};

class AggregationOperator {
 public:
  explicit AggregationOperator(std::vector<AggregateSpec> specs,
                               AggregationOptions options = {});
  ~AggregationOperator();

  AggregationOperator(const AggregationOperator&) = delete;
  AggregationOperator& operator=(const AggregationOperator&) = delete;

  // Aggregates `input` into `result` (group order unspecified). If `stats`
  // is non-null it receives merged execution telemetry. Returns non-OK on
  // invalid arguments or when a pass fails at runtime (a task threw, e.g.
  // on allocation failure); after an error the operator is reset and stays
  // reusable.
  Status Execute(const InputTable& input, ResultTable* result,
                 ExecStats* stats = nullptr);

  // Streaming (push-based) interface for pipeline integration
  // (Section 3.3, JIT processing model): the pipeline fragment that ends
  // in the aggregation feeds batches into the operator; the recursive
  // bucket processing is the second code fragment and runs in
  // FinishStream. ConsumeBatch runs a batch on the pool, up to one morsel
  // per worker; each worker keeps its own level-0 pass context for the
  // whole stream. A batch below morsel_rows is one morsel, and every such
  // batch goes into the same context, so a small stream or input still
  // finishes in one pass. ConsumeBatch returns once the batch is consumed,
  // so batch buffers may be reused or freed after it returns.
  // Execute(input) is the one-batch stream.
  //
  //   op.BeginStream(key_columns);
  //   while (...) op.ConsumeBatch(batch);   // any batch sizes, >= 0 rows
  //   op.FinishStream(&result, &stats);
  Status BeginStream(int key_columns = 1);
  Status ConsumeBatch(const InputTable& batch);
  Status FinishStream(ResultTable* result, ExecStats* stats = nullptr);

  const StateLayout& layout() const { return layout_; }
  const AggregationOptions& options() const { return options_; }
  int num_threads() const { return scheduler_->num_threads(); }
  const Policy& policy() const { return *policy_; }

  // Replaces the external cancellation token / time budget for subsequent
  // executions (a default token / zero budget clears them). Must not be
  // called while an Execute is running or a stream is open.
  void set_cancel_token(CancellationToken token) {
    options_.cancel_token = std::move(token);
  }
  void set_deadline(std::chrono::nanoseconds deadline) {
    options_.deadline = deadline;
  }

 private:
  struct Pass;

  // (Re)builds the per-worker resources when the key width changes
  // between Execute calls.
  void EnsureResources(int key_words);
  // Recurses on a bucket from a task on worker `worker_id`: a lone
  // distinct run is final output (EmitFinal), anything else becomes a
  // pass or an exact task.
  void ScheduleBucket(int worker_id, Bucket bucket, int level);
  // Routes a completed pass's child bucket: schedules it in memory, or —
  // when its partition already spilled, or the budget is under pressure —
  // moves the in-memory runs to the partition's spill stream and queues
  // the bucket for the restore phase.
  void DispatchBucket(int worker_id, uint64_t parent_pass_id, uint32_t p,
                      Bucket child, int level);
  // Restores queued spilled buckets in waves of up to one bucket per
  // worker, bounded by the budget's free room (SpillManager::TakeWave):
  // each bucket is restored (traced as a "restore" span) and scheduled by
  // its own task, and each wave runs to completion before the next.
  Status DrainSpilledBuckets();
  void SchedulePass(std::shared_ptr<Pass> pass);
  // One task of a pass, claiming morsels from its cursor. A level-0 task
  // runs part of one batch into its worker's stream context; a deeper
  // pass's task finalizes its own context, and the last runs CompletePass.
  void RunPassWorker(const std::shared_ptr<Pass>& pass, int worker_id);
  // Finalizes one open level-0 context; the last of these tasks runs
  // CompletePass.
  void FinishStreamWorker(const std::shared_ptr<Pass>& pass, int worker_id);
  // Ends `ctx`'s part of `pass`; true when it hashed the whole pass
  // without flushing and its table went out as final output.
  bool FinalizeContext(const Pass& pass, PassContext* ctx, int worker_id);
  void CompletePass(const std::shared_ptr<Pass>& pass, int worker_id);
  void ScheduleExact(std::vector<Morsel> morsels, Bucket source, int level);
  // Retains a fully aggregated run for result assembly. Normally it waits
  // in worker_finals_; under latched memory pressure it is evacuated to
  // the spill manager's final-output stream instead — a spilling query's
  // result can exceed the budget by itself (e.g. all keys distinct), and
  // final rows are never touched again until AssembleResult. Throws
  // StatusError on spill I/O failure or cancellation.
  void EmitFinal(int worker_id, Run&& run);
  Status AssembleResult(ResultTable* result);

  StateLayout layout_;
  AggregationOptions options_;
  int key_words_ = 0;  // key width of the current/last Execute
  std::unique_ptr<Policy> policy_;
  // Set when options_.scheduler == nullptr; otherwise the pool is shared.
  std::unique_ptr<TaskScheduler> owned_scheduler_;
  TaskScheduler* scheduler_ = nullptr;
  // Per-operator completion/error accounting on the (possibly shared)
  // pool. Declared after owned_scheduler_ so it is destroyed first — its
  // destructor takes the scheduler's mutex.
  std::unique_ptr<TaskGroup> group_;
  // Per-execution cancellation/deadline view; armed by Execute/BeginStream
  // and polled by every pass context and exact task of this operator.
  QueryControl control_;

  // The spill file, opened at the first spill and kept for the
  // operator's lifetime. ResetExecutionState rewinds it to offset 0, so
  // each execution overwrites the extents of the last one instead of
  // paying for a close that frees them. It is unlinked, so destruction
  // (or a crash) reclaims its disk space: at most the largest
  // execution's spill volume.
  SpillFile spill_file_;
  // Per-execution spill state over spill_file_; null when
  // options_.spill_dir is empty. Recreated by ResetExecutionState.
  std::unique_ptr<SpillManager> spill_manager_;

  std::vector<std::unique_ptr<WorkerResources>> resources_;  // per worker
  std::vector<ExecStats> worker_stats_;                      // per worker
  std::vector<std::vector<Run>> worker_finals_;              // per worker

  std::atomic<uint64_t> num_passes_{0};
  std::atomic<uint64_t> num_exact_{0};  // ids for "exact" trace spans

  // The level-0 pass of the open stream (single producer; see
  // BeginStream); null while no stream is open.
  std::shared_ptr<Pass> level0_;

  Status ValidateSpecs(const InputTable& input) const;
  void ResetExecutionState();
  // Returns the operator to a schedulable state after an aborted
  // execution: per-worker scratch (SWC lines, table) holds partial pass
  // output that must not leak into the next Execute.
  void RecoverExecutionState();
  // Tears down the stream after a failed batch or finalization. Returns
  // the status of draining the scheduler, so a worker failure during
  // teardown is surfaced to the caller instead of silently swallowed.
  Status AbortStream();
  // Assembles the result (including any spilled final output, whose
  // read-back can fail) and fills in merged telemetry.
  Status CollectResult(ResultTable* result, ExecStats* stats);
  // Rebuilds options_.obs->profile() from the merged execution telemetry
  // (strategy decision, per-level pass stats, scheduler, memory, per-worker
  // subtrees). Called from CollectResult; costs nothing on the hot path.
  void FillProfile(const ExecStats& merged);

  // ChunkPool/MemoryBudget snapshot taken at execution start; the deltas
  // become the ExecStats memory counters at result collection.
  ChunkPool::Stats pool_stats_base_;
  // TaskScheduler counter snapshot taken at execution start (the pool may
  // be shared and is process-lifetime monotonic, same delta scheme).
  TaskScheduler::Stats scheduler_stats_base_;
  // Execution start time; CollectResult turns it into the profile's
  // total_time timer.
  std::chrono::steady_clock::time_point exec_start_;
};

}  // namespace cea

#endif  // CEA_CORE_AGGREGATION_OPERATOR_H_
