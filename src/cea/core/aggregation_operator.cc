#include "cea/core/aggregation_operator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <type_traits>

#include "cea/common/bits.h"
#include "cea/common/check.h"
#include "cea/core/spill_manager.h"

namespace cea {

namespace {

// Trace-span routine tag of a pass segment, derived from the per-worker
// row deltas (a pass may switch routines mid-stream).
const char* RoutineLabel(uint64_t hashed, uint64_t partitioned) {
  if (hashed != 0 && partitioned != 0) return "MIXED";
  if (partitioned != 0) return "PARTITIONING";
  if (hashed != 0) return "HASHING";
  return "IDLE";
}

// Back-to-back exact tasks on a worker are merged into one trace span when
// the gap between them is below this; a genuine stall or an interleaved
// pass of another kind still starts a fresh span.
constexpr uint64_t kExactSpanGapNs = 25'000;

// Combines the primary failure of a stream teardown with the status of
// draining the scheduler, so neither error is lost. Keeps the primary
// status' code (a cancelled stream must surface kCancelled, not a generic
// runtime error).
Status MergeAbortStatus(const Status& drain, Status primary) {
  if (drain.ok()) return primary;
  return Status::FromCode(primary.code(),
                          primary.message() +
                              "; worker error during teardown: " +
                              drain.message());
}

// Floor for ExactGroupsHint: small enough not to waste memory on a truly
// tiny bucket, large enough that the growable table does not start at its
// minimal capacity and double repeatedly while absorbing a typical
// fallback bucket.
constexpr size_t kExactGroupsHintFloor = 64;

}  // namespace

size_t ExactGroupsHint(size_t k_hint, int level) {
  if (k_hint == 0) return 0;
  size_t expected = k_hint;
  for (int l = 0; l < level && expected != 0; ++l) expected /= kFanOut;
  return std::max(expected, kExactGroupsHintFloor);
}

// One recursive pass: all runs of one bucket at one level, cut into
// morsels that the participating worker tasks claim from the shared
// cursor. The last worker to finish runs the continuation (CompletePass).
// The level-0 pass is the stream: each ConsumeBatch points `morsels` at
// its batch, and FinishStream's finalize tasks end it.
struct AggregationOperator::Pass {
  int level = 0;
  uint64_t id = 0;  // ordinal among scheduled passes; tags trace spans
  std::vector<Morsel> morsels;
  size_t total_rows = 0;
  Bucket source;  // keeps run memory alive for the duration of the pass

  std::atomic<size_t> cursor{0};
  std::atomic<int> active_workers{0};

  // Level 0 only: each worker slot's context, open until FinishStream.
  std::vector<std::unique_ptr<PassContext>> open;
  std::mutex contexts_mutex;  // guards `contexts` and, at finish, `open`
  std::vector<std::unique_ptr<PassContext>> contexts;  // finalized
};

AggregationOperator::AggregationOperator(std::vector<AggregateSpec> specs,
                                         AggregationOptions options)
    : layout_(specs), options_(options) {
  if (options_.num_threads <= 0) {
    options_.num_threads = options_.machine.hardware_threads;
  }
  if (options_.table_bytes == 0) {
    options_.table_bytes = options_.machine.l3_bytes_per_thread;
  }
  switch (options_.policy) {
    case AggregationOptions::PolicyKind::kAdaptive:
      policy_ = MakeAdaptivePolicy(options_.alpha0, options_.c);
      break;
    case AggregationOptions::PolicyKind::kHashingOnly:
      policy_ = MakeHashingOnlyPolicy();
      break;
    case AggregationOptions::PolicyKind::kPartitionAlways:
      policy_ = MakePartitionAlwaysPolicy(options_.partition_passes);
      break;
  }
  if (options_.scheduler != nullptr) {
    // Shared pool: worker ids arrive from it, so every per-worker array
    // below must be sized to the pool, not to the caller's num_threads.
    scheduler_ = options_.scheduler;
    options_.num_threads = scheduler_->num_threads();
  } else {
    owned_scheduler_ = std::make_unique<TaskScheduler>(options_.num_threads);
    scheduler_ = owned_scheduler_.get();
  }
  group_ = std::make_unique<TaskGroup>(scheduler_);
  if (options_.obs != nullptr && options_.obs->trace_enabled()) {
    // Size the per-worker span buffers before any pass records into them.
    options_.obs->trace().EnsureThreads(options_.num_threads);
  }
  EnsureResources(/*key_words=*/1);
  worker_stats_.resize(options_.num_threads);
  worker_finals_.resize(options_.num_threads);
}

void AggregationOperator::EnsureResources(int key_words) {
  if (key_words == key_words_) return;
  CEA_CHECK_MSG(key_words >= 1 && key_words <= kMaxKeyWords,
                "unsupported number of grouping columns");
  resources_.clear();
  resources_.reserve(options_.num_threads);
  for (int t = 0; t < options_.num_threads; ++t) {
    resources_.push_back(std::make_unique<WorkerResources>(
        key_words, layout_, options_.table_bytes, options_.morsel_rows,
        options_.table_max_fill));
  }
  key_words_ = key_words;
}

AggregationOperator::~AggregationOperator() = default;

Status AggregationOperator::ValidateSpecs(const InputTable& input) const {
  for (size_t s = 0; s < layout_.specs.size(); ++s) {
    const AggregateSpec& spec = layout_.specs[s];
    if (NeedsInput(spec.fn)) {
      if (spec.input_column < 0 ||
          static_cast<size_t>(spec.input_column) >= input.values.size()) {
        return Status::InvalidArgument(
            std::string(AggFnName(spec.fn)) +
            " references input column out of range");
      }
      if (input.num_rows != 0 && input.values[spec.input_column] == nullptr) {
        return Status::InvalidArgument("null input column");
      }
    }
  }
  if (input.num_rows != 0 && input.keys == nullptr) {
    return Status::InvalidArgument("null key column");
  }
  for (const uint64_t* extra : input.extra_keys) {
    if (input.num_rows != 0 && extra == nullptr) {
      return Status::InvalidArgument("null extra key column");
    }
  }
  if (input.key_columns() > kMaxKeyWords) {
    return Status::InvalidArgument("too many grouping columns");
  }
  return Status::Ok();
}

void AggregationOperator::ResetExecutionState() {
  // The previous execution's segments are dead, on success and on error
  // unwind alike: the next one overwrites the file from offset 0.
  spill_manager_.reset();
  spill_file_.Rewind();
  if (!options_.spill_dir.empty()) {
    SpillManager::Config config;
    config.dir = options_.spill_dir;
    config.threshold = options_.spill_threshold;
    spill_manager_ = std::make_unique<SpillManager>(
        config, key_words_, layout_, &control_, &spill_file_);
  }
  for (auto& f : worker_finals_) f.clear();
  for (auto& s : worker_stats_) s = ExecStats{};
  num_passes_.store(0, std::memory_order_relaxed);
  num_exact_.store(0, std::memory_order_relaxed);
  // An aborted previous execution may have left counter intervals
  // accumulated but never collected; they must not leak into this run.
  for (auto& r : resources_) r->counters().TakeTotal();
  // Memory telemetry window: counters are process-wide monotonic, so the
  // per-execution numbers are deltas against this snapshot.
  pool_stats_base_ = ChunkPool::Global().GetStats();
  MemoryBudget::Global().ResetPeak();
  scheduler_stats_base_ = scheduler_->GetStats();
  exec_start_ = std::chrono::steady_clock::now();
}

void AggregationOperator::EmitFinal(int worker_id, Run&& run) {
  if (spill_manager_ != nullptr && run.size() != 0 &&
      spill_manager_->ShouldSpill()) {
    spill_manager_->SpillRun(SpillManager::kFinalKey, &run);
    return;
  }
  worker_finals_[worker_id].push_back(std::move(run));
}

Status AggregationOperator::CollectResult(ResultTable* result,
                                          ExecStats* stats) {
  Status assembled = AssembleResult(result);
  if (!assembled.ok()) return assembled;
  ExecStats merged;
  for (const ExecStats& s : worker_stats_) merged.Merge(s);
  merged.passes = num_passes_.load(std::memory_order_relaxed);
  ChunkPool::Stats pool = ChunkPool::Global().GetStats();
  merged.chunks_allocated = pool.fresh_chunks - pool_stats_base_.fresh_chunks;
  merged.chunks_recycled =
      pool.recycled_chunks - pool_stats_base_.recycled_chunks;
  merged.mem_peak_bytes = MemoryBudget::Global().peak();
  if (spill_manager_ != nullptr) {
    merged.spilled_bytes = spill_manager_->bytes_written();
    merged.spill_read_bytes = spill_manager_->bytes_read();
    merged.spill_files = spill_manager_->files_used();
  }
  if (stats != nullptr) *stats = merged;
  if (options_.obs != nullptr && options_.obs->counters_enabled()) {
    obs::PerfSample totals;
    for (auto& r : resources_) totals.Accumulate(r->counters().TakeTotal());
    options_.obs->SetCounterTotals(totals);
  }
  if (options_.obs != nullptr && options_.obs->profile_enabled()) {
    FillProfile(merged);
  }
  return Status::Ok();
}

void AggregationOperator::FillProfile(const ExecStats& merged) {
  using Unit = obs::RuntimeProfile::Unit;
  using MergeOp = obs::RuntimeProfile::MergeOp;
  obs::RuntimeProfile& root = options_.obs->profile();
  root.Clear();  // a reused ObsContext profiles the last execution only

  const char* policy_name = "ADAPTIVE";
  switch (options_.policy) {
    case AggregationOptions::PolicyKind::kAdaptive:
      policy_name = "ADAPTIVE";
      break;
    case AggregationOptions::PolicyKind::kHashingOnly:
      policy_name = "HASHING_ONLY";
      break;
    case AggregationOptions::PolicyKind::kPartitionAlways:
      policy_name = "PARTITION_ALWAYS";
      break;
  }
  root.SetInfo("threads", std::to_string(num_threads()));
  root.AddCounter("total_time", Unit::kNanos, MergeOp::kMax)
      ->Set(std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - exec_start_)
                .count());
  // Level-0 intake; rows re-processed at deeper levels are reported per
  // level under "passes".
  root.AddCounter("rows_in", Unit::kRows)
      ->Set(static_cast<int64_t>(merged.rows_hashed_at_level[0] +
                                 merged.rows_partitioned_at_level[0]));

  // The child nodes in render order; the ExecStats fields fill them below.
  obs::RuntimeProfile* strategy = root.GetOrCreateChild("strategy");
  strategy->SetInfo("policy", policy_name);
  strategy->SetInfo("alpha0", std::to_string(options_.alpha0));
  strategy->SetInfo("c", std::to_string(options_.c));
  // Derived from sum_alpha / num_alpha, so not a list entry; it opens the
  // node.
  strategy->AddCounter("mean_alpha", Unit::kDouble, MergeOp::kMax)
      ->SetDouble(merged.mean_alpha());

  obs::RuntimeProfile* passes = root.GetOrCreateChild("passes");
  for (int l = 0; l <= merged.max_level &&
                  l < static_cast<int>(merged.rows_hashed_at_level.size());
       ++l) {
    obs::RuntimeProfile* level =
        passes->GetOrCreateChild("level_" + std::to_string(l));
    level->AddCounter("rows_hashed", Unit::kRows)
        ->Set(static_cast<int64_t>(merged.rows_hashed_at_level[l]));
    level->AddCounter("rows_partitioned", Unit::kRows)
        ->Set(static_cast<int64_t>(merged.rows_partitioned_at_level[l]));
    level->AddCounter("cpu_time", Unit::kNanos)
        ->Set(static_cast<int64_t>(merged.seconds_at_level[l] * 1e9));
  }

  obs::RuntimeProfile* sched = root.GetOrCreateChild("scheduler");
  TaskScheduler::Stats ss = scheduler_->GetStats();
  sched->AddCounter("tasks_submitted")
      ->Set(static_cast<int64_t>(ss.submitted - scheduler_stats_base_.submitted));
  sched->AddCounter("tasks_executed")
      ->Set(static_cast<int64_t>(ss.executed - scheduler_stats_base_.executed));
  sched->AddCounter("tasks_helped")
      ->Set(static_cast<int64_t>(ss.helped - scheduler_stats_base_.helped));

  root.GetOrCreateChild("memory");

  // Spill subtree only when spilling is configured, so the default profile
  // tree (pinned by check_profile_golden.py) is unchanged.
  obs::RuntimeProfile* spill = nullptr;
  if (spill_manager_ != nullptr) {
    spill = root.GetOrCreateChild("spill");
    spill->SetInfo("dir", spill_manager_->dir());
    spill->SetInfo("threshold", std::to_string(spill_manager_->threshold()));
  }

  // Each CEA_EXEC_STATS_FIELDS entry under its node; skipped when the
  // profile does not show the field or the node is absent.
  auto add_field = [&root](const char* node, const char* counter, Unit unit,
                           MergeOp op, auto value) {
    obs::RuntimeProfile* parent =
        node == nullptr ? nullptr : root.FindChild(node);
    if (parent == nullptr) return;
    obs::RuntimeProfile::Counter* c = parent->AddCounter(counter, unit, op);
    if constexpr (std::is_floating_point_v<decltype(value)>) {
      c->SetDouble(value);
    } else {
      c->Set(static_cast<int64_t>(value));
    }
  };
#define CEA_PROFILE_FIELD(type, name, merge, node, counter, unit) \
  add_field(node, counter, Unit::k##unit, MergeOp::k##merge, merged.name);
  CEA_EXEC_STATS_FIELDS(CEA_PROFILE_FIELD)
#undef CEA_PROFILE_FIELD

  // SpillManager's own counters follow the spill fields.
  if (spill != nullptr) {
    spill->AddCounter("buckets_restored")
        ->Set(static_cast<int64_t>(spill_manager_->buckets_restored()));
    spill->AddCounter("restore_time", Unit::kNanos)
        ->Set(static_cast<int64_t>(spill_manager_->restore_ns()));
    spill->AddCounter("write_wait_time", Unit::kNanos)
        ->Set(static_cast<int64_t>(spill_manager_->write_wait_ns()));
    spill->AddCounter("write_time", Unit::kNanos)
        ->Set(static_cast<int64_t>(spill_manager_->write_ns()));
  }

  // Worker nodes go through the real MergeFrom path: each worker's stats
  // become a one-node subtree, folded into an aggregate that keeps sums
  // plus a kMax skew signal. With one worker the aggregate equals it.
  obs::RuntimeProfile* workers = root.GetOrCreateChild("workers");
  workers->SetInfo("count", std::to_string(worker_stats_.size()));
  for (const ExecStats& ws : worker_stats_) {
    obs::RuntimeProfile one("workers");
    one.AddCounter("morsels")->Set(static_cast<int64_t>(ws.morsels));
    one.AddCounter("morsels_max", Unit::kNone, MergeOp::kMax)
        ->Set(static_cast<int64_t>(ws.morsels));
    one.AddCounter("rows_hashed", Unit::kRows)
        ->Set(static_cast<int64_t>(ws.rows_hashed));
    one.AddCounter("rows_partitioned", Unit::kRows)
        ->Set(static_cast<int64_t>(ws.rows_partitioned));
    one.AddCounter("tables_flushed")
        ->Set(static_cast<int64_t>(ws.tables_flushed));
    workers->MergeFrom(one);
  }
}

Status AggregationOperator::Execute(const InputTable& input,
                                    ResultTable* result, ExecStats* stats) {
  if (level0_ != nullptr) {
    return Status::InvalidArgument(
        "Execute called while a stream is open; call FinishStream first");
  }
  Status s = ValidateSpecs(input);
  if (s.ok()) s = BeginStream(input.key_columns());
  if (!s.ok()) return s;
  if (policy_->FinalGrowableLevel() != 0) {
    s = ConsumeBatch(input);
    if (!s.ok()) return s;  // the stream is already torn down
  } else if (input.num_rows != 0) {
    // PartitionAlways(1): one exact pass over the whole input, which only
    // the one-shot interface can give it; FinishStream waits for it.
    std::vector<Morsel> morsels;
    const size_t step = options_.morsel_rows;
    for (size_t off = 0; off < input.num_rows; off += step) {
      morsels.push_back(InputMorsel(input, layout_, off,
                                    std::min(step, input.num_rows - off)));
    }
    ScheduleExact(std::move(morsels), Bucket{}, 0);
  }
  return FinishStream(result, stats);
}

void AggregationOperator::RecoverExecutionState() {
  for (auto& r : resources_) r->ResetForRecovery();
  ResetExecutionState();
}

Status AggregationOperator::AbortStream() {
  // Drain whatever this operator still had scheduled; a worker failure
  // during the drain must reach the caller, not vanish into the teardown.
  // Group-scoped, so a shared pool's other queries are not waited on.
  Status drain = scheduler_->WaitGroup(group_.get());
  level0_.reset();
  RecoverExecutionState();
  control_.Disarm();
  return drain;
}

Status AggregationOperator::BeginStream(int key_columns) {
  if (level0_ != nullptr) {
    return Status::InvalidArgument("stream already open");
  }
  if (key_columns < 1 || key_columns > kMaxKeyWords) {
    return Status::InvalidArgument("unsupported number of grouping columns");
  }
  // The streaming deadline covers BeginStream through FinishStream: the
  // budget is armed here and every batch checks against it.
  control_.Arm(options_.cancel_token, options_.deadline);
  Status pre = control_.Check();
  if (!pre.ok()) {
    control_.Disarm();
    return pre;
  }
  EnsureResources(key_columns);
  ResetExecutionState();
  level0_ = std::make_shared<Pass>();
  level0_->open.resize(num_threads());
  return Status::Ok();
}

Status AggregationOperator::ConsumeBatch(const InputTable& batch) {
  if (level0_ == nullptr) {
    return Status::InvalidArgument("no open stream; call BeginStream first");
  }
  if (batch.key_columns() != key_words_) {
    return Status::InvalidArgument("batch key width differs from stream");
  }
  Status v = ValidateSpecs(batch);
  if (!v.ok()) return v;
  const size_t n = batch.num_rows;
  if (n == 0) return Status::Ok();

  // A batch below a morsel stays one morsel on one worker, as SchedulePass
  // keeps a small bucket, and goes into the stream's shared context (see
  // RunPassWorker): one context that sees every row can finish the query
  // in one pass (the sole-hasher shortcut). A larger batch is cut into up
  // to one morsel per worker, none above a morsel, so large inputs keep
  // morsel-sized work-stealing units.
  const size_t threads = static_cast<size_t>(num_threads());
  const size_t step = n < options_.morsel_rows
                          ? n
                          : std::min(options_.morsel_rows, CeilDiv(n, threads));
  Pass& pass = *level0_;
  pass.morsels.clear();
  for (size_t off = 0; off < n; off += step) {
    pass.morsels.push_back(
        InputMorsel(batch, layout_, off, std::min(step, n - off)));
  }
  pass.cursor.store(0, std::memory_order_relaxed);
  const size_t tasks = std::min(pass.morsels.size(), threads);
  for (size_t t = 0; t < tasks; ++t) {
    scheduler_->Submit(group_.get(), [this, p = level0_](int worker_id) {
      RunPassWorker(p, worker_id);
    });
  }
  // The batch is borrowed for this call only: return once it is consumed.
  Status e = scheduler_->WaitGroup(group_.get());
  if (!e.ok()) return MergeAbortStatus(AbortStream(), std::move(e));
  pass.total_rows += n;
  return Status::Ok();
}

Status AggregationOperator::FinishStream(ResultTable* result,
                                         ExecStats* stats) {
  if (level0_ == nullptr) {
    return Status::InvalidArgument("no open stream; call BeginStream first");
  }
  // A token that fired between batches aborts here instead of paying for
  // the full bucket recursion.
  Status s = control_.Check();
  if (s.ok() && level0_->total_rows != 0) {
    // Second code fragment: finalize every worker's level-0 context on the
    // pool; the last one recurses into the buckets the stream produced.
    num_passes_.fetch_add(1, std::memory_order_relaxed);  // level 0, id 0
    const int tasks = static_cast<int>(
        std::count_if(level0_->open.begin(), level0_->open.end(),
                      [](const auto& ctx) { return ctx != nullptr; }));
    level0_->active_workers.store(tasks, std::memory_order_relaxed);
    for (int t = 0; t < tasks; ++t) {
      scheduler_->Submit(group_.get(), [this, p = level0_](int worker_id) {
        FinishStreamWorker(p, worker_id);
      });
    }
  }
  if (s.ok()) s = scheduler_->WaitGroup(group_.get());
  if (s.ok() && spill_manager_ != nullptr) s = DrainSpilledBuckets();
  if (!s.ok()) return MergeAbortStatus(AbortStream(), std::move(s));
  level0_.reset();
  control_.Disarm();

  Status collected = CollectResult(result, stats);
  if (!collected.ok()) RecoverExecutionState();
  return collected;
}

void AggregationOperator::SchedulePass(std::shared_ptr<Pass> pass) {
  pass->id = num_passes_.fetch_add(1, std::memory_order_relaxed);
  int tasks = static_cast<int>(
      std::min<size_t>(pass->morsels.size(), scheduler_->num_threads()));
  // Splitting a small bucket across workers costs more than it gains: a
  // single worker can finish it with one never-flushed table (the merged
  // final pass), while several workers each produce partial runs that
  // force another recursion level. Reserve intra-bucket parallelism for
  // buckets that are actually large; inter-bucket task parallelism covers
  // the rest (Section 3.2).
  if (pass->total_rows < options_.morsel_rows) tasks = 1;
  CEA_CHECK(tasks >= 1);
  pass->active_workers.store(tasks, std::memory_order_relaxed);
  for (int t = 0; t < tasks; ++t) {
    scheduler_->Submit(group_.get(), [this, pass](int worker_id) {
      RunPassWorker(pass, worker_id);
    });
  }
}

void AggregationOperator::RunPassWorker(const std::shared_ptr<Pass>& pass,
                                        int worker_id) {
  if (options_.fault_hook) options_.fault_hook(pass->level);
  // Level 0 is the stream: each of its tasks runs part of one batch into
  // a context that lives in the pass until FinishStream, normally its
  // worker's. A batch below a morsel is one morsel and one task, and it
  // goes into slot 0's context on whichever worker runs it, so a stream
  // of small batches keeps one context that sees every row (the
  // sole-hasher shortcut). The operator runs no other task meanwhile, so
  // the slot is still used by one thread at a time.
  const bool stream = pass->level == 0;
  const int slot = stream && pass->morsels.size() == 1 ? 0 : worker_id;
  auto start = std::chrono::steady_clock::now();
  {
    ExecStats& ws = worker_stats_[slot];
    obs::PassScope span(options_.obs, &resources_[worker_id]->counters(),
                        worker_id, stream ? "stream_batch" : "pass",
                        pass->level, pass->id);
    span.set_query(options_.query_id);
    const uint64_t hashed0 = ws.rows_hashed;
    const uint64_t partitioned0 = ws.rows_partitioned;
    std::unique_ptr<PassContext> own;
    std::unique_ptr<PassContext>& ctx = stream ? pass->open[slot] : own;
    uint64_t rows = 0;
    const size_t num_morsels = pass->morsels.size();
    try {
      for (size_t i = pass->cursor.fetch_add(1, std::memory_order_relaxed);
           i < num_morsels;
           i = pass->cursor.fetch_add(1, std::memory_order_relaxed)) {
        if (!ctx) {
          ctx = std::make_unique<PassContext>(layout_, *policy_,
                                              resources_[slot].get(),
                                              pass->level, &ws, &control_,
                                              spill_manager_.get(), pass->id);
        }
        ctx->ProcessMorsel(pass->morsels[i]);
        rows += pass->morsels[i].n;
      }
      if (!stream && ctx && !FinalizeContext(*pass, ctx.get(), worker_id)) {
        std::lock_guard<std::mutex> lock(pass->contexts_mutex);
        pass->contexts.push_back(std::move(ctx));
      }
    } catch (...) {
      // The aborted pass left rows in this slot's SWC lines and table.
      // Another pass of this execution that is already queued may still
      // run on this worker, and its PassContext must find both empty.
      resources_[slot]->ResetForRecovery();
      throw;
    }
    span.set_rows(rows);
    span.set_routine(RoutineLabel(ws.rows_hashed - hashed0,
                                  ws.rows_partitioned - partitioned0));
  }
  worker_stats_[slot].seconds_at_level[pass->level] +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!stream &&
      pass->active_workers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    CompletePass(pass, worker_id);
  }
}

void AggregationOperator::FinishStreamWorker(const std::shared_ptr<Pass>& pass,
                                             int worker_id) {
  if (options_.fault_hook) options_.fault_hook(0);
  auto start = std::chrono::steady_clock::now();
  int slot = worker_id;
  {
    obs::PassScope span(options_.obs, &resources_[worker_id]->counters(),
                        worker_id, "pass", /*level=*/0, pass->id);
    span.set_query(options_.query_id);
    // Take this worker's own context while it is open, else any open one
    // (each task takes one): finalized on its own worker, a context's
    // table and SWC lines stay in the cache of the worker that reuses them
    // at the next level.
    std::unique_ptr<PassContext> ctx;
    {
      std::lock_guard<std::mutex> lock(pass->contexts_mutex);
      if (pass->open[slot] == nullptr) {
        slot = 0;
        while (pass->open[slot] == nullptr) ++slot;
      }
      ctx = std::move(pass->open[slot]);
    }
    try {
      if (!FinalizeContext(*pass, ctx.get(), worker_id)) {
        std::lock_guard<std::mutex> lock(pass->contexts_mutex);
        pass->contexts.push_back(std::move(ctx));
      }
    } catch (...) {
      resources_[slot]->ResetForRecovery();
      throw;
    }
  }
  // The context's stats live in its slot; the span went to this worker's
  // tid, whose buffer only this thread writes.
  worker_stats_[slot].seconds_at_level[0] +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (pass->active_workers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    CompletePass(pass, worker_id);
  }
}

bool AggregationOperator::FinalizeContext(const Pass& pass, PassContext* ctx,
                                          int worker_id) {
  Run final_run(key_words_, layout_);
  if (!ctx->Finalize(pass.total_rows, &final_run)) return false;
  EmitFinal(worker_id, std::move(final_run));
  return true;
}

void AggregationOperator::CompletePass(const std::shared_ptr<Pass>& pass,
                                       int worker_id) {
  // Gather the per-worker runs of each partition into child buckets and
  // recurse. Runs management is the only synchronized step (Section 3.2)
  // and happens once per pass.
  for (uint32_t p = 0; p < kFanOut; ++p) {
    Bucket child;
    for (const std::unique_ptr<PassContext>& ctx : pass->contexts) {
      Run& r = ctx->runs()[p];
      if (!r.empty()) child.push_back(std::move(r));
    }
    // Even an empty child must be dispatched: mid-pass spilling may have
    // moved all of partition p's rows to its spill stream already.
    DispatchBucket(worker_id, pass->id, p, std::move(child), pass->level + 1);
  }
  pass->contexts.clear();
  pass->source.clear();  // release the parent level's run memory
}

void AggregationOperator::DispatchBucket(int worker_id,
                                         uint64_t parent_pass_id, uint32_t p,
                                         Bucket child, int level) {
  if (spill_manager_ != nullptr) {
    const uint64_t key = SpillManager::PartitionKey(parent_pass_id, p);
    const bool spilled = spill_manager_->HasSpilled(key);
    // A lone distinct run is final output; spilling it would only force a
    // re-aggregation of already-final rows.
    const bool is_final = child.size() == 1 && child[0].distinct;
    if (spilled || (!is_final && !child.empty() &&
                    spill_manager_->ShouldSpill())) {
      // The in-memory leftovers join the partition's stream so restore
      // sees the complete bucket, then the bucket waits for a restore
      // wave of the drain phase instead of growing the resident set now.
      for (Run& r : child) spill_manager_->SpillRun(key, &r);
      spill_manager_->EnqueueBucket(key, level);
      return;
    }
  }
  if (!child.empty()) ScheduleBucket(worker_id, std::move(child), level);
}

Status AggregationOperator::DrainSpilledBuckets() {
  // A wave's passes may spill deeper buckets back into the queue; levels
  // strictly increase, so this terminates.
  for (;;) {
    std::vector<SpillManager::PendingBucket> wave =
        spill_manager_->TakeWave(num_threads());
    if (wave.empty()) return Status::Ok();
    for (const SpillManager::PendingBucket& desc : wave) {
      scheduler_->Submit(group_.get(), [this, desc](int worker_id) {
        Run run(key_words_, layout_);
        {
          obs::PassScope span(options_.obs, /*counters=*/nullptr, worker_id,
                              "restore", desc.level, desc.key);
          span.set_query(options_.query_id);
          span.set_rows(desc.rows);
          spill_manager_->Restore(desc, &run);
        }
        Bucket bucket;
        bucket.push_back(std::move(run));
        ScheduleBucket(worker_id, std::move(bucket), desc.level);
      });
    }
    Status e = scheduler_->WaitGroup(group_.get());
    if (!e.ok()) return e;
  }
}

void AggregationOperator::ScheduleBucket(int worker_id, Bucket bucket,
                                         int level) {
  // Bucket-schedule cancellation boundary: a fired token stops the
  // recursion from fanning out further work. Callers are worker tasks
  // (CompletePass, a restore), so the StatusError lands in the
  // scheduler's typed error path.
  control_.ThrowIfCancelled();
  if (bucket.size() == 1 && bucket[0].distinct) {
    // A single fully-aggregated run with unique keys is final output; the
    // recursion stops (Section 3.1).
    worker_stats_[worker_id].distinct_shortcut_runs += 1;
    EmitFinal(worker_id, std::move(bucket[0]));
    return;
  }
  if (level >= kMaxRadixLevel || level == policy_->FinalGrowableLevel()) {
    // Hash bits exhausted (adversarial input) or the policy finishes this
    // level with an unbounded table: exact-key aggregation.
    std::vector<Morsel> morsels = MorselsForBucket(bucket, key_words_, layout_);
    ScheduleExact(std::move(morsels), std::move(bucket), level);
    return;
  }
  auto pass = std::make_shared<Pass>();
  pass->level = level;
  pass->total_rows = BucketRows(bucket);
  pass->source = std::move(bucket);
  pass->morsels = MorselsForBucket(pass->source, key_words_, layout_);
  SchedulePass(std::move(pass));
}

void AggregationOperator::ScheduleExact(std::vector<Morsel> morsels,
                                        Bucket source, int level) {
  size_t expected = ExactGroupsHint(options_.k_hint, level);
  auto morsels_ptr =
      std::make_shared<std::vector<Morsel>>(std::move(morsels));
  auto source_ptr = std::make_shared<Bucket>(std::move(source));
  scheduler_->Submit(group_.get(), [this, morsels_ptr, source_ptr, level,
                                    expected](int worker_id) {
    if (options_.fault_hook) options_.fault_hook(level);
    // Exact tasks are often sub-microsecond (one per tiny bucket), so the
    // instrumentation piggybacks on the clock reads the stats below need
    // anyway and coalesces adjacent spans instead of storing one per task.
    obs::ObsContext* obs = options_.obs;
    obs::WorkerCounters* wc = obs != nullptr && obs->counters_enabled()
                                  ? &resources_[worker_id]->counters()
                                  : nullptr;
    if (wc != nullptr) wc->BeginInterval();
    auto start = std::chrono::steady_clock::now();
    size_t rows = 0;
    for (const Morsel& m : *morsels_ptr) rows += m.n;
    Run final_run(key_words_, layout_);
    AggregateExact(*morsels_ptr, key_words_, layout_, expected, &final_run,
                   &control_);
    auto end = std::chrono::steady_clock::now();
    if (obs != nullptr) {
      obs::TraceSpan span;
      span.name = "exact";
      span.routine = "EXACT";
      span.tid = worker_id;
      span.query_id = options_.query_id;
      span.level = level;
      span.pass_id = num_exact_.fetch_add(1, std::memory_order_relaxed);
      span.rows = rows;
      if (wc != nullptr) span.counters = wc->EndInterval();
      if (obs->trace_enabled()) {
        span.start_ns = obs->trace().NsSinceEpoch(start);
        span.dur_ns = obs->trace().NsSinceEpoch(end) - span.start_ns;
        obs->trace().RecordCoalesced(worker_id, span, kExactSpanGapNs);
      }
    }
    ExecStats& st = worker_stats_[worker_id];
    if (level >= kMaxRadixLevel) st.fallback_buckets += 1;
    st.final_hash_passes += 1;
    int l = std::min(level, kMaxRadixLevel);
    st.rows_hashed += rows;
    st.rows_hashed_at_level[l] += rows;
    st.seconds_at_level[l] += std::chrono::duration<double>(end - start).count();
    st.max_level = std::max(st.max_level, l);
    EmitFinal(worker_id, std::move(final_run));
  });
}

Status AggregationOperator::AssembleResult(ResultTable* result) {
  result->keys.clear();
  result->extra_keys.clear();
  result->aggregates.clear();

  std::vector<const Run*> finals;
  size_t total = 0;
  for (const auto& per_worker : worker_finals_) {
    for (const Run& r : per_worker) {
      finals.push_back(&r);
      total += r.size();
    }
  }
  // Final runs evacuated to disk under pressure: their segments hold
  // disjoint group sets, so they are streamed straight into the result
  // arrays below — the pooled run store (and thus the budget) is never
  // touched on their way back.
  std::vector<SpillManager::Segment> spilled;
  if (spill_manager_ != nullptr) {
    spilled = spill_manager_->TakeFinalSegments();
    for (const SpillManager::Segment& seg : spilled) total += seg.rows;
  }

  result->keys.resize(total);
  result->extra_keys.assign(key_words_ - 1, std::vector<uint64_t>(total));
  result->aggregates.resize(layout_.specs.size());
  for (size_t s = 0; s < layout_.specs.size(); ++s) {
    ResultColumn& col = result->aggregates[s];
    col.fn = layout_.specs[s].fn;
    if (col.fn == AggFn::kAvg) {
      col.f64.resize(total);
    } else {
      col.u64.resize(total);
    }
  }

  // Result column of each final column (key words, then state words). An
  // AVG's sum column has none: its slices wait in `avg_sums` until the
  // count column, which follows it, finishes the quotient into `avg_of`'s
  // f64 column. In-memory runs and evacuated segments both arrive through
  // `scatter`, column by column in row order.
  const int cols = key_words_ + layout_.total_words;
  std::vector<uint64_t*> dst(cols, nullptr);
  std::vector<double*> avg_of(cols, nullptr);
  dst[0] = result->keys.data();
  for (int w = 1; w < key_words_; ++w) {
    dst[w] = result->extra_keys[w - 1].data();
  }
  for (size_t s = 0; s < layout_.specs.size(); ++s) {
    const int col = key_words_ + layout_.word_offset[s];
    ResultColumn& out = result->aggregates[s];
    if (out.fn == AggFn::kAvg) {
      avg_of[col + 1] = out.f64.data();
    } else {
      dst[col] = out.u64.data();
    }
  }
  size_t offset = 0;
  std::vector<uint64_t> avg_sums;
  const SpillManager::SliceSink scatter = [&](int col, uint64_t row,
                                              const uint64_t* data,
                                              size_t n) {
    if (dst[col] != nullptr) {
      std::copy(data, data + n, dst[col] + offset + row);
    } else if (avg_of[col] == nullptr) {
      if (avg_sums.size() < row + n) avg_sums.resize(row + n);
      std::copy(data, data + n, avg_sums.data() + row);
    } else {
      double* out = avg_of[col] + offset + row;
      for (size_t i = 0; i < n; ++i) {
        out[i] = data[i] == 0 ? 0.0
                              : static_cast<double>(avg_sums[row + i]) /
                                    static_cast<double>(data[i]);
      }
    }
  };
  for (const Run* r : finals) {
    r->CheckConsistent();
    for (int col = 0; col < cols; ++col) {
      const ChunkedArray& a = col < key_words_
                                  ? r->key_cols[col]
                                  : r->states[col - key_words_];
      uint64_t row = 0;
      a.ForEachChunk([&](const uint64_t* data, size_t n) {
        scatter(col, row, data, n);
        row += n;
      });
    }
    offset += r->size();
  }
  for (const SpillManager::Segment& seg : spilled) {
    Status rs = spill_manager_->ReadFinalSegment(seg, scatter);
    if (!rs.ok()) return rs;
    offset += static_cast<size_t>(seg.rows);
  }
  CEA_CHECK(offset == total);
  return Status::Ok();
}

}  // namespace cea
