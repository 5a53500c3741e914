// SpillManager: graceful degradation when the run store outgrows the
// memory budget.
//
// The paper's §2 cost model analyzes recursive radix partitioning as an
// external-memory algorithm; this is the component that makes the operator
// behave like one instead of failing with kResourceExhausted (the policy
// follows Graefe's sort/aggregation survey and the classic hybrid-hash
// spill discipline: keep as many buckets memory-resident as the budget
// allows, spill the rest as sequential runs, and recurse over them in
// restore waves: up to one bucket per worker at once, as many as the
// budget's free room holds — RestoreWaveSize below).
//
// Pressure signal. Reserve() fails when used() + request > limit, and
// used() is monotone within a process (the pool retains slabs), so the
// distance of used() to the hard wall is the only reliable danger signal:
// spilling starts once used() >= threshold * limit and, being monotone,
// never stops for the rest of the process. The threshold (< 1) leaves
// headroom so morsel-granular checks react before an allocation trips the
// limit. (A resident estimate of used() - pooled_free_bytes() was tried
// first and self-defeats: spilling refills the pool's freelists, dropping
// the estimate below threshold, while slab growth for *other* size
// classes keeps marching used() into the limit.)
//
// File format. Each radix partition of each pass owns one logical stream,
// keyed by PartitionKey(pass_id, p) — pass ids are unique per execution,
// so streams from different recursion branches never collide. All streams
// of one execution share a single unlinked SpillFile, owned by the
// operator and handed to each execution's manager rewound to offset 0.
// Each spilled run becomes one segment starting at a 4 KiB-aligned offset
// (SpillFile::Pad after every segment), laid out column-major — rows*8
// bytes of key word 0, ..., then each state word. Segments pack into the
// file's 1 MiB staging buffer, which goes to disk only when full, or when
// a reader needs a segment that is still staged. Segment extents (row
// count + file offset) live in memory only, per stream; restore
// concatenates a stream's segments into a single non-distinct Run, which
// the next recursion level re-partitions or re-aggregates from scratch.
// One file — rather than one per stream — bounds the descriptor and
// staging-buffer footprint to a single fd + 1 MiB no matter how deep the
// recursion fans out (deep tiny-budget runs used to exhaust the fd
// limit); each read adds one read window of at most 1 MiB for its
// duration. Restored segments become dead space in the file, and the next
// execution overwrites it from offset 0.
//
// Recovery invariants:
//  * A stream only receives writes while its producing pass runs; the
//    bucket is restored strictly after that pass completed. Appends are
//    serialized by the I/O mutex. Every reader (Restore, ReadFinalSegment)
//    first flushes the staging buffer under the I/O mutex if its segments
//    end past SpillFile::flushed_size(); the reads themselves take no
//    lock: a recorded segment is then complete and padded on disk, so its
//    whole blocks are read with SpillFile::ReadBlocks, which is safe
//    beside other reads and beside appends past it.
//  * A spill that fails mid-segment (I/O error, cancellation) rolls the
//    file back to that segment's start (SpillFile::AbandonTail), keeping
//    earlier segments, staged or on disk, and records nothing: the stream
//    keeps only complete segments on every unwind path.
//  * Restored runs are marked non-distinct even if every contributing run
//    was distinct — rows of one group may be split across segments.
//  * The spill file is unlinked at creation, so closing it (operator
//    destruction, process exit or crash) reclaims all its disk space.
//    Between executions the operator keeps it open at the size of its
//    largest execution's spill volume.
//
// Thread-safe: workers spill concurrently under the I/O mutex and restore
// concurrently without it (after the flush check above); the stream
// registry and the restore queue are guarded by a separate manager mutex.

#ifndef CEA_CORE_SPILL_MANAGER_H_
#define CEA_CORE_SPILL_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cea/columnar/aggregate_function.h"
#include "cea/common/status.h"
#include "cea/core/run.h"
#include "cea/exec/cancellation.h"
#include "cea/mem/spill_file.h"

namespace cea {

// The restore-wave admission rule: how many buckets, from the front of
// the restore queue, one wave restores at once. `restore_bytes` holds the
// queued buckets' restore sizes in queue order, `free_room` the budget's
// free room (UINT64_MAX when unlimited) and `max_buckets` the wave width
// (one bucket per worker). The first bucket is always admitted, so a
// budget that holds one bucket drains one at a time. Each further bucket
// is admitted only while twice the wave's summed restore bytes fits the
// free room: a restored bucket's pass writes its output runs before its
// source run is freed.
size_t RestoreWaveSize(const std::vector<uint64_t>& restore_bytes,
                       uint64_t free_room, int max_buckets);

class SpillManager {
 public:
  struct Config {
    // Existing writable directory for the unlinked temp files.
    std::string dir;
    // Fraction of the budget limit at which spilling starts.
    double threshold = 0.8;
  };

  // A spilled bucket waiting to be restored and rescheduled.
  struct PendingBucket {
    uint64_t key = 0;  // PartitionKey of the stream to restore
    int level = 0;     // recursion level the restored bucket runs at
    uint64_t rows = 0;
  };

  // `control` is polled between I/O chunks so cancellation and deadlines
  // interrupt spill writes/reads like any other pass work; may be null.
  // `file` is the spill file this execution appends to, from its current
  // end; the manager creates it in config.dir at the first spill if it is
  // not open yet and never closes it. It must outlive the manager, and
  // only this manager may touch it while the manager lives.
  SpillManager(Config config, int key_words, const StateLayout& layout,
               const QueryControl* control, SpillFile* file);

  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  // Stream key for partition `p` of pass `pass_id`. Pass ids are unique
  // per execution (AggregationOperator::num_passes_), so shifting by the
  // fan-out width cannot collide across recursion branches.
  static uint64_t PartitionKey(uint64_t pass_id, uint32_t p) {
    return (pass_id << 8) | p;
  }

  // Stream key reserved for evacuated final output. A spilling query's
  // fully aggregated result can exceed the budget all by itself (e.g.
  // every key distinct), and final runs are never touched again until
  // result assembly — so under pressure they move to this stream and are
  // read back straight into the caller's ResultTable, bypassing the
  // pooled run store entirely. Unreachable from PartitionKey: pass ids
  // would have to reach 2^56 - 1.
  static constexpr uint64_t kFinalKey = ~uint64_t{0};

  // One spilled run: `rows` rows laid out column-major at `file_offset`.
  struct Segment {
    uint64_t rows = 0;
    uint64_t file_offset = 0;
  };

  // Receives one slice of a segment being read: `n` words of column `col`
  // (key words first, then state words) starting at row `row`.
  using SliceSink =
      std::function<void(int col, uint64_t row, const uint64_t* data,
                         size_t n)>;

  // Removes and returns the final stream's segments (empty when nothing
  // was evacuated).
  std::vector<Segment> TakeFinalSegments();

  // Reads one final-output segment and hands it to `sink` slice by slice
  // in file order: the rows of one column ascend, and column c is complete
  // before column c + 1 starts. Flushes the staging buffer first when the
  // segment is still in it. The window buffer is plain memory outside the
  // budget, so final rows never re-enter pooled memory on their way to
  // the caller. Returns I/O failures and cancellation as Status.
  Status ReadFinalSegment(const Segment& seg, const SliceSink& sink);

  // True once MemoryBudget::used() crossed threshold * limit (never when
  // the budget is unlimited). used() is monotone, so this latches for the
  // rest of the process. Cheap: two relaxed atomic loads.
  bool ShouldSpill() const;

  // Appends the rows of `run` to stream `key` as one segment and releases
  // the run's chunks back to the pool (the run is left empty but usable).
  // The segment may stay in the staging buffer until a reader needs it.
  // Throws StatusError on I/O failure or cancellation.
  void SpillRun(uint64_t key, Run* run);

  // True when stream `key` holds at least one segment.
  bool HasSpilled(uint64_t key) const;

  // Queues stream `key` for restore at recursion level `level`.
  void EnqueueBucket(uint64_t key, int level);

  // Pops the next restore wave: the queued buckets RestoreWaveSize admits
  // for `max_buckets` and the budget's current free room,
  // limit - used() + ChunkPool::pooled_free_bytes(). Empty when no bucket
  // is queued.
  std::vector<PendingBucket> TakeWave(int max_buckets);

  // Reads every segment of the pending bucket's stream back into `out`
  // (appended column-wise, marked non-distinct) and drops the stream,
  // flushing the staging buffer first when a segment is still in it.
  // Safe to run for several buckets at once. Throws StatusError on I/O
  // failure or cancellation, and MemoryBudgetExceeded when the bucket does
  // not fit the budget.
  void Restore(const PendingBucket& desc, Run* out);

  // Per-execution telemetry (logical bytes, not padded disk bytes).
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  // 1 once this execution spilled, whether the file is new or reused.
  uint64_t files_used() const { return bytes_written() != 0 ? 1 : 0; }
  uint64_t buckets_restored() const {
    return buckets_restored_.load(std::memory_order_relaxed);
  }
  // Wall time spent in Restore, summed over buckets.
  uint64_t restore_ns() const {
    return restore_ns_.load(std::memory_order_relaxed);
  }
  // Time SpillRun calls spent waiting for the I/O mutex, and holding it
  // (copying into the staging buffer plus any buffer writes), summed.
  uint64_t write_wait_ns() const {
    return write_wait_ns_.load(std::memory_order_relaxed);
  }
  uint64_t write_ns() const {
    return write_ns_.load(std::memory_order_relaxed);
  }

  const std::string& dir() const { return config_.dir; }
  double threshold() const { return config_.threshold; }

 private:
  struct PartitionStream {
    std::vector<Segment> segments;
    uint64_t rows = 0;
  };

  void PollControl() const;
  // Bytes a restored bucket of `rows` rows occupies in the run store.
  uint64_t RestoreBytes(uint64_t rows) const;
  // File offset just past `seg`'s padded tail.
  uint64_t SegmentEnd(const Segment& seg) const;
  // Writes the staging buffer out, under the I/O mutex, unless the file
  // is already on disk up to `end`.
  Status FlushThrough(uint64_t end);
  // Reads `seg` in block windows of at most `buf_bytes` through `buf`
  // (kAlign-aligned, a multiple of kAlign) and hands each column slice to
  // `sink` in file order. Polls cancellation before every window.
  Status ReadSegment(const Segment& seg, char* buf, size_t buf_bytes,
                     const SliceSink& sink) const;

  const Config config_;
  const int key_words_;
  const int state_words_;
  const QueryControl* control_;

  // Serializes appends to the shared file (its creation and flushes
  // too); reads go through SpillFile::ReadBlocks without it. Never
  // acquired while holding mutex_.
  std::mutex io_mutex_;
  SpillFile& file_;

  mutable std::mutex mutex_;
  std::map<uint64_t, PartitionStream> streams_;
  std::deque<PendingBucket> pending_;

  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> buckets_restored_{0};
  std::atomic<uint64_t> restore_ns_{0};
  std::atomic<uint64_t> write_wait_ns_{0};
  std::atomic<uint64_t> write_ns_{0};
};

}  // namespace cea

#endif  // CEA_CORE_SPILL_MANAGER_H_
