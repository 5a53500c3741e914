#include "cea/core/spill_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <utility>

#include "cea/common/check.h"
#include "cea/mem/chunk_pool.h"

namespace cea {

namespace {

void ThrowIo(Status s) { throw StatusError(std::move(s)); }

uint64_t AlignUp(uint64_t bytes) {
  return (bytes + SpillFile::kAlign - 1) & ~uint64_t{SpillFile::kAlign - 1};
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

// A read window owned by one read call. Like SpillFile's staging buffer it
// is plain I/O memory outside the MemoryBudget: reads run exactly when the
// budget is tight.
struct WindowDeleter {
  void operator()(char* p) const { std::free(p); }
};
using Window = std::unique_ptr<char, WindowDeleter>;

// A window for segments of up to `max_segment_bytes`, capped at kBufBytes.
Window AllocWindow(uint64_t max_segment_bytes, size_t* bytes) {
  *bytes = static_cast<size_t>(
      std::min<uint64_t>(AlignUp(max_segment_bytes), SpillFile::kBufBytes));
  return Window(
      static_cast<char*>(std::aligned_alloc(SpillFile::kAlign, *bytes)));
}

// Free room of the process budget for restored runs: what the limit still
// allows plus idle pool inventory; unlimited without a limit.
uint64_t BudgetFreeRoom() {
  const MemoryBudget& budget = MemoryBudget::Global();
  const uint64_t limit = budget.limit();
  if (limit == 0) return std::numeric_limits<uint64_t>::max();
  const uint64_t room = limit + ChunkPool::Global().pooled_free_bytes();
  const uint64_t used = budget.used();
  return room > used ? room - used : 0;
}

}  // namespace

size_t RestoreWaveSize(const std::vector<uint64_t>& restore_bytes,
                       uint64_t free_room, int max_buckets) {
  const size_t limit =
      std::min(restore_bytes.size(), static_cast<size_t>(max_buckets));
  if (limit == 0) return 0;
  uint64_t sum = restore_bytes[0];
  size_t take = 1;
  for (; take < limit; ++take) {
    sum += restore_bytes[take];
    if (sum > free_room / 2) break;
  }
  return take;
}

SpillManager::SpillManager(Config config, int key_words,
                           const StateLayout& layout,
                           const QueryControl* control, SpillFile* file)
    : config_(std::move(config)),
      key_words_(key_words),
      state_words_(layout.total_words),
      control_(control),
      file_(*file) {
  CEA_CHECK(!config_.dir.empty());
  CEA_CHECK(config_.threshold > 0.0);
}

void SpillManager::PollControl() const {
  if (control_ != nullptr) control_->ThrowIfCancelled();
}

bool SpillManager::ShouldSpill() const {
  const MemoryBudget& budget = MemoryBudget::Global();
  const size_t limit = budget.limit();
  if (limit == 0) return false;
  // Reserve() fails on used() + request > limit and used() is monotone,
  // so distance-to-limit of used() itself is the danger signal; idle pool
  // inventory is deliberately not subtracted (see spill_manager.h).
  return static_cast<double>(budget.used()) >=
         config_.threshold * static_cast<double>(limit);
}

void SpillManager::SpillRun(uint64_t key, Run* run) {
  const uint64_t rows = run->size();
  if (rows == 0) return;
  run->CheckConsistent();

  Segment seg;
  seg.rows = rows;
  const auto wait_start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> io(io_mutex_);
    const auto write_start = std::chrono::steady_clock::now();
    PollControl();
    if (!file_.is_open()) {
      Status s = file_.Create(config_.dir);
      if (!s.ok()) ThrowIo(std::move(s));
    }
    seg.file_offset = file_.size();
    auto append_column = [&](const ChunkedArray& col) {
      col.ForEachChunk([&](const uint64_t* data, size_t n) {
        Status s = file_.Append(data, n * sizeof(uint64_t));
        if (!s.ok()) ThrowIo(std::move(s));
      });
    };
    try {
      for (const ChunkedArray& col : run->key_cols) {
        PollControl();
        append_column(col);
      }
      for (const ChunkedArray& col : run->states) {
        PollControl();
        append_column(col);
      }
      // Start the next segment (whoever writes it) on a block boundary.
      // The padded segment may stay staged: readers flush it first.
      Status s = file_.Pad();
      if (!s.ok()) ThrowIo(std::move(s));
    } catch (...) {
      // Cancellation or I/O failure mid-segment: roll back to this
      // segment's start, keeping earlier staged segments, and record
      // nothing — the run still holds its rows and unwinds with the pass.
      file_.AbandonTail();
      throw;
    }
    const auto write_end = std::chrono::steady_clock::now();
    write_wait_ns_.fetch_add(ElapsedNs(wait_start, write_start),
                             std::memory_order_relaxed);
    write_ns_.fetch_add(ElapsedNs(write_start, write_end),
                        std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PartitionStream& stream = streams_[key];
    stream.segments.push_back(seg);
    stream.rows += rows;
  }
  bytes_written_.fetch_add(
      rows * static_cast<uint64_t>(key_words_ + state_words_) *
          sizeof(uint64_t),
      std::memory_order_relaxed);

  // Every byte is in the file (staged or on disk): release the chunks
  // back to the pool.
  for (ChunkedArray& col : run->key_cols) col.Clear();
  for (ChunkedArray& col : run->states) col.Clear();
  run->distinct = false;
}

bool SpillManager::HasSpilled(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = streams_.find(key);
  return it != streams_.end() && it->second.rows != 0;
}

void SpillManager::EnqueueBucket(uint64_t key, int level) {
  PendingBucket pending;
  pending.key = key;
  pending.level = level;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = streams_.find(key);
    CEA_CHECK(it != streams_.end());
    pending.rows = it->second.rows;
    pending_.push_back(pending);
  }
}

std::vector<SpillManager::Segment> SpillManager::TakeFinalSegments() {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = streams_.find(kFinalKey);
  if (it == streams_.end()) return {};
  std::vector<Segment> out = std::move(it->second.segments);
  streams_.erase(it);
  return out;
}

uint64_t SpillManager::RestoreBytes(uint64_t rows) const {
  return rows * static_cast<uint64_t>(key_words_ + state_words_) *
         sizeof(uint64_t);
}

uint64_t SpillManager::SegmentEnd(const Segment& seg) const {
  return seg.file_offset + AlignUp(RestoreBytes(seg.rows));
}

Status SpillManager::FlushThrough(uint64_t end) {
  std::lock_guard<std::mutex> io(io_mutex_);
  if (file_.flushed_size() >= end) return Status::Ok();
  return file_.FinishWrites();
}

Status SpillManager::ReadSegment(const Segment& seg, char* buf,
                                 size_t buf_bytes,
                                 const SliceSink& sink) const {
  const uint64_t words =
      seg.rows * static_cast<uint64_t>(key_words_ + state_words_);
  const size_t window_words = buf_bytes / sizeof(uint64_t);
  const uint64_t* data = reinterpret_cast<const uint64_t*>(buf);
  for (uint64_t word = 0; word < words;) {
    if (control_ != nullptr) {
      Status c = control_->Check();
      if (!c.ok()) return c;
    }
    // The segment starts on a block and Pad padded its tail, so whole
    // blocks from here stay inside it.
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(window_words, words - word));
    Status rs = file_.ReadBlocks(seg.file_offset + word * sizeof(uint64_t),
                                 buf, AlignUp(n * sizeof(uint64_t)));
    if (!rs.ok()) return rs;
    for (size_t i = 0; i < n;) {
      const uint64_t w = word + i;
      const uint64_t row = w % seg.rows;
      const size_t take =
          static_cast<size_t>(std::min<uint64_t>(n - i, seg.rows - row));
      sink(static_cast<int>(w / seg.rows), row, data + i, take);
      i += take;
    }
    word += n;
  }
  return Status::Ok();
}

Status SpillManager::ReadFinalSegment(const Segment& seg,
                                      const SliceSink& sink) {
  Status flushed = FlushThrough(SegmentEnd(seg));
  if (!flushed.ok()) return flushed;
  size_t buf_bytes = 0;
  Window buf = AllocWindow(RestoreBytes(seg.rows), &buf_bytes);
  if (buf == nullptr) {
    return Status::RuntimeError("spill: cannot allocate read window");
  }
  Status s = ReadSegment(seg, buf.get(), buf_bytes, sink);
  if (s.ok()) {
    bytes_read_.fetch_add(RestoreBytes(seg.rows), std::memory_order_relaxed);
  }
  return s;
}

std::vector<SpillManager::PendingBucket> SpillManager::TakeWave(
    int max_buckets) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<uint64_t> bytes;
  for (size_t i = 0; i < pending_.size() &&
                     i < static_cast<size_t>(max_buckets);
       ++i) {
    bytes.push_back(RestoreBytes(pending_[i].rows));
  }
  const size_t take = RestoreWaveSize(bytes, BudgetFreeRoom(), max_buckets);
  std::vector<PendingBucket> wave(pending_.begin(), pending_.begin() + take);
  pending_.erase(pending_.begin(), pending_.begin() + take);
  return wave;
}

void SpillManager::Restore(const PendingBucket& desc, Run* out) {
  const auto start = std::chrono::steady_clock::now();
  PartitionStream stream;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = streams_.find(desc.key);
    CEA_CHECK(it != streams_.end());
    stream = std::move(it->second);
    streams_.erase(it);
  }
  // The producing pass has completed, so no more segments can arrive for
  // this stream. Once the staging buffer is flushed past the last of them,
  // they are read without the I/O mutex, concurrently with other restores
  // and with spills of other streams.
  CEA_CHECK(static_cast<int>(out->key_cols.size()) == key_words_);
  CEA_CHECK(static_cast<int>(out->states.size()) == state_words_);
  uint64_t largest = 0;
  uint64_t end = 0;
  for (const Segment& seg : stream.segments) {
    largest = std::max(largest, RestoreBytes(seg.rows));
    end = std::max(end, SegmentEnd(seg));
  }
  Status flushed = FlushThrough(end);
  if (!flushed.ok()) ThrowIo(std::move(flushed));
  size_t buf_bytes = 0;
  Window buf = AllocWindow(largest, &buf_bytes);
  if (buf == nullptr) {
    ThrowIo(Status::RuntimeError("spill: cannot allocate read window"));
  }
  const SliceSink append = [&](int col, uint64_t, const uint64_t* data,
                               size_t n) {
    ChunkedArray& dst = col < key_words_ ? out->key_cols[col]
                                         : out->states[col - key_words_];
    // May throw MemoryBudgetExceeded when the bucket does not fit the
    // limit; the scheduler surfaces that as kResourceExhausted.
    dst.AppendBulk(data, n);
  };
  for (const Segment& seg : stream.segments) {
    Status rs = ReadSegment(seg, buf.get(), buf_bytes, append);
    if (!rs.ok()) ThrowIo(std::move(rs));
  }
  // Groups may straddle segments, so the concatenation is never distinct.
  out->distinct = false;
  out->CheckConsistent();
  CEA_CHECK(out->size() == desc.rows);
  bytes_read_.fetch_add(RestoreBytes(desc.rows), std::memory_order_relaxed);
  buckets_restored_.fetch_add(1, std::memory_order_relaxed);
  restore_ns_.fetch_add(ElapsedNs(start, std::chrono::steady_clock::now()),
                        std::memory_order_relaxed);
}

}  // namespace cea
