#include "cea/mem/chunked_array.h"

#include <algorithm>

#include "cea/mem/chunk_pool.h"

namespace cea {

// The pool's size classes must cover the geometric chunk schedule exactly:
// ChunkPool::Allocate fails its check on any other size.
static_assert(ChunkPool::kMinClassElems == ChunkedArray::kMinChunkElems,
              "ChunkPool size classes must start at the minimum chunk size");
static_assert(ChunkPool::kMinClassElems << (ChunkPool::kNumClasses - 1) ==
                  ChunkedArray::kMaxChunkElems,
              "ChunkPool size classes must end at the maximum chunk size");

ChunkedArray::~ChunkedArray() { Clear(); }

ChunkedArray::ChunkedArray(ChunkedArray&& other) noexcept
    : chunks_(std::move(other.chunks_)),
      tail_(other.tail_),
      tail_left_(other.tail_left_),
      size_(other.size_),
      allocated_bytes_(other.allocated_bytes_) {
  other.chunks_.clear();
  other.tail_ = nullptr;
  other.tail_left_ = 0;
  other.size_ = 0;
  other.allocated_bytes_ = 0;
}

ChunkedArray& ChunkedArray::operator=(ChunkedArray&& other) noexcept {
  if (this != &other) {
    Clear();
    chunks_ = std::move(other.chunks_);
    tail_ = other.tail_;
    tail_left_ = other.tail_left_;
    size_ = other.size_;
    allocated_bytes_ = other.allocated_bytes_;
    other.chunks_.clear();
    other.tail_ = nullptr;
    other.tail_left_ = 0;
    other.size_ = 0;
    other.allocated_bytes_ = 0;
  }
  return *this;
}

void ChunkedArray::AddChunk() {
  // Invariant: a new chunk is only linked when the tail is exhausted, so
  // all chunks except the last are completely full.
  CEA_CHECK(tail_left_ == 0);
  const size_t capacity =
      chunks_.empty() ? kMinChunkElems
                      : std::min(chunks_.back().capacity * 2, kMaxChunkElems);
  // Grow the chunk list before drawing from the pool: a bad_alloc out of
  // push_back after Allocate succeeded would strand the chunk — never
  // returned to the pool. Doubling by hand keeps the amortized growth
  // reserve() alone would forfeit.
  if (chunks_.size() == chunks_.capacity()) {
    chunks_.reserve(chunks_.empty() ? 8 : chunks_.capacity() * 2);
  }
  // Draws from the process-wide chunk pool; exhaustion of the memory
  // budget throws MemoryBudgetExceeded, which the scheduler's error path
  // surfaces as a Status instead of crashing mid-pass.
  uint64_t* mem = ChunkPool::Global().Allocate(capacity);
  // AppendLine NT-stores whole cache lines at the chunk base; the pool
  // guarantees line alignment for every class.
  CEA_DCHECK((reinterpret_cast<uintptr_t>(mem) & (kCacheLineBytes - 1)) == 0);
  chunks_.push_back(Chunk{mem, capacity});
  tail_ = mem;
  tail_left_ = capacity;
  allocated_bytes_ += capacity * sizeof(uint64_t);
}

void ChunkedArray::AppendBulk(const uint64_t* src, size_t n) {
  while (n != 0) {
    if (tail_left_ == 0) AddChunk();
    size_t take = n < tail_left_ ? n : tail_left_;
    std::memcpy(tail_, src, take * sizeof(uint64_t));
    tail_ += take;
    tail_left_ -= take;
    size_ += take;
    src += take;
    n -= take;
  }
}

uint64_t ChunkedArray::At(size_t i) const {
  CEA_CHECK(i < size_);
  for (const Chunk& c : chunks_) {
    size_t used = ChunkUsed(c);
    if (i < used) return c.data[i];
    i -= used;
  }
  CEA_CHECK(false);  // unreachable
  return 0;
}

void ChunkedArray::CopyTo(uint64_t* dst) const {
  ForEachChunk([&dst](const uint64_t* data, size_t n) {
    std::memcpy(dst, data, n * sizeof(uint64_t));
    dst += n;
  });
}

std::vector<uint64_t> ChunkedArray::ToVector() const {
  std::vector<uint64_t> out(size_);
  if (size_ != 0) CopyTo(out.data());
  return out;
}

void ChunkedArray::Clear() {
  for (Chunk& c : chunks_) {
    ChunkPool::Global().Free(c.data, c.capacity);
  }
  chunks_.clear();
  tail_ = nullptr;
  tail_left_ = 0;
  size_ = 0;
  allocated_bytes_ = 0;
}

}  // namespace cea
