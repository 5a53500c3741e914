// Pooled run-store memory with budget accounting (Section 4.4).
//
// Every recursive pass materializes its output runs in ChunkedArray
// chunks and frees them when the pass's source bucket is dropped. With a
// general-purpose allocator that is a steady stream of page faults and
// allocator metadata traffic on the hot path — exactly the cost the
// paper's two-level run store was designed to avoid, and what the
// partitioned-join literature (Balkesen et al.) solves with pooled,
// NUMA-local buffers. ChunkPool recycles chunk blocks across passes and
// executions:
//
//  * Chunk capacities follow the deterministic geometric schedule of
//    ChunkedArray (512..8192 elements), and those five sizes are the only
//    ones the pool serves. Each class has per-thread freelist caches (no
//    locking on the common path) over one mutex-guarded global freelist;
//    blocks flow between threads through it, since a pass's runs are
//    routinely freed by a different worker than the one that filled them.
//  * Fresh memory is carved from 2 MiB slabs that are madvise'd to
//    transparent huge pages (best effort, Linux only), so steady-state
//    run storage sits on a few large mappings instead of thousands of
//    small allocations.
//  * Slabs are retained for the lifetime of the process; after warm-up a
//    pass allocates ~nothing from the OS.
//
// MemoryBudget is the process-wide accounting layer above the pool: slab
// allocations reserve against an optional byte limit, and exhaustion
// throws MemoryBudgetExceeded — a std::exception the task scheduler's
// error path converts into a Status — instead of letting std::bad_alloc
// (or an allocator abort) kill the process mid-pass.

#ifndef CEA_MEM_CHUNK_POOL_H_
#define CEA_MEM_CHUNK_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <string>
#include <vector>

namespace cea {

// Thrown when an allocation cannot be satisfied — either the configured
// MemoryBudget would be exceeded or the OS refused the allocation. Derives
// from std::bad_alloc so code that handles allocation failure generically
// keeps working, but carries a real message for Status propagation.
class MemoryBudgetExceeded : public std::bad_alloc {
 public:
  explicit MemoryBudgetExceeded(std::string message)
      : message_(std::move(message)) {}
  const char* what() const noexcept override { return message_.c_str(); }

 private:
  std::string message_;
};

// Process-wide byte accounting for run-store memory. A limit of 0 means
// unlimited (accounting still runs, so used()/peak() stay meaningful).
// All operations are lock-free; Reserve/Release cost two relaxed atomic
// RMWs. ChunkPool reserves once per slab it fetches and keeps every slab,
// so used() moves only with slabs, never per chunk.
class MemoryBudget {
 public:
  static MemoryBudget& Global();

  void SetLimit(size_t bytes) {
    limit_.store(bytes, std::memory_order_relaxed);
  }
  size_t limit() const { return limit_.load(std::memory_order_relaxed); }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }

  // Restarts peak tracking from the current usage (call at the start of an
  // execution window whose high-water mark should be observed).
  void ResetPeak() { peak_.store(used(), std::memory_order_relaxed); }

  // Accounts `bytes`; throws MemoryBudgetExceeded when a non-zero limit
  // would be exceeded (usage is rolled back first).
  void Reserve(size_t bytes);
  void Release(size_t bytes);

 private:
  std::atomic<size_t> limit_{0};
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
};

class ChunkPool {
 public:
  // Size classes mirror ChunkedArray's geometric chunk schedule:
  // 512 << c elements for c in [0, kNumClasses), i.e. 4 KiB .. 64 KiB.
  static constexpr size_t kMinClassElems = 512;
  static constexpr int kNumClasses = 5;
  // Fresh memory is carved from slabs of one transparent-huge-page size.
  static constexpr size_t kSlabBytes = size_t{2} << 20;

  // Monotonic counters (relaxed atomics; snapshot with GetStats and
  // subtract to get per-execution deltas).
  struct Stats {
    uint64_t fresh_chunks = 0;     // served by carving fresh slab memory
    uint64_t recycled_chunks = 0;  // served from a freelist
    uint64_t slabs_allocated = 0;  // 2 MiB slabs fetched from the OS
    uint64_t frees = 0;            // chunks returned by ChunkedArray
  };

  static ChunkPool& Global();

  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  // Returns a cache-line aligned block of exactly `elems` uint64_t, which
  // must be a size class (CEA_CHECK). Requests hit the thread cache, then
  // the class's shared freelist, then carve a fresh slab. Throws
  // MemoryBudgetExceeded on budget/OS exhaustion.
  uint64_t* Allocate(size_t elems);

  // Returns a block obtained from Allocate(elems) to the calling thread's
  // cache, moving half of it to the shared freelist when it is full.
  void Free(uint64_t* data, size_t elems);

  Stats GetStats() const;

  // Bytes of blocks currently sitting idle in thread caches or shared
  // freelists. Because slabs are retained for the process lifetime,
  // MemoryBudget::used() never shrinks; `used() - pooled_free_bytes()`
  // approximates the memory actually referenced by live runs. The spill
  // trigger does not use it (spill_manager.h explains why); it only sizes
  // restore waves, as free room limit - used() + pooled_free_bytes().
  size_t pooled_free_bytes() const {
    return free_bytes_.load(std::memory_order_relaxed);
  }

  // Moves the calling thread's cached blocks to the shared freelists. Runs
  // automatically at thread exit; exposed for tests.
  void FlushThreadCache();

  // Size class of a capacity, or -1 when it is not a class.
  static int SizeClass(size_t elems) {
    size_t c = kMinClassElems;
    for (int k = 0; k < kNumClasses; ++k, c <<= 1) {
      if (elems == c) return k;
    }
    return -1;
  }

 private:
  ChunkPool() = default;
  ~ChunkPool() = default;

  // Per-thread cache depth per class; half is moved to the shared
  // freelist on overflow so blocks keep circulating between workers.
  static constexpr size_t kMaxCachedPerClass = 32;

  struct FreeList {
    std::mutex mutex;
    std::vector<uint64_t*> blocks;
  };
  struct ThreadCache;

  ThreadCache& Cache();
  void FlushCache(ThreadCache* cache);

  // Moves up to half a cache of class `k` blocks from the shared freelist
  // into `out`.
  void Refill(int k, std::vector<uint64_t*>* out);
  // Carves one block of `bytes` from the current slab, allocating a new
  // slab (budget-accounted, THP-advised) when the tail is too small.
  uint64_t* CarveFresh(size_t bytes);

  FreeList free_lists_[kNumClasses];

  std::mutex slab_mutex_;
  std::vector<void*> slabs_;    // retained for the process lifetime
  char* bump_next_ = nullptr;   // carving cursor into the current slab
  char* bump_end_ = nullptr;

  std::atomic<size_t> free_bytes_{0};

  std::atomic<uint64_t> fresh_chunks_{0};
  std::atomic<uint64_t> recycled_chunks_{0};
  std::atomic<uint64_t> slabs_allocated_{0};
  std::atomic<uint64_t> frees_{0};
};

}  // namespace cea

#endif  // CEA_MEM_CHUNK_POOL_H_
