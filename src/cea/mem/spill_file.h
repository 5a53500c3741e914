// SpillFile: an unlinked temporary file for spilled partition runs.
//
// The paper's §2 cost model treats recursive radix partitioning as an
// external-memory algorithm; SpillFile is the I/O primitive that makes the
// "external" part real. Design points:
//
//  * Files are unlinked at creation (O_TMPFILE where available, otherwise
//    mkstemp + immediate unlink), so the kernel reclaims them on close —
//    including process crash, cancellation unwind, and operator
//    destruction. Nothing is ever left behind in the spill directory.
//  * Writes go through a 4 KiB-aligned 1 MiB staging buffer and hit the
//    disk as whole buffers, mirroring the write-combining idiom of
//    stream_store.h at page granularity: spilling a run should stream at
//    device bandwidth, not bounce through the page cache line by line.
//    Pad ends a segment inside the buffer, so many small segments share
//    one write; FinishWrites puts the staged bytes on disk early.
//    O_DIRECT is attempted first and silently dropped when the
//    filesystem does not support it (tmpfs, some network filesystems);
//    the aligned block discipline is kept either way.
//  * Rewind restarts the stream at offset 0 and keeps the descriptor, so
//    one file can serve many executions: later writes overwrite the
//    extents already allocated, and the file holds the largest extent
//    written since Create until Close.
//  * All I/O reports failure as Status (never throws): spilling happens on
//    the exhaustion path, where a second exception would be fatal.
//
// Not thread-safe, with one exception: ReadBlocks touches no staging
// state, so it may run concurrently with other ReadBlocks calls and with
// an Append/Pad/FinishWrites writing past the range it reads. Callers
// (SpillManager) serialize every other call per file.

#ifndef CEA_MEM_SPILL_FILE_H_
#define CEA_MEM_SPILL_FILE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "cea/common/status.h"

namespace cea {

class SpillFile {
 public:
  // O_DIRECT requires offset, length, and buffer alignment; 4 KiB covers
  // every filesystem block size in practice.
  static constexpr size_t kAlign = 4096;
  // Staging buffer: writes are issued in 1 MiB aligned batches.
  static constexpr size_t kBufBytes = size_t{1} << 20;

  // Process-wide spill I/O totals (monotonic, relaxed). Feed the
  // cea_spill_*_total metric gauges.
  struct Totals {
    uint64_t bytes_written = 0;
    uint64_t bytes_read = 0;
    uint64_t files_created = 0;
  };
  static Totals GetTotals();

  SpillFile() = default;
  ~SpillFile();

  SpillFile(SpillFile&& other) noexcept;
  SpillFile& operator=(SpillFile&& other) noexcept;
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  // Creates an unlinked temporary file in `dir` and allocates the staging
  // buffer. `dir` must be an existing writable directory.
  Status Create(const std::string& dir);

  // Appends `bytes` bytes of `data` to the logical stream. Data is staged
  // and written out one full staging buffer at a time; the rest stays
  // staged until more data arrives or FinishWrites pads and writes it.
  Status Append(const void* data, size_t bytes);

  // Flushes the trailing partial block (zero-padded on disk; the logical
  // size is unchanged). Must be called before ReadAt. Idempotent.
  Status FinishWrites();

  // Ends a segment: zero-pads the staged tail to the next kAlign boundary
  // and rounds the logical size up to it, so the next Append starts a
  // fresh aligned segment. The padding stays in the staging buffer; the
  // file is written only when that fills the buffer. This is how
  // SpillManager packs many independent segments into one file: Pad after
  // each segment and record its [offset, offset+bytes) extent. A segment
  // becomes readable with ReadBlocks once flushed_size() covers its padded
  // end (FinishWrites flushes). Idempotent.
  Status Pad();

  // Rolls the stream back to the end of the last complete segment (the
  // last Pad) and discards everything appended since, staged or
  // already written. Cannot fail. Used on exception unwind mid-append:
  // earlier segments, staged or on disk, stay intact, the next Append
  // starts where the abandoned segment did, and Append/Pad/ReadAt all
  // work again.
  void AbandonTail();

  // Restarts the logical stream at offset 0, dropping every appended and
  // staged byte. The descriptor, the staging buffer and the disk extents
  // already written are kept: later writes overwrite them in place instead
  // of allocating new ones, and the file never shrinks before Close.
  void Rewind();

  // Reads `bytes` logical bytes at `offset` into `dst` (any alignment),
  // bouncing through the aligned staging buffer. Only valid while no
  // bytes are staged (after FinishWrites); interleaving with a
  // partially staged Append is not supported.
  Status ReadAt(uint64_t offset, void* dst, size_t bytes);

  // Reads `bytes` bytes at `offset` straight into `dst` with positional
  // reads, bypassing the staging buffer. `offset`, `bytes` and `dst` must
  // be kAlign-aligned and the range must already be on disk, below
  // flushed_size() (padded segments qualify). Safe to call concurrently
  // (see the class comment).
  Status ReadBlocks(uint64_t offset, void* dst, size_t bytes) const;

  // Logical bytes appended so far.
  uint64_t size() const { return logical_size_; }
  // Bytes from offset 0 that are on disk; ReadBlocks may read below it.
  uint64_t flushed_size() const { return disk_offset_; }
  bool is_open() const { return fd_ >= 0; }
  // True when the file descriptor carries O_DIRECT.
  bool direct_io() const { return direct_; }

  void Close();

 private:
  Status WriteBlocks(const char* buf, size_t bytes);

  int fd_ = -1;
  bool direct_ = false;
  uint64_t logical_size_ = 0;  // bytes the caller appended
  uint64_t disk_offset_ = 0;   // aligned bytes actually written to disk
  uint64_t segment_end_ = 0;   // logical size at the last Pad
  size_t staged_ = 0;          // bytes pending in buf_
  char* buf_ = nullptr;        // kAlign-aligned, kBufBytes staging buffer
};

}  // namespace cea

#endif  // CEA_MEM_SPILL_FILE_H_
