#include "cea/mem/spill_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "cea/common/check.h"

namespace cea {

namespace {

std::atomic<uint64_t> g_bytes_written{0};
std::atomic<uint64_t> g_bytes_read{0};
std::atomic<uint64_t> g_files_created{0};

Status IoError(const char* op, int err) {
  return Status::RuntimeError(std::string("spill ") + op +
                              " failed: " + std::strerror(err));
}

// Opens an unlinked temporary file in `dir`. Tries O_TMPFILE (never visible
// in the directory at all), then mkstemp + immediate unlink. `want_direct`
// asks for O_DIRECT; `*direct` reports whether the fd actually carries it.
int OpenUnlinked(const std::string& dir, bool want_direct, bool* direct) {
  *direct = false;
#if defined(O_TMPFILE)
  if (want_direct) {
    int fd = ::open(dir.c_str(), O_TMPFILE | O_RDWR | O_DIRECT, 0600);
    if (fd >= 0) {
      *direct = true;
      return fd;
    }
  }
  if (int fd = ::open(dir.c_str(), O_TMPFILE | O_RDWR, 0600); fd >= 0) {
    return fd;
  }
#endif
  std::string tmpl = dir + "/cea-spill-XXXXXX";
  int fd = ::mkstemp(tmpl.data());
  if (fd < 0) return -1;
  // Unlink immediately: the open descriptor keeps the data alive and the
  // kernel reclaims it on the last close, whatever the exit path.
  (void)::unlink(tmpl.c_str());
  if (want_direct && ::fcntl(fd, F_SETFL, O_DIRECT) == 0) *direct = true;
  return fd;
}

}  // namespace

SpillFile::Totals SpillFile::GetTotals() {
  Totals t;
  t.bytes_written = g_bytes_written.load(std::memory_order_relaxed);
  t.bytes_read = g_bytes_read.load(std::memory_order_relaxed);
  t.files_created = g_files_created.load(std::memory_order_relaxed);
  return t;
}

SpillFile::~SpillFile() { Close(); }

SpillFile::SpillFile(SpillFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      direct_(std::exchange(other.direct_, false)),
      logical_size_(std::exchange(other.logical_size_, 0)),
      disk_offset_(std::exchange(other.disk_offset_, 0)),
      segment_end_(std::exchange(other.segment_end_, 0)),
      staged_(std::exchange(other.staged_, 0)),
      buf_(std::exchange(other.buf_, nullptr)) {}

SpillFile& SpillFile::operator=(SpillFile&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    direct_ = std::exchange(other.direct_, false);
    logical_size_ = std::exchange(other.logical_size_, 0);
    disk_offset_ = std::exchange(other.disk_offset_, 0);
    segment_end_ = std::exchange(other.segment_end_, 0);
    staged_ = std::exchange(other.staged_, 0);
    buf_ = std::exchange(other.buf_, nullptr);
  }
  return *this;
}

void SpillFile::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  std::free(buf_);
  buf_ = nullptr;
  direct_ = false;
  Rewind();
}

void SpillFile::Rewind() {
  logical_size_ = 0;
  disk_offset_ = 0;
  segment_end_ = 0;
  staged_ = 0;
}

Status SpillFile::Create(const std::string& dir) {
  CEA_CHECK(fd_ < 0);
  fd_ = OpenUnlinked(dir, /*want_direct=*/true, &direct_);
  if (fd_ < 0) {
    return Status::RuntimeError("spill: cannot create temporary file in '" +
                                dir + "': " + std::strerror(errno));
  }
  // Staging scratch is plain I/O memory, deliberately outside the
  // MemoryBudget: spilling runs exactly when the budget is exhausted, so
  // charging the bounce buffer against it would deadlock the escape hatch.
  buf_ = static_cast<char*>(std::aligned_alloc(kAlign, kBufBytes));
  if (buf_ == nullptr) {
    Close();
    return Status::RuntimeError("spill: cannot allocate staging buffer");
  }
  g_files_created.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status SpillFile::WriteBlocks(const char* buf, size_t bytes) {
  CEA_DCHECK(bytes % kAlign == 0);
  size_t done = 0;
  while (done < bytes) {
    ssize_t n = ::pwrite(fd_, buf + done, bytes - done,
                         static_cast<off_t>(disk_offset_ + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("write", errno);
    }
    done += static_cast<size_t>(n);
  }
  disk_offset_ += bytes;
  g_bytes_written.fetch_add(bytes, std::memory_order_relaxed);
  return Status::Ok();
}

Status SpillFile::Append(const void* data, size_t bytes) {
  CEA_CHECK(fd_ >= 0);
  const char* src = static_cast<const char*>(data);
  while (bytes != 0) {
    size_t take = kBufBytes - staged_;
    if (take > bytes) take = bytes;
    std::memcpy(buf_ + staged_, src, take);
    staged_ += take;
    src += take;
    bytes -= take;
    logical_size_ += take;
    if (staged_ == kBufBytes) {
      Status s = WriteBlocks(buf_, kBufBytes);
      if (!s.ok()) return s;
      staged_ = 0;
    }
  }
  return Status::Ok();
}

Status SpillFile::FinishWrites() {
  if (staged_ == 0) return Status::Ok();
  // Pad the tail to a whole block; readers stop at logical_size_, so the
  // zero padding is never observed.
  size_t padded = (staged_ + kAlign - 1) & ~(kAlign - 1);
  std::memset(buf_ + staged_, 0, padded - staged_);
  Status s = WriteBlocks(buf_, padded);
  if (!s.ok()) return s;
  staged_ = 0;
  return Status::Ok();
}

Status SpillFile::Pad() {
  CEA_CHECK(fd_ >= 0);
  const size_t padded = (staged_ + kAlign - 1) & ~(kAlign - 1);
  std::memset(buf_ + staged_, 0, padded - staged_);
  staged_ = padded;
  if (staged_ == kBufBytes) {
    Status s = WriteBlocks(buf_, kBufBytes);
    if (!s.ok()) return s;
    staged_ = 0;
  }
  // Fold the padding into the logical stream so logical offsets keep
  // mapping 1:1 onto disk offsets after more appends. Callers track their
  // own payload extents; the pad bytes are dead space between segments.
  logical_size_ = disk_offset_ + staged_;
  segment_end_ = logical_size_;
  return Status::Ok();
}

void SpillFile::AbandonTail() {
  if (fd_ < 0) return;
  logical_size_ = segment_end_;
  if (segment_end_ >= disk_offset_) {
    // The abandoned bytes are all staged; earlier segments keep theirs.
    staged_ = static_cast<size_t>(segment_end_ - disk_offset_);
  } else {
    // A full buffer already carried the abandoned segment's head to disk;
    // the next write overwrites it.
    disk_offset_ = segment_end_;
    staged_ = 0;
  }
}

Status SpillFile::ReadAt(uint64_t offset, void* dst, size_t bytes) {
  CEA_CHECK(fd_ >= 0);
  CEA_CHECK(staged_ == 0);  // FinishWrites must run before reads
  CEA_CHECK(offset + bytes <= logical_size_);
  char* out = static_cast<char*>(dst);
  while (bytes != 0) {
    // Aligned window around the requested range, clamped to the buffer.
    uint64_t block_start = offset & ~uint64_t{kAlign - 1};
    size_t lead = static_cast<size_t>(offset - block_start);
    size_t window = lead + bytes;
    if (window > kBufBytes) window = kBufBytes;
    size_t want = (window + kAlign - 1) & ~(kAlign - 1);

    size_t got = 0;
    while (got < want) {
      ssize_t n = ::pread(fd_, buf_ + got, want - got,
                          static_cast<off_t>(block_start + got));
      if (n < 0) {
        if (errno == EINTR) continue;
        return IoError("read", errno);
      }
      if (n == 0) break;  // EOF: the tail block may be short of `want`
      got += static_cast<size_t>(n);
    }
    size_t usable = got > lead ? got - lead : 0;
    size_t take = window - lead < bytes ? window - lead : bytes;
    if (usable < take) return IoError("read", EIO);

    std::memcpy(out, buf_ + lead, take);
    g_bytes_read.fetch_add(take, std::memory_order_relaxed);
    out += take;
    offset += take;
    bytes -= take;
  }
  return Status::Ok();
}

Status SpillFile::ReadBlocks(uint64_t offset, void* dst, size_t bytes) const {
  CEA_CHECK(fd_ >= 0);
  CEA_DCHECK(offset % kAlign == 0 && bytes % kAlign == 0);
  CEA_DCHECK(reinterpret_cast<uintptr_t>(dst) % kAlign == 0);
  char* out = static_cast<char*>(dst);
  size_t done = 0;
  while (done < bytes) {
    ssize_t n = ::pread(fd_, out + done, bytes - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("read", errno);
    }
    // Every block of the range was written, so EOF means a short file.
    if (n == 0) return IoError("read", EIO);
    done += static_cast<size_t>(n);
  }
  g_bytes_read.fetch_add(bytes, std::memory_order_relaxed);
  return Status::Ok();
}

}  // namespace cea
