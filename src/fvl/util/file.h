// RAII wrappers for the only raw POSIX file I/O in the library.
//
// Everything that touches `open`/`read`/`write`/`mmap`/`madvise` lives
// here or in util/blob_source.{h,cc} — tools/fvl_lint.py's `raw-io` rule
// rejects naked calls anywhere else, the same way the naked-mutex rule
// funnels locking through util/thread_annotations.h. Failures are
// recoverable Status values (kIo for file ops, kMapFailed for mapping),
// never aborts: an archive path is untrusted input like a blob is.
//
// FileHandle owns a descriptor; MmapRegion owns a read-only mapping of
// one. Both are move-only. Higher layers should not use these directly —
// BlobSource (util/blob_source.h) is the ownership abstraction indexes
// actually hold, and WriteFileReplacing the one way archives are written
// over files that may be mapped.

#ifndef FVL_UTIL_FILE_H_
#define FVL_UTIL_FILE_H_

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "fvl/util/status.h"

namespace fvl {

namespace internal {

inline Status IoError(const char* op, const std::string& path) {
  return Status::Error(ErrorCode::kIo, std::string(op) + " " + path +
                                           " failed: " + std::strerror(errno));
}

}  // namespace internal

// Owns one open file descriptor; closes it on destruction. Move-only.
class FileHandle {
 public:
  FileHandle() = default;
  ~FileHandle() { Reset(); }
  FileHandle(FileHandle&& other) noexcept
      : fd_(other.fd_), path_(std::move(other.path_)) {
    other.fd_ = -1;
  }
  FileHandle& operator=(FileHandle&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.fd_;
      path_ = std::move(other.path_);
      other.fd_ = -1;
    }
    return *this;
  }
  FileHandle(const FileHandle&) = delete;
  FileHandle& operator=(const FileHandle&) = delete;

  [[nodiscard]] static Result<FileHandle> OpenRead(const std::string& path) {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return internal::IoError("open", path);
    return FileHandle(fd, path);
  }

  // Creates (or truncates) `path` for writing.
  [[nodiscard]] static Result<FileHandle> CreateTruncate(
      const std::string& path) {
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0) return internal::IoError("create", path);
    return FileHandle(fd, path);
  }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  const std::string& path() const { return path_; }

  [[nodiscard]] Result<int64_t> Size() const {
    struct stat st;
    if (::fstat(fd_, &st) != 0) return internal::IoError("stat", path_);
    return static_cast<int64_t>(st.st_size);
  }

  // Writes all of `bytes`, retrying short writes and EINTR.
  [[nodiscard]] Status WriteAll(std::string_view bytes) {
    const char* data = bytes.data();
    size_t remaining = bytes.size();
    while (remaining > 0) {
      ssize_t wrote = ::write(fd_, data, remaining);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        return internal::IoError("write", path_);
      }
      data += wrote;
      remaining -= static_cast<size_t>(wrote);
    }
    return Status::Ok();
  }

  // Reads the whole file into a string (small control files; archives are
  // served through MmapRegion instead).
  [[nodiscard]] Result<std::string> ReadAll() const {
    Result<int64_t> size = Size();
    if (!size.ok()) return size.status();
    std::string out(static_cast<size_t>(*size), '\0');
    size_t at = 0;
    while (at < out.size()) {
      ssize_t got = ::read(fd_, out.data() + at, out.size() - at);
      if (got < 0) {
        if (errno == EINTR) continue;
        return internal::IoError("read", path_);
      }
      if (got == 0) break;  // raced a truncation; return what exists
      at += static_cast<size_t>(got);
    }
    out.resize(at);
    return out;
  }

  // Explicit error-checked close (a writer that cares about ENOSPC-at-close
  // should call this rather than rely on the destructor, which swallows).
  [[nodiscard]] Status Close() {
    if (fd_ < 0) return Status::Ok();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return internal::IoError("close", path_);
    return Status::Ok();
  }

 private:
  FileHandle(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  void Reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int fd_ = -1;
  std::string path_;
};

// Owns one read-only shared mapping of a file; unmaps on destruction.
// A zero-byte file maps to an empty region (mmap rejects length 0).
class MmapRegion {
 public:
  MmapRegion() = default;
  ~MmapRegion() { Reset(); }
  MmapRegion(MmapRegion&& other) noexcept
      : data_(other.data_), size_(other.size_) {
    other.data_ = nullptr;
    other.size_ = 0;
  }
  MmapRegion& operator=(MmapRegion&& other) noexcept {
    if (this != &other) {
      Reset();
      data_ = other.data_;
      size_ = other.size_;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  MmapRegion(const MmapRegion&) = delete;
  MmapRegion& operator=(const MmapRegion&) = delete;

  // Maps the whole file read-only. The mapping survives the FileHandle
  // (POSIX keeps pages valid after the descriptor closes).
  [[nodiscard]] static Result<MmapRegion> Map(const FileHandle& file) {
    Result<int64_t> size = file.Size();
    if (!size.ok()) return size.status();
    MmapRegion region;
    region.size_ = static_cast<size_t>(*size);
    if (region.size_ == 0) return region;
    void* data =
        ::mmap(nullptr, region.size_, PROT_READ, MAP_SHARED, file.fd(), 0);
    if (data == MAP_FAILED) {
      return Status::Error(ErrorCode::kMapFailed,
                           "mmap " + file.path() +
                               " failed: " + std::strerror(errno));
    }
    region.data_ = static_cast<const uint8_t*>(data);
    return region;
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  std::string_view view() const {
    return {reinterpret_cast<const char*>(data_), size_};
  }

  enum class Advice { kNormal, kSequential, kRandom, kDontNeed };

  // Access-pattern hint; advisory, so failures are ignored (a kernel that
  // rejects madvise serves the pages correctly anyway).
  void Advise(Advice advice) const {
    if (data_ == nullptr) return;
    int hint = MADV_NORMAL;
    switch (advice) {
      case Advice::kNormal:
        hint = MADV_NORMAL;
        break;
      case Advice::kSequential:
        hint = MADV_SEQUENTIAL;
        break;
      case Advice::kRandom:
        hint = MADV_RANDOM;
        break;
      case Advice::kDontNeed:
        hint = MADV_DONTNEED;
        break;
    }
    // const_cast: madvise takes void* but does not write through it.
    ::madvise(const_cast<uint8_t*>(data_), size_, hint);
  }

 private:
  void Reset() {
    if (data_ != nullptr) {
      ::munmap(const_cast<uint8_t*>(data_), size_);
    }
    data_ = nullptr;
    size_ = 0;
  }

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

// Replaces `path` with `bytes` by writing a temporary file beside it (in
// the same directory, named uniquely per call) and renaming it over
// `path`. A process that mapped the previous file keeps its inode, so its
// pages stay valid — truncating in place would pull them out from under
// it (SIGBUS on the next access). On any failure the temporary is removed
// and the previous file, if any, is left intact. No fsync: this orders the
// replacement against concurrent readers, not against power loss.
[[nodiscard]] inline Status WriteFileReplacing(const std::string& path,
                                               std::string_view bytes) {
  static std::atomic<uint64_t> next_temp{0};
  const std::string temp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(next_temp.fetch_add(1, std::memory_order_relaxed));
  Result<FileHandle> out = FileHandle::CreateTruncate(temp);
  if (!out.ok()) return out.status();
  Status status = out->WriteAll(bytes);
  if (status.ok()) status = out->Close();
  if (status.ok() && std::rename(temp.c_str(), path.c_str()) != 0) {
    status = internal::IoError("rename", temp);
  }
  if (!status.ok()) ::unlink(temp.c_str());
  return status;
}

}  // namespace fvl

#endif  // FVL_UTIL_FILE_H_
