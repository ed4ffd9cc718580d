// BlobSource — a serialized index artifact served from one shared,
// read-only mapping of its archive file, so the index classes reference
// storage instead of owning heap strings. The pages are the kernel's,
// shared across processes, and the LabelStore borrowed-arena mode points
// straight into them.
//
// A BlobSource is cheaply copyable: copies share one reference-counted
// mapping, which is exactly the keepalive an mmap-served ProvenanceIndex
// needs — every copy of the index copies the source, and the mapping
// unmaps with the last copy.
//
// BlobReader is the incremental cursor CompactStream consumes inputs
// through: sequential access advice up front, chunked Take() so even the
// largest mapped artifact streams through without a heap copy.

#ifndef FVL_UTIL_BLOB_SOURCE_H_
#define FVL_UTIL_BLOB_SOURCE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "fvl/util/status.h"

namespace fvl {

class MmapRegion;

class BlobSource {
 public:
  BlobSource() = default;  // empty view, no backing

  // Opens and memory-maps `path` read-only: kIo if the file cannot be
  // opened or statted, kMapFailed if it cannot be mapped.
  [[nodiscard]] static Result<BlobSource> MapFile(const std::string& path);

  // The mapped bytes.
  std::string_view view() const { return view_; }

  bool empty() const { return view_.empty(); }
  size_t size() const { return view_.size(); }

  // Access-pattern hints, forwarded to madvise (no-ops on the empty
  // source). Sequential is what a one-pass compaction read wants; Random
  // fits point-query serving; DontNeed releases page-cache claim on a
  // region the caller is done streaming.
  void AdviseSequential() const;
  void AdviseRandom() const;
  void AdviseDontNeed() const;

 private:
  std::shared_ptr<const MmapRegion> mapping_;  // null for the empty source
  std::string_view view_;                      // into *mapping_
};

// Incremental sequential reader over one BlobSource. Construction advises
// sequential access; Take() hands out borrowed chunks and advances the
// cursor, so a compaction pass over N archives touches each page once and
// never materializes an input in the heap.
class BlobReader {
 public:
  explicit BlobReader(BlobSource source) : source_(std::move(source)) {
    source_.AdviseSequential();
  }

  size_t size() const { return source_.size(); }
  size_t position() const { return position_; }

  // Bytes not yet consumed, as a borrowed view (no copy).
  std::string_view Remaining() const {
    return source_.view().substr(position_);
  }

  // Consumes and returns up to `max_bytes` (empty at the end).
  std::string_view Take(size_t max_bytes) {
    std::string_view chunk = source_.view().substr(position_, max_bytes);
    position_ += chunk.size();
    return chunk;
  }

  // Hints that the blob's pages are no longer needed (DontNeed on mapped
  // sources; the hint covers the whole mapping, so call it once the reader
  // is drained — a long compaction should not keep every already-merged
  // input resident).
  void ReleaseConsumed() { source_.AdviseDontNeed(); }

  const BlobSource& source() const { return source_; }

 private:
  BlobSource source_;
  size_t position_ = 0;
};

}  // namespace fvl

#endif  // FVL_UTIL_BLOB_SOURCE_H_
