// BlobSource — a serialized index artifact served from one shared,
// read-only mapping of its archive file, so the index classes reference
// storage instead of owning heap strings. The pages are the kernel's,
// shared across processes, and the LabelStore borrowed-arena mode points
// straight into them.
//
// A BlobSource is cheaply copyable: copies share one reference-counted
// mapping, which is exactly the keepalive a borrowed arena needs — a
// LabelStore parsed in place holds a copy of its source, every copy of the
// store (or of an index wrapping it) copies the source too, and the
// mapping unmaps with the last copy. CompactStream::Append(const
// BlobSource&) parses a whole mapped input this way, then advises DontNeed.

#ifndef FVL_UTIL_BLOB_SOURCE_H_
#define FVL_UTIL_BLOB_SOURCE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

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

}  // namespace fvl

#endif  // FVL_UTIL_BLOB_SOURCE_H_
