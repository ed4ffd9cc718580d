#include "fvl/core/index.h"

#include <cstring>
#include <limits>
#include <utility>

#include "fvl/util/check.h"

namespace fvl {

namespace {

// The two headers in front of the shared store tail, picked by run count.
// Exactly one run: item count and arena bits.
constexpr char kMagic[8] = {'F', 'V', 'L', 'I', 'D', 'X', '3', '\0'};
// Any other count: run count, item count, arena bits, then one item count
// per run.
constexpr char kMergedMagic[8] = {'F', 'V', 'L', 'M', 'R', 'G', '2', '\0'};

bool HasMagic(std::string_view blob, const char (&magic)[8]) {
  return blob.size() >= 8 && std::memcmp(blob.data(), magic, 8) == 0;
}

// Shared validation vocabulary of the combiners (FromDeltas and
// CompactStream) — one wording per failure mode, so the error taxonomy
// docs/ERRORS.md promises stays uniform by construction.
Status MismatchedCodec(const char* noun, size_t index) {
  return Status::Error(
      ErrorCode::kInvalidArgument,
      std::string(noun) + " " + std::to_string(index) +
          " was built for a different specification than " + noun +
          " 0 (label codecs disagree)");
}

Status TooManyItems(const char* artifact) {
  return Status::Error(
      ErrorCode::kInvalidArgument,
      std::string(artifact) + " would exceed the supported item count");
}

// Combined item counts must stay strictly below the int ceiling the store
// accessors narrow to.
bool FitsItemCount(int64_t total) {
  return total < std::numeric_limits<int>::max();
}

}  // namespace

ProvenanceIndexBuilder::ProvenanceIndexBuilder(const ProductionGraph& pg)
    : store_(LabelCodec(pg)) {
  store_.BeginGroup();
}

ProvenanceIndex ProvenanceIndexBuilder::Build() && {
  return ProvenanceIndex(std::move(store_));
}

ProvenanceIndex ProvenanceIndexBuilder::FromLabeledRun(
    const ProductionGraph& pg, const RunLabeler& labeler) {
  FVL_CHECK(labeler.codec() == LabelCodec(pg));
  return ProvenanceIndex(labeler.store());
}

int64_t ProvenanceIndex::SizeBits() const {
  // Exact bits of the canonical span representation: every label's content
  // plus the block-compressed length metadata, and the run base table the
  // FVLMRG2 header carries.
  const int64_t table =
      num_runs() == 1 ? 0
                      : static_cast<int64_t>(num_runs()) *
                            BitWidthFor(static_cast<int64_t>(total_items()) + 1);
  return store_.SerializedSpanBits() + table;
}

std::string ProvenanceIndex::Serialize() const {
  const bool single = num_runs() == 1;
  std::string blob(single ? kMagic : kMergedMagic, sizeof(kMagic));
  if (!single) LabelStore::AppendU64(&blob, static_cast<uint64_t>(num_runs()));
  LabelStore::AppendU64(&blob, static_cast<uint64_t>(total_items()));
  LabelStore::AppendU64(&blob, static_cast<uint64_t>(store_.arena_bits()));
  if (!single) {
    for (int run = 0; run < num_runs(); ++run) {
      LabelStore::AppendU64(&blob, static_cast<uint64_t>(num_items(run)));
    }
  }
  store_.AppendTail(&blob);
  return blob;
}

Result<ProvenanceIndex> ProvenanceIndex::Deserialize(std::string_view blob) {
  return Parse(blob, /*borrow_arena=*/false);
}

Result<ProvenanceIndex> ProvenanceIndex::Map(const std::string& path) {
  Result<BlobSource> source = BlobSource::MapFile(path);
  if (!source.ok()) return source.status();
  // Validation walks the blob front to back; serving then point-queries it.
  source->AdviseSequential();
  Result<ProvenanceIndex> index = Parse(source->view(), /*borrow_arena=*/true);
  if (!index.ok()) return index.status();
  source->AdviseRandom();
  index->backing_ = std::move(source).value();
  return index;
}

Result<ProvenanceIndex> ProvenanceIndex::Parse(std::string_view blob,
                                               bool borrow_arena) {
  auto fail = [](const std::string& message) -> Status {
    return Status::Error(ErrorCode::kMalformedBlob, message);
  };
  const bool merged = HasMagic(blob, kMergedMagic);
  if (!merged && !HasMagic(blob, kMagic)) return fail("bad magic");
  size_t pos = sizeof(kMagic);
  uint64_t num_runs = 1, total_items = 0, arena_bits = 0;
  if ((merged && !LabelStore::ReadU64(blob, &pos, &num_runs)) ||
      !LabelStore::ReadU64(blob, &pos, &total_items) ||
      !LabelStore::ReadU64(blob, &pos, &arena_bits)) {
    return fail("truncated header");
  }
  // No claimed count may describe more bytes than the blob carries, which
  // caps every allocation below and keeps all arithmetic in int64 range;
  // num_runs()/total_items() narrow the store's counts to int.
  if (num_runs > blob.size() / 8) return fail("num_runs exceeds blob");
  if (num_runs >= static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return fail("num_runs exceeds supported range");
  }
  if (arena_bits / 8 > blob.size()) return fail("arena_bits exceeds blob");
  if (total_items / 8 > blob.size()) return fail("num_items exceeds blob");
  if (total_items >= static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return fail("num_items exceeds supported range");
  }

  std::vector<int64_t> run_base = {0};
  if (merged) {
    run_base.reserve(num_runs + 1);
    for (uint64_t run = 0; run < num_runs; ++run) {
      uint64_t count = 0;
      if (!LabelStore::ReadU64(blob, &pos, &count)) {
        return fail("truncated run table");
      }
      if (count > total_items - static_cast<uint64_t>(run_base.back())) {
        return fail("run item counts exceed total_items");
      }
      run_base.push_back(run_base.back() + static_cast<int64_t>(count));
    }
    if (run_base.back() != static_cast<int64_t>(total_items)) {
      return fail("run item counts do not sum to total_items");
    }
  } else {
    run_base.push_back(static_cast<int64_t>(total_items));
  }

  Result<LabelStore> store = LabelStore::ParseTail(
      blob, &pos, std::move(run_base), arena_bits, borrow_arena);
  if (!store.ok()) return store.status();
  return ProvenanceIndex(std::move(store).value());
}

Result<ProvenanceIndex> ProvenanceIndex::FromDeltas(
    std::span<const ProvenanceIndex> deltas) {
  if (deltas.empty()) {
    return Status::Error(
        ErrorCode::kInvalidArgument,
        "cannot reassemble an empty delta span (no codec to infer)");
  }
  const LabelCodec& codec = deltas[0].codec();
  int64_t total = 0;
  for (size_t d = 0; d < deltas.size(); ++d) {
    if (deltas[d].num_runs() != 1) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           "delta " + std::to_string(d) +
                               " is not a single-run index");
    }
    if (!(deltas[d].codec() == codec)) return MismatchedCodec("delta", d);
    total += deltas[d].num_items();
  }
  if (!FitsItemCount(total)) return TooManyItems("reassembled index");

  // One group, filled by bulk item appends in freeze order: arenas of
  // consecutive deltas partition the original arena's bit range, so the
  // concatenation reproduces a full Snapshot() bit for bit.
  LabelStore store(codec);
  store.BeginGroup();
  for (const ProvenanceIndex& delta : deltas) {
    if (Status status = store.AppendItems(delta.store()); !status.ok()) {
      return status;
    }
  }
  return ProvenanceIndex(std::move(store));
}

Result<ProvenanceIndex> ProvenanceIndex::Merge(
    std::span<const ProvenanceIndex> runs) {
  CompactStream stream;
  for (const ProvenanceIndex& run : runs) {
    if (Status status = stream.Append(run); !status.ok()) return status;
  }
  return std::move(stream).Finish();
}

// --- CompactStream -----------------------------------------------------------

Status CompactStream::Append(const ProvenanceIndex& index) {
  const LabelStore& source = index.store();
  if (source.num_groups() == 0) {
    ++inputs_;
    return Status::Ok();
  }
  if (!have_codec_) {
    store_ = LabelStore(source.codec());
    have_codec_ = true;
  } else if (!(source.codec() == store_.codec())) {
    return MismatchedCodec("input", inputs_);
  }
  if (!FitsItemCount(static_cast<int64_t>(store_.total_items()) +
                     source.total_items())) {
    return TooManyItems("merged index");
  }
  if (Status status = store_.AppendGroups(source); !status.ok()) {
    return status;
  }
  ++inputs_;
  return Status::Ok();
}

Status CompactStream::Append(std::string_view blob) {
  return AppendParsed(blob, /*borrow_arena=*/false);
}

Status CompactStream::Append(BlobReader* reader) {
  // Borrowing is sound here because the parsed input dies inside
  // AppendParsed, long before the reader (and its mapping) does.
  Status status = AppendParsed(reader->Remaining(), /*borrow_arena=*/true);
  if (status.ok()) {
    reader->Take(reader->Remaining().size());
    reader->ReleaseConsumed();
  }
  return status;
}

Status CompactStream::AppendParsed(std::string_view blob, bool borrow_arena) {
  // The parsed input is the only deserialized store alive in the stream; it
  // is destroyed when this returns, before the caller touches the next
  // input.
  Result<ProvenanceIndex> input = ProvenanceIndex::Parse(blob, borrow_arena);
  if (!input.ok()) return input.status();
  return Append(*input);
}

Result<ProvenanceIndex> CompactStream::Finish() && {
  if (!have_codec_) return ProvenanceIndex();
  return ProvenanceIndex(std::move(store_));
}

}  // namespace fvl
