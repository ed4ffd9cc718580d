// The shared-arena label store (core/label_store.h): group/span
// bookkeeping, live append vs grouped bulk append, stream growth across
// freezes, and the serialized-format stability that the FVLIDX3/FVLMRG2
// blobs inherit from AppendTail/ParseTail.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "fvl/core/index.h"
#include "fvl/core/label_store.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/bitstream.h"
#include "fvl/util/random.h"
#include "fvl/workload/paper_example.h"
#include "test_util.h"

namespace fvl {

// Test-only backdoor for invariants the public API maintains by
// construction: the coverage regression needs a store whose spans do *not*
// cover its streams, which no public path can produce.
class LabelStoreTestPeer {
 public:
  // Appends one raw bit to the long-label arena without accounting for it:
  // arena_covered_bits_ < arena_.size_bits().
  static void UncoverLastArenaBit(LabelStore* store) {
    FVL_CHECK(store->arena_bits() > 0);
    store->arena_.WriteFixed(0, 1);
  }
  // Observability for the inlining split (placement is an internal detail
  // the public accessors deliberately hide).
  static int64_t MetaBits(const LabelStore& store) {
    return store.meta_.size_bits();
  }
  static int64_t LongArenaBits(const LabelStore& store) {
    return store.arena_.size_bits();
  }
};

namespace {

class LabelStoreTest : public ::testing::Test {
 protected:
  LabelStoreTest()
      : service_(ProvenanceService::Create(MakePaperExample().spec).value()),
        codec_(LabelCodec(service_->production_graph())) {}

  // A deterministic labeled session of `target` items.
  std::shared_ptr<ProvenanceSession> Session(int target, uint64_t seed) {
    return service_->GenerateLabeledRun(
        RunGeneratorOptions{.target_items = target, .seed = seed});
  }

  std::shared_ptr<ProvenanceService> service_;
  LabelCodec codec_;
};

TEST_F(LabelStoreTest, EmptyStoreAndEmptyGroups) {
  LabelStore store(codec_);
  EXPECT_EQ(store.num_groups(), 0);
  EXPECT_EQ(store.total_items(), 0);
  EXPECT_EQ(store.arena_bits(), 0);

  // Groups may be empty (a run frozen before producing anything); flat ids
  // skip them.
  store.BeginGroup();
  store.BeginGroup();
  EXPECT_EQ(store.num_groups(), 2);
  EXPECT_EQ(store.num_items(0), 0);
  EXPECT_EQ(store.num_items(1), 0);
  EXPECT_EQ(store.total_items(), 0);
}

TEST_F(LabelStoreTest, SingleItemGroupsRoundTrip) {
  auto session = Session(30, 3);
  LabelStore store(codec_);
  // One group per item: the degenerate grouping still addresses correctly.
  for (int item = 0; item < 5; ++item) {
    store.BeginGroup();
    store.Append(session->Label(item));
  }
  EXPECT_EQ(store.num_groups(), 5);
  EXPECT_EQ(store.total_items(), 5);
  for (int item = 0; item < 5; ++item) {
    EXPECT_EQ(store.num_items(item), 1);
    EXPECT_EQ(store.GlobalId(item, 0), item);
    EXPECT_EQ(store.GroupOf(item), item);
    EXPECT_EQ(store.DecodeLabel(item), session->Label(item));
    EXPECT_EQ(store.LabelBits(item), session->LabelBits(item));
  }
}

TEST_F(LabelStoreTest, GroupOfSkipsEmptyGroups) {
  auto session = Session(30, 4);
  LabelStore store(codec_);
  store.BeginGroup();  // group 0: 1 item
  store.Append(session->Label(0));
  store.BeginGroup();  // group 1: empty
  store.BeginGroup();  // group 2: 2 items
  store.Append(session->Label(1));
  store.Append(session->Label(2));
  ASSERT_EQ(store.total_items(), 3);
  EXPECT_EQ(store.GroupOf(0), 0);
  EXPECT_EQ(store.GroupOf(1), 2);
  EXPECT_EQ(store.GroupOf(2), 2);
  EXPECT_EQ(store.GlobalId(2, 1), 2);
}

TEST_F(LabelStoreTest, ArenaGrowsAcrossFreezes) {
  // A session's live store keeps growing after a snapshot froze a prefix;
  // the frozen copy is immutable and bit-stable while the arena grows.
  auto session = service_->BeginRun();
  auto apply_some = [&](int steps) {
    for (int s = 0; s < steps && !session->complete(); ++s) {
      const ::fvl::Run& run = session->run();
      ASSERT_FALSE(run.Frontier().empty());
      int instance = run.Frontier().front();
      ModuleId type = run.instance(instance).type;
      for (ProductionId p = 0; p < service_->grammar().num_productions();
           ++p) {
        if (service_->grammar().production(p).lhs == type) {
          ASSERT_TRUE(session->Apply(instance, p).ok());
          break;
        }
      }
    }
  };

  apply_some(2);
  ProvenanceIndex first = session->Snapshot();
  std::string first_blob = first.Serialize();
  int64_t first_bits = session->labeler().store().arena_bits();
  ASSERT_GT(first_bits, 0);

  apply_some(4);
  ProvenanceIndex second = session->Snapshot();
  EXPECT_GE(session->labeler().store().arena_bits(), first_bits);
  EXPECT_GE(second.num_items(), first.num_items());

  // The first freeze is unaffected by later growth, and the live prefix
  // still matches it bit for bit.
  EXPECT_EQ(first.Serialize(), first_blob);
  for (int item = 0; item < first.num_items(); ++item) {
    EXPECT_EQ(first.Label(item), session->Label(item)) << "item " << item;
    EXPECT_EQ(first.LabelBits(item), session->LabelBits(item));
  }
  EXPECT_EQ(second.num_items(), session->num_items());
}

TEST_F(LabelStoreTest, AppendGroupsMatchesPerLabelAppend) {
  // The bulk path (one arena copy + offset rebasing) must produce exactly
  // the store that per-label appends produce.
  auto a = Session(40, 7);
  auto b = Session(25, 8);

  LabelStore bulk(codec_);
  ASSERT_TRUE(bulk.AppendGroups(a->labeler().store()).ok());
  ASSERT_TRUE(bulk.AppendGroups(b->labeler().store()).ok());

  LabelStore manual(codec_);
  manual.BeginGroup();
  for (int item = 0; item < a->num_items(); ++item) {
    manual.Append(a->Label(item));
  }
  manual.BeginGroup();
  for (int item = 0; item < b->num_items(); ++item) {
    manual.Append(b->Label(item));
  }

  ASSERT_EQ(bulk.num_groups(), 2);
  ASSERT_EQ(bulk.total_items(), manual.total_items());
  EXPECT_EQ(bulk.arena_bits(), manual.arena_bits());
  for (int global = 0; global < bulk.total_items(); ++global) {
    EXPECT_EQ(bulk.DecodeLabel(global), manual.DecodeLabel(global));
    EXPECT_EQ(bulk.LabelBits(global), manual.LabelBits(global));
  }
  std::string bulk_tail, manual_tail;
  bulk.AppendTail(&bulk_tail);
  manual.AppendTail(&manual_tail);
  EXPECT_EQ(bulk_tail, manual_tail);
}

// Grouped bulk appends rebase the span streams by bit-copy plus skip-table
// fixups — never re-encoding or re-homing a label. That only stays correct
// if inlined short labels (which live in the length/meta stream, not the
// arena) survive rebasing, so this test demands that the inputs actually
// exercise inlining, then checks the bulk merge against a per-label rebuild
// and the materialized Merge artifact.
TEST_F(LabelStoreTest, AppendGroupsRebasesInlinedLabels) {
  auto a = Session(40, 21);
  auto b = Session(40, 22);
  const LabelStore& store_a = a->labeler().store();
  const LabelStore& store_b = b->labeler().store();
  ASSERT_GT(store_a.inline_items(), 0) << "run too long to exercise inlining";
  ASSERT_GT(store_b.inline_items(), 0);
  ASSERT_LT(store_a.inline_items(), store_a.total_items())
      << "run too short to exercise the long-label arena";

  LabelStore bulk(codec_);
  ASSERT_TRUE(bulk.AppendGroups(store_a).ok());
  ASSERT_TRUE(bulk.AppendGroups(store_b).ok());
  EXPECT_EQ(bulk.inline_items(),
            store_a.inline_items() + store_b.inline_items());

  LabelStore manual(codec_);
  manual.BeginGroup();
  for (int item = 0; item < a->num_items(); ++item) {
    manual.Append(a->Label(item));
  }
  manual.BeginGroup();
  for (int item = 0; item < b->num_items(); ++item) {
    manual.Append(b->Label(item));
  }
  for (int global = 0; global < bulk.total_items(); ++global) {
    ASSERT_EQ(bulk.DecodeLabel(global), manual.DecodeLabel(global));
  }
  std::string bulk_tail, manual_tail;
  bulk.AppendTail(&bulk_tail);
  manual.AppendTail(&manual_tail);
  EXPECT_EQ(bulk_tail, manual_tail);

  // The same rebase through the public Merge entry point is bit-identical,
  // serialization included.
  std::vector<ProvenanceIndex> runs;
  runs.push_back(a->Snapshot());
  runs.push_back(b->Snapshot());
  ProvenanceIndex merged = ProvenanceIndex::Merge(runs).value();
  EXPECT_EQ(merged.store().inline_items(), bulk.inline_items());
  std::string merged_tail;
  merged.store().AppendTail(&merged_tail);
  EXPECT_EQ(merged_tail, bulk_tail);
}

TEST_F(LabelStoreTest, TailRoundTripsThroughParseTail) {
  auto session = Session(60, 9);
  const LabelStore& store = session->labeler().store();
  std::string tail;
  store.AppendTail(&tail);

  size_t pos = 0;
  Result<LabelStore> parsed = LabelStore::ParseTail(
      tail, &pos, {0, store.total_items()},
      static_cast<uint64_t>(store.arena_bits()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(pos, tail.size());
  ASSERT_EQ(parsed->total_items(), store.total_items());
  for (int item = 0; item < store.total_items(); ++item) {
    EXPECT_EQ(parsed->DecodeLabel(item), store.DecodeLabel(item));
  }
  // Re-serialization is bit-identical.
  std::string reserialized;
  parsed->AppendTail(&reserialized);
  EXPECT_EQ(reserialized, tail);

  // Truncation at every strict prefix fails cleanly.
  for (size_t cut = 0; cut < tail.size(); cut += 7) {
    size_t p = 0;
    EXPECT_EQ(LabelStore::ParseTail(tail.substr(0, cut), &p,
                                    {0, store.total_items()},
                                    static_cast<uint64_t>(store.arena_bits()))
                  .code(),
              ErrorCode::kMalformedBlob)
        << "cut=" << cut;
  }
}

// Hand-crafted v2 tails probing the span-stream edge cases a random flip
// rarely lands on: sub-presence lengths, bases past the arena, inline
// payloads missing from the stream, long labels with an empty arena, and
// both trailing-bits checks. Every one is a recoverable kMalformedBlob.
TEST_F(LabelStoreTest, ParseTailRejectsCraftedV2EdgeCases) {
  auto craft = [&](const BitWriter& span, const BitWriter& payload) {
    std::string tail;
    for (int width : {codec_.production_bits, codec_.position_bits,
                      codec_.cycle_bits, codec_.start_bits,
                      codec_.port_bits}) {
      tail.push_back(static_cast<char>(width));
    }
    tail.push_back(static_cast<char>(LabelStore::kTailFormatVersion));
    LabelStore::AppendU64(&tail, static_cast<uint64_t>(span.size_bits()));
    for (uint64_t word : span.words()) LabelStore::AppendU64(&tail, word);
    LabelStore::AppendU64(&tail, static_cast<uint64_t>(payload.size_bits()));
    for (uint64_t word : payload.words()) LabelStore::AppendU64(&tail, word);
    return tail;
  };
  auto expect_reject = [&](const std::string& tail, uint64_t arena_bits,
                           int64_t items, const std::string& want) {
    size_t pos = 0;
    Result<LabelStore> parsed = LabelStore::ParseTail(
        tail, &pos, {0, items}, arena_bits);
    ASSERT_FALSE(parsed.ok()) << want;
    EXPECT_EQ(parsed.code(), ErrorCode::kMalformedBlob);
    EXPECT_EQ(parsed.status().message(), want);
  };

  // A 1-bit label cannot hold its two presence bits.
  {
    BitWriter span;
    span.WriteVByte(1);
    span.WriteFixed(0, 6);
    expect_reject(craft(span, BitWriter()), /*arena_bits=*/1, /*items=*/1,
                  "label shorter than its presence bits");
  }
  // Block base length larger than the whole arena.
  {
    BitWriter span;
    span.WriteVByte(100);
    span.WriteFixed(0, 6);
    expect_reject(craft(span, BitWriter()), 4, 1,
                  "label lengths exceed the arena");
  }
  // Inline-length label whose payload bits are missing from the stream.
  {
    BitWriter span;
    span.WriteVByte(8);
    span.WriteFixed(0, 6);
    expect_reject(craft(span, BitWriter()), 8, 1, "truncated span stream");
  }
  // A label past the inline threshold with an empty long-label arena.
  {
    const uint64_t long_len =
        static_cast<uint64_t>(LabelStore::InlineThresholdBits(codec_)) + 1;
    BitWriter span;
    span.WriteVByte(long_len);
    span.WriteFixed(0, 6);
    expect_reject(craft(span, BitWriter()), long_len, 1,
                  "truncated label arena");
  }
  // Lengths that under-cover the claimed arena.
  {
    BitWriter span;
    span.WriteVByte(2);
    span.WriteFixed(0, 6);
    span.WriteFixed(0, 2);  // the inline 2-bit (empty) label
    expect_reject(craft(span, BitWriter()), 5, 1,
                  "label lengths do not cover the arena");
  }
  // Unaccounted bits after the final block.
  {
    BitWriter span;
    span.WriteVByte(2);
    span.WriteFixed(0, 6);
    span.WriteFixed(0, 2);
    span.WriteFixed(0, 5);  // trailing garbage
    expect_reject(craft(span, BitWriter()), 2, 1,
                  "span stream has trailing bits");
  }
  // Unconsumed long-label payload bits.
  {
    BitWriter span;
    span.WriteVByte(2);
    span.WriteFixed(0, 6);
    span.WriteFixed(0, 2);
    BitWriter payload;
    payload.WriteFixed(0, 3);
    expect_reject(craft(span, payload), 2, 1,
                  "label arena has trailing bits");
  }
}

// Seeded byte flips over a real v2 tail, through ParseTail directly: every
// mutant either parses (and then every label decodes — the parser
// validated the spans) or comes back kMalformedBlob. Fatal under
// ASan/UBSan if any path over-reads or aborts.
TEST_F(LabelStoreTest, ParseTailSeededByteFlipsNeverAbort) {
  auto session = Session(120, 13);
  const LabelStore& store = session->labeler().store();
  std::string tail;
  store.AppendTail(&tail);

  Rng rng(2024);
  int accepted = 0, rejected = 0;
  for (int round = 0; round < 600; ++round) {
    std::string mutant = tail;
    int flips = 1 + rng.NextInt(0, 2);
    for (int f = 0; f < flips; ++f) {
      size_t at = static_cast<size_t>(
          rng.NextInt(0, static_cast<int>(mutant.size()) - 1));
      mutant[at] = static_cast<char>(rng.NextInt(0, 255));
    }
    size_t pos = 0;
    Result<LabelStore> parsed = LabelStore::ParseTail(
        mutant, &pos, {0, store.total_items()},
        static_cast<uint64_t>(store.arena_bits()));
    if (parsed.ok()) {
      ++accepted;
      for (int item = 0; item < parsed->total_items(); ++item) {
        (void)parsed->DecodeLabel(item);
      }
    } else {
      ++rejected;
      EXPECT_EQ(parsed.code(), ErrorCode::kMalformedBlob);
    }
  }
  // The corpus must actually exercise the reject paths (and typically a
  // few same-bits accepts when a flip lands in dead padding).
  EXPECT_GT(rejected, 100);
  EXPECT_EQ(accepted + rejected, 600);
}

// A store whose offsets do not cover its arena would, if bulk-appended,
// graft the uncovered bits onto the next span and silently corrupt every
// rebased offset. The guard must hold in *release* builds too (it used to
// be a debug-only FVL_DCHECK), surfacing as a recoverable error at the
// merge entry points rather than corrupting or aborting.
TEST_F(LabelStoreTest, UncoveredArenaIsARecoverableAppendError) {
  auto session = Session(30, 11);
  LabelStore corrupt = session->labeler().store();  // covered copy
  LabelStoreTestPeer::UncoverLastArenaBit(&corrupt);

  LabelStore out(codec_);
  Status groups = out.AppendGroups(corrupt);
  ASSERT_FALSE(groups.ok());
  EXPECT_EQ(groups.code(), ErrorCode::kInvalidArgument);
  out.BeginGroup();
  Status items = out.AppendItems(corrupt);
  ASSERT_FALSE(items.ok());
  EXPECT_EQ(items.code(), ErrorCode::kInvalidArgument);
  // The failed appends left the destination untouched and usable.
  EXPECT_EQ(out.total_items(), 0);
  EXPECT_EQ(out.arena_bits(), 0);
  ASSERT_TRUE(out.AppendItems(session->labeler().store()).ok());
  EXPECT_EQ(out.total_items(), session->num_items());

  // The same violation surfaces recoverably from Merge and FromDeltas.
  std::vector<ProvenanceIndex> runs;
  runs.push_back(ProvenanceIndex(corrupt));
  EXPECT_EQ(ProvenanceIndex::Merge(runs).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(ProvenanceIndex::FromDeltas(runs).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(LabelStoreTest, AppendItemsMatchesPerLabelAppend) {
  // The single-group bulk path (FromDeltas' building block) must produce
  // exactly the store that per-label appends produce.
  auto a = Session(40, 12);
  auto b = Session(25, 13);

  LabelStore bulk(codec_);
  bulk.BeginGroup();
  ASSERT_TRUE(bulk.AppendItems(a->labeler().store()).ok());
  ASSERT_TRUE(bulk.AppendItems(b->labeler().store()).ok());

  LabelStore manual(codec_);
  manual.BeginGroup();
  for (int item = 0; item < a->num_items(); ++item) {
    manual.Append(a->Label(item));
  }
  for (int item = 0; item < b->num_items(); ++item) {
    manual.Append(b->Label(item));
  }

  ASSERT_EQ(bulk.num_groups(), 1);
  ASSERT_EQ(bulk.total_items(), manual.total_items());
  std::string bulk_tail, manual_tail;
  bulk.AppendTail(&bulk_tail);
  manual.AppendTail(&manual_tail);
  EXPECT_EQ(bulk_tail, manual_tail);
}

TEST_F(LabelStoreTest, ExtractDeltaPartitionsTheArena) {
  auto session = Session(60, 14);
  const LabelStore& source = session->labeler().store();

  // Rebuild the session's store live, extracting deltas at uneven points.
  LabelStore live(codec_);
  live.BeginGroup();
  std::vector<LabelStore> deltas;
  const int cuts[] = {1, 7, 8, 23, source.total_items()};
  int appended = 0;
  for (int cut : cuts) {
    for (; appended < cut; ++appended) live.Append(session->Label(appended));
    EXPECT_EQ(live.watermark_items(), deltas.empty() ? 0 : cuts[deltas.size() - 1]);
    deltas.push_back(live.ExtractDelta());
    EXPECT_EQ(live.watermark_items(), cut);
  }

  // Each delta holds exactly its range, rebased to bit 0.
  int base = 0;
  for (size_t d = 0; d < deltas.size(); ++d) {
    ASSERT_EQ(deltas[d].num_groups(), 1);
    ASSERT_EQ(deltas[d].total_items(), cuts[d] - base);
    for (int item = 0; item < deltas[d].total_items(); ++item) {
      EXPECT_EQ(deltas[d].DecodeLabel(item), session->Label(base + item))
          << "delta " << d << " item " << item;
      EXPECT_EQ(deltas[d].LabelBits(item), session->LabelBits(base + item));
    }
    base = cuts[d];
  }

  // Extracting with nothing new yields an empty delta and moves nothing.
  LabelStore empty_delta = live.ExtractDelta();
  EXPECT_EQ(empty_delta.total_items(), 0);
  EXPECT_EQ(empty_delta.arena_bits(), 0);
  EXPECT_EQ(live.watermark_items(), source.total_items());

  // Concatenating the deltas reproduces the source store's tail bit for
  // bit — the property FromDeltas' golden reassembly rests on.
  LabelStore rebuilt(codec_);
  rebuilt.BeginGroup();
  for (const LabelStore& delta : deltas) {
    ASSERT_TRUE(rebuilt.AppendItems(delta).ok());
  }
  std::string rebuilt_tail, source_tail;
  rebuilt.AppendTail(&rebuilt_tail);
  source.AppendTail(&source_tail);
  EXPECT_EQ(rebuilt_tail, source_tail);
}

TEST_F(LabelStoreTest, StoreCountProbeTracksLifetimes) {
  const int base = internal::StoreCountProbe::live();
  internal::StoreCountProbe::ResetPeak();
  EXPECT_EQ(internal::StoreCountProbe::peak(), base);
  {
    LabelStore a(codec_);
    EXPECT_EQ(internal::StoreCountProbe::live(), base + 1);
    LabelStore b = a;  // copies count
    EXPECT_EQ(internal::StoreCountProbe::live(), base + 2);
    LabelStore c = std::move(b);  // moved-from stores still exist
    EXPECT_EQ(internal::StoreCountProbe::live(), base + 3);
    EXPECT_EQ(internal::StoreCountProbe::peak(), base + 3);
  }
  EXPECT_EQ(internal::StoreCountProbe::live(), base);
  EXPECT_EQ(internal::StoreCountProbe::peak(), base + 3);
}

std::string ToHex(std::string_view bytes) {
  constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xF]);
  }
  return hex;
}

// The serialized layout is a compatibility contract: this FVLIDX3 blob was
// pinned when the block-compressed span tail landed (tail-format version 2)
// for a fixed 8-item paper-example run, and the pipeline must keep emitting
// it byte for byte. If the format ever changes deliberately, bump the magic
// and LabelStore::kTailFormatVersion, re-pin, and add a docs/MIGRATION.md
// entry instead of editing the constant in place.
TEST_F(LabelStoreTest, SerializedFormatIsStable) {
  constexpr char kGoldenHex[] =
      "46564c49445833001c00000000000000b003000000000000030301010202b701000000"
      "000000050660000714a00155bb0018946817208332eb822018da0d4a044bbb41998058"
      "170c01b32e5882625d40046d84619865e7791cc7ef334d00af020000000000001b9422"
      "204a13505284c0986d024a8a318b504c4049316613aa09282942211c135052844ab8a6"
      "a0a4a0e4401ea6a0a4a0e4489e164c088cd916cc98452816cc984da8164c288463c184"
      "4ab8360c2507f2b061283992270000";

  auto session = Session(8, 1);
  EXPECT_EQ(ToHex(session->Snapshot().Serialize()), kGoldenHex);
}

}  // namespace
}  // namespace fvl
