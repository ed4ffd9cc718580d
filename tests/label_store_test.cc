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
#include "fvl/util/file.h"
#include "fvl/util/random.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/paper_example.h"
#include "label_store_test_peer.h"
#include "test_util.h"

namespace fvl {

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
  // The bulk path (two stream copies + skip-table rebasing) must produce
  // exactly the store that per-label appends produce, and so must the
  // public Merge entry point, serialization included.
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

  std::vector<ProvenanceIndex> runs;
  runs.push_back(a->Snapshot());
  runs.push_back(b->Snapshot());
  ProvenanceIndex merged = ProvenanceIndex::Merge(runs).value();
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

// Hand-crafted v3 tails probing the span-stream edge cases a random flip
// rarely lands on: sub-presence lengths, bases past the arena, an arena
// whose stored size disagrees with the header, and both coverage checks.
// Every one is a recoverable kMalformedBlob.
TEST_F(LabelStoreTest, ParseTailRejectsCraftedV3EdgeCases) {
  auto craft = [&](const BitWriter& span, const BitWriter& arena) {
    std::string tail;
    for (int width : {codec_.production_bits, codec_.position_bits,
                      codec_.cycle_bits, codec_.start_bits,
                      codec_.port_bits}) {
      tail.push_back(static_cast<char>(width));
    }
    tail.push_back(static_cast<char>(LabelStore::kTailFormatVersion));
    LabelStore::AppendU64(&tail, static_cast<uint64_t>(span.size_bits()));
    for (uint64_t word : span.words()) LabelStore::AppendU64(&tail, word);
    LabelStore::AppendU64(&tail, static_cast<uint64_t>(arena.size_bits()));
    for (uint64_t word : arena.words()) LabelStore::AppendU64(&tail, word);
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
  // An arena of `bits` zero bits.
  auto zeros = [](int bits) {
    BitWriter arena;
    arena.WriteFixed(0, bits);
    return arena;
  };
  // One block of one label of `length` bits.
  auto one_label = [](uint64_t length) {
    BitWriter span;
    span.WriteVByte(length);
    span.WriteFixed(0, 6);
    return span;
  };

  // A 1-bit label cannot hold its two presence bits.
  expect_reject(craft(one_label(1), zeros(1)), /*arena_bits=*/1, /*items=*/1,
                "label shorter than its presence bits");
  // Block base length larger than the whole arena.
  expect_reject(craft(one_label(100), zeros(4)), 4, 1,
                "label lengths exceed the arena");
  // A label with an empty arena: the tail's stored arena size (0) is not
  // the header's.
  expect_reject(craft(one_label(8), BitWriter()), 8, 1,
                "label arena size disagrees with the header");
  // An arena longer than the header says.
  expect_reject(craft(one_label(2), zeros(3)), 2, 1,
                "label arena size disagrees with the header");
  // Lengths that under-cover the claimed arena.
  expect_reject(craft(one_label(2), zeros(5)), 5, 1,
                "label lengths do not cover the arena");
  // Unaccounted bits after the final block.
  {
    BitWriter span = one_label(2);
    span.WriteFixed(0, 5);  // trailing garbage
    expect_reject(craft(span, zeros(2)), 2, 1,
                  "span stream has trailing bits");
  }
}

// Seeded byte flips over a real v3 tail, through ParseTail directly: every
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

// The bound the span cursor's scan rests on: consecutive skip-table
// checkpoints, and the tail after the last one, are at most kSkipInterval
// items apart, on a store from every build path. Every path also keeps
// every payload in the arena and nothing but gamma lengths in the meta
// stream, and live Append records each span as exactly the bits the codec
// wrote for it (it encodes once and measures the arena's growth).
TEST_F(LabelStoreTest, SkipCheckpointsAreAtMostOneIntervalApart) {
  auto expect_bounded = [](const LabelStore& store, const char* path) {
    EXPECT_EQ(LabelStoreTestPeer::ArenaStreamBits(store), store.arena_bits())
        << path;
    int64_t gamma_bits = 0;
    for (int global = 0; global < store.total_items(); ++global) {
      gamma_bits +=
          GammaLength(static_cast<uint64_t>(store.LabelBits(global)));
    }
    EXPECT_EQ(LabelStoreTestPeer::MetaBits(store), gamma_bits) << path;
    std::vector<int64_t> items = LabelStoreTestPeer::SkipItems(store);
    ASSERT_FALSE(items.empty()) << path;
    EXPECT_EQ(items.front(), 0) << path;
    items.push_back(store.total_items());  // the tail
    for (size_t i = 1; i < items.size(); ++i) {
      EXPECT_GE(items[i], items[i - 1]) << path << " checkpoint " << i;
      EXPECT_LE(items[i] - items[i - 1], LabelStore::kSkipInterval)
          << path << " checkpoint " << i;
    }
  };

  // BioAID: long recursive paths with gamma-coded iteration indices.
  auto bio_service = ProvenanceService::Create(MakeBioAid(2012).spec).value();
  auto bio = bio_service->GenerateLabeledRun(
      RunGeneratorOptions{.target_items = 2000, .seed = 20});
  const LabelStore& bio_store = bio->labeler().store();
  const LabelCodec& bio_codec = bio->labeler().codec();
  for (int item = 0; item < bio->num_items(); ++item) {
    ASSERT_EQ(bio_store.LabelBits(item),
              bio_codec.Encode(bio->Label(item)).size_bits())
        << "item " << item;
  }
  expect_bounded(bio_store, "live Append, BioAID");

  auto a = Session(150, 21);
  auto b = Session(97, 22);
  expect_bounded(a->labeler().store(), "live Append");

  std::vector<ProvenanceIndex> runs = {a->Snapshot(), b->Snapshot(),
                                       a->Snapshot()};
  ProvenanceIndex merged = ProvenanceIndex::Merge(runs).value();
  expect_bounded(merged.store(), "Merge");

  // Replay `a` through a fresh session, freezing a delta at uneven points.
  auto replay = service_->BeginRun();
  std::vector<ProvenanceIndex> deltas;
  for (int s = 0; s < a->run().num_steps(); ++s) {
    const DerivationStep& step = a->run().step(s);
    ASSERT_TRUE(replay->Apply(step.instance, step.production).ok());
    if (replay->num_items() - replay->frozen_items() >= 23 + (7 * s) % 11) {
      deltas.push_back(replay->SnapshotDelta());
    }
  }
  deltas.push_back(replay->SnapshotDelta());
  ASSERT_GE(deltas.size(), 3u);
  for (const ProvenanceIndex& delta : deltas) {
    expect_bounded(delta.store(), "SnapshotDelta");
  }
  expect_bounded(ProvenanceIndex::FromDeltas(deltas).value().store(),
                 "FromDeltas");

  const std::string blob = merged.Serialize();
  expect_bounded(ProvenanceIndex::Deserialize(blob).value().store(),
                 "Deserialize");
  const std::string path = "/tmp/fvl_label_store_skip_bound.fvlmrg";
  FileHandle out = FileHandle::CreateTruncate(path).value();
  ASSERT_TRUE(out.WriteAll(blob).ok());
  ASSERT_TRUE(out.Close().ok());
  ProvenanceIndex mapped = ProvenanceIndex::Map(path).value();
  ASSERT_TRUE(mapped.store().arena_borrowed());
  expect_bounded(mapped.store(), "Map");
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
// pinned when every payload moved into the arena (tail-format version 3)
// for a fixed 8-item paper-example run, and the pipeline must keep emitting
// it byte for byte. If the format ever changes deliberately, bump
// LabelStore::kTailFormatVersion, re-pin, and add a docs/MIGRATION.md
// entry instead of editing the constant in place.
TEST_F(LabelStoreTest, SerializedFormatIsStable) {
  constexpr char kGoldenHex[] =
      "46564c49445833001c00000000000000b003000000000000030301010203b600000000"
      "0000000506000000a06996a6599635c230ccb2f33c8ee3f7992600b003000000000000"
      "c695562f000625172083b20b8260dca044b06e502620170c01bb6009ca0544d0362845"
      "409426a0a4088131db0494146316a198809262cc265413505284423826a0a40895704d"
      "414941c9813c4c414941c9913c2d981018b32d98318b502c98319b502d985008c78209"
      "95706d184a0ee461c35072244f0000";

  auto session = Session(8, 1);
  EXPECT_EQ(ToHex(session->Snapshot().Serialize()), kGoldenHex);
}

}  // namespace
}  // namespace fvl
