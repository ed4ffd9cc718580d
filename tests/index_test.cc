#include <gtest/gtest.h>

#include "fvl/core/decoder.h"
#include "fvl/core/index.h"
#include "fvl/service/legacy_facade.h"
#include "fvl/service/provenance_service.h"
#include "fvl/run/provenance_oracle.h"
#include "fvl/util/random.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/paper_example.h"
#include "fvl/workload/view_generator.h"
#include "test_util.h"

namespace fvl {
namespace {

class IndexTest : public ::testing::Test {
 protected:
  IndexTest() : ex_(MakePaperExample()), scheme_(FvlScheme::Create(&ex_.spec).value()) {
    RunGeneratorOptions options;
    options.target_items = 400;
    options.seed = 8;
    labeled_ = std::make_unique<FvlScheme::LabeledRun>(
        scheme_.GenerateLabeledRun(options));
  }

  PaperExample ex_;
  FvlScheme scheme_;
  std::unique_ptr<FvlScheme::LabeledRun> labeled_;
};

TEST_F(IndexTest, RoundTripsEveryLabel) {
  ProvenanceIndex index = ProvenanceIndexBuilder::FromLabeledRun(
      scheme_.production_graph(), labeled_->labeler);
  ASSERT_EQ(index.num_items(), labeled_->run.num_items());
  for (int item = 0; item < index.num_items(); ++item) {
    ASSERT_EQ(index.Label(item), labeled_->labeler.Label(item))
        << "item " << item;
    ASSERT_EQ(index.LabelBits(item), labeled_->labeler.LabelBits(item));
  }
}

TEST_F(IndexTest, SerializeDeserializeRoundTrip) {
  ProvenanceIndex index = ProvenanceIndexBuilder::FromLabeledRun(
      scheme_.production_graph(), labeled_->labeler);
  std::string blob = index.Serialize();
  Result<ProvenanceIndex> restored = ProvenanceIndex::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->num_items(), index.num_items());
  for (int item = 0; item < index.num_items(); ++item) {
    ASSERT_EQ(restored->Label(item), index.Label(item));
  }
  EXPECT_EQ(restored->Serialize(), blob);
}

TEST_F(IndexTest, DeserializeRejectsCorruption) {
  ProvenanceIndex index = ProvenanceIndexBuilder::FromLabeledRun(
      scheme_.production_graph(), labeled_->labeler);
  std::string blob = index.Serialize();

  // Bad magic.
  std::string bad = blob;
  bad[0] = 'X';
  Result<ProvenanceIndex> rejected = ProvenanceIndex::Deserialize(bad);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), ErrorCode::kMalformedBlob);
  EXPECT_EQ(rejected.status().message(), "bad magic");
  // Truncation at every prefix length must fail cleanly, never crash.
  for (size_t cut : {size_t{4}, size_t{10}, size_t{30}, blob.size() - 3}) {
    EXPECT_EQ(ProvenanceIndex::Deserialize(blob.substr(0, cut)).code(),
              ErrorCode::kMalformedBlob);
  }
  // Trailing garbage.
  EXPECT_FALSE(
      ProvenanceIndex::Deserialize(blob + "zz").has_value());
}

// A blob that parses structurally but whose labels do not decode under its
// own codec must be rejected at Deserialize time, recoverably — never by an
// abort (or a silently wrong label) on first use of the returned index.
TEST_F(IndexTest, DeserializeRejectsInconsistentBlobs) {
  ProvenanceIndex index = ProvenanceIndexBuilder::FromLabeledRun(
      scheme_.production_graph(), labeled_->labeler);
  std::string blob = index.Serialize();

  // Flip the embedded production_bits codec width (header byte 24): every
  // label span now misaligns against the arena.
  std::string bad_codec = blob;
  bad_codec[24] = static_cast<char>(bad_codec[24] + 1);
  EXPECT_EQ(ProvenanceIndex::Deserialize(bad_codec).code(),
            ErrorCode::kMalformedBlob);

  // arena_bits with the top bit set (header byte 23) must not abort inside
  // width computations.
  std::string bad_arena = blob;
  bad_arena[23] = static_cast<char>(0x80);
  EXPECT_EQ(ProvenanceIndex::Deserialize(bad_arena).code(),
            ErrorCode::kMalformedBlob);

  auto u64 = [](std::string* out, uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
    }
  };
  // Hand-crafted empty-arena blob claiming items: num_items is not backed
  // by any span or arena content, so the (zero-bit) labels cannot decode.
  auto crafted = [&](uint64_t num_items) {
    std::string b("FVLIDX3", 8);  // includes the terminating NUL
    u64(&b, num_items);
    u64(&b, 0);                       // arena_bits
    b.append(5, '\0');                // codec widths
    b.push_back(2);                   // tail-format version
    u64(&b, 0);                       // span_bits
    u64(&b, 0);                       // payload_bits
    return b;
  };
  Result<ProvenanceIndex> claimed = ProvenanceIndex::Deserialize(crafted(10));
  EXPECT_EQ(claimed.code(), ErrorCode::kMalformedBlob);
  EXPECT_EQ(claimed.status().message(), "truncated span stream");
  // A huge claimed item count must fail fast, not allocate terabytes.
  Result<ProvenanceIndex> huge =
      ProvenanceIndex::Deserialize(crafted(uint64_t{1} << 40));
  EXPECT_EQ(huge.code(), ErrorCode::kMalformedBlob);
  EXPECT_EQ(huge.status().message(), "num_items exceeds blob");

  // The converse confusion: zero items claiming a nonzero arena. The
  // (empty) span stream fails to cover the arena, and accepting it would
  // let a later Merge graft the junk bits onto the next run's first label
  // span (grouped-append rebases against the covered counters).
  std::string junk_arena("FVLIDX3", 8);
  u64(&junk_arena, 0);             // num_items
  u64(&junk_arena, 64);            // arena_bits
  junk_arena.append(5, '\0');      // codec widths
  junk_arena.push_back(2);         // tail-format version
  u64(&junk_arena, 0);             // span_bits
  u64(&junk_arena, 64);            // payload_bits
  u64(&junk_arena, 0xDEADBEEFULL); // uncovered arena bits
  Result<ProvenanceIndex> junk = ProvenanceIndex::Deserialize(junk_arena);
  EXPECT_EQ(junk.code(), ErrorCode::kMalformedBlob);
  EXPECT_EQ(junk.status().message(), "label lengths do not cover the arena");
}

// Targeted corruption of the v2 (FVLIDX3) compressed span tail: the block
// headers are vbyte + fixed-width fields, so a flipped continuation bit or
// a lying length must surface as kMalformedBlob, never as an abort or an
// accepted misparse.
TEST_F(IndexTest, DeserializeRejectsV2TailCorruption) {
  ProvenanceIndex index = ProvenanceIndexBuilder::FromLabeledRun(
      scheme_.production_graph(), labeled_->labeler);
  std::string blob = index.Serialize();
  // Tail layout after the 24-byte header: 5 codec width bytes, 1 tail
  // format version byte, u64 span_bits, then the span stream words — the
  // first span byte is the vbyte base length of block 0.
  const size_t version_at = 24 + 5;
  const size_t first_span_byte = version_at + 1 + 8;

  // Unknown tail-format version under the v3 magic.
  std::string bad_version = blob;
  bad_version[version_at] = 9;
  Result<ProvenanceIndex> rejected = ProvenanceIndex::Deserialize(bad_version);
  EXPECT_EQ(rejected.code(), ErrorCode::kMalformedBlob);
  EXPECT_EQ(rejected.status().message(), "unsupported tail-format version");
  // A v1 version byte under the v3 magic is just as foreign.
  bad_version[version_at] = 1;
  EXPECT_EQ(ProvenanceIndex::Deserialize(bad_version).code(),
            ErrorCode::kMalformedBlob);

  // Continuation bit forced on in block 0's vbyte base length: the base
  // swallows the delta-width field and every downstream read misaligns.
  std::string bad_vbyte = blob;
  bad_vbyte[first_span_byte] =
      static_cast<char>(bad_vbyte[first_span_byte] | 0x80);
  EXPECT_EQ(ProvenanceIndex::Deserialize(bad_vbyte).code(),
            ErrorCode::kMalformedBlob);

  // An all-continuation vbyte run (no terminating group within the 64-bit
  // range) must fail via the permissive reader, not spin or abort.
  auto u64 = [](std::string* out, uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
    }
  };
  std::string runaway(blob, 0, 24 + 5);  // header + codec widths
  runaway.push_back(2);                  // tail-format version
  u64(&runaway, 11 * 8);                 // span_bits: 11 vbyte groups
  runaway.append(std::string(11, '\xFF'));
  runaway.append(5, '\0');  // pad the 88-bit stream to word granularity
  u64(&runaway, 0);         // payload_bits
  EXPECT_EQ(ProvenanceIndex::Deserialize(runaway).code(),
            ErrorCode::kMalformedBlob);

  // Claimed items with an empty span stream: the block walk starves.
  std::string starved(blob, 0, 8);
  u64(&starved, 10);  // num_items
  u64(&starved, 0);   // arena_bits
  starved.append(5, '\0');
  starved.push_back(2);
  u64(&starved, 0);  // span_bits
  u64(&starved, 0);  // payload_bits
  EXPECT_EQ(ProvenanceIndex::Deserialize(starved).code(),
            ErrorCode::kMalformedBlob);

  // Truncation inside the span words (block headers cut mid-stream).
  EXPECT_EQ(
      ProvenanceIndex::Deserialize(blob.substr(0, first_span_byte + 1)).code(),
      ErrorCode::kMalformedBlob);
}

TEST_F(IndexTest, QueriesWorkFromDeserializedIndex) {
  ProvenanceIndex index = ProvenanceIndexBuilder::FromLabeledRun(
      scheme_.production_graph(), labeled_->labeler);
  std::string blob = index.Serialize();
  ProvenanceIndex restored = ProvenanceIndex::Deserialize(blob).value();

  auto view = *CompiledView::Compile(ex_.spec.grammar, ex_.grey_view);
  ViewLabel label = scheme_.LabelView(view, ViewLabelMode::kQueryEfficient);
  Decoder pi(&label);
  ProvenanceOracle oracle(labeled_->run, view);
  int checked = 0;
  for (int d1 = 0; d1 < labeled_->run.num_items(); d1 += 7) {
    for (int d2 = 0; d2 < labeled_->run.num_items(); d2 += 11) {
      if (!oracle.ItemVisible(d1) || !oracle.ItemVisible(d2)) continue;
      ASSERT_EQ(pi.Depends(restored.Label(d1), restored.Label(d2)),
                oracle.Depends(d1, d2))
          << "d1=" << d1 << " d2=" << d2;
      ++checked;
    }
  }
  EXPECT_GT(checked, 50);
}

TEST_F(IndexTest, CompactnessVsRawStructs) {
  // The arena holds ~60 bits per item; in-memory DataLabel structs cost two
  // orders of magnitude more.
  ProvenanceIndex index = ProvenanceIndexBuilder::FromLabeledRun(
      scheme_.production_graph(), labeled_->labeler);
  double bits_per_item =
      static_cast<double>(index.SizeBits()) / index.num_items();
  EXPECT_LT(bits_per_item, 120.0);
  EXPECT_GT(bits_per_item, 10.0);
}

// ----- Randomized corrupt-blob corpus (single-run and merged). -----
//
// Byte flips and truncations under a seeded RNG, pushed through the whole
// untrusted-snapshot pipeline: Deserialize either rejects the blob with
// kMalformedBlob, or returns an index whose every accessor is safe (the
// deserializer validated each label span) and whose labels the service
// vets — queries then succeed or fail with kInvalidArgument. No input may
// crash; the corpus runs under the ASan/UBSan CI matrix.

// Applies `mutations` random byte flips (at least one bit per chosen byte).
std::string FlipBytes(const std::string& blob, Rng& rng, int mutations) {
  std::string corrupt = blob;
  for (int m = 0; m < mutations; ++m) {
    size_t pos = rng.NextBounded(corrupt.size());
    corrupt[pos] = static_cast<char>(corrupt[pos] ^
                                     (1u << rng.NextBounded(8)));
  }
  return corrupt;
}

TEST_F(IndexTest, RandomizedCorruptionCorpusSingleRun) {
  ProvenanceIndex index = ProvenanceIndexBuilder::FromLabeledRun(
      scheme_.production_graph(), labeled_->labeler);
  std::string blob = index.Serialize();

  Rng rng(2024);
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupt = FlipBytes(blob, rng, 1 + trial % 3);
    Result<ProvenanceIndex> parsed = ProvenanceIndex::Deserialize(corrupt);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.code(), ErrorCode::kMalformedBlob);
      ++rejected;
      continue;
    }
    // A surviving blob (e.g. an arena flip that still decodes) must be
    // fully usable: every accessor was validated at the door.
    for (int item = 0; item < parsed->num_items(); item += 41) {
      parsed->Label(item);
    }
  }
  // Header/offset flips are always caught; only some arena flips survive.
  EXPECT_GT(rejected, 100);

  // Truncation at *every* strict prefix length fails cleanly.
  for (int trial = 0; trial < 60; ++trial) {
    size_t cut = rng.NextBounded(blob.size());
    EXPECT_EQ(ProvenanceIndex::Deserialize(blob.substr(0, cut)).code(),
              ErrorCode::kMalformedBlob)
        << "cut=" << cut;
  }
}

TEST_F(IndexTest, RandomizedCorruptionCorpusMerged) {
  // Three runs merged, then the same corpus against the merged format —
  // including the run-count table that the single-run format lacks. Parsed
  // survivors are additionally pushed through the service's batch path,
  // which must answer or reject with kInvalidArgument, never crash.
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();
  std::vector<ProvenanceIndex> snapshots;
  for (int r = 0; r < 3; ++r) {
    snapshots.push_back(
        service
            ->GenerateLabeledRun(
                RunGeneratorOptions{.target_items = 120,
                                    .seed = 60 + static_cast<uint64_t>(r)})
            ->Snapshot());
  }
  ProvenanceIndex merged = ProvenanceIndex::Merge(snapshots).value();
  std::string blob = merged.Serialize();

  Rng rng(4096);
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupt = FlipBytes(blob, rng, 1 + trial % 3);
    Result<ProvenanceIndex> parsed =
        ProvenanceIndex::Deserialize(corrupt);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.code(), ErrorCode::kMalformedBlob);
      ++rejected;
      continue;
    }
    for (int global = 0; global < parsed->total_items(); global += 37) {
      parsed->Label(global);
    }
    if (parsed->num_runs() > 0 && parsed->num_items(0) > 1) {
      std::vector<std::pair<RunItem, RunItem>> queries = {{{0, 0}, {0, 1}}};
      Result<std::vector<bool>> answers = service->QueryAcrossRuns(
          service->default_view(), *parsed, queries);
      if (!answers.ok()) {
        EXPECT_EQ(answers.code(), ErrorCode::kInvalidArgument);
      }
    }
  }
  EXPECT_GT(rejected, 100);

  for (int trial = 0; trial < 60; ++trial) {
    size_t cut = rng.NextBounded(blob.size());
    EXPECT_EQ(ProvenanceIndex::Deserialize(blob.substr(0, cut)).code(),
              ErrorCode::kMalformedBlob)
        << "cut=" << cut;
  }

  // Each magic parses to its own group layout and answers identically: the
  // FVLIDX3 blob is one run, the FVLMRG2 blob is three, and per-run
  // answers of the merged index equal those of the run's own snapshot.
  Result<ProvenanceIndex> restored = ProvenanceIndex::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->num_runs(), 3);
  ViewHandle view = service->default_view();
  for (int r = 0; r < 3; ++r) {
    Result<ProvenanceIndex> single =
        ProvenanceIndex::Deserialize(snapshots[r].Serialize());
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ASSERT_EQ(single->num_runs(), 1);
    ASSERT_EQ(restored->num_items(r), single->num_items());
    std::vector<std::pair<int, int>> local;
    std::vector<std::pair<RunItem, RunItem>> addressed;
    for (int q = 0; q < 60; ++q) {
      const int d1 = rng.NextInt(0, single->num_items() - 1);
      const int d2 = rng.NextInt(0, single->num_items() - 1);
      local.push_back({d1, d2});
      addressed.push_back({{r, d1}, {r, d2}});
    }
    EXPECT_EQ(service->QueryAcrossRuns(view, *restored, addressed).value(),
              service->DependsMany(view, *single, local).value())
        << "run " << r;
  }
}

// The header follows the run count, not the producer: a one-run index is
// written as FVLIDX3 however it was built, and a one-run FVLMRG2 blob (a
// run table of one entry) parses to the same index.
TEST(IndexFormats, OneRunIsFVLIDX3WhateverItsHeader) {
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();
  ProvenanceIndex snapshot =
      service->GenerateLabeledRun(RunGeneratorOptions{.target_items = 150,
                                                      .seed = 3})
          ->Snapshot();
  const std::string single = snapshot.Serialize();
  ASSERT_EQ(single.compare(0, 7, "FVLIDX3"), 0);

  std::vector<ProvenanceIndex> one = {snapshot};
  EXPECT_EQ(ProvenanceIndex::Merge(one).value().Serialize(), single);

  auto u64 = [](std::string* out, uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
    }
  };
  std::string framed("FVLMRG2", 8);  // includes the terminating NUL
  u64(&framed, 1);                                       // num_runs
  framed.append(single, 8, 16);                          // items, arena_bits
  u64(&framed, static_cast<uint64_t>(snapshot.num_items()));  // run table
  framed.append(single, 24, std::string::npos);          // shared tail
  Result<ProvenanceIndex> parsed = ProvenanceIndex::Deserialize(framed);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_runs(), 1);
  EXPECT_EQ(parsed->Serialize(), single);

  Rng rng(5);
  std::vector<std::pair<int, int>> queries;
  for (int q = 0; q < 200; ++q) {
    queries.push_back({rng.NextInt(0, snapshot.num_items() - 1),
                       rng.NextInt(0, snapshot.num_items() - 1)});
  }
  ViewHandle view = service->default_view();
  EXPECT_EQ(service->DependsMany(view, *parsed, queries).value(),
            service->DependsMany(view, snapshot, queries).value());
  EXPECT_EQ(service->VisibilitySweep(view, *parsed).value(),
            service->VisibilitySweep(view, snapshot).value());
  EXPECT_EQ(parsed->SizeBits(), snapshot.SizeBits());
}

TEST_F(IndexTest, RandomizedCorruptionCorpusUnifiedTail) {
  // Both blob formats now parse their label payload through the one
  // hardened LabelStore::ParseTail (codec widths, bit-packed offsets,
  // arena). Aim every flip at that shared tail, past the format-specific
  // headers, so the corpus exercises the unified deserializer in both
  // framings: each mutant must be rejected with kMalformedBlob or yield an
  // index whose accessors are safe.
  ProvenanceIndex index = ProvenanceIndexBuilder::FromLabeledRun(
      scheme_.production_graph(), labeled_->labeler);
  std::string single = index.Serialize();
  const size_t single_tail = 8 + 16;  // magic + num_items/arena_bits

  std::vector<ProvenanceIndex> runs;
  runs.push_back(ProvenanceIndex::Deserialize(single).value());
  runs.push_back(ProvenanceIndex::Deserialize(single).value());
  ProvenanceIndex merged = ProvenanceIndex::Merge(runs).value();
  std::string merged_blob = merged.Serialize();
  // magic + num_runs/total_items/arena_bits + run table
  const size_t merged_tail = 8 + 24 + 8 * runs.size();

  Rng rng(777);
  int rejected_single = 0, rejected_merged = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupt = single;
    size_t pos = single_tail + rng.NextBounded(corrupt.size() - single_tail);
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1u << rng.NextBounded(8)));
    Result<ProvenanceIndex> parsed = ProvenanceIndex::Deserialize(corrupt);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.code(), ErrorCode::kMalformedBlob);
      ++rejected_single;
    } else {
      for (int item = 0; item < parsed->num_items(); item += 29) {
        parsed->Label(item);
      }
    }

    corrupt = merged_blob;
    pos = merged_tail + rng.NextBounded(corrupt.size() - merged_tail);
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1u << rng.NextBounded(8)));
    Result<ProvenanceIndex> parsed_merged =
        ProvenanceIndex::Deserialize(corrupt);
    if (!parsed_merged.ok()) {
      EXPECT_EQ(parsed_merged.code(), ErrorCode::kMalformedBlob);
      ++rejected_merged;
    } else {
      for (int global = 0; global < parsed_merged->total_items();
           global += 29) {
        parsed_merged->Label(global);
      }
    }
  }
  // Offset-table and codec-width flips are always caught; only some arena
  // flips decode by luck.
  EXPECT_GT(rejected_single, 50);
  EXPECT_GT(rejected_merged, 50);
}

// ReadU64 is the primitive every header field of both blob formats goes
// through; a position check written as `*pos + 8 > blob.size()` wraps
// around for adversarial positions near SIZE_MAX and admits an
// out-of-bounds read. The subtraction form must refuse any position that
// does not leave 8 readable bytes — part of the blob-corruption corpus.
TEST(IndexEdgeCases, ReadU64RefusesAdversarialPositions) {
  const std::string blob(16, '\x5A');
  uint64_t value = 0;
  for (size_t bad : {SIZE_MAX, SIZE_MAX - 1, SIZE_MAX - 7, SIZE_MAX - 8,
                     blob.size() - 7, blob.size(), blob.size() + 1}) {
    size_t pos = bad;
    EXPECT_FALSE(LabelStore::ReadU64(blob, &pos, &value)) << "pos=" << bad;
    EXPECT_EQ(pos, bad);  // a refused read must not advance the cursor
  }
  // Short blobs refuse every position, including 0 (the size() - 8 form
  // must not itself wrap).
  for (size_t short_size : {size_t{0}, size_t{7}}) {
    size_t pos = 0;
    EXPECT_FALSE(
        LabelStore::ReadU64(blob.substr(0, short_size), &pos, &value));
  }
  // In-bounds reads still work, up to and including the last full word.
  size_t pos = blob.size() - 8;
  ASSERT_TRUE(LabelStore::ReadU64(blob, &pos, &value));
  EXPECT_EQ(pos, blob.size());
  EXPECT_EQ(value, 0x5A5A5A5A5A5A5A5AULL);
}

TEST(IndexEdgeCases, EmptyIndex) {
  PaperExample ex = MakePaperExample();
  ProductionGraph pg(&ex.spec.grammar);
  ProvenanceIndexBuilder builder(pg);
  ProvenanceIndex index = std::move(builder).Build();
  EXPECT_EQ(index.num_items(), 0);
  std::string blob = index.Serialize();
  auto restored = ProvenanceIndex::Deserialize(blob);
  ASSERT_TRUE(restored.has_value()) << restored.status().ToString();
  EXPECT_EQ(restored->num_items(), 0);
}

TEST(IndexBioAid, LargeRunRoundTrip) {
  Workload workload = MakeBioAid(2012);
  FvlScheme scheme = FvlScheme::Create(&workload.spec).value();
  RunGeneratorOptions options;
  options.target_items = 4000;
  options.seed = 3;
  FvlScheme::LabeledRun labeled = scheme.GenerateLabeledRun(options);
  ProvenanceIndex index = ProvenanceIndexBuilder::FromLabeledRun(
      scheme.production_graph(), labeled.labeler);
  std::string blob = index.Serialize();
  auto restored = *ProvenanceIndex::Deserialize(blob);
  for (int item = 0; item < restored.num_items(); item += 13) {
    ASSERT_EQ(restored.Label(item), labeled.labeler.Label(item));
  }
}

}  // namespace
}  // namespace fvl
