// fvl::net wire protocol: the decoders are total. A seeded corpus of valid
// frames is byte-flipped, truncated at every prefix, fed through oversized
// lengths and arbitrary split points, and every mutation must come back as
// a clean decode, a recoverable kMalformedBlob, or a framing rejection —
// never a crash, an over-read, or an attacker-sized allocation (run under
// ASan/UBSan, where any of those is fatal). A live-server section then
// replays the same hostility over a real socket and checks the error-frame
// -or-close contract plus server survival.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "fvl/core/index.h"
#include "fvl/net/client.h"
#include "fvl/net/server.h"
#include "fvl/net/socket.h"
#include "fvl/net/wire.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/random.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/view_generator.h"

namespace fvl::net {
namespace {

// The corpus: one well-formed payload per message type (frames are added
// by the harness where framing is under test).
std::vector<std::string> ValidRequestPayloads() {
  Workload bio = MakeBioAid(2012);
  View view = GenerateSafeView(bio, ViewGeneratorOptions{.num_expandable = 8,
                                                          .seed = 8})
                  .view();
  std::vector<std::pair<int, int>> pairs = {{0, 1}, {7, 3}, {2, 2}};
  std::vector<uint64_t> ids = {1, 2, 3};
  return {
      EncodePingRequest(),
      EncodeRegisterViewRequest(view),
      EncodeBeginRunRequest(),
      EncodeApplyRequest(1, 0, 2),
      EncodeSnapshotRequest(1, /*delta=*/false),
      EncodeSnapshotRequest(1, /*delta=*/true),
      EncodeDependsRequest(0, 1, ViewLabelMode::kQueryEfficient, 3, 5),
      EncodeDependsManyRequest(0, 1, ViewLabelMode::kDefault, pairs),
      EncodeVisibilitySweepRequest(0, 1, ViewLabelMode::kSpaceEfficient),
      EncodeMergeRunsRequest(ids),
      EncodeStatsRequest(),
      EncodeOpenIndexFileRequest("/tmp/archive.fvlidx"),
      EncodeCompactFilesRequest(
          std::vector<std::string>{"/tmp/a.fvlidx", "/tmp/b.fvlmrg"},
          "/tmp/l1.fvlmrg"),
  };
}

// A payload's pinned form: its hex, or for a payload too long to read as
// hex (the register-view body), its size and 64-bit FNV-1a digest.
std::string PinnedBytes(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  auto hex = [](uint64_t value, int digits) {
    std::string out;
    for (int shift = 4 * (digits - 1); shift >= 0; shift -= 4) {
      out.push_back(kDigits[(value >> shift) & 0xF]);
    }
    return out;
  };
  if (bytes.size() > 128) {
    uint64_t digest = 0xcbf29ce484222325;
    for (char c : bytes) {
      digest = (digest ^ static_cast<unsigned char>(c)) * 0x100000001b3;
    }
    return std::to_string(bytes.size()) + " bytes, fnv1a64 " + hex(digest, 16);
  }
  std::string out;
  for (char c : bytes) out += hex(static_cast<unsigned char>(c), 2);
  return out;
}

// ----- Golden bytes: every request encoder's output, pinned. -----

// PinnedBytes of ValidRequestPayloads(), in corpus order. A refactor of the
// request encoders must leave every byte in place; changing one is a
// protocol change (bump kProtocolVersion, then regenerate this table).
constexpr const char* kGoldenPayloads[] = {
    "01",
    "4201 bytes, fnv1a64 ddebfc3ec041e349",
    "03",
    "04010000000000000000000000000000000200000000000000",
    "050100000000000000",
    "060100000000000000",
    "0700000000000000000100000000000000020000000000000003000000000000"
    "000500000000000000",
    "0800000000000000000100000000000000010000000000000003000000000000"
    "0000000000000000000100000000000000070000000000000003000000000000"
    "0002000000000000000200000000000000",
    "09000000000000000001000000000000000000000000000000",
    "0a0300000000000000010000000000000002000000000000000300000000000000",
    "0c",
    "0d13000000000000002f746d702f617263686976652e66766c696478",
    "0e0e000000000000002f746d702f6c312e66766c6d726702000000000000000d"
    "000000000000002f746d702f612e66766c6964780d000000000000002f746d70"
    "2f622e66766c6d7267",
};

TEST(NetProtocol, CorpusMatchesGoldenBytes) {
  const std::vector<std::string> payloads = ValidRequestPayloads();
  ASSERT_EQ(payloads.size(), std::size(kGoldenPayloads));
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(PinnedBytes(payloads[i]), kGoldenPayloads[i]) << "payload " << i;
  }
}

// ----- kDepends: the fast path and the general decoder agree. -----

// The point-query hot loops use DecodeDependsRequest and
// AppendDependsRequestFrame; everything else uses DecodeRequest and
// EncodeDependsRequest. Both pairs must see the same bytes.
std::vector<std::string> DependsPayloads() {
  const uint64_t max_item = std::numeric_limits<int>::max();
  return {
      EncodeDependsRequest(0, 1, ViewLabelMode::kQueryEfficient, 3, 5),
      EncodeDependsRequest(7, 0, ViewLabelMode::kDefault, 0, 0),
      EncodeDependsRequest(~uint64_t{0}, uint64_t{1} << 40,
                           ViewLabelMode::kSpaceEfficient, max_item, 1),
      EncodeDependsRequest(2, 3, ViewLabelMode::kSpaceEfficient, 255, 256),
  };
}

void ExpectDecodersAgree(std::string_view payload) {
  DependsRequest fast;
  const bool accepted = DecodeDependsRequest(payload, &fast);
  Result<Request> general = DecodeRequest(payload);
  const bool general_depends =
      general.ok() && general->type == MsgType::kDepends;
  ASSERT_EQ(accepted, general_depends) << "payload " << PinnedBytes(payload);
  if (!accepted) return;
  EXPECT_EQ(fast.view_id, general->view_id);
  EXPECT_EQ(fast.index_id, general->index_id);
  EXPECT_EQ(fast.mode, general->mode);
  EXPECT_EQ(fast.d1, general->d1);
  EXPECT_EQ(fast.d2, general->d2);
}

TEST(NetProtocol, DependsDecodersAgreeOnSeededByteFlips) {
  Rng rng(41);
  int accepted = 0;
  int rejected = 0;
  for (const std::string& payload : DependsPayloads()) {
    ExpectDecodersAgree(payload);
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      ExpectDecodersAgree(std::string_view(payload).substr(0, cut));
    }
    ExpectDecodersAgree(payload + '\x00');
    for (int round = 0; round < 2000; ++round) {
      std::string mutant = payload;
      int flips = 1 + rng.NextInt(0, 2);
      for (int f = 0; f < flips; ++f) {
        size_t at = static_cast<size_t>(
            rng.NextInt(0, static_cast<int>(mutant.size()) - 1));
        mutant[at] = static_cast<char>(rng.NextInt(0, 255));
      }
      ExpectDecodersAgree(mutant);
      DependsRequest ignored;
      ++(DecodeDependsRequest(mutant, &ignored) ? accepted : rejected);
    }
  }
  // Both outcomes are exercised: flips in the id fields keep the payload
  // valid, flips in the type byte, the mode or an item id's high bytes
  // reject it.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
}

TEST(NetProtocol, DependsFrameWriterMatchesEncoder) {
  const uint64_t max_item = std::numeric_limits<int>::max();
  struct Fields {
    uint64_t view_id, index_id;
    ViewLabelMode mode;
    uint64_t d1, d2;
  };
  for (const Fields& f : {
           Fields{0, 1, ViewLabelMode::kQueryEfficient, 3, 5},
           Fields{7, 0, ViewLabelMode::kDefault, 0, 0},
           Fields{~uint64_t{0}, uint64_t{1} << 40,
                  ViewLabelMode::kSpaceEfficient, max_item, 1},
       }) {
    std::string framed;
    AppendFrame(&framed, EncodeDependsRequest(f.view_id, f.index_id, f.mode,
                                              f.d1, f.d2));
    std::string direct = "prefix";  // appends, never overwrites
    AppendDependsRequestFrame(&direct, f.view_id, f.index_id, f.mode, f.d1,
                              f.d2);
    EXPECT_EQ(direct, "prefix" + framed);
  }
}

// ----- Baseline: the corpus itself decodes. -----

TEST(NetProtocol, CorpusDecodesCleanly) {
  for (const std::string& payload : ValidRequestPayloads()) {
    Result<Request> request = DecodeRequest(payload);
    ASSERT_TRUE(request.ok()) << request.status().message();
  }
}

TEST(NetProtocol, FramingRoundTrips) {
  for (const std::string& payload : ValidRequestPayloads()) {
    std::string stream;
    AppendFrame(&stream, payload);
    size_t frame_size = 0;
    std::string_view extracted;
    ASSERT_EQ(TryExtractFrame(stream, &frame_size, &extracted),
              FrameStatus::kFrame);
    EXPECT_EQ(frame_size, stream.size());
    EXPECT_EQ(extracted, payload);
  }
}

// ----- Truncation: every proper prefix of every payload. -----

TEST(NetProtocol, EveryPayloadPrefixRejected) {
  for (const std::string& payload : ValidRequestPayloads()) {
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      Result<Request> request =
          DecodeRequest(std::string_view(payload).substr(0, cut));
      // A prefix of one message type may parse as a complete shorter
      // message only if the type byte still matches a no-body type; the
      // corpus has distinct bodies, so every proper prefix must fail.
      ASSERT_FALSE(request.ok()) << "payload prefix len " << cut;
      EXPECT_EQ(request.code(), ErrorCode::kMalformedBlob);
    }
  }
}

TEST(NetProtocol, EveryFramePrefixNeedsMoreOrRejects) {
  for (const std::string& payload : ValidRequestPayloads()) {
    std::string stream;
    AppendFrame(&stream, payload);
    for (size_t cut = 0; cut < stream.size(); ++cut) {
      size_t frame_size = 0;
      std::string_view extracted;
      FrameStatus status = TryExtractFrame(
          std::string_view(stream).substr(0, cut), &frame_size, &extracted);
      // A prefix of a valid frame is by definition incomplete, never bad.
      EXPECT_EQ(status, FrameStatus::kNeedMore) << "frame prefix " << cut;
    }
  }
}

// ----- Byte flips: seeded, deterministic, every result classified. -----

TEST(NetProtocol, SeededByteFlipsNeverCrashTheDecoder) {
  Rng rng(2012);
  int mutations = 0;
  for (const std::string& payload : ValidRequestPayloads()) {
    for (int round = 0; round < 400; ++round) {
      std::string mutant = payload;
      int flips = 1 + rng.NextInt(0, 2);
      for (int f = 0; f < flips; ++f) {
        size_t at = static_cast<size_t>(
            rng.NextInt(0, static_cast<int>(mutant.size()) - 1));
        mutant[at] = static_cast<char>(rng.NextInt(0, 255));
      }
      Result<Request> request = DecodeRequest(mutant);
      if (!request.ok()) {
        EXPECT_EQ(request.code(), ErrorCode::kMalformedBlob);
      }
      ++mutations;
    }
  }
  EXPECT_GE(mutations, 4000);
}

TEST(NetProtocol, SeededByteFlipsNeverCrashTheResponseParser) {
  std::vector<std::string> responses = {
      OkResponse(),
      OkResponse(std::string(9, '\x07')),
      ErrorResponse(Status::Error(ErrorCode::kNotFound, "unknown view id 9")),
      ErrorResponse(Status::Error(ErrorCode::kUnavailable, "")),
  };
  Rng rng(77);
  for (const std::string& payload : responses) {
    for (int round = 0; round < 400; ++round) {
      std::string mutant = payload;
      size_t at = static_cast<size_t>(
          rng.NextInt(0, static_cast<int>(mutant.size()) - 1));
      mutant[at] = static_cast<char>(rng.NextInt(0, 255));
      Result<std::string_view> body = ParseResponse(mutant);
      if (!body.ok()) {
        // Either the reconstructed wire error or a malformed-response
        // rejection; both are Status, neither is a crash.
        EXPECT_NE(body.code(), ErrorCode::kOk);
      }
    }
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      (void)ParseResponse(std::string_view(payload).substr(0, cut));
    }
  }
}

// Snapshot responses carry serialized FVLIDX3 blobs (the compressed span
// tail) as opaque bodies: a peer-corrupted body must survive the full
// untrusted path — response parse, then index deserialize — as a clean
// decode or kMalformedBlob, never a crash (vbyte continuation bits, block
// length fields, and the arena size all live in this region).
TEST(NetProtocol, SeededFlipsOnSnapshotBlobBodiesNeverCrashDeserialize) {
  Workload bio = MakeBioAid(2012);
  auto service = ProvenanceService::Create(bio.spec).value();
  std::string blob = service
                         ->GenerateLabeledRun(RunGeneratorOptions{
                             .target_items = 150, .seed = 15})
                         ->Snapshot()
                         .Serialize();
  std::string response = OkResponse(blob);

  Rng rng(1515);
  int rejected = 0;
  for (int round = 0; round < 400; ++round) {
    std::string mutant = response;
    int flips = 1 + rng.NextInt(0, 2);
    for (int f = 0; f < flips; ++f) {
      size_t at = static_cast<size_t>(
          rng.NextInt(0, static_cast<int>(mutant.size()) - 1));
      mutant[at] = static_cast<char>(rng.NextInt(0, 255));
    }
    Result<std::string_view> body = ParseResponse(mutant);
    if (!body.ok()) continue;  // the flip hit the response envelope
    Result<ProvenanceIndex> parsed = ProvenanceIndex::Deserialize(*body);
    if (parsed.ok()) {
      for (int item = 0; item < parsed->num_items(); ++item) {
        (void)parsed->Label(item);
      }
    } else {
      ++rejected;
      EXPECT_EQ(parsed.code(), ErrorCode::kMalformedBlob);
    }
  }
  EXPECT_GT(rejected, 50);
}

// ----- Oversize and zero lengths: framing must refuse, not allocate. -----

TEST(NetProtocol, OversizeLengthIsBadNotAnAllocation) {
  std::string stream;
  AppendU64(&stream, kMaxFramePayload + 1);
  stream.append("x");
  size_t frame_size = 0;
  std::string_view payload;
  EXPECT_EQ(TryExtractFrame(stream, &frame_size, &payload), FrameStatus::kBad);

  std::string huge;
  AppendU64(&huge, ~uint64_t{0});  // 2^64-1: a wrapped/attacked length
  EXPECT_EQ(TryExtractFrame(huge, &frame_size, &payload), FrameStatus::kBad);
}

TEST(NetProtocol, ZeroLengthFrameIsBad) {
  std::string stream;
  AppendU64(&stream, 0);
  size_t frame_size = 0;
  std::string_view payload;
  EXPECT_EQ(TryExtractFrame(stream, &frame_size, &payload), FrameStatus::kBad);
}

TEST(NetProtocol, HostileCountsInsideBodiesRejected) {
  // A kDependsMany whose count field claims 2^61 pairs in a 40-byte body:
  // the decoder must reject on arithmetic, not trust-then-allocate.
  std::string payload(1, static_cast<char>(MsgType::kDependsMany));
  AppendU64(&payload, 0);  // view
  AppendU64(&payload, 0);  // index
  AppendU64(&payload, 0);  // mode
  AppendU64(&payload, uint64_t{1} << 61);  // count
  Result<Request> request = DecodeRequest(payload);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.code(), ErrorCode::kMalformedBlob);

  // Same attack through the bit-packed bool count.
  std::string bools;
  AppendU64(&bools, uint64_t{1} << 60);
  std::vector<bool> bits;
  size_t pos = 0;
  EXPECT_FALSE(DecodeBools(bools, &pos, &bits));
}

TEST(NetProtocol, TrailingBytesRejected) {
  for (const std::string& payload : ValidRequestPayloads()) {
    std::string padded = payload + '\x00';
    Result<Request> request = DecodeRequest(padded);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.code(), ErrorCode::kMalformedBlob);
  }
}

// ----- Protocol 4: the retired type and the named kStats body. -----

static_assert(kProtocolVersion == 4);

// The shape type 11 carried before protocol 4: a query header, a count
// and one (run, item, run, item) pair.
std::string RetiredTypeElevenPayload() {
  std::string payload(1, '\x0b');
  for (uint64_t field : {0, 1, 1, 1, 0, 4, 1, 9}) AppendU64(&payload, field);
  return payload;
}

TEST(NetProtocol, RetiredTypeElevenIsUnknown) {
  const std::string payload = RetiredTypeElevenPayload();
  for (std::string_view bytes : {std::string_view(payload).substr(0, 1),
                                 std::string_view(payload)}) {
    Result<Request> request = DecodeRequest(bytes);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.code(), ErrorCode::kMalformedBlob);
    EXPECT_EQ(request.status().message(),
              "malformed request: unknown message type");
  }
}

TEST(NetProtocol, StatsBodyRoundTripsAndIsPinned) {
  const std::vector<NamedCounter> counters = {
      {"frames", 2}, {"", 0}, {"predicate_evaluations", ~uint64_t{0}}};
  const std::string body = EncodeStatsBody(counters);
  std::vector<NamedCounter> decoded;
  ASSERT_TRUE(DecodeStatsBody(body, &decoded));
  EXPECT_EQ(decoded, counters);

  const std::vector<NamedCounter> one = {{"frames", 2}};
  EXPECT_EQ(PinnedBytes(EncodeStatsBody(one)),
            "01000000000000000600000000000000"
            "6672616d65730200000000000000");
  ASSERT_TRUE(DecodeStatsBody(EncodeStatsBody({}), &decoded));
  EXPECT_TRUE(decoded.empty());

  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(DecodeStatsBody(std::string_view(body).substr(0, cut),
                                 &decoded))
        << "prefix " << cut;
  }
  EXPECT_FALSE(DecodeStatsBody(body + '\x00', &decoded));
}

TEST(NetProtocol, HostileStatsCountsRejected) {
  std::vector<NamedCounter> decoded;
  std::string count_attack;
  AppendU64(&count_attack, uint64_t{1} << 60);
  AppendU64(&count_attack, 0);
  AppendU64(&count_attack, 0);
  EXPECT_FALSE(DecodeStatsBody(count_attack, &decoded));

  std::string length_attack;
  AppendU64(&length_attack, 1);
  AppendU64(&length_attack, ~uint64_t{0});
  AppendU64(&length_attack, 0);
  EXPECT_FALSE(DecodeStatsBody(length_attack, &decoded));

  Rng rng(12);
  const std::vector<NamedCounter> counters = {{"frames", 2},
                                              {"label_hits", 40}};
  const std::string body = EncodeStatsBody(counters);
  for (int round = 0; round < 400; ++round) {
    std::string mutant = body;
    size_t at = static_cast<size_t>(
        rng.NextInt(0, static_cast<int>(mutant.size()) - 1));
    mutant[at] = static_cast<char>(rng.NextInt(0, 255));
    if (DecodeStatsBody(mutant, &decoded)) {
      for (const auto& [name, value] : decoded) {
        EXPECT_GE(name.data(), mutant.data());
        EXPECT_LE(name.data() + name.size(), mutant.data() + mutant.size());
      }
    }
  }
}

// ----- Split reads: frame extraction is position-independent. -----

TEST(NetProtocol, SplitReadsReassembleIdentically) {
  std::vector<std::string> payloads = ValidRequestPayloads();
  std::string stream;
  for (const std::string& payload : payloads) AppendFrame(&stream, payload);

  Rng rng(31);
  for (int round = 0; round < 50; ++round) {
    // Feed the stream in random-sized chunks through a reassembly buffer.
    std::string buffer;
    size_t fed = 0;
    std::vector<std::string> extracted;
    while (extracted.size() < payloads.size()) {
      size_t frame_size = 0;
      std::string_view payload;
      FrameStatus status = TryExtractFrame(buffer, &frame_size, &payload);
      ASSERT_NE(status, FrameStatus::kBad);
      if (status == FrameStatus::kFrame) {
        extracted.emplace_back(payload);
        buffer.erase(0, frame_size);
        continue;
      }
      ASSERT_LT(fed, stream.size()) << "ran dry mid-frame";
      size_t chunk = 1 + static_cast<size_t>(rng.NextInt(0, 13));
      chunk = std::min(chunk, stream.size() - fed);
      buffer.append(stream, fed, chunk);
      fed += chunk;
    }
    ASSERT_EQ(extracted.size(), payloads.size());
    for (size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ(extracted[i], payloads[i]) << "frame " << i;
    }
  }
}

// ----- Live server: hostility over a real socket. -----

class LiveServerFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    Workload bio = MakeBioAid(2012);
    auto service = ProvenanceService::Create(std::move(bio.spec)).value();
    server_ = ProvenanceServer::Start(std::move(service)).value();
  }

  // The survival probe: a fresh connection must still get a ping through.
  void ExpectServerAlive() {
    Result<ProvenanceClient> client = ProvenanceClient::Connect(server_->port());
    ASSERT_TRUE(client.ok());
    Result<uint64_t> version = client->Ping();
    ASSERT_TRUE(version.ok()) << version.status().message();
    EXPECT_EQ(*version, kProtocolVersion);
  }

  std::unique_ptr<ProvenanceServer> server_;
};

TEST_F(LiveServerFuzz, MalformedPayloadsGetErrorFramesConnectionSurvives) {
  ProvenanceClient client =
      ProvenanceClient::Connect(server_->port()).value();
  Rng rng(404);
  for (const std::string& payload : ValidRequestPayloads()) {
    std::string mutant = payload;
    size_t at = static_cast<size_t>(
        rng.NextInt(0, static_cast<int>(mutant.size()) - 1));
    mutant[at] = static_cast<char>(rng.NextInt(0, 255));
    Result<std::string> frame = client.RoundTripRaw(mutant);
    ASSERT_TRUE(frame.ok()) << frame.status().message();
    // Whatever came back is a well-formed response frame: either the
    // mutation stayed decodable (ok/error from the service) or the
    // decoder rejected it (error frame) — same conversation either way.
    Result<std::string_view> body = ParseResponse(*frame);
    if (!body.ok()) {
      EXPECT_NE(body.code(), ErrorCode::kOk);
    }
  }
  // The connection that sent all that garbage is still serviceable.
  EXPECT_TRUE(client.Ping().ok());
  ExpectServerAlive();
}

TEST_F(LiveServerFuzz, RetiredTypeGetsAnErrorFrameConnectionSurvives) {
  ProvenanceClient client =
      ProvenanceClient::Connect(server_->port()).value();
  Result<std::string> frame = client.RoundTripRaw(RetiredTypeElevenPayload());
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  Result<std::string_view> body = ParseResponse(*frame);
  ASSERT_FALSE(body.ok());
  EXPECT_EQ(body.code(), ErrorCode::kMalformedBlob);
  Result<uint64_t> version = client.Ping();
  ASSERT_TRUE(version.ok()) << version.status().message();
  EXPECT_EQ(*version, 4u);
}

// The server names every counter it sends, and only those; the client
// reads them back by name.
TEST_F(LiveServerFuzz, StatsNameEveryCounter) {
  ProvenanceClient client =
      ProvenanceClient::Connect(server_->port()).value();
  ASSERT_TRUE(client.Ping().ok());
  Result<std::string> frame = client.RoundTripRaw(EncodeStatsRequest());
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  Result<std::string_view> body = ParseResponse(*frame);
  ASSERT_TRUE(body.ok()) << body.status().message();
  std::vector<NamedCounter> counters;
  ASSERT_TRUE(DecodeStatsBody(*body, &counters));
  std::vector<std::string_view> names;
  for (const auto& [name, value] : counters) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string_view>{
                       "point_queries", "point_batches", "frames",
                       "connections", "label_hits", "label_misses",
                       "predicate_evaluations"}));

  ServerStats stats = client.Stats().value();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.frames, 3u);  // ping, the raw stats request, this one
}

TEST_F(LiveServerFuzz, OversizeLengthClosesTheConnection) {
  Socket raw = TcpConnect(server_->port()).value();
  std::string stream;
  AppendU64(&stream, ~uint64_t{0});
  stream.append("garbage");
  ASSERT_TRUE(WriteAll(raw, stream).ok());
  // The server sends at most one final error frame, then closes: drain
  // until EOF. Nothing here may hang or crash either endpoint.
  char buf[4096];
  for (;;) {
    Result<ReadOutcome> outcome = ReadSome(raw, buf, sizeof(buf));
    if (!outcome.ok() || outcome->eof) break;
  }
  ExpectServerAlive();
}

TEST_F(LiveServerFuzz, RandomGarbageStreamsNeverKillTheServer) {
  Rng rng(1999);
  for (int round = 0; round < 30; ++round) {
    Socket raw = TcpConnect(server_->port()).value();
    std::string garbage;
    int len = 1 + rng.NextInt(0, 200);
    for (int i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.NextInt(0, 255)));
    }
    if (!WriteAll(raw, garbage).ok()) continue;  // server already closed us
    if (rng.NextInt(0, 1) == 0) {
      raw.Close();  // abrupt disconnect, possibly mid-frame
    } else {
      // EOF the write side first: if the garbage parsed as an incomplete
      // frame the server is waiting for its remainder, and only our EOF
      // releases it — without this the drain below would deadlock.
      raw.ShutdownWrite();
      char buf[4096];
      for (int reads = 0; reads < 8; ++reads) {
        Result<ReadOutcome> outcome = ReadSome(raw, buf, sizeof(buf));
        if (!outcome.ok() || outcome->eof) break;
      }
    }
  }
  ExpectServerAlive();
}

// ----- Replies the client must not trust. -----

// A loopback peer that answers each request frame it reads with the next
// canned response payload: a server that sends what no ProvenanceServer
// would. It serves one connection and stops at the client's EOF.
class CannedServer {
 public:
  explicit CannedServer(std::vector<std::string> replies)
      : listener_(TcpListen(0).value()),
        port_(LocalPort(listener_).value()),
        thread_([this, replies = std::move(replies)] { Serve(replies); }) {}
  ~CannedServer() {
    listener_.ShutdownBoth();  // unblocks Accept if no client came
    thread_.join();
  }

  int port() const { return port_; }

 private:
  void Serve(const std::vector<std::string>& replies) {
    Result<Socket> connection = Accept(listener_);
    if (!connection.ok()) return;
    std::string buffer;
    char chunk[4096];
    for (const std::string& reply : replies) {
      for (;;) {
        size_t frame_size = 0;
        std::string_view payload;
        FrameStatus status = TryExtractFrame(buffer, &frame_size, &payload);
        if (status == FrameStatus::kFrame) {
          buffer.erase(0, frame_size);
          break;
        }
        if (status == FrameStatus::kBad) return;
        Result<ReadOutcome> outcome =
            ReadSome(*connection, chunk, sizeof(chunk));
        if (!outcome.ok() || outcome->eof) return;
        buffer.append(chunk, outcome->n);
      }
      std::string framed;
      AppendFrame(&framed, reply);
      if (!WriteAll(*connection, framed).ok()) return;
    }
  }

  Socket listener_;
  int port_;
  std::thread thread_;
};

std::string OkFields(std::initializer_list<uint64_t> fields) {
  std::string body;
  for (uint64_t field : fields) AppendU64(&body, field);
  return OkResponse(body);
}

// Counts arrive as u64 and land in int fields: one above INT_MAX (or a
// wrapped -1) is a malformed reply, not a negative count. INT_MAX itself
// is accepted.
TEST(ClientReplies, CountsAboveIntMaxAreMalformed) {
  const uint64_t int_max = std::numeric_limits<int>::max();
  const uint64_t too_big = int_max + 1;
  CannedServer server({
      OkFields({1, too_big, 0}),           // Snapshot: num_items
      OkFields({1, 0, ~uint64_t{0}}),      // SnapshotDelta: frozen_items
      OkFields({2, too_big, 5}),           // MergeRuns: num_runs
      OkFields({3, 1, too_big}),           // OpenIndexFile: total_items
      OkFields({4, 2, ~uint64_t{0}}),      // CompactFiles: total_items
      OkFields({0, 0, 0, 0, too_big, 1}),  // Apply: first_item
      OkFields({~uint64_t{0}, int_max, int_max}),  // Snapshot at the bound
  });
  ProvenanceClient client = ProvenanceClient::Connect(server.port()).value();
  const std::vector<uint64_t> ids = {1, 2};
  const std::vector<std::string> inputs = {"/tmp/a.fvlidx"};
  EXPECT_EQ(client.Snapshot(1).code(), ErrorCode::kMalformedBlob);
  EXPECT_EQ(client.SnapshotDelta(1).code(), ErrorCode::kMalformedBlob);
  EXPECT_EQ(client.MergeRuns(ids).code(), ErrorCode::kMalformedBlob);
  EXPECT_EQ(client.OpenIndexFile("/tmp/a.fvlidx").code(),
            ErrorCode::kMalformedBlob);
  EXPECT_EQ(client.CompactFiles(inputs, "/tmp/b.fvlmrg").code(),
            ErrorCode::kMalformedBlob);
  EXPECT_EQ(client.Apply(1, 0, 0).code(), ErrorCode::kMalformedBlob);
  // The rejected replies were consumed whole: the stream stays aligned.
  SnapshotInfo at_bound = client.Snapshot(1).value();
  EXPECT_EQ(at_bound.index_id, ~uint64_t{0});
  EXPECT_EQ(at_bound.num_items, std::numeric_limits<int>::max());
  EXPECT_EQ(at_bound.frozen_items, std::numeric_limits<int>::max());
}

// A newer server may send counters this client does not know: they are
// skipped, the known ones are read by name in any order, and a counter
// the server did not send reads 0.
TEST(ClientReplies, StatsSkipUnknownNamesAndDefaultMissingOnes) {
  const std::vector<NamedCounter> sent = {{"frames", 7},
                                          {"queue_wait_us", 99},
                                          {"predicate_evaluations", 5},
                                          {"point_queries", 3},
                                          {"reach_hits", 11}};
  std::string truncated = EncodeStatsBody(sent);
  truncated.pop_back();
  CannedServer server(
      {OkResponse(EncodeStatsBody(sent)), OkResponse(truncated)});
  ProvenanceClient client = ProvenanceClient::Connect(server.port()).value();
  ServerStats stats = client.Stats().value();
  EXPECT_EQ(stats.frames, 7u);
  EXPECT_EQ(stats.reach_misses, 5u);
  EXPECT_EQ(stats.point_queries, 3u);
  EXPECT_EQ(stats.point_batches, 0u);
  EXPECT_EQ(stats.connections, 0u);
  EXPECT_EQ(stats.label_hits, 0u);
  EXPECT_EQ(stats.label_misses, 0u);
  EXPECT_EQ(stats.reach_hits, 0u);  // not a kStats name
  EXPECT_EQ(client.Stats().code(), ErrorCode::kMalformedBlob);
}

}  // namespace
}  // namespace fvl::net
