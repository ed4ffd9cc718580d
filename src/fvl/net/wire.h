// Wire protocol of the provenance server (docs/SERVER.md): length-framed
// request/response messages over a byte stream, encoded with the same
// hardened primitives as the blob formats — little-endian u64 fields
// (LabelStore::AppendU64/ReadU64, wraparound-safe) and BitWriter/BitReader
// bit-packed boolean vectors.
//
//   Frame            := u64 payload_len | payload        (len in [1, max])
//   Request payload  := u8 MsgType | body
//   Response payload := u8 0x80 | body                   (ok)
//                     | u8 0x81 | u8 ErrorCode | u64 len | message  (error)
//
// Decoding is total: any byte sequence either yields a well-formed message
// or a recoverable error (kMalformedBlob) — never an abort, never a read
// past the buffer, never an attacker-sized allocation (every count is
// validated against the bytes actually present before it is trusted).
// tests/net_protocol_test.cc holds the byte-flip/truncation/oversize
// corpus backing that claim.

#ifndef FVL_NET_WIRE_H_
#define FVL_NET_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fvl/core/view_label.h"
#include "fvl/run/run.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/status.h"
#include "fvl/workflow/view.h"

namespace fvl::net {

// Frames above this payload size are protocol violations: the connection
// is closed rather than the length trusted (a 4-byte flip must not turn
// into an exabyte allocation).
inline constexpr uint64_t kMaxFramePayload = uint64_t{1} << 26;  // 64 MiB

// Protocol version reported by kPing. Bump on any wire-shape change —
// ReadFields-style decoders reject both short and long bodies, so a skewed
// peer must be detectable by the ping handshake rather than failing later
// with a misleading truncated-field/trailing-bytes error.
//   1 — initial framed protocol (kStats body: 4 u64 fields).
//   2 — kStats body widened to 8 u64 fields (serving-cache counters).
//   3 — on-disk tier ops added (kOpenIndexFile, kCompactFiles).
//   4 — one way to name an item and one reply per opened archive: type 11
//       (queries over (run, item) pairs) retired in favour of flat ids
//       through kDependsMany; kOpenIndexFile lost its `merged` byte and
//       always replies {id, num_runs, total_items}; the kStats body names
//       its counters.
inline constexpr uint64_t kProtocolVersion = 4;

enum class MsgType : uint8_t {
  kPing = 1,
  kRegisterView = 2,
  kBeginRun = 3,
  kApply = 4,
  kSnapshot = 5,
  kSnapshotDelta = 6,
  kDepends = 7,  // point query; the server coalesces these into batches
  kDependsMany = 8,
  kVisibilitySweep = 9,
  kMergeRuns = 10,
  // 11 is retired ((run, item) queries before protocol 4) and never
  // reused: the decoder rejects it like any unknown type.
  kStats = 12,
  // On-disk tier (docs/ARCHITECTURE.md): paths are resolved on the
  // *server's* filesystem — the client names an archive, the server maps
  // or writes it.
  kOpenIndexFile = 13,  // map an archive file, register it as an index
  kCompactFiles = 14,   // LSM-style re-merge of archive files
};

inline constexpr uint8_t kOkByte = 0x80;
inline constexpr uint8_t kErrorByte = 0x81;

// --- Framing ---------------------------------------------------------------

enum class FrameStatus {
  kFrame,     // *payload points into `buffer`, *frame_size bytes consumed
  kNeedMore,  // the buffer holds a prefix of a valid frame
  kBad,       // unrecoverable framing violation (zero/oversize length):
              // the stream has no trustworthy resynchronization point,
              // so the connection must close
};

FrameStatus TryExtractFrame(std::string_view buffer, size_t* frame_size,
                            std::string_view* payload);

// Appends `u64 len | payload` to *out.
void AppendFrame(std::string* out, std::string_view payload);

// --- Requests --------------------------------------------------------------

// `u64 view | u64 index | u64 mode`: the header the three query ops
// (kDepends, kDependsMany, kVisibilitySweep) start with.
struct QueryHeader {
  uint64_t view_id = 0;
  uint64_t index_id = 0;
  ViewLabelMode mode = ViewLabelMode::kQueryEfficient;
};

// A kDepends body: the header plus one item pair.
struct DependsRequest : QueryHeader {
  uint64_t d1 = 0;
  uint64_t d2 = 0;
};

// Decoded request: one bag struct for all message types (the unused fields
// of a given type are left at their defaults). The query-op fields come
// from DependsRequest, so one field reader fills them for both decoders.
struct Request : DependsRequest {
  MsgType type = MsgType::kPing;
  uint64_t session_id = 0;
  uint64_t instance = 0;
  uint64_t production = 0;
  std::vector<std::pair<int, int>> pairs;  // kDependsMany
  std::vector<uint64_t> index_ids;         // kMergeRuns
  View view;                               // kRegisterView
  std::string path;                        // kOpenIndexFile; kCompactFiles out
  std::vector<std::string> input_paths;    // kCompactFiles
};

// Total decoder: kMalformedBlob on any violation (unknown type, truncated
// body, counts that exceed the bytes present, fields outside their domain,
// trailing bytes).
[[nodiscard]] Result<Request> DecodeRequest(std::string_view payload);

// Allocation-free fast path for the hottest message. A point query is one
// fixed-shape 41-byte payload; the general decoder routes it through the
// Request bag (three vectors plus a View constructed and destroyed per
// frame), which is pure overhead at hundreds of thousands of frames per
// second. The server and client hot loops use only this pair. It shares
// its field reader and writer with DecodeRequest and EncodeDependsRequest,
// so DecodeDependsRequest accepts exactly the payloads DecodeRequest would
// for MsgType::kDepends (tests/net_protocol_test.cc,
// DependsDecodersAgreeOnSeededByteFlips and
// DependsFrameWriterMatchesEncoder).
bool DecodeDependsRequest(std::string_view payload, DependsRequest* request);
// Appends the already-framed request (`u64 len | payload`) to *out.
void AppendDependsRequestFrame(std::string* out, uint64_t view_id,
                               uint64_t index_id, ViewLabelMode mode,
                               uint64_t d1, uint64_t d2);

// Request encoders (the payload only — callers frame with AppendFrame).
std::string EncodePingRequest();
std::string EncodeRegisterViewRequest(const View& view);
std::string EncodeBeginRunRequest();
std::string EncodeApplyRequest(uint64_t session_id, uint64_t instance,
                               uint64_t production);
std::string EncodeSnapshotRequest(uint64_t session_id, bool delta);
std::string EncodeDependsRequest(uint64_t view_id, uint64_t index_id,
                                 ViewLabelMode mode, uint64_t d1, uint64_t d2);
std::string EncodeDependsManyRequest(
    uint64_t view_id, uint64_t index_id, ViewLabelMode mode,
    std::span<const std::pair<int, int>> queries);
std::string EncodeVisibilitySweepRequest(uint64_t view_id, uint64_t index_id,
                                         ViewLabelMode mode);
std::string EncodeMergeRunsRequest(std::span<const uint64_t> index_ids);
std::string EncodeStatsRequest();
// Body: `u64 len | path`. The path names a file on the server's
// filesystem (the server maps it; the bytes never cross the wire). Either
// archive format opens; the reply is {id, num_runs, total_items}.
std::string EncodeOpenIndexFileRequest(std::string_view path);
// Body: `u64 out_len | out_path | u64 count | (u64 len | path)*`.
std::string EncodeCompactFilesRequest(std::span<const std::string> input_paths,
                                      std::string_view output_path);

// --- Responses -------------------------------------------------------------

// `u8 kOkByte | body`.
std::string OkResponse(std::string_view body = {});
// `u8 kErrorByte | u8 code | u64 len | message` for a non-OK status.
std::string ErrorResponse(const Status& status);

// Splits a response payload: the body on success, the reconstructed error
// Status for an error response, kMalformedBlob for anything else.
[[nodiscard]] Result<std::string_view> ParseResponse(std::string_view payload);

// --- Shared field codecs ---------------------------------------------------

void AppendU64(std::string* out, uint64_t value);
bool ReadU64(std::string_view blob, size_t* pos, uint64_t* value);

// Bit-packed bool vector: `u64 count | ceil(count/64) x u64 words`
// (BitWriter layout). DecodeBools validates the count against the bytes
// present before allocating.
void AppendBools(std::string* out, const std::vector<bool>& bits);
bool DecodeBools(std::string_view blob, size_t* pos, std::vector<bool>* bits);

// kStats reply body: `u64 count | (u64 name_len | name | u64 value)*`, one
// named counter per entry. DecodeStatsBody points the names into `body`
// and fails on a truncated entry, a count or length the bytes cannot
// hold, or trailing bytes.
using NamedCounter = std::pair<std::string_view, uint64_t>;
std::string EncodeStatsBody(std::span<const NamedCounter> counters);
bool DecodeStatsBody(std::string_view body, std::vector<NamedCounter>* counters);

// View payload: expandable flags plus the defined perceived-dependency
// matrices, all bit-packed. DecodeView caps module counts and matrix
// dimensions (structural validation beyond shape is the service's
// RegisterView).
void AppendView(std::string* out, const View& view);
bool DecodeView(std::string_view blob, size_t* pos, View* view);

}  // namespace fvl::net

#endif  // FVL_NET_WIRE_H_
