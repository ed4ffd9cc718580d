#include "fvl/net/wire.h"

#include <limits>

#include "fvl/core/label_store.h"
#include "fvl/util/bitstream.h"
#include "fvl/workflow/module.h"

namespace fvl::net {
namespace {

// Domain caps for decoded structure sizes. Anything a hostile peer could
// inflate is bounded either by these or by the bytes actually present in
// the payload (itself capped at kMaxFramePayload).
constexpr uint64_t kMaxModules = uint64_t{1} << 16;
constexpr uint64_t kMaxItemId = std::numeric_limits<int>::max();

Status Malformed(const char* what) {
  return Status::Error(ErrorCode::kMalformedBlob,
                       std::string("malformed request: ") + what);
}

}  // namespace

void AppendU64(std::string* out, uint64_t value) {
  LabelStore::AppendU64(out, value);
}

bool ReadU64(std::string_view blob, size_t* pos, uint64_t* value) {
  return LabelStore::ReadU64(blob, pos, value);
}

// --- Framing ---------------------------------------------------------------

FrameStatus TryExtractFrame(std::string_view buffer, size_t* frame_size,
                            std::string_view* payload) {
  size_t pos = 0;
  uint64_t len = 0;
  if (!ReadU64(buffer, &pos, &len)) return FrameStatus::kNeedMore;
  if (len == 0 || len > kMaxFramePayload) return FrameStatus::kBad;
  if (buffer.size() - pos < len) return FrameStatus::kNeedMore;
  *frame_size = pos + static_cast<size_t>(len);
  *payload = buffer.substr(pos, static_cast<size_t>(len));
  return FrameStatus::kFrame;
}

void AppendFrame(std::string* out, std::string_view payload) {
  FVL_CHECK(!payload.empty() && payload.size() <= kMaxFramePayload);
  AppendU64(out, payload.size());
  out->append(payload);
}

// --- Bit-packed vectors ----------------------------------------------------

void AppendBools(std::string* out, const std::vector<bool>& bits) {
  BitWriter writer;
  for (bool bit : bits) writer.WriteFixed(bit ? 1 : 0, 1);
  AppendU64(out, bits.size());
  for (uint64_t word : writer.words()) AppendU64(out, word);
}

bool DecodeBools(std::string_view blob, size_t* pos, std::vector<bool>* bits) {
  uint64_t count = 0;
  if (!ReadU64(blob, pos, &count)) return false;
  // 8 bits per payload byte is the densest a valid count can be; anything
  // larger promises words the frame cannot contain.
  if (count > kMaxFramePayload * 8) return false;
  uint64_t words = (count + 63) / 64;
  if (words > (blob.size() - *pos) / 8) return false;
  std::vector<uint64_t> packed(words);
  for (uint64_t w = 0; w < words; ++w) {
    if (!ReadU64(blob, pos, &packed[w])) return false;
  }
  bits->assign(count, false);
  if (count == 0) return true;
  BitReader reader(&packed, 0, static_cast<int64_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    (*bits)[i] = reader.ReadFixed(1) != 0;
  }
  return true;
}

// --- Named counters --------------------------------------------------------

std::string EncodeStatsBody(std::span<const NamedCounter> counters) {
  std::string body;
  AppendU64(&body, counters.size());
  for (const auto& [name, value] : counters) {
    AppendU64(&body, name.size());
    body.append(name);
    AppendU64(&body, value);
  }
  return body;
}

bool DecodeStatsBody(std::string_view body,
                     std::vector<NamedCounter>* counters) {
  size_t pos = 0;
  uint64_t count = 0;
  if (!ReadU64(body, &pos, &count)) return false;
  // An entry is at least its two u64 fields.
  if (count > (body.size() - pos) / 16) return false;
  counters->clear();
  counters->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t length = 0, value = 0;
    if (!ReadU64(body, &pos, &length) || length > body.size() - pos) {
      return false;
    }
    std::string_view name = body.substr(pos, static_cast<size_t>(length));
    pos += static_cast<size_t>(length);
    if (!ReadU64(body, &pos, &value)) return false;
    counters->emplace_back(name, value);
  }
  return pos == body.size();
}

// --- Views -----------------------------------------------------------------

void AppendView(std::string* out, const View& view) {
  AppendU64(out, view.expandable.size());
  AppendBools(out, view.expandable);
  int defined = 0;
  for (int m = 0; m < view.perceived.num_modules(); ++m) {
    if (view.perceived.IsDefined(m)) ++defined;
  }
  AppendU64(out, defined);
  for (int m = 0; m < view.perceived.num_modules(); ++m) {
    if (!view.perceived.IsDefined(m)) continue;
    const BoolMatrix& deps = view.perceived.Get(m);
    AppendU64(out, static_cast<uint64_t>(m));
    AppendU64(out, deps.rows());
    AppendU64(out, deps.cols());
    std::vector<bool> bits(static_cast<size_t>(deps.rows()) * deps.cols());
    for (int r = 0; r < deps.rows(); ++r) {
      for (int c = 0; c < deps.cols(); ++c) {
        bits[static_cast<size_t>(r) * deps.cols() + c] = deps.Get(r, c);
      }
    }
    AppendBools(out, bits);
  }
}

bool DecodeView(std::string_view blob, size_t* pos, View* view) {
  uint64_t num_modules = 0;
  if (!ReadU64(blob, pos, &num_modules)) return false;
  if (num_modules > kMaxModules) return false;
  std::vector<bool> expandable;
  if (!DecodeBools(blob, pos, &expandable)) return false;
  if (expandable.size() != num_modules) return false;
  uint64_t defined = 0;
  if (!ReadU64(blob, pos, &defined)) return false;
  if (defined > num_modules) return false;
  DependencyAssignment perceived(static_cast<int>(num_modules));
  uint64_t previous_module = 0;
  for (uint64_t d = 0; d < defined; ++d) {
    uint64_t module = 0, rows = 0, cols = 0;
    if (!ReadU64(blob, pos, &module) || !ReadU64(blob, pos, &rows) ||
        !ReadU64(blob, pos, &cols)) {
      return false;
    }
    if (module >= num_modules) return false;
    if (d > 0 && module <= previous_module) return false;  // sorted, unique
    previous_module = module;
    if (rows > uint64_t{kMaxPorts} || cols > uint64_t{kMaxPorts}) return false;
    std::vector<bool> bits;
    if (!DecodeBools(blob, pos, &bits)) return false;
    if (bits.size() != rows * cols) return false;
    BoolMatrix deps(static_cast<int>(rows), static_cast<int>(cols));
    for (uint64_t r = 0; r < rows; ++r) {
      for (uint64_t c = 0; c < cols; ++c) {
        if (bits[r * cols + c]) {
          deps.Set(static_cast<int>(r), static_cast<int>(c));
        }
      }
    }
    perceived.Set(static_cast<int>(module), std::move(deps));
  }
  view->expandable = std::move(expandable);
  view->perceived = std::move(perceived);
  return true;
}

// --- Request decoding ------------------------------------------------------

namespace {

bool ReadMode(std::string_view blob, size_t* pos, ViewLabelMode* mode) {
  uint64_t value = 0;
  if (!ReadU64(blob, pos, &value)) return false;
  if (value > 2) return false;
  *mode = static_cast<ViewLabelMode>(value);
  return true;
}

bool ReadItemId(std::string_view blob, size_t* pos, uint64_t* value) {
  return ReadU64(blob, pos, value) && *value <= kMaxItemId;
}

bool ReadQueryHeader(std::string_view blob, size_t* pos, QueryHeader* header) {
  return ReadU64(blob, pos, &header->view_id) &&
         ReadU64(blob, pos, &header->index_id) &&
         ReadMode(blob, pos, &header->mode);
}

// The kDepends body, for both DecodeRequest and DecodeDependsRequest.
bool ReadDependsBody(std::string_view blob, size_t* pos,
                     DependsRequest* request) {
  return ReadQueryHeader(blob, pos, request) &&
         ReadItemId(blob, pos, &request->d1) &&
         ReadItemId(blob, pos, &request->d2);
}

// Archive paths on the wire: `u64 len | bytes`, capped well under the
// frame limit so a flipped length byte cannot demand a gigabyte string
// (PATH_MAX is 4096 on every target we build for).
constexpr uint64_t kMaxWirePathLength = 4096;

bool ReadPath(std::string_view blob, size_t* pos, std::string* path) {
  uint64_t length = 0;
  if (!ReadU64(blob, pos, &length)) return false;
  if (length > kMaxWirePathLength || length > blob.size() - *pos) return false;
  path->assign(blob.substr(*pos, static_cast<size_t>(length)));
  *pos += static_cast<size_t>(length);
  return true;
}

void AppendPath(std::string* out, std::string_view path) {
  AppendU64(out, path.size());
  out->append(path);
}

}  // namespace

Result<Request> DecodeRequest(std::string_view payload) {
  if (payload.empty()) return Malformed("empty payload");
  uint8_t type_byte = static_cast<uint8_t>(payload[0]);
  constexpr uint8_t kRetiredType = 11;  // see MsgType
  if (type_byte < static_cast<uint8_t>(MsgType::kPing) ||
      type_byte > static_cast<uint8_t>(MsgType::kCompactFiles) ||
      type_byte == kRetiredType) {
    return Malformed("unknown message type");
  }
  Request request;
  request.type = static_cast<MsgType>(type_byte);
  size_t pos = 1;
  switch (request.type) {
    case MsgType::kPing:
    case MsgType::kBeginRun:
    case MsgType::kStats:
      break;  // no body
    case MsgType::kRegisterView:
      if (!DecodeView(payload, &pos, &request.view)) {
        return Malformed("bad view encoding");
      }
      break;
    case MsgType::kApply:
      if (!ReadU64(payload, &pos, &request.session_id) ||
          !ReadItemId(payload, &pos, &request.instance) ||
          !ReadItemId(payload, &pos, &request.production)) {
        return Malformed("bad apply body");
      }
      break;
    case MsgType::kSnapshot:
    case MsgType::kSnapshotDelta:
      if (!ReadU64(payload, &pos, &request.session_id)) {
        return Malformed("bad snapshot body");
      }
      break;
    case MsgType::kDepends:
      if (!ReadDependsBody(payload, &pos, &request)) {
        return Malformed("bad depends body");
      }
      break;
    case MsgType::kDependsMany: {
      uint64_t count = 0;
      if (!ReadQueryHeader(payload, &pos, &request) ||
          !ReadU64(payload, &pos, &count)) {
        return Malformed("bad depends-many body");
      }
      if (count > (payload.size() - pos) / 16) {
        return Malformed("depends-many count exceeds payload");
      }
      request.pairs.reserve(static_cast<size_t>(count));
      for (uint64_t q = 0; q < count; ++q) {
        uint64_t d1 = 0, d2 = 0;
        if (!ReadItemId(payload, &pos, &d1) ||
            !ReadItemId(payload, &pos, &d2)) {
          return Malformed("bad depends-many pair");
        }
        request.pairs.emplace_back(static_cast<int>(d1),
                                   static_cast<int>(d2));
      }
      break;
    }
    case MsgType::kVisibilitySweep:
      if (!ReadQueryHeader(payload, &pos, &request)) {
        return Malformed("bad visibility-sweep body");
      }
      break;
    case MsgType::kMergeRuns: {
      uint64_t count = 0;
      if (!ReadU64(payload, &pos, &count)) {
        return Malformed("bad merge-runs body");
      }
      if (count > (payload.size() - pos) / 8) {
        return Malformed("merge-runs count exceeds payload");
      }
      request.index_ids.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t id = 0;
        if (!ReadU64(payload, &pos, &id)) {
          return Malformed("bad merge-runs id");
        }
        request.index_ids.push_back(id);
      }
      break;
    }
    case MsgType::kOpenIndexFile:
      if (!ReadPath(payload, &pos, &request.path)) {
        return Malformed("bad open-index-file path");
      }
      break;
    case MsgType::kCompactFiles: {
      uint64_t count = 0;
      if (!ReadPath(payload, &pos, &request.path) ||
          !ReadU64(payload, &pos, &count)) {
        return Malformed("bad compact-files body");
      }
      if (count > (payload.size() - pos) / 8) {
        return Malformed("compact-files count exceeds payload");
      }
      request.input_paths.reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; ++i) {
        std::string input;
        if (!ReadPath(payload, &pos, &input)) {
          return Malformed("bad compact-files path");
        }
        request.input_paths.push_back(std::move(input));
      }
      break;
    }
  }
  if (pos != payload.size()) return Malformed("trailing bytes");
  return request;
}

// --- Request encoding ------------------------------------------------------

namespace {

std::string WithType(MsgType type) {
  return std::string(1, static_cast<char>(type));
}

void AppendQueryHeader(std::string* out, uint64_t view_id, uint64_t index_id,
                       ViewLabelMode mode) {
  AppendU64(out, view_id);
  AppendU64(out, index_id);
  AppendU64(out, static_cast<uint64_t>(mode));
}

// 1 type byte + 5 u64 fields.
constexpr uint64_t kDependsPayloadBytes = 41;

// The whole kDepends payload, for both EncodeDependsRequest and
// AppendDependsRequestFrame. Appends, so queuing a frame allocates only
// when the caller's buffer grows.
void AppendDependsPayload(std::string* out, uint64_t view_id,
                          uint64_t index_id, ViewLabelMode mode, uint64_t d1,
                          uint64_t d2) {
  out->push_back(static_cast<char>(MsgType::kDepends));
  AppendQueryHeader(out, view_id, index_id, mode);
  AppendU64(out, d1);
  AppendU64(out, d2);
}

}  // namespace

std::string EncodePingRequest() { return WithType(MsgType::kPing); }

std::string EncodeRegisterViewRequest(const View& view) {
  std::string payload = WithType(MsgType::kRegisterView);
  AppendView(&payload, view);
  return payload;
}

std::string EncodeBeginRunRequest() { return WithType(MsgType::kBeginRun); }

std::string EncodeApplyRequest(uint64_t session_id, uint64_t instance,
                               uint64_t production) {
  std::string payload = WithType(MsgType::kApply);
  AppendU64(&payload, session_id);
  AppendU64(&payload, instance);
  AppendU64(&payload, production);
  return payload;
}

std::string EncodeSnapshotRequest(uint64_t session_id, bool delta) {
  std::string payload =
      WithType(delta ? MsgType::kSnapshotDelta : MsgType::kSnapshot);
  AppendU64(&payload, session_id);
  return payload;
}

std::string EncodeDependsRequest(uint64_t view_id, uint64_t index_id,
                                 ViewLabelMode mode, uint64_t d1,
                                 uint64_t d2) {
  std::string payload;
  AppendDependsPayload(&payload, view_id, index_id, mode, d1, d2);
  return payload;
}

bool DecodeDependsRequest(std::string_view payload, DependsRequest* request) {
  if (payload.empty() ||
      payload[0] != static_cast<char>(MsgType::kDepends)) {
    return false;
  }
  size_t pos = 1;
  return ReadDependsBody(payload, &pos, request) && pos == payload.size();
}

void AppendDependsRequestFrame(std::string* out, uint64_t view_id,
                               uint64_t index_id, ViewLabelMode mode,
                               uint64_t d1, uint64_t d2) {
  AppendU64(out, kDependsPayloadBytes);
  AppendDependsPayload(out, view_id, index_id, mode, d1, d2);
}

std::string EncodeDependsManyRequest(
    uint64_t view_id, uint64_t index_id, ViewLabelMode mode,
    std::span<const std::pair<int, int>> queries) {
  std::string payload = WithType(MsgType::kDependsMany);
  AppendQueryHeader(&payload, view_id, index_id, mode);
  AppendU64(&payload, queries.size());
  for (const auto& [d1, d2] : queries) {
    AppendU64(&payload, static_cast<uint64_t>(d1));
    AppendU64(&payload, static_cast<uint64_t>(d2));
  }
  return payload;
}

std::string EncodeVisibilitySweepRequest(uint64_t view_id, uint64_t index_id,
                                         ViewLabelMode mode) {
  std::string payload = WithType(MsgType::kVisibilitySweep);
  AppendQueryHeader(&payload, view_id, index_id, mode);
  return payload;
}

std::string EncodeMergeRunsRequest(std::span<const uint64_t> index_ids) {
  std::string payload = WithType(MsgType::kMergeRuns);
  AppendU64(&payload, index_ids.size());
  for (uint64_t id : index_ids) AppendU64(&payload, id);
  return payload;
}

std::string EncodeStatsRequest() { return WithType(MsgType::kStats); }

std::string EncodeOpenIndexFileRequest(std::string_view path) {
  std::string payload = WithType(MsgType::kOpenIndexFile);
  AppendPath(&payload, path);
  return payload;
}

std::string EncodeCompactFilesRequest(std::span<const std::string> input_paths,
                                      std::string_view output_path) {
  std::string payload = WithType(MsgType::kCompactFiles);
  AppendPath(&payload, output_path);
  AppendU64(&payload, input_paths.size());
  for (const std::string& path : input_paths) AppendPath(&payload, path);
  return payload;
}

// --- Responses -------------------------------------------------------------

std::string OkResponse(std::string_view body) {
  std::string payload(1, static_cast<char>(kOkByte));
  payload.append(body);
  return payload;
}

std::string ErrorResponse(const Status& status) {
  FVL_CHECK(!status.ok());
  std::string payload(1, static_cast<char>(kErrorByte));
  payload.push_back(static_cast<char>(status.code()));
  AppendU64(&payload, status.message().size());
  payload.append(status.message());
  return payload;
}

Result<std::string_view> ParseResponse(std::string_view payload) {
  if (payload.empty()) {
    return Status::Error(ErrorCode::kMalformedBlob, "empty response payload");
  }
  uint8_t head = static_cast<uint8_t>(payload[0]);
  if (head == kOkByte) return payload.substr(1);
  if (head != kErrorByte) {
    return Status::Error(ErrorCode::kMalformedBlob,
                         "unknown response payload type");
  }
  if (payload.size() < 2) {
    return Status::Error(ErrorCode::kMalformedBlob, "truncated error frame");
  }
  uint8_t code_byte = static_cast<uint8_t>(payload[1]);
  if (code_byte == static_cast<uint8_t>(ErrorCode::kOk) ||
      code_byte > static_cast<uint8_t>(ErrorCode::kUnavailable)) {
    return Status::Error(ErrorCode::kMalformedBlob,
                         "error frame carries an unknown code");
  }
  size_t pos = 2;
  uint64_t length = 0;
  if (!ReadU64(payload, &pos, &length) || payload.size() - pos != length) {
    return Status::Error(ErrorCode::kMalformedBlob,
                         "error frame message length mismatch");
  }
  return Status::Error(static_cast<ErrorCode>(code_byte),
                       std::string(payload.substr(pos)));
}

}  // namespace fvl::net
