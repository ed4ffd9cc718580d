#include "fvl/net/client.h"

#include <limits>
#include <optional>
#include <string>
#include <utility>

namespace fvl::net {
namespace {

Status Malformed(const char* what) {
  return Status::Error(ErrorCode::kMalformedBlob,
                       std::string("response: ") + what);
}

// Reads a reply body of `ids.size()` u64 fields followed by
// `counts.size()` u64 fields that must fit an int, and demands the body
// end there. A failed call's Status passes straight through.
Status ReadFields(const Result<std::string>& body, std::span<uint64_t> ids,
                  std::span<int> counts = {}) {
  if (!body.ok()) return body.status();
  size_t pos = 0;
  for (uint64_t& id : ids) {
    if (!ReadU64(*body, &pos, &id)) return Malformed("truncated field");
  }
  for (int& count : counts) {
    uint64_t value = 0;
    if (!ReadU64(*body, &pos, &value)) return Malformed("truncated field");
    if (value > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
      return Malformed("count out of range");
    }
    count = static_cast<int>(value);
  }
  if (pos != body->size()) return Malformed("trailing bytes");
  return Status::Ok();
}

// --- Reply parsers: one per reply shape. Each takes the call's Result.

// `u64 id` (kPing's version, kRegisterView, kBeginRun).
Result<uint64_t> ParseId(const Result<std::string>& body) {
  uint64_t id[1];
  Status parsed = ReadFields(body, id);
  if (!parsed.ok()) return parsed;
  return id[0];
}

// `u64 index_id | u64 num_items | u64 frozen_items`.
Result<SnapshotInfo> ParseSnapshotInfo(const Result<std::string>& body) {
  uint64_t id[1];
  int counts[2];
  Status parsed = ReadFields(body, id, counts);
  if (!parsed.ok()) return parsed;
  return SnapshotInfo{id[0], counts[0], counts[1]};
}

// `u64 merged_id | u64 num_runs | u64 total_items`.
Result<MergeInfo> ParseMergeInfo(const Result<std::string>& body) {
  uint64_t id[1];
  int counts[2];
  Status parsed = ReadFields(body, id, counts);
  if (!parsed.ok()) return parsed;
  return MergeInfo{id[0], counts[0], counts[1]};
}

// A bit-packed bool vector, `expected` long when the caller knows.
Result<std::vector<bool>> ParseBools(const Result<std::string>& body,
                                     std::optional<size_t> expected,
                                     const char* what) {
  if (!body.ok()) return body.status();
  std::vector<bool> bits;
  size_t pos = 0;
  if (!DecodeBools(*body, &pos, &bits) || pos != body->size() ||
      (expected.has_value() && bits.size() != *expected)) {
    return Malformed(what);
  }
  return bits;
}

// A kDepends response payload (not just its body): `kOkByte | u8 bool`, or
// an error frame, whose Status is returned.
Result<bool> ParseBoolAnswer(std::string_view payload) {
  Result<std::string_view> body = ParseResponse(payload);
  if (!body.ok()) return body.status();
  if (body->size() != 1 || static_cast<uint8_t>((*body)[0]) > 1) {
    return Malformed("depends answer");
  }
  return (*body)[0] != 0;
}

}  // namespace

Result<ProvenanceClient> ProvenanceClient::Connect(int port) {
  Result<Socket> socket = TcpConnect(port);
  if (!socket.ok()) return socket.status();
  return ProvenanceClient(std::move(socket).value());
}

void ProvenanceClient::ConsumeRead(size_t frame_size) {
  read_pos_ += frame_size;
  if (read_pos_ == read_buffer_.size()) {
    read_buffer_.clear();
    read_pos_ = 0;
  }
}

Result<std::string> ProvenanceClient::ReadResponseFrame() {
  char chunk[1 << 16];
  for (;;) {
    size_t frame_size = 0;
    std::string_view payload;
    std::string_view unread = std::string_view(read_buffer_).substr(read_pos_);
    FrameStatus status = TryExtractFrame(unread, &frame_size, &payload);
    if (status == FrameStatus::kFrame) {
      std::string owned(payload);
      ConsumeRead(frame_size);
      return owned;
    }
    if (status == FrameStatus::kBad) return Malformed("bad frame length");
    Result<ReadOutcome> outcome = ReadSome(socket_, chunk, sizeof(chunk));
    if (!outcome.ok()) return outcome.status();
    if (outcome->eof) {
      return Status::Error(ErrorCode::kUnavailable,
                           "server closed the connection");
    }
    read_buffer_.append(chunk, outcome->n);
  }
}

Result<std::string> ProvenanceClient::Call(std::string_view request_payload) {
  Result<std::string> frame = RoundTripRaw(request_payload);
  if (!frame.ok()) return frame.status();
  Result<std::string_view> body = ParseResponse(*frame);
  if (!body.ok()) return body.status();
  return std::string(*body);
}

Result<uint64_t> ProvenanceClient::Ping() {
  return ParseId(Call(EncodePingRequest()));
}

Result<uint64_t> ProvenanceClient::RegisterView(const View& view) {
  return ParseId(Call(EncodeRegisterViewRequest(view)));
}

Result<uint64_t> ProvenanceClient::BeginRun() {
  return ParseId(Call(EncodeBeginRunRequest()));
}

Result<DerivationStep> ProvenanceClient::Apply(uint64_t session_id,
                                               uint64_t instance,
                                               uint64_t production) {
  int fields[6];
  Status parsed =
      ReadFields(Call(EncodeApplyRequest(session_id, instance, production)),
                 {}, fields);
  if (!parsed.ok()) return parsed;
  DerivationStep step;
  step.index = fields[0];
  step.instance = fields[1];
  step.production = fields[2];
  step.first_child = fields[3];
  step.first_item = fields[4];
  step.num_items = fields[5];
  return step;
}

Result<SnapshotInfo> ProvenanceClient::Snapshot(uint64_t session_id) {
  return ParseSnapshotInfo(
      Call(EncodeSnapshotRequest(session_id, /*delta=*/false)));
}

Result<SnapshotInfo> ProvenanceClient::SnapshotDelta(uint64_t session_id) {
  return ParseSnapshotInfo(
      Call(EncodeSnapshotRequest(session_id, /*delta=*/true)));
}

Result<bool> ProvenanceClient::Depends(uint64_t view_id, uint64_t index_id,
                                       ViewLabelMode mode, uint64_t d1,
                                       uint64_t d2) {
  Result<std::string> frame =
      RoundTripRaw(EncodeDependsRequest(view_id, index_id, mode, d1, d2));
  if (!frame.ok()) return frame.status();
  return ParseBoolAnswer(*frame);
}

Result<std::vector<bool>> ProvenanceClient::DependsMany(
    uint64_t view_id, uint64_t index_id, ViewLabelMode mode,
    std::span<const std::pair<int, int>> queries) {
  return ParseBools(
      Call(EncodeDependsManyRequest(view_id, index_id, mode, queries)),
      queries.size(), "depends-many answer");
}

Result<std::vector<bool>> ProvenanceClient::VisibilitySweep(
    uint64_t view_id, uint64_t index_id, ViewLabelMode mode) {
  return ParseBools(Call(EncodeVisibilitySweepRequest(view_id, index_id, mode)),
                    std::nullopt, "visibility answer");
}

Result<MergeInfo> ProvenanceClient::MergeRuns(
    std::span<const uint64_t> index_ids) {
  return ParseMergeInfo(Call(EncodeMergeRunsRequest(index_ids)));
}

Result<MergeInfo> ProvenanceClient::OpenIndexFile(const std::string& path) {
  return ParseMergeInfo(Call(EncodeOpenIndexFileRequest(path)));
}

Result<MergeInfo> ProvenanceClient::CompactFiles(
    std::span<const std::string> input_paths, const std::string& output_path) {
  return ParseMergeInfo(
      Call(EncodeCompactFilesRequest(input_paths, output_path)));
}

Result<ServerStats> ProvenanceClient::Stats() {
  Result<std::string> body = Call(EncodeStatsRequest());
  if (!body.ok()) return body.status();
  std::vector<NamedCounter> counters;
  if (!DecodeStatsBody(*body, &counters)) return Malformed("stats body");
  ServerStats stats;
  for (const auto& [name, value] : counters) {
    for (const auto& [known, field] : kStatsFields) {
      if (name == known) stats.*field = value;
    }
  }
  return stats;
}

void ProvenanceClient::QueueDepends(uint64_t view_id, uint64_t index_id,
                                    ViewLabelMode mode, uint64_t d1,
                                    uint64_t d2) {
  internal::SingleWriterScope caller(&call_guard_);
  AppendDependsRequestFrame(&write_buffer_, view_id, index_id, mode, d1, d2);
  ++pending_;
}

Status ProvenanceClient::Flush() {
  internal::SingleWriterScope caller(&call_guard_);
  if (write_buffer_.empty()) return Status::Ok();
  Status written = WriteAll(socket_, write_buffer_);
  write_buffer_.clear();
  return written;
}

Result<bool> ProvenanceClient::NextDependsAnswer() {
  internal::SingleWriterScope caller(&call_guard_);
  if (pending_ == 0) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         "no pipelined query pending");
  }
  --pending_;
  // In-place parse: the answer is read straight out of the read buffer,
  // and the driver calls this hundreds of thousands of times per second.
  char chunk[1 << 16];
  for (;;) {
    size_t frame_size = 0;
    std::string_view payload;
    std::string_view unread = std::string_view(read_buffer_).substr(read_pos_);
    FrameStatus status = TryExtractFrame(unread, &frame_size, &payload);
    if (status == FrameStatus::kFrame) {
      // Parsed before ConsumeRead: the payload points into read_buffer_.
      Result<bool> answer = ParseBoolAnswer(payload);
      ConsumeRead(frame_size);
      return answer;
    }
    if (status == FrameStatus::kBad) return Malformed("bad frame length");
    Result<ReadOutcome> outcome = ReadSome(socket_, chunk, sizeof(chunk));
    if (!outcome.ok()) return outcome.status();
    if (outcome->eof) {
      return Status::Error(ErrorCode::kUnavailable,
                           "server closed the connection");
    }
    read_buffer_.append(chunk, outcome->n);
  }
}

Result<std::string> ProvenanceClient::RoundTripRaw(std::string_view payload) {
  internal::SingleWriterScope caller(&call_guard_);
  // Responses arrive in request order; while pipelined answers are owed,
  // a synchronous exchange could read one of them as its own.
  if (pending_ > 0) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         std::to_string(pending_) +
                             " pipelined queries pending; read their "
                             "answers before a synchronous call");
  }
  std::string out;
  AppendFrame(&out, payload);
  Status written = WriteAll(socket_, out);
  if (!written.ok()) return written;
  return ReadResponseFrame();
}

}  // namespace fvl::net
