#include "fvl/net/client.h"

#include <string>
#include <utility>

namespace fvl::net {
namespace {

Status Malformed(const char* what) {
  return Status::Error(ErrorCode::kMalformedBlob,
                       std::string("response: ") + what);
}

// Reads `count` u64 fields and demands the body end there.
Status ReadFields(std::string_view body, std::span<uint64_t> fields) {
  size_t pos = 0;
  for (uint64_t& field : fields) {
    if (!ReadU64(body, &pos, &field)) return Malformed("truncated field");
  }
  if (pos != body.size()) return Malformed("trailing bytes");
  return Status::Ok();
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
  Result<std::string> body = Call(EncodePingRequest());
  if (!body.ok()) return body.status();
  uint64_t fields[1];
  Status parsed = ReadFields(*body, fields);
  if (!parsed.ok()) return parsed;
  return fields[0];
}

Result<uint64_t> ProvenanceClient::RegisterView(const View& view) {
  Result<std::string> body = Call(EncodeRegisterViewRequest(view));
  if (!body.ok()) return body.status();
  uint64_t fields[1];
  Status parsed = ReadFields(*body, fields);
  if (!parsed.ok()) return parsed;
  return fields[0];
}

Result<uint64_t> ProvenanceClient::BeginRun() {
  Result<std::string> body = Call(EncodeBeginRunRequest());
  if (!body.ok()) return body.status();
  uint64_t fields[1];
  Status parsed = ReadFields(*body, fields);
  if (!parsed.ok()) return parsed;
  return fields[0];
}

Result<DerivationStep> ProvenanceClient::Apply(uint64_t session_id,
                                               uint64_t instance,
                                               uint64_t production) {
  Result<std::string> body =
      Call(EncodeApplyRequest(session_id, instance, production));
  if (!body.ok()) return body.status();
  uint64_t fields[6];
  Status parsed = ReadFields(*body, fields);
  if (!parsed.ok()) return parsed;
  DerivationStep step;
  step.index = static_cast<int>(fields[0]);
  step.instance = static_cast<int>(fields[1]);
  step.production = static_cast<int>(fields[2]);
  step.first_child = static_cast<int>(fields[3]);
  step.first_item = static_cast<int>(fields[4]);
  step.num_items = static_cast<int>(fields[5]);
  return step;
}

Result<SnapshotInfo> ProvenanceClient::Snapshot(uint64_t session_id) {
  Result<std::string> body =
      Call(EncodeSnapshotRequest(session_id, /*delta=*/false));
  if (!body.ok()) return body.status();
  uint64_t fields[3];
  Status parsed = ReadFields(*body, fields);
  if (!parsed.ok()) return parsed;
  return SnapshotInfo{fields[0], static_cast<int>(fields[1]),
                      static_cast<int>(fields[2])};
}

Result<SnapshotInfo> ProvenanceClient::SnapshotDelta(uint64_t session_id) {
  Result<std::string> body =
      Call(EncodeSnapshotRequest(session_id, /*delta=*/true));
  if (!body.ok()) return body.status();
  uint64_t fields[3];
  Status parsed = ReadFields(*body, fields);
  if (!parsed.ok()) return parsed;
  return SnapshotInfo{fields[0], static_cast<int>(fields[1]),
                      static_cast<int>(fields[2])};
}

Result<bool> ProvenanceClient::Depends(uint64_t view_id, uint64_t index_id,
                                       ViewLabelMode mode, uint64_t d1,
                                       uint64_t d2) {
  Result<std::string> body =
      Call(EncodeDependsRequest(view_id, index_id, mode, d1, d2));
  if (!body.ok()) return body.status();
  if (body->size() != 1 || static_cast<uint8_t>((*body)[0]) > 1) {
    return Malformed("depends answer");
  }
  return (*body)[0] != 0;
}

Result<std::vector<bool>> ProvenanceClient::DependsMany(
    uint64_t view_id, uint64_t index_id, ViewLabelMode mode,
    std::span<const std::pair<int, int>> queries) {
  Result<std::string> body =
      Call(EncodeDependsManyRequest(view_id, index_id, mode, queries));
  if (!body.ok()) return body.status();
  std::vector<bool> bits;
  size_t pos = 0;
  if (!DecodeBools(*body, &pos, &bits) || pos != body->size() ||
      bits.size() != queries.size()) {
    return Malformed("depends-many answer");
  }
  return bits;
}

Result<std::vector<bool>> ProvenanceClient::VisibilitySweep(
    uint64_t view_id, uint64_t index_id, ViewLabelMode mode) {
  Result<std::string> body =
      Call(EncodeVisibilitySweepRequest(view_id, index_id, mode));
  if (!body.ok()) return body.status();
  std::vector<bool> bits;
  size_t pos = 0;
  if (!DecodeBools(*body, &pos, &bits) || pos != body->size()) {
    return Malformed("visibility answer");
  }
  return bits;
}

Result<MergeInfo> ProvenanceClient::MergeRuns(
    std::span<const uint64_t> index_ids) {
  Result<std::string> body = Call(EncodeMergeRunsRequest(index_ids));
  if (!body.ok()) return body.status();
  uint64_t fields[3];
  Status parsed = ReadFields(*body, fields);
  if (!parsed.ok()) return parsed;
  return MergeInfo{fields[0], static_cast<int>(fields[1]),
                   static_cast<int>(fields[2])};
}

Result<std::vector<bool>> ProvenanceClient::QueryAcrossRuns(
    uint64_t view_id, uint64_t merged_id, ViewLabelMode mode,
    std::span<const std::pair<RunItem, RunItem>> queries) {
  Result<std::string> body =
      Call(EncodeQueryAcrossRunsRequest(view_id, merged_id, mode, queries));
  if (!body.ok()) return body.status();
  std::vector<bool> bits;
  size_t pos = 0;
  if (!DecodeBools(*body, &pos, &bits) || pos != body->size() ||
      bits.size() != queries.size()) {
    return Malformed("query-across-runs answer");
  }
  return bits;
}

Result<OpenInfo> ProvenanceClient::OpenIndexFile(const std::string& path) {
  Result<std::string> body =
      Call(EncodeOpenIndexFileRequest(path, /*merged=*/false));
  if (!body.ok()) return body.status();
  uint64_t fields[2];
  Status parsed = ReadFields(*body, fields);
  if (!parsed.ok()) return parsed;
  return OpenInfo{fields[0], static_cast<int>(fields[1])};
}

Result<MergeInfo> ProvenanceClient::OpenMergedIndexFile(
    const std::string& path) {
  Result<std::string> body =
      Call(EncodeOpenIndexFileRequest(path, /*merged=*/true));
  if (!body.ok()) return body.status();
  uint64_t fields[3];
  Status parsed = ReadFields(*body, fields);
  if (!parsed.ok()) return parsed;
  return MergeInfo{fields[0], static_cast<int>(fields[1]),
                   static_cast<int>(fields[2])};
}

Result<MergeInfo> ProvenanceClient::CompactFiles(
    std::span<const std::string> input_paths, const std::string& output_path) {
  Result<std::string> body =
      Call(EncodeCompactFilesRequest(input_paths, output_path));
  if (!body.ok()) return body.status();
  uint64_t fields[3];
  Status parsed = ReadFields(*body, fields);
  if (!parsed.ok()) return parsed;
  return MergeInfo{fields[0], static_cast<int>(fields[1]),
                   static_cast<int>(fields[2])};
}

Result<ServerStats> ProvenanceClient::Stats() {
  Result<std::string> body = Call(EncodeStatsRequest());
  if (!body.ok()) return body.status();
  uint64_t fields[8];
  Status parsed = ReadFields(*body, fields);
  if (!parsed.ok()) return parsed;
  ServerStats stats;
  stats.point_queries = fields[0];
  stats.point_batches = fields[1];
  stats.frames = fields[2];
  stats.connections = fields[3];
  stats.label_hits = fields[4];
  stats.label_misses = fields[5];
  stats.reach_hits = fields[6];
  stats.reach_misses = fields[7];
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
  // In-place parse: the expected answer is a fixed 2-byte payload
  // (kOkByte | bool), and the driver calls this hundreds of thousands of
  // times per second — only the rare error frame takes the owning path.
  char chunk[1 << 16];
  for (;;) {
    size_t frame_size = 0;
    std::string_view payload;
    std::string_view unread = std::string_view(read_buffer_).substr(read_pos_);
    FrameStatus status = TryExtractFrame(unread, &frame_size, &payload);
    if (status == FrameStatus::kFrame) {
      if (payload.size() == 2 &&
          static_cast<uint8_t>(payload[0]) == kOkByte &&
          static_cast<uint8_t>(payload[1]) <= 1) {
        bool answer = payload[1] != 0;
        ConsumeRead(frame_size);
        return answer;
      }
      std::string owned(payload);
      ConsumeRead(frame_size);
      Result<std::string_view> body = ParseResponse(owned);
      if (!body.ok()) return body.status();
      return Malformed("depends answer");
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
