// ProvenanceClient — typed synchronous calls over the wire protocol, plus a
// windowed pipelining path for point queries.
//
// Each typed call is one request frame and one blocking wait for its
// response frame. The pipelined path (QueueDepends / Flush /
// NextDependsAnswer) instead buffers many point-query frames client-side,
// ships them in one write, and reads the answers back in order. Keeping a
// window of W queries in flight is what feeds the server's coalescing
// batcher: the server drains whole bursts from the socket and folds them —
// together with other clients' bursts — into shared DependsMany decode
// passes. A strictly request/response client would cap the server's batch
// size at 1 and pay a full RTT per point query.
//
// Errors: transport failures are kUnavailable; server-reported errors
// arrive as the original Status (code + message) reconstructed from the
// error frame. A client is single-threaded by contract — share a
// connection across threads and the interleaved frames will corrupt the
// conversation (each bench/test thread opens its own client). The contract
// is enforced: every call entry point holds a SingleWriterScope, so two
// threads inside the client at once fail a check with a message instead of
// silently desyncing the frame stream.

#ifndef FVL_NET_CLIENT_H_
#define FVL_NET_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fvl/net/server.h"
#include "fvl/net/socket.h"
#include "fvl/net/wire.h"
#include "fvl/run/run.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/single_writer.h"
#include "fvl/util/status.h"
#include "fvl/workflow/view.h"

namespace fvl::net {

// What Snapshot/SnapshotDelta hand back: the server-side id of the frozen
// index plus its shape.
struct SnapshotInfo {
  uint64_t index_id = 0;
  int num_items = 0;
  int frozen_items = 0;  // session high-water mark after the freeze
};

// What MergeRuns hands back.
struct MergeInfo {
  uint64_t merged_id = 0;
  int num_runs = 0;
  int total_items = 0;
};

// What OpenIndexFile hands back (OpenMergedIndexFile reports the same open
// as a MergeInfo, with the run count).
struct OpenInfo {
  uint64_t index_id = 0;
  int num_items = 0;
};

class ProvenanceClient {
 public:
  // Connects to 127.0.0.1:port.
  [[nodiscard]] static Result<ProvenanceClient> Connect(int port);

  ProvenanceClient(ProvenanceClient&&) = default;
  ProvenanceClient& operator=(ProvenanceClient&&) = default;

  // --- Synchronous calls (one request, one response) ---

  [[nodiscard]] Result<uint64_t> Ping();  // returns the protocol version
  [[nodiscard]] Result<uint64_t> RegisterView(const View& view);
  [[nodiscard]] Result<uint64_t> BeginRun();
  [[nodiscard]] Result<DerivationStep> Apply(uint64_t session_id, uint64_t instance,
                               uint64_t production);
  [[nodiscard]] Result<SnapshotInfo> Snapshot(uint64_t session_id);
  [[nodiscard]] Result<SnapshotInfo> SnapshotDelta(uint64_t session_id);
  [[nodiscard]] Result<bool> Depends(uint64_t view_id, uint64_t index_id, ViewLabelMode mode,
                       uint64_t d1, uint64_t d2);
  [[nodiscard]] Result<std::vector<bool>> DependsMany(
      uint64_t view_id, uint64_t index_id, ViewLabelMode mode,
      std::span<const std::pair<int, int>> queries);
  [[nodiscard]] Result<std::vector<bool>> VisibilitySweep(uint64_t view_id,
                                            uint64_t index_id,
                                            ViewLabelMode mode);
  [[nodiscard]] Result<MergeInfo> MergeRuns(std::span<const uint64_t> index_ids);
  [[nodiscard]] Result<std::vector<bool>> QueryAcrossRuns(
      uint64_t view_id, uint64_t merged_id, ViewLabelMode mode,
      std::span<const std::pair<RunItem, RunItem>> queries);
  [[nodiscard]] Result<ServerStats> Stats();

  // --- On-disk tier ---
  //
  // Paths name files on the *server's* filesystem: the server maps (or
  // writes) them; archive bytes never cross the wire. The returned ids
  // feed the same query calls as Snapshot/MergeRuns ids.

  // Maps a serialized archive (either format) server-side and registers
  // it; the two calls differ only in the reply they decode.
  [[nodiscard]] Result<OpenInfo> OpenIndexFile(const std::string& path);
  [[nodiscard]] Result<MergeInfo> OpenMergedIndexFile(const std::string& path);
  // LSM-style server-side re-merge: compacts the named archives (any run
  // counts, any mix) into one archive at output_path, replacing it
  // atomically, and registers the result.
  [[nodiscard]] Result<MergeInfo> CompactFiles(
      std::span<const std::string> input_paths,
      const std::string& output_path);

  // --- Pipelined point queries ---
  //
  //   for (...) client.QueueDepends(...);     // buffer locally
  //   client.Flush();                          // one write, W frames
  //   while (client.pending() > 0)
  //     auto answer = client.NextDependsAnswer();
  //
  // Answers come back in queue order. An error frame for one query is
  // returned as that query's Result; the stream stays aligned.

  void QueueDepends(uint64_t view_id, uint64_t index_id, ViewLabelMode mode,
                    uint64_t d1, uint64_t d2);
  [[nodiscard]] Status Flush();
  [[nodiscard]] Result<bool> NextDependsAnswer();
  size_t pending() const { return pending_; }

  // Ships raw bytes as one frame payload and returns the raw response
  // payload — the fuzz harness's hook for sending what no encoder would.
  [[nodiscard]] Result<std::string> RoundTripRaw(std::string_view payload);

 private:
  explicit ProvenanceClient(Socket socket) : socket_(std::move(socket)) {}

  // One framed request, one framed response, parsed to its body.
  [[nodiscard]] Result<std::string> Call(std::string_view request_payload);
  // Reads exactly one frame payload (blocking).
  [[nodiscard]] Result<std::string> ReadResponseFrame();
  // Advances the read cursor past a consumed frame, compacting the buffer
  // once fully drained.
  void ConsumeRead(size_t frame_size);

  Socket socket_;
  internal::SingleWriterGuard call_guard_;  // enforces one-thread-at-a-time
  std::string read_buffer_;
  size_t read_pos_ = 0;       // consumed prefix of read_buffer_ (answers are
                              // popped by cursor; one erase per drained buffer
                              // instead of one memmove per answer)
  std::string write_buffer_;  // queued pipelined frames
  size_t pending_ = 0;        // pipelined answers not yet read
};

}  // namespace fvl::net

#endif  // FVL_NET_CLIENT_H_
