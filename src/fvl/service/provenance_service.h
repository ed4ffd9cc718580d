// fvl::ProvenanceService — the session-oriented public API of the library.
//
// The paper's pitch (Thm. 10) is reachability over provenance views as an
// *online service*: data labels are computed while the workflow executes and
// queries are answered in constant time from labels alone. The service layer
// packages the machinery accordingly:
//
//   auto service = ProvenanceService::Create(std::move(spec)).value();
//
//   // Views are registered once; compilation, labeling (per ViewLabelMode)
//   // and decoders are cached behind cheap handles.
//   ViewHandle view = service->RegisterView(my_view).value();
//
//   // A session labels one run online while it derives.
//   auto session = service->BeginRun();
//   session->Apply(session->run().start_instance(), p1);
//   ...
//   bool dep = session->Depends(view, d1, d2).value();
//
//   // Sessions freeze into position-independent snapshots.
//   ProvenanceIndex index = session->Snapshot();
//   std::vector<bool> answers =
//       service->DependsMany(view, index, queries).value();
//
// Ownership: the service owns its Specification, ProductionGraph and every
// compiled/labeled view artifact; sessions share ownership of the service,
// so no raw-pointer lifetime contracts leak into user code.
//
// Thread safety: the view registry is internally synchronized — view
// registration, the lazy per-mode label/decoder caches, and queries may be
// called concurrently from any number of threads without external locking
// (bench_service_throughput measures the lock's overhead on the
// one-at-a-time path). Individual *sessions* are still single-writer:
// concurrent Apply calls on one session require external synchronization,
// but distinct sessions are independent. Every query, batch ones included,
// runs on the calling thread; the service starts no threads of its own.

#ifndef FVL_SERVICE_PROVENANCE_SERVICE_H_
#define FVL_SERVICE_PROVENANCE_SERVICE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "fvl/core/decoder.h"
#include "fvl/core/index.h"
#include "fvl/core/run_labeler.h"
#include "fvl/core/view_label.h"
#include "fvl/run/run_generator.h"
#include "fvl/util/single_writer.h"
#include "fvl/util/status.h"
#include "fvl/util/thread_annotations.h"

namespace fvl {

class ProvenanceService;
class ProvenanceSession;

// Cheap copyable handle to a view registered with a ProvenanceService.
// Handles carry the issuing service's tag, so using one on a different
// service is kNotFound rather than a silent lookup of an unrelated view.
class ViewHandle {
 public:
  ViewHandle() = default;

  bool valid() const { return id_ >= 0; }
  int id() const { return id_; }

  friend bool operator==(ViewHandle, ViewHandle) = default;

 private:
  friend class ProvenanceService;
  ViewHandle(int id, uint64_t service_tag)
      : id_(id), service_tag_(service_tag) {}

  int id_ = -1;
  uint64_t service_tag_ = 0;
};

class ProvenanceService
    : public std::enable_shared_from_this<ProvenanceService> {
 public:
  // Checks the Thm.-8 preconditions and takes ownership of the
  // specification. Error codes: kInvalidSpecification, kImproperGrammar,
  // kNotStrictlyLinearRecursive, kUnsafeSpecification,
  // kIncompleteAssignment — one per rejected-specification class.
  [[nodiscard]] static Result<std::shared_ptr<ProvenanceService>> Create(Specification spec);

  ProvenanceService(const ProvenanceService&) = delete;
  ProvenanceService& operator=(const ProvenanceService&) = delete;

  const Specification& spec() const { return *spec_; }
  const Grammar& grammar() const { return spec_->grammar; }
  const ProductionGraph& production_graph() const { return *pg_; }
  // The true full dependency assignment λ* of the specification.
  const DependencyAssignment& true_full() const { return true_full_; }

  // --- View registry ------------------------------------------------------

  // Compiles and registers a view. Registering a structurally equal view
  // again returns the existing handle — compilation, view labeling and
  // decoder construction happen once per registered view (per mode).
  [[nodiscard]] Result<ViewHandle> RegisterView(View view) FVL_EXCLUDES(mu_);

  // §5 user-defined (grouped) views. Not deduplicated.
  [[nodiscard]] Result<ViewHandle> RegisterGroupedView(View base,
                                         std::vector<ModuleGroup> groups)
      FVL_EXCLUDES(mu_);

  // The default view (Δ, λ), registered at construction.
  ViewHandle default_view() const { return default_view_; }
  int num_views() const FVL_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return static_cast<int>(views_.size());
  }

  // The cached φv(U) for a handle; computed on first request per mode. The
  // pointer is stable for the service's lifetime.
  [[nodiscard]] Result<const ViewLabel*> LabelOf(ViewHandle handle, ViewLabelMode mode)
      FVL_EXCLUDES(mu_);
  // The cached decoding predicate π for a handle.
  [[nodiscard]] Result<const Decoder*> DecoderOf(ViewHandle handle, ViewLabelMode mode)
      FVL_EXCLUDES(mu_);
  // The compiled form of a registered regular view (kInvalidArgument for
  // grouped handles); used by oracles and projections.
  [[nodiscard]] Result<const CompiledView*> CompiledRegularView(ViewHandle handle) const
      FVL_EXCLUDES(mu_);

  // Number of ViewLabeler::Label executions performed so far — observable
  // cache-effectiveness metric (asserted by tests/service_test.cc).
  int64_t view_labelings_performed() const FVL_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return view_labelings_performed_;
  }

  // --- Sessions -----------------------------------------------------------

  // Starts labeling a new run online (Def. 10). Sessions are independent:
  // any number of concurrent runs may be labeled against one service.
  std::shared_ptr<ProvenanceSession> BeginRun();

  // Derives a random run to completion while labeling it online.
  std::shared_ptr<ProvenanceSession> GenerateLabeledRun(
      const RunGeneratorOptions& options);

  // A fresh labeler bound to this service's grammar, for callers that drive
  // OnStart/OnApply themselves (sessions are the primary interface).
  RunLabeler MakeRunLabeler() const {
    return RunLabeler(&spec_->grammar, pg_.get());
  }

  // --- Queries ------------------------------------------------------------

  // π(φr(d1), φr(d2), φv(U)) through the cached decoder. Vets both labels
  // on every call (LabelInBounds below): kInvalidArgument if either fails.
  // For labels of two different runs the answer is unspecified; it returns.
  [[nodiscard]] Result<bool> Depends(ViewHandle handle, const DataLabel& d1,
                       const DataLabel& d2,
                       ViewLabelMode mode = ViewLabelMode::kQueryEfficient);

  // Batch entry point: answers queries[i] = {d1, d2} (flat item ids into
  // `index`, ProvenanceIndex::GlobalId — for a single run, its item ids)
  // against one view. Each distinct item is decoded once per call,
  // amortizing decode cost across the batch (see
  // bench/bench_service_throughput.cc). Pairs whose ids fall in different
  // runs are false by definition — separate executions share no data flow
  // (and the predicate is only defined over labels of one parse tree) —
  // and are answered without decoding. Fails with kInvalidArgument if any
  // item id is out of range, the index was built for a different
  // specification (its codec disagrees with this service's grammar), or a
  // label it reads fails LabelInBounds before this service admits the index.
  // Decoded labels go through the index's serving cache
  // (core/serving_cache.h), so a hot item decodes once per snapshot.
  [[nodiscard]] Result<std::vector<bool>> DependsMany(
      ViewHandle handle, const ProvenanceIndex& index,
      std::span<const std::pair<int, int>> queries,
      ViewLabelMode mode = ViewLabelMode::kQueryEfficient);

  // Visibility sweep (§5): per item of `index`, in flat-id order across
  // all its runs, whether it is visible in the view's projection of the
  // item's run. Decodes every item once through one span cursor, in
  // amortized O(1) per item, leaving the cache's entries untouched; on an
  // index this service has not admitted it also vets each label, then admits.
  [[nodiscard]] Result<std::vector<bool>> VisibilitySweep(
      ViewHandle handle, const ProvenanceIndex& index,
      ViewLabelMode mode = ViewLabelMode::kQueryEfficient);

  // Memory-bounded merge of serialized indexes (FVLIDX3 or FVLMRG2 blobs,
  // in run order): each blob is parsed and appended one at a time via
  // CompactStream (core/index.h), so peak memory is O(largest input +
  // output) instead of O(sum of inputs) — the way to combine many
  // long-execution checkpoint files without materializing them all. The
  // result is bit-identical to deserializing everything and calling
  // ProvenanceIndex::Merge, and is verified against this service's
  // specification so it is immediately queryable. Error taxonomy: a blob
  // that does not parse or decode is kMalformedBlob; runs of mismatched
  // specifications (between blobs, or against this service) are
  // kInvalidArgument; an empty span yields an empty index. Never aborts on
  // untrusted input.
  [[nodiscard]] Result<ProvenanceIndex> MergeRunsStreamed(
      std::span<const std::string_view> blobs);

  // --- On-disk tier ---------------------------------------------------------
  //
  // Archive files are served without heap copies: Map() keeps the file's
  // pages as the label arena (core/index.h), and these wrappers add
  // the same codec-compatibility gate every other untrusted artifact passes
  // through, so a mapped archive is immediately queryable against this
  // service's views. Error taxonomy extends the blob one: kIo (open/stat
  // failed), kMapFailed (mmap failed), kMalformedBlob (file parsed but is
  // not a valid index), kInvalidArgument (valid index of a foreign
  // specification). Never aborts on an untrusted path or file.

  // Maps a serialized index (FVLIDX3 or FVLMRG2 file) read-only.
  [[nodiscard]] Result<ProvenanceIndex> OpenIndexFile(
      const std::string& path) const;

  // The name multi-run callers used before the index types were unified.
  [[nodiscard]] Result<ProvenanceIndex> OpenMergedIndexFile(
      const std::string& path) const {
    return OpenIndexFile(path);
  }

  // LSM-style re-merge of on-disk artifacts: maps each input (any run
  // count, any mix), folds them through CompactStream (core/index.h) so
  // peak heap is O(largest input tail + output) — input arenas are read
  // straight from their mappings, never materialized — and writes the
  // compacted archive to `output_path`. Returns the compacted index
  // heap-backed and ready to serve (callers wanting the file-served form
  // re-open via OpenIndexFile). Inputs are annotated "input N: " in
  // errors. The output is written to a temporary file beside it and
  // renamed over it (util/file.h WriteFileReplacing), so an index already
  // mapped from `output_path` keeps serving its old contents, and a failed
  // write is kIo and leaves the previous file intact.
  [[nodiscard]] Result<ProvenanceIndex> CompactFiles(
      std::span<const std::string> input_paths,
      const std::string& output_path) const;

 private:
  friend class ProvenanceSession;  // snapshots come back admitted
  struct ViewEntry {
    // Exactly one of regular/grouped is set; the registry dedups regular
    // views against CompiledView::view().
    std::optional<CompiledView> regular;
    std::optional<GroupedView> grouped;
    // Lazily built, one slot per ViewLabelMode; unique_ptr for address
    // stability (decoders point at their label).
    std::array<std::unique_ptr<ViewLabel>, 3> labels;
    std::array<std::unique_ptr<Decoder>, 3> decoders;
  };

  ProvenanceService();

  // Registry lookups; `mu_` must be held (every public entry point takes
  // it once, so internal code never locks twice) — machine-checked via
  // FVL_REQUIRES in the thread-safety CI lane.
  [[nodiscard]] Result<const ViewEntry*> EntryOf(ViewHandle handle) const
      FVL_REQUIRES(mu_);
  [[nodiscard]] Result<ViewEntry*> EntryOf(ViewHandle handle) FVL_REQUIRES(mu_);
  // Linear dedup scan of the registered regular views (RegisterView runs
  // it before and after compiling, so a racing equal registration loses
  // cleanly); -1 when absent.
  int FindRegularViewLocked(const View& wanted) const FVL_REQUIRES(mu_);
  // The one compatibility criterion between this service and any labeled
  // artifact (indexes and streamed-merge inputs): the artifact's codec
  // must equal the grammar's. Every entry point that accepts untrusted
  // artifacts funnels through it, so tightening the criterion cannot miss
  // a path.
  [[nodiscard]] Status CheckCodecCompatible(const LabelCodec& codec,
                              const char* artifact) const;
  [[nodiscard]] Status CheckIndexCompatible(const ProvenanceIndex& index) const;
  // An index over a store this service's labeler wrote, admitted as made.
  ProvenanceIndex AdmittedIndex(LabelStore store) const;
  // Appends one CompactStream input (a blob or a mapped file), prefixing
  // errors with "<noun> <i>: ", and vets the stream's codec against this
  // service the moment an input pins it — the stream holds every later
  // input to that codec, so a foreign batch fails after its first input
  // instead of after the full merge.
  template <typename Input>
  [[nodiscard]] Status AppendVetted(CompactStream* stream, Input input,
                                    const char* noun, size_t i) const;
  // Whether every decoded field indexes inside this grammar's tables; the
  // decoder reads matrices unchecked in release builds, so untrusted labels
  // are vetted here. The check walks each side's path through the grammar
  // (edge by edge, tracking the current module), so production/position/
  // cycle/start fields are validated against the *module they apply to* and
  // the port against that module's own arity — not just the global maxima.
  bool LabelInBounds(const DataLabel& label) const;
  const ViewLabel& BuildLabel(ViewEntry& entry, ViewLabelMode mode)
      FVL_REQUIRES(mu_);

  std::unique_ptr<const Specification> spec_;
  std::unique_ptr<ProductionGraph> pg_;  // refers into *spec_
  DependencyAssignment true_full_;

  // Guards the view registry: `views_` growth, the lazy label/decoder
  // slots, and the labeling counter. Immutable state (spec_, pg_,
  // true_full_, tag_, default_view_ — all written before the service is
  // published) is lock-free; entry pointers are stable once published, so
  // queries only hold the lock for registry lookups. The lazy slots inside
  // a ViewEntry are mutated under mu_ too, but live one indirection away
  // from this class, so the guard there is convention plus TSan rather
  // than an annotation.
  mutable Mutex mu_;
  std::vector<std::unique_ptr<ViewEntry>> views_ FVL_GUARDED_BY(mu_);
  ViewHandle default_view_;
  int64_t view_labelings_performed_ FVL_GUARDED_BY(mu_) = 0;
  uint64_t tag_;  // process-unique tag stamped into handles and admissions
};

// One run labeled online (Def. 10). Obtained from
// ProvenanceService::BeginRun; keeps its service alive.
//
// Sessions are single-writer: concurrent mutating calls (Apply,
// SnapshotDelta) on one session require external synchronization — the
// server's per-session mutex (net/server.cc SessionEntry) is the canonical
// shape. The contract is *enforced*, not just documented: overlapping
// writers hit a SingleWriterGuard FVL_CHECK, so the misuse aborts
// deterministically instead of corrupting the run
// (tests/concurrency_stress_test.cc).
class ProvenanceSession {
 public:
  const Run& run() const { return run_; }
  const RunLabeler& labeler() const { return labeler_; }
  const std::shared_ptr<ProvenanceService>& service() const {
    return service_;
  }

  int num_items() const { return run_.num_items(); }
  bool complete() const { return run_.IsComplete(); }

  // φr(d) — assigned (and encoded into the session's live LabelStore) the
  // moment the item appeared; immutable afterwards, decoded on demand.
  DataLabel Label(int item) const { return labeler_.Label(item); }
  int64_t LabelBits(int item) const { return labeler_.LabelBits(item); }

  // Applies one derivation step and labels the items it creates. Fails with
  // kInvalidArgument (instead of aborting like Run::Apply) when the
  // instance/production pair is not applicable. Returns the recorded step
  // by value — references into the growing run do not survive later steps.
  [[nodiscard]] Result<DerivationStep> Apply(int instance, ProductionId production);

  // Constant-time query from labels alone, against a registered view.
  [[nodiscard]] Result<bool> Depends(ViewHandle view, int item1, int item2,
                       ViewLabelMode mode = ViewLabelMode::kQueryEfficient);

  // Freezes the labels assigned so far into a position-independent,
  // serializable snapshot: the session's live LabelStore is copied (one
  // arena memcpy — no label is re-encoded). The session may keep deriving
  // afterwards. Cost is O(run); Snapshot() does not move the incremental
  // freeze watermark.
  ProvenanceIndex Snapshot() const;

  // Incremental counterpart of Snapshot() for mid-run checkpointing of
  // long executions (§2.3): freezes only the labels appended since the
  // previous SnapshotDelta into a partial index and advances the freeze
  // watermark — O(delta) work and space where Snapshot() is O(run). Item i
  // of the returned delta is run item `w + i`, where w was frozen_items()
  // before the call; ProvenanceIndex::FromDeltas reassembles consecutive
  // deltas into an index bit-identical to a full Snapshot() taken at the
  // same point. A call with no new labels yields an empty (zero-item)
  // delta.
  ProvenanceIndex SnapshotDelta();

  // The freeze watermark: run items [0, frozen_items()) have already been
  // returned by previous SnapshotDelta calls.
  int frozen_items() const { return labeler_.frozen_items(); }

 private:
  friend class ProvenanceService;

  // Fresh run.
  explicit ProvenanceSession(std::shared_ptr<ProvenanceService> service);
  // Adopts an already-derived, already-labeled run.
  ProvenanceSession(std::shared_ptr<ProvenanceService> service, Run run,
                    RunLabeler labeler);

  std::shared_ptr<ProvenanceService> service_;
  Run run_;
  RunLabeler labeler_;
  // Aborts when two unsynchronized writers overlap (see class comment).
  internal::SingleWriterGuard write_guard_;
};

}  // namespace fvl

#endif  // FVL_SERVICE_PROVENANCE_SERVICE_H_
