#include "fvl/service/provenance_service.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <unordered_map>
#include <utility>

#include "fvl/core/index.h"
#include "fvl/core/visibility.h"
#include "fvl/util/blob_source.h"
#include "fvl/util/check.h"
#include "fvl/util/file.h"
#include "fvl/workflow/properness.h"

namespace fvl {

namespace {
std::atomic<uint64_t> next_service_tag{1};

// The one error Depends, DependsMany and VisibilitySweep return when a
// label fails vetting.
Status OutOfGrammarLabels() {
  return Status::Error(ErrorCode::kInvalidArgument,
                       "index label fields are out of range for this "
                       "service's grammar");
}
}  // namespace

ProvenanceService::ProvenanceService()
    : tag_(next_service_tag.fetch_add(1, std::memory_order_relaxed)) {}

Result<std::shared_ptr<ProvenanceService>> ProvenanceService::Create(
    Specification owned) {
  auto spec = std::make_unique<const Specification>(std::move(owned));
  // Thm.-8 preconditions, each with its own error code.
  if (auto validation = spec->Validate()) {
    return Status::Error(ErrorCode::kInvalidSpecification, *validation);
  }
  PropernessReport properness = AnalyzeProperness(spec->grammar);
  if (!properness.IsProper(spec->grammar)) {
    return Status::Error(
        ErrorCode::kImproperGrammar,
        "grammar is not proper:\n" + properness.Describe(spec->grammar));
  }
  auto pg = std::make_unique<ProductionGraph>(&spec->grammar);
  if (!pg->strictly_linear()) {
    return Status::Error(
        ErrorCode::kNotStrictlyLinearRecursive,
        "grammar is not strictly linear-recursive (Thm. 8 precondition)");
  }
  Result<DependencyAssignment> safety =
      CheckSafety(spec->grammar, spec->deps);
  if (!safety.ok()) return safety.status();

  std::shared_ptr<ProvenanceService> service(new ProvenanceService());
  service->spec_ = std::move(spec);
  service->pg_ = std::move(pg);
  service->true_full_ = std::move(safety).value();

  Result<ViewHandle> default_view =
      service->RegisterView(MakeDefaultView(service->spec()));
  if (!default_view.ok()) return default_view.status();
  service->default_view_ = default_view.value();
  return service;
}

int ProvenanceService::FindRegularViewLocked(const View& wanted) const {
  for (int id = 0; id < static_cast<int>(views_.size()); ++id) {
    if (views_[id]->regular.has_value() &&
        views_[id]->regular->view() == wanted) {
      return id;
    }
  }
  return -1;
}

Result<ViewHandle> ProvenanceService::RegisterView(View view) {
  // Registry hit: structurally equal views share one entry, so compilation
  // and labeling happen once.
  {
    MutexLock lock(&mu_);
    if (int id = FindRegularViewLocked(view); id >= 0) {
      return ViewHandle(id, tag_);
    }
  }

  // Compile outside the lock — an arbitrary view compilation must not
  // stall concurrent queries on the registry mutex.
  Result<CompiledView> compiled =
      CompiledView::Compile(spec_->grammar, std::move(view));
  if (!compiled.ok()) return compiled.status();

  MutexLock lock(&mu_);
  // Re-scan: another thread may have registered the same view meanwhile
  // (the loser's compilation is discarded, keeping handles deduplicated).
  if (int id = FindRegularViewLocked(compiled->view()); id >= 0) {
    return ViewHandle(id, tag_);
  }
  auto entry = std::make_unique<ViewEntry>();
  entry->regular = std::move(compiled).value();
  views_.push_back(std::move(entry));
  return ViewHandle(static_cast<int>(views_.size()) - 1, tag_);
}

Result<ViewHandle> ProvenanceService::RegisterGroupedView(
    View base, std::vector<ModuleGroup> groups) {
  Result<GroupedView> compiled =
      GroupedView::Compile(spec_->grammar, std::move(base), std::move(groups));
  if (!compiled.ok()) return compiled.status();

  MutexLock lock(&mu_);
  auto entry = std::make_unique<ViewEntry>();
  entry->grouped = std::move(compiled).value();
  views_.push_back(std::move(entry));
  return ViewHandle(static_cast<int>(views_.size()) - 1, tag_);
}

Result<const ProvenanceService::ViewEntry*> ProvenanceService::EntryOf(
    ViewHandle handle) const {
  if (!handle.valid() || handle.service_tag_ != tag_ ||
      handle.id() >= static_cast<int>(views_.size())) {
    return Status::Error(ErrorCode::kNotFound,
                         "view handle " + std::to_string(handle.id()) +
                             " was not issued by this service");
  }
  return views_[handle.id()].get();
}

Result<ProvenanceService::ViewEntry*> ProvenanceService::EntryOf(
    ViewHandle handle) {
  Result<const ViewEntry*> entry = std::as_const(*this).EntryOf(handle);
  if (!entry.ok()) return entry.status();
  return const_cast<ViewEntry*>(*entry);
}

const ViewLabel& ProvenanceService::BuildLabel(ViewEntry& entry,
                                               ViewLabelMode mode) {
  auto& slot = entry.labels[static_cast<int>(mode)];
  if (slot == nullptr) {
    ViewLabeler labeler(&spec_->grammar, pg_.get());
    slot = std::make_unique<ViewLabel>(
        entry.regular.has_value() ? labeler.Label(*entry.regular, mode)
                                  : labeler.Label(*entry.grouped, mode));
    ++view_labelings_performed_;
  }
  return *slot;
}

Result<const ViewLabel*> ProvenanceService::LabelOf(ViewHandle handle,
                                                    ViewLabelMode mode) {
  MutexLock lock(&mu_);
  Result<ViewEntry*> entry = EntryOf(handle);
  if (!entry.ok()) return entry.status();
  return &BuildLabel(**entry, mode);
}

Result<const Decoder*> ProvenanceService::DecoderOf(ViewHandle handle,
                                                    ViewLabelMode mode) {
  MutexLock lock(&mu_);
  Result<ViewEntry*> entry = EntryOf(handle);
  if (!entry.ok()) return entry.status();
  auto& slot = (*entry)->decoders[static_cast<int>(mode)];
  if (slot == nullptr) {
    slot = std::make_unique<Decoder>(&BuildLabel(**entry, mode));
  }
  return slot.get();
}

Result<const CompiledView*> ProvenanceService::CompiledRegularView(
    ViewHandle handle) const {
  MutexLock lock(&mu_);
  Result<const ViewEntry*> entry = EntryOf(handle);
  if (!entry.ok()) return entry.status();
  if (!(*entry)->regular.has_value()) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         "handle refers to a §5 grouped view");
  }
  return &*(*entry)->regular;
}

std::shared_ptr<ProvenanceSession> ProvenanceService::BeginRun() {
  return std::shared_ptr<ProvenanceSession>(
      new ProvenanceSession(shared_from_this()));
}

std::shared_ptr<ProvenanceSession> ProvenanceService::GenerateLabeledRun(
    const RunGeneratorOptions& options) {
  RunLabeler labeler = MakeRunLabeler();
  Run run = GenerateRandomRun(
      spec_->grammar, options,
      [&labeler](const Run& current, const DerivationStep* step) {
        if (step == nullptr) {
          labeler.OnStart(current);
        } else {
          labeler.OnApply(current, *step);
        }
      });
  return std::shared_ptr<ProvenanceSession>(new ProvenanceSession(
      shared_from_this(), std::move(run), std::move(labeler)));
}

Result<bool> ProvenanceService::Depends(ViewHandle handle, const DataLabel& d1,
                                        const DataLabel& d2,
                                        ViewLabelMode mode) {
  Result<const Decoder*> decoder = DecoderOf(handle, mode);
  if (!decoder.ok()) return decoder.status();
  if (!LabelInBounds(d1) || !LabelInBounds(d2)) return OutOfGrammarLabels();
  return (*decoder)->Depends(d1, d2);
}

Result<std::vector<bool>> ProvenanceService::DependsMany(
    ViewHandle handle, const ProvenanceIndex& index,
    std::span<const std::pair<int, int>> queries, ViewLabelMode mode) {
  if (Status status = CheckIndexCompatible(index); !status.ok()) {
    return status;
  }
  Result<const Decoder*> decoder = DecoderOf(handle, mode);
  if (!decoder.ok()) return decoder.status();
  const LabelStore& store = index.store();
  const int num_items = store.total_items();

  for (const auto& [d1, d2] : queries) {
    if (d1 < 0 || d1 >= num_items || d2 < 0 || d2 >= num_items) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           "query item (" + std::to_string(d1) + ", " +
                               std::to_string(d2) + ") out of range [0, " +
                               std::to_string(num_items) + ")");
    }
  }

  // A pair across two groups (runs) is false by definition: it touches
  // neither labels nor the decoder.
  std::vector<bool> answers(queries.size(), false);
  const bool grouped = store.num_groups() > 1;
  std::vector<size_t> pending;
  pending.reserve(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    if (grouped && store.GroupOf(queries[q].first) !=
                       store.GroupOf(queries[q].second)) {
      continue;  // answers[q] stays false
    }
    pending.push_back(q);
  }
  if (pending.empty()) return answers;
  // A pending pair means the index has items, so it carries a cache.
  ServingCache& cache = *index.serving_cache();
  const bool vet = cache.admitted_by() != tag_;

  // Decode each item distinct among the pending queries once for the whole
  // batch — through the snapshot's label cache, so a hot item is decoded
  // once per *snapshot*, not once per batch. Scratch is sized by the batch
  // (hash map, node-stable references) unless the batch covers a good
  // fraction of the snapshot, where the flat table's O(1) lookups and one
  // ascending walk of the store win.
  const bool dense = pending.size() * 4 >= static_cast<size_t>(num_items);
  std::vector<DataLabel> decoded(dense ? num_items : 0);
  std::vector<char> needed(dense ? num_items : 0, 0);
  std::unordered_map<int, DataLabel> sparse;
  LabelStore::SpanCursor cursor(store);
  // Cache-aware decode of one item through the batch's one cursor, so
  // sequential ids amortize the span scan to O(1). Until this service has
  // admitted the index, every label read is vetted, hit or miss: an entry
  // is the arena's label whichever service decoded it, and another
  // service's vetting proves nothing here. False on a label that fails.
  auto fetch = [&](int item, DataLabel* out) {
    if (cache.LookupLabel(item, out)) return !vet || LabelInBounds(*out);
    cursor.DecodeAt(item, out);
    if (vet && !LabelInBounds(*out)) return false;
    cache.InsertLabel(item, *out);
    return true;
  };
  if (dense) {
    for (size_t q : pending) {
      needed[queries[q].first] = needed[queries[q].second] = 1;
    }
    for (int item = 0; item < num_items; ++item) {
      if (needed[item] && !fetch(item, &decoded[item])) {
        return OutOfGrammarLabels();
      }
    }
  } else {
    for (size_t q : pending) {
      for (int item : {queries[q].first, queries[q].second}) {
        auto [it, inserted] = sparse.try_emplace(item);
        if (inserted && !fetch(item, &it->second)) {
          return OutOfGrammarLabels();
        }
      }
    }
  }

  auto label_at = [&](int item) -> const DataLabel& {
    return dense ? decoded[item] : sparse.find(item)->second;
  };
  for (size_t q : pending) {
    const auto [d1, d2] = queries[q];
    answers[q] = (*decoder)->Depends(label_at(d1), label_at(d2));
  }
  cache.CountEvaluations(pending.size());
  return answers;
}

bool ProvenanceService::LabelInBounds(const DataLabel& label) const {
  const Grammar& grammar = spec_->grammar;
  // Walks one side's path from the root, tracking the module each edge
  // lands on (exactly how RunLabeler::OnApply extends paths), so every
  // field is validated against the grammar tables the decoder will index
  // with it — and the final port against the arity of the module that
  // created it, not the global maximum.
  auto side_ok = [&](const std::optional<PortLabel>& side,
                     bool producer) -> bool {
    if (!side.has_value()) return true;
    ModuleId module = grammar.start();
    for (const EdgeLabel& e : side->path) {
      if (e.kind == EdgeLabel::Kind::kProduction) {
        if (e.production < 0 || e.production >= grammar.num_productions()) {
          return false;
        }
        const Production& p = grammar.production(e.production);
        // The production must expand the module the path has reached.
        if (p.lhs != module) return false;
        if (e.position < 0 ||
            e.position >= static_cast<int>(p.rhs.members.size())) {
          return false;
        }
        module = p.rhs.members[e.position];
      } else {
        if (e.cycle < 0 || e.cycle >= pg_->num_cycles()) return false;
        const ProductionGraph::Cycle& cycle = pg_->cycle(e.cycle);
        if (e.start < 0 || e.start >= cycle.length() || e.iteration < 1) {
          return false;
        }
        // A recursion node for (cycle, start) only hangs off the module
        // that starts that unfolding; the i-th unfolded member is i-1 cycle
        // steps further along.
        if (pg_->CycleOf(module) != e.cycle ||
            pg_->CycleStartIndex(module) != e.start) {
          return false;
        }
        module = cycle.members[static_cast<size_t>(
            (e.start + e.iteration - 1) % cycle.length())];
      }
    }
    const Module& m = grammar.module(module);
    const int arity = producer ? m.num_outputs : m.num_inputs;
    return side->port >= 0 && side->port < arity;
  };
  return side_ok(label.producer, /*producer=*/true) &&
         side_ok(label.consumer, /*producer=*/false);
}

Status ProvenanceService::CheckCodecCompatible(const LabelCodec& codec,
                                               const char* artifact) const {
  // Labels from an artifact built for another specification would feed
  // out-of-range production/cycle ids into the decoder's matrices. The
  // codec widths are derived from the production graph, so a mismatch
  // catches any artifact whose grammar differs structurally.
  if (!(codec == LabelCodec(*pg_))) {
    return Status::Error(
        ErrorCode::kInvalidArgument,
        std::string(artifact) +
            " was not built for this service's specification");
  }
  return Status::Ok();
}

Status ProvenanceService::CheckIndexCompatible(
    const ProvenanceIndex& index) const {
  // An index of zero runs carries no labels (nor a codec) at all, so it is
  // vacuously compatible; queries against it can only return empty results.
  if (index.num_runs() == 0) return Status::Ok();
  return CheckCodecCompatible(index.codec(), "index");
}

ProvenanceIndex ProvenanceService::AdmittedIndex(LabelStore store) const {
  ProvenanceIndex index(std::move(store));
  if (ServingCache* cache = index.serving_cache()) cache->RecordAdmission(tag_);
  return index;
}

template <typename Input>
Status ProvenanceService::AppendVetted(CompactStream* stream, Input input,
                                       const char* noun, size_t i) const {
  const std::string name = std::string(noun) + " " + std::to_string(i);
  const bool pinned = stream->num_runs() > 0;
  if (Status status = stream->Append(input); !status.ok()) {
    return Status::Error(status.code(), name + ": " + status.message());
  }
  if (pinned || stream->num_runs() == 0) return Status::Ok();
  return CheckCodecCompatible(stream->codec(), name.c_str());
}

Result<std::vector<bool>> ProvenanceService::VisibilitySweep(
    ViewHandle handle, const ProvenanceIndex& index, ViewLabelMode mode) {
  if (Status status = CheckIndexCompatible(index); !status.ok()) {
    return status;
  }
  Result<const ViewLabel*> label = LabelOf(handle, mode);
  if (!label.ok()) return label.status();
  const int num_items = index.total_items();
  // Decode + bounds-check (until admitted) + visibility per item, walking
  // the store in flat-id order through one span cursor (amortized O(1) per
  // item) into one reused label, so the sweep allocates nothing per item.
  // It bypasses the label cache: it touches each item once, so it could
  // rarely hit, and its inserts would evict the point-query hot set.
  ServingCache* cache = index.serving_cache();
  const bool vet = cache != nullptr && cache->admitted_by() != tag_;
  std::vector<bool> visible(num_items, false);
  LabelStore::SpanCursor cursor(index.store());
  DataLabel item_label;
  for (int item = 0; item < num_items; ++item) {
    cursor.DecodeAt(item, &item_label);
    if (vet && !LabelInBounds(item_label)) return OutOfGrammarLabels();
    visible[item] = IsItemVisible(item_label, **label);
  }
  if (vet) cache->RecordAdmission(tag_);
  return visible;
}

Result<ProvenanceIndex> ProvenanceService::MergeRunsStreamed(
    std::span<const std::string_view> blobs) {
  CompactStream stream;
  for (size_t b = 0; b < blobs.size(); ++b) {
    if (Status status = AppendVetted(&stream, blobs[b], "blob", b);
        !status.ok()) {
      return status;
    }
  }
  return std::move(stream).Finish();
}

Result<ProvenanceIndex> ProvenanceService::OpenIndexFile(
    const std::string& path) const {
  Result<ProvenanceIndex> index = ProvenanceIndex::Map(path);
  if (!index.ok()) return index.status();
  if (Status status = CheckIndexCompatible(*index); !status.ok()) {
    return status;
  }
  return index;
}

Result<ProvenanceIndex> ProvenanceService::CompactFiles(
    std::span<const std::string> input_paths,
    const std::string& output_path) const {
  CompactStream stream;
  for (size_t i = 0; i < input_paths.size(); ++i) {
    Result<BlobSource> source = BlobSource::MapFile(input_paths[i]);
    if (!source.ok()) {
      return Status::Error(source.status().code(),
                           "input " + std::to_string(i) + ": " +
                               source.status().message());
    }
    if (Status status = AppendVetted(&stream, *source, "input", i);
        !status.ok()) {
      return status;
    }
  }
  Result<ProvenanceIndex> compacted = std::move(stream).Finish();
  if (!compacted.ok()) return compacted.status();
  if (Status status = WriteFileReplacing(output_path, compacted->Serialize());
      !status.ok()) {
    return status;
  }
  return compacted;
}

// --- ProvenanceSession -----------------------------------------------------

ProvenanceSession::ProvenanceSession(
    std::shared_ptr<ProvenanceService> service)
    : service_(std::move(service)),
      run_(&service_->grammar()),
      labeler_(service_->MakeRunLabeler()) {
  labeler_.OnStart(run_);
}

ProvenanceSession::ProvenanceSession(
    std::shared_ptr<ProvenanceService> service, Run run, RunLabeler labeler)
    : service_(std::move(service)),
      run_(std::move(run)),
      labeler_(std::move(labeler)) {}

Result<DerivationStep> ProvenanceSession::Apply(int instance,
                                                ProductionId production) {
  // Single-writer contract: a concurrent Apply/SnapshotDelta on this
  // session aborts here instead of corrupting the run.
  internal::SingleWriterScope writer(&write_guard_);
  if (instance < 0 || instance >= run_.num_instances()) {
    return Status::Error(
        ErrorCode::kInvalidArgument,
        "instance " + std::to_string(instance) + " out of range");
  }
  if (run_.IsExpanded(instance)) {
    return Status::Error(
        ErrorCode::kInvalidArgument,
        "instance " + std::to_string(instance) + " is already expanded");
  }
  if (production < 0 || production >= service_->grammar().num_productions()) {
    return Status::Error(
        ErrorCode::kInvalidArgument,
        "production " + std::to_string(production) + " out of range");
  }
  ModuleId type = run_.instance(instance).type;
  if (service_->grammar().production(production).lhs != type) {
    return Status::Error(
        ErrorCode::kInvalidArgument,
        "production " + std::to_string(production) +
            " does not expand module '" +
            service_->grammar().module(type).name + "'");
  }
  const DerivationStep& step = run_.Apply(instance, production);
  labeler_.OnApply(run_, step);
  return step;
}

Result<bool> ProvenanceSession::Depends(ViewHandle view, int item1, int item2,
                                        ViewLabelMode mode) {
  if (item1 < 0 || item1 >= num_items() || item2 < 0 ||
      item2 >= num_items()) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         "item (" + std::to_string(item1) + ", " +
                             std::to_string(item2) + ") out of range [0, " +
                             std::to_string(num_items()) + ")");
  }
  return service_->Depends(view, labeler_.Label(item1), labeler_.Label(item2),
                           mode);
}

ProvenanceIndex ProvenanceSession::Snapshot() const {
  // The session's live store already holds every label encoded; freezing is
  // a copy of the arena and offset tables, not a re-encode.
  return service_->AdmittedIndex(labeler_.store());
}

ProvenanceIndex ProvenanceSession::SnapshotDelta() {
  // Moves the freeze watermark — a write, under the single-writer contract
  // like Apply (net/server.cc holds its per-session mutex around both).
  internal::SingleWriterScope writer(&write_guard_);
  // The live arena is append-only, so the labels since the last freeze are
  // one contiguous bit range at its end: extracting them costs O(delta),
  // which is what makes mid-run checkpointing of long executions viable.
  return service_->AdmittedIndex(labeler_.FreezeDelta());
}

}  // namespace fvl
