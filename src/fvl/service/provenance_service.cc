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
#include "fvl/util/thread_pool.h"
#include "fvl/workflow/properness.h"

namespace fvl {

namespace {
std::atomic<uint64_t> next_service_tag{1};
}  // namespace

ProvenanceService::ProvenanceService()
    : tag_(next_service_tag.fetch_add(1, std::memory_order_relaxed)) {}

Result<std::shared_ptr<ProvenanceService>> ProvenanceService::Create(
    Specification spec) {
  return Finish(std::make_shared<const Specification>(std::move(spec)));
}

Result<std::shared_ptr<ProvenanceService>> ProvenanceService::CreateUnowned(
    const Specification* spec) {
  // Aliasing shared_ptr with no control block: the caller owns *spec.
  return Finish(std::shared_ptr<const Specification>(
      std::shared_ptr<const Specification>(), spec));
}

Result<std::shared_ptr<ProvenanceService>> ProvenanceService::Finish(
    std::shared_ptr<const Specification> spec) {
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
  LabeledRun labeled = DeriveLabeledRun(options);
  return std::shared_ptr<ProvenanceSession>(
      new ProvenanceSession(shared_from_this(), std::move(labeled.run),
                            std::move(labeled.labeler)));
}

ProvenanceService::LabeledRun ProvenanceService::DeriveLabeledRun(
    const RunGeneratorOptions& options) const {
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
  return {std::move(run), std::move(labeler)};
}

Result<bool> ProvenanceService::Depends(ViewHandle handle, const DataLabel& d1,
                                        const DataLabel& d2,
                                        ViewLabelMode mode) {
  Result<const Decoder*> decoder = DecoderOf(handle, mode);
  if (!decoder.ok()) return decoder.status();
  return (*decoder)->Depends(d1, d2);
}

Result<std::vector<bool>> ProvenanceService::BatchDepends(
    ViewHandle handle, const LabelStore& store,
    std::span<const std::pair<int, int>> queries, ViewLabelMode mode,
    ServingCache* cache) {
  Result<const Decoder*> decoder = DecoderOf(handle, mode);
  if (!decoder.ok()) return decoder.status();
  const int num_items = store.total_items();

  for (const auto& [d1, d2] : queries) {
    if (d1 < 0 || d1 >= num_items || d2 < 0 || d2 >= num_items) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           "query item (" + std::to_string(d1) + ", " +
                               std::to_string(d2) + ") out of range [0, " +
                               std::to_string(num_items) + ")");
    }
  }

  const int threads = query_threads();
  const int view_id = handle.id();
  std::vector<char> answers(queries.size(), 0);

  // Memo pass: a pair across two groups (runs) is false by definition and
  // a hot (view, src, dst) pair replays its answer — neither touches labels
  // or the decoder, nor adds a memo entry. A memo hit is safe to satisfy
  // queries from — an entry exists only for pairs this snapshot already
  // answered, over labels that already passed vetting, so the uncached
  // path would recompute the identical bit (and could not have errored on
  // those items either).
  const bool grouped = store.num_groups() > 1;
  std::vector<size_t> pending;
  pending.reserve(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    bool memoized = false;
    if (grouped && store.GroupOf(queries[q].first) !=
                       store.GroupOf(queries[q].second)) {
      continue;  // answers[q] stays false
    }
    if (cache != nullptr &&
        cache->LookupReach(
            ReachMemoKey{tag_, view_id, static_cast<int32_t>(mode),
                         queries[q].first, queries[q].second},
            &memoized)) {
      answers[q] = memoized ? 1 : 0;
    } else {
      pending.push_back(q);
    }
  }

  // Decode each item distinct among the pending queries once for the whole
  // batch — through the snapshot's label cache when present, so a hot item
  // is decoded once per *snapshot*, not once per batch. Scratch is sized by
  // the batch (hash map, node-stable references) unless the batch covers a
  // good fraction of the snapshot, where the flat table's O(1) lookups win
  // — and where the decode loop can shard across fork-join workers
  // (util/thread_pool.h; the table is per-call and read-only once filled).
  const bool dense = pending.size() * 4 >= static_cast<size_t>(num_items);
  std::vector<DataLabel> decoded(dense ? num_items : 0);
  std::vector<char> needed(dense ? num_items : 0, 0);
  std::unordered_map<int, DataLabel> sparse;
  std::atomic<bool> in_bounds{true};
  // Cache-aware decode of one item, walking the store's span streams
  // through the caller's cursor (per shard, so sequential ids amortize the
  // span scan to O(1)). Labels enter the cache only after LabelInBounds,
  // keyed by this service's tag (vetting is grammar-specific, so another
  // service's entries are misses here) — a hit is exactly a label this
  // service's uncached path would have decoded and accepted, and hits skip
  // re-vetting.
  auto fetch = [&](LabelStore::SpanCursor* cursor, int item, DataLabel* out) {
    if (cache != nullptr && cache->LookupLabel(tag_, item, out)) return;
    *out = cursor->DecodeAt(item);
    if (!LabelInBounds(*out)) {
      in_bounds.store(false, std::memory_order_relaxed);
      return;
    }
    if (cache != nullptr) cache->InsertLabel(tag_, item, *out);
  };
  if (dense) {
    for (size_t q : pending) {
      needed[queries[q].first] = needed[queries[q].second] = 1;
    }
    ParallelFor(num_items, threads, [&](int64_t begin, int64_t end) {
      LabelStore::SpanCursor cursor(store);
      for (int64_t item = begin; item < end; ++item) {
        if (!needed[item]) continue;
        fetch(&cursor, static_cast<int>(item), &decoded[item]);
      }
    });
  } else {
    LabelStore::SpanCursor cursor(store);
    for (size_t q : pending) {
      for (int item : {queries[q].first, queries[q].second}) {
        auto [it, inserted] = sparse.try_emplace(item);
        if (inserted) fetch(&cursor, item, &it->second);
      }
    }
  }
  if (!in_bounds.load(std::memory_order_relaxed)) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         "index label fields are out of range for this "
                         "service's grammar");
  }

  // Predicate/answer loop, sharded like the decode loop (shards write
  // disjoint answer bytes; the decoder and decode tables are read-only
  // here) — a fully label-cached batch still scales with query_threads()
  // even though no decode work is left.
  auto label_at = [&](int item) -> const DataLabel& {
    return dense ? decoded[item] : sparse.find(item)->second;
  };
  ParallelFor(static_cast<int64_t>(pending.size()), threads,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  const size_t q = pending[i];
                  const auto [d1, d2] = queries[q];
                  const bool answer =
                      (*decoder)->Depends(label_at(d1), label_at(d2));
                  answers[q] = answer ? 1 : 0;
                  if (cache != nullptr) {
                    cache->InsertReach(
                        ReachMemoKey{tag_, view_id,
                                     static_cast<int32_t>(mode), d1, d2},
                        answer);
                  }
                }
              });
  return std::vector<bool>(answers.begin(), answers.end());
}

Result<std::vector<bool>> ProvenanceService::DependsMany(
    ViewHandle handle, const ProvenanceIndex& index,
    std::span<const std::pair<int, int>> queries, ViewLabelMode mode) {
  if (Status status = CheckIndexCompatible(index); !status.ok()) {
    return status;
  }
  return BatchDepends(handle, index.store(), queries, mode, CacheFor(index));
}

Result<std::vector<bool>> ProvenanceService::QueryAcrossRuns(
    ViewHandle handle, const ProvenanceIndex& index,
    std::span<const std::pair<RunItem, RunItem>> queries, ViewLabelMode mode) {
  // Map (run, item) addresses to flat ids up front; DependsMany then
  // decodes each distinct flat id once regardless of which runs the batch
  // touches.
  std::vector<std::pair<int, int>> flat;
  flat.reserve(queries.size());
  auto flat_id = [&index](RunItem address, int* out) {
    if (address.run < 0 || address.run >= index.num_runs() ||
        address.item < 0 || address.item >= index.num_items(address.run)) {
      return false;
    }
    *out = index.GlobalId(address.run, address.item);
    return true;
  };
  for (const auto& [a, b] : queries) {
    std::pair<int, int> ids;
    if (!flat_id(a, &ids.first) || !flat_id(b, &ids.second)) {
      return Status::Error(
          ErrorCode::kInvalidArgument,
          "query address (run " + std::to_string(a.run) + " item " +
              std::to_string(a.item) + ", run " + std::to_string(b.run) +
              " item " + std::to_string(b.item) +
              ") out of range for an index of " +
              std::to_string(index.num_runs()) + " runs");
    }
    flat.push_back(ids);
  }
  return DependsMany(handle, index, flat, mode);
}

bool ProvenanceService::LabelInBounds(const DataLabel& label) const {
  const Grammar& grammar = spec_->grammar;
  // Walks one side's path from the root, tracking the module each edge
  // lands on (exactly how CompressedParseTree assigns paths), so every
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

Result<std::vector<bool>> ProvenanceService::SweepVisibility(
    ViewHandle handle, const LabelStore& store, ViewLabelMode mode,
    ServingCache* cache) {
  Result<const ViewLabel*> label = LabelOf(handle, mode);
  if (!label.ok()) return label.status();
  const int num_items = store.total_items();
  // Decode + bounds-check + visibility per item, sharded across fork-join
  // workers (the view label is read-only; shards write disjoint bytes) and
  // walking each shard's contiguous item range through its own span cursor.
  // Items resident in the snapshot's label cache skip decode and re-vetting
  // (cached labels passed *this* service's LabelInBounds when they entered —
  // the cache key carries the vetting service's tag).
  std::vector<char> per_item(num_items, 0);
  std::atomic<bool> in_bounds{true};
  ParallelFor(num_items, query_threads(), [&](int64_t begin, int64_t end) {
    bool shard_ok = true;
    LabelStore::SpanCursor cursor(store);
    for (int64_t item = begin; item < end; ++item) {
      DataLabel item_label;
      if (cache == nullptr ||
          !cache->LookupLabel(tag_, static_cast<int>(item), &item_label)) {
        item_label = cursor.DecodeAt(static_cast<int>(item));
        if (!LabelInBounds(item_label)) {
          shard_ok = false;
          break;
        }
        if (cache != nullptr) {
          cache->InsertLabel(tag_, static_cast<int>(item), item_label);
        }
      }
      per_item[item] = IsItemVisible(item_label, **label) ? 1 : 0;
    }
    if (!shard_ok) in_bounds.store(false, std::memory_order_relaxed);
  });
  if (!in_bounds.load(std::memory_order_relaxed)) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         "index label fields are out of range for this "
                         "service's grammar");
  }
  return std::vector<bool>(per_item.begin(), per_item.end());
}

Result<std::vector<bool>> ProvenanceService::VisibilitySweep(
    ViewHandle handle, const ProvenanceIndex& index, ViewLabelMode mode) {
  if (Status status = CheckIndexCompatible(index); !status.ok()) {
    return status;
  }
  return SweepVisibility(handle, index.store(), mode, CacheFor(index));
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
    BlobReader reader(std::move(source).value());
    if (Status status = AppendVetted(&stream, &reader, "input", i);
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
  return ProvenanceIndex(labeler_.store());
}

ProvenanceIndex ProvenanceSession::SnapshotDelta() {
  // Moves the freeze watermark — a write, under the single-writer contract
  // like Apply (net/server.cc holds its per-session mutex around both).
  internal::SingleWriterScope writer(&write_guard_);
  // The live arena is append-only, so the labels since the last freeze are
  // one contiguous bit range at its end: extracting them costs O(delta),
  // which is what makes mid-run checkpointing of long executions viable.
  return ProvenanceIndex(labeler_.FreezeDelta());
}

}  // namespace fvl
