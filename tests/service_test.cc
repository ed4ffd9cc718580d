// fvl::ProvenanceService: error taxonomy (one code per rejected-
// specification class), view-registry caching semantics, session-oriented
// online labeling of concurrent runs, and the batch query entry points —
// all checked against the ground-truth ProvenanceOracle.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fvl/core/decoder.h"
#include "fvl/core/visibility.h"
#include "fvl/run/provenance_oracle.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/random.h"
#include "fvl/workflow/grammar_builder.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/paper_example.h"
#include "fvl/workload/view_generator.h"

namespace fvl {
namespace {

std::shared_ptr<ProvenanceService> MakePaperService() {
  return ProvenanceService::Create(MakePaperExample().spec).value();
}

// ----- Error taxonomy: every Thm.-8 precondition has its own code. -----

TEST(ServiceErrors, InvalidSpecificationRejected) {
  Specification empty;  // no modules, no start
  Result<std::shared_ptr<ProvenanceService>> service =
      ProvenanceService::Create(std::move(empty));
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.code(), ErrorCode::kInvalidSpecification);
}

// S expands into three chained members of one atomic module with `ports`
// inputs and outputs, whose λ maps input p to outputs p and p + 1 (mod
// ports), so dependencies cross the top port.
Specification WideSpecification(int ports) {
  GrammarBuilder b;
  ModuleId s = b.AddComposite("S", ports, ports);
  ModuleId a = b.AddAtomic("a", ports, ports);
  b.SetStart(s);
  auto p = b.NewProduction(s);
  const int members[] = {p.AddMember(a), p.AddMember(a), p.AddMember(a)};
  for (int port = 0; port < ports; ++port) {
    p.MapInput(port, members[0], port).MapOutput(port, members[2], port);
    p.Edge(members[0], port, members[1], port);
    p.Edge(members[1], port, members[2], port);
  }
  p.Build();
  BoolMatrix deps(ports, ports);
  for (int port = 0; port < ports; ++port) {
    deps.Set(port, port);
    deps.Set(port, (port + 1) % ports);
  }
  DependencyAssignment lambda(b.num_modules());
  lambda.Set(a, std::move(deps));
  return Specification{b.BuildGrammar(), std::move(lambda)};
}

// The predicate holds one module side's ports in a 64-bit word: 64 ports
// are served, and answer as the oracle does; 65 are refused.
TEST(ServiceErrors, ModulesWiderThanSixtyFourPortsRejected) {
  Result<std::shared_ptr<ProvenanceService>> wide =
      ProvenanceService::Create(WideSpecification(65));
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.code(), ErrorCode::kInvalidSpecification);
  EXPECT_NE(wide.status().message().find("64"), std::string::npos);

  auto service = ProvenanceService::Create(WideSpecification(64)).value();
  auto session = service->GenerateLabeledRun(RunGeneratorOptions{});
  ASSERT_EQ(session->num_items(), 4 * 64);
  ProvenanceOracle oracle(
      session->run(),
      *service->CompiledRegularView(service->default_view()).value());
  // Every pair in Query-Efficient mode; in the slower modes, every pair
  // whose first item lies on or next to the top port.
  for (ViewLabelMode mode :
       {ViewLabelMode::kQueryEfficient, ViewLabelMode::kDefault,
        ViewLabelMode::kSpaceEfficient}) {
    for (int d1 = 0; d1 < session->num_items(); ++d1) {
      const DataLabel label = session->Label(d1);
      const int port = label.consumer.has_value() ? label.consumer->port
                                                  : label.producer->port;
      if (mode != ViewLabelMode::kQueryEfficient && port < 62) continue;
      for (int d2 = 0; d2 < session->num_items(); ++d2) {
        ASSERT_EQ(session->Depends(service->default_view(), d1, d2, mode)
                      .value(),
                  oracle.Depends(d1, d2))
            << ToString(mode) << " d1=" << d1 << " d2=" << d2;
      }
    }
  }
}

TEST(ServiceErrors, ImproperGrammarRejected) {
  // S -> [S] only: S is unproductive, so the grammar is not proper.
  GrammarBuilder b;
  ModuleId s = b.AddComposite("S", 1, 1);
  b.SetStart(s);
  auto p = b.NewProduction(s);
  int m = p.AddMember(s);
  p.MapInput(0, m, 0).MapOutput(0, m, 0);
  p.Build();
  Specification spec = b.BuildSpecification();
  Result<std::shared_ptr<ProvenanceService>> service =
      ProvenanceService::Create(std::move(spec));
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.code(), ErrorCode::kImproperGrammar);
}

TEST(ServiceErrors, NotStrictlyLinearRecursiveRejected) {
  Result<std::shared_ptr<ProvenanceService>> service =
      ProvenanceService::Create(MakeFig10Example());
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.code(), ErrorCode::kNotStrictlyLinearRecursive);
  EXPECT_NE(service.status().message().find("strictly linear"),
            std::string::npos);
}

TEST(ServiceErrors, UnsafeSpecificationRejected) {
  Result<std::shared_ptr<ProvenanceService>> service =
      ProvenanceService::Create(MakeUnsafeExample());
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.code(), ErrorCode::kUnsafeSpecification);
}

TEST(ServiceErrors, ViewErrorsKeepTheirCodes) {
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();

  // λ'(C) missing although C is visible in the grey view's Δ'.
  View incomplete;
  incomplete.expandable.assign(ex.spec.grammar.num_modules(), false);
  incomplete.expandable[ex.S] = true;
  incomplete.expandable[ex.A] = true;
  incomplete.expandable[ex.B] = true;
  incomplete.perceived = ex.spec.deps;
  EXPECT_EQ(service->RegisterView(incomplete).code(),
            ErrorCode::kIncompleteAssignment);

  // Perceived deps contradicting the A<->B recursion fixed point.
  View unsafe = ex.grey_view;
  unsafe.perceived.Set(ex.C, BoolMatrix::Identity(2));
  EXPECT_EQ(service->RegisterView(unsafe).code(), ErrorCode::kUnsafeView);

  // The start module must stay expandable.
  View improper = ex.grey_view;
  improper.expandable[ex.S] = false;
  improper.perceived = ex.spec.deps;
  improper.perceived.Set(ex.C, BoolMatrix::Full(2, 2));
  EXPECT_EQ(service->RegisterView(improper).code(), ErrorCode::kInvalidView);

  // Structural grouping error: grouping an expandable member.
  View base = MakeDefaultView(ex.spec);
  ModuleGroup group;
  group.production = ex.p[0];
  group.member_positions = {2};  // A, expandable in the default view
  group.name = "G";
  group.perceived_deps = BoolMatrix::Full(2, 2);
  EXPECT_EQ(service->RegisterGroupedView(base, {group}).code(),
            ErrorCode::kInvalidGroup);
}

TEST(ServiceErrors, UnknownHandleReported) {
  auto service = MakePaperService();
  EXPECT_EQ(
      service->LabelOf(ViewHandle(), ViewLabelMode::kDefault).code(),
      ErrorCode::kNotFound);
  auto other = MakePaperService();
  ViewHandle foreign = other->RegisterView(MakePaperExample().grey_view)
                           .value();  // id beyond service's registry
  EXPECT_EQ(service->DecoderOf(foreign, ViewLabelMode::kDefault).code(),
            ErrorCode::kNotFound);
  // A foreign handle whose id is in range on this service must still be
  // rejected, not silently resolve to an unrelated view.
  ViewHandle foreign_default = other->default_view();
  ASSERT_LT(foreign_default.id(), service->num_views());
  EXPECT_EQ(service->LabelOf(foreign_default, ViewLabelMode::kDefault).code(),
            ErrorCode::kNotFound);
}

// ----- Registry caching. -----

TEST(ServiceRegistry, SameViewRegistersOnce) {
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();

  ViewHandle grey1 = service->RegisterView(ex.grey_view).value();
  ViewHandle grey2 = service->RegisterView(ex.grey_view).value();
  EXPECT_EQ(grey1, grey2);
  EXPECT_EQ(service->num_views(), 2);  // default + grey

  // Re-registering the default view returns the pre-registered handle.
  EXPECT_EQ(service->RegisterView(MakeDefaultView(ex.spec)).value(),
            service->default_view());
}

TEST(ServiceRegistry, ViewLabelingWorkHappensOncePerMode) {
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  ViewHandle grey = service->RegisterView(ex.grey_view).value();

  EXPECT_EQ(service->view_labelings_performed(), 0);
  const ViewLabel* label =
      service->LabelOf(grey, ViewLabelMode::kQueryEfficient).value();
  EXPECT_EQ(service->view_labelings_performed(), 1);

  // Same handle, same mode => the same ViewLabel object, no new work — even
  // through a fresh registration of the same view.
  ViewHandle again = service->RegisterView(ex.grey_view).value();
  EXPECT_EQ(
      service->LabelOf(again, ViewLabelMode::kQueryEfficient).value(),
      label);
  EXPECT_EQ(service->view_labelings_performed(), 1);

  // A different mode is labeled separately (once).
  service->LabelOf(grey, ViewLabelMode::kSpaceEfficient).value();
  service->LabelOf(grey, ViewLabelMode::kSpaceEfficient).value();
  EXPECT_EQ(service->view_labelings_performed(), 2);

  // Decoders are cached too and reuse the cached label.
  const Decoder* pi =
      service->DecoderOf(grey, ViewLabelMode::kQueryEfficient).value();
  EXPECT_EQ(service->DecoderOf(grey, ViewLabelMode::kQueryEfficient).value(),
            pi);
  EXPECT_EQ(service->view_labelings_performed(), 2);
}

// ----- Ownership. -----

TEST(ServiceOwnership, ServiceOutlivesTheInputSpecification) {
  std::shared_ptr<ProvenanceService> service;
  ViewHandle grey;
  {
    PaperExample ex = MakePaperExample();
    service = ProvenanceService::Create(std::move(ex.spec)).value();
    grey = service->RegisterView(ex.grey_view).value();
  }  // `ex` (and the moved-from spec) are gone; the service owns its copy.

  auto session = service->GenerateLabeledRun(RunGeneratorOptions{
      .target_items = 200, .seed = 11});
  ASSERT_TRUE(session->complete());
  EXPECT_GT(session->num_items(), 0);
  EXPECT_TRUE(session->Depends(grey, 0, 0).ok());
}

TEST(ServiceOwnership, SessionKeepsServiceAlive) {
  std::shared_ptr<ProvenanceSession> session;
  ViewHandle view;
  {
    auto service = MakePaperService();
    view = service->default_view();
    session = service->GenerateLabeledRun(RunGeneratorOptions{
        .target_items = 150, .seed = 3});
  }  // last external reference to the service dropped
  EXPECT_TRUE(session->Depends(view, 0, session->num_items() - 1).ok());
}

// ----- Sessions. -----

TEST(ServiceSession, ApplyValidatesInput) {
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  auto session = service->BeginRun();

  EXPECT_EQ(session->Apply(-1, ex.p[0]).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(session->Apply(99, ex.p[0]).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(session->Apply(0, 999).code(), ErrorCode::kInvalidArgument);
  // p2 expands A, not the start instance S.
  EXPECT_EQ(session->Apply(0, ex.p[1]).code(), ErrorCode::kInvalidArgument);

  ASSERT_TRUE(session->Apply(0, ex.p[0]).ok());
  // Already expanded.
  EXPECT_EQ(session->Apply(0, ex.p[0]).code(), ErrorCode::kInvalidArgument);

  // Items created so far carry labels already.
  EXPECT_EQ(session->labeler().num_labels(), session->num_items());
}

// Expands the first frontier instance; for the first `grow` calls the
// production index cycles (keeping recursions unfolding), afterwards the
// last production of each module terminates the run (see quickstart.cc).
void Step(ProvenanceSession& session, int step_index, int grow) {
  const Run& run = session.run();
  const Grammar& g = run.grammar();
  int instance = run.Frontier().front();
  const std::vector<ProductionId>& options =
      g.ProductionsOf(run.instance(instance).type);
  ProductionId pick =
      step_index < grow
          ? options[step_index % options.size()]
          : options.back();
  ASSERT_TRUE(session.Apply(instance, pick).ok());
}

TEST(ServiceSession, TwoConcurrentSessionsMatchTheirOracles) {
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  ViewHandle grey = service->RegisterView(ex.grey_view).value();

  // Interleave two independent derivations through one service: the labels
  // of one run must be completely unaffected by the other.
  auto a = service->BeginRun();
  auto b = service->BeginRun();
  int step = 0;
  while (!a->complete() || !b->complete()) {
    if (!a->complete()) Step(*a, step, /*grow=*/14);
    if (!b->complete()) Step(*b, step + 1, /*grow=*/7);
    ++step;
    ASSERT_LT(step, 1000);
  }
  // The two derivations must genuinely differ.
  bool same_derivation = a->run().num_steps() == b->run().num_steps();
  for (int i = 0; same_derivation && i < a->run().num_steps(); ++i) {
    same_derivation = a->run().step(i).production == b->run().step(i).production;
  }
  EXPECT_FALSE(same_derivation);

  for (ViewHandle view : {service->default_view(), grey}) {
    const CompiledView& compiled =
        *service->CompiledRegularView(view).value();
    for (const auto& session : {a, b}) {
      ProvenanceOracle oracle(session->run(), compiled);
      for (int d1 = 0; d1 < session->num_items(); ++d1) {
        if (!oracle.ItemVisible(d1)) continue;
        for (int d2 = 0; d2 < session->num_items(); ++d2) {
          if (!oracle.ItemVisible(d2)) continue;
          ASSERT_EQ(session->Depends(view, d1, d2).value(),
                    oracle.Depends(d1, d2))
              << "view=" << view.id() << " d1=" << d1 << " d2=" << d2;
        }
      }
    }
  }
}

// ----- Snapshots and batch queries. -----

TEST(ServiceBatch, DependsManyMatchesSingleQueries) {
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  ViewHandle grey = service->RegisterView(ex.grey_view).value();

  auto session = service->GenerateLabeledRun(RunGeneratorOptions{
      .target_items = 300, .seed = 21});
  ProvenanceIndex index = session->Snapshot();
  ASSERT_EQ(index.num_items(), session->num_items());

  Rng rng(99);
  std::vector<std::pair<int, int>> queries;
  for (int q = 0; q < 500; ++q) {
    queries.push_back({rng.NextInt(0, index.num_items() - 1),
                       rng.NextInt(0, index.num_items() - 1)});
  }
  std::vector<bool> batched =
      service->DependsMany(grey, index, queries).value();
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(batched[q],
              session->Depends(grey, queries[q].first, queries[q].second)
                  .value())
        << "query " << q;
  }

  // Out-of-range items are rejected, not aborted on.
  std::vector<std::pair<int, int>> bad = {{0, index.num_items()}};
  EXPECT_EQ(service->DependsMany(grey, index, bad).code(),
            ErrorCode::kInvalidArgument);
}

TEST(ServiceBatch, VisibilitySweepMatchesOracle) {
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  ViewHandle grey = service->RegisterView(ex.grey_view).value();

  auto session = service->GenerateLabeledRun(RunGeneratorOptions{
      .target_items = 250, .seed = 5});
  ProvenanceIndex index = session->Snapshot();

  ProvenanceOracle oracle(
      session->run(), *service->CompiledRegularView(grey).value());
  std::vector<bool> visible =
      service->VisibilitySweep(grey, index).value();
  ASSERT_EQ(static_cast<int>(visible.size()), index.num_items());
  for (int item = 0; item < index.num_items(); ++item) {
    EXPECT_EQ(visible[item], oracle.ItemVisible(item)) << "item " << item;
  }
}

TEST(ServiceBatch, SnapshotRoundTripsWithoutACodec) {
  // The serialized snapshot is self-describing: queries run against the
  // deserialized index with no grammar or codec at hand.
  auto service = MakePaperService();
  auto session = service->GenerateLabeledRun(RunGeneratorOptions{
      .target_items = 200, .seed = 13});
  ProvenanceIndex index = session->Snapshot();

  ProvenanceIndex restored =
      ProvenanceIndex::Deserialize(index.Serialize()).value();
  ASSERT_EQ(restored.num_items(), index.num_items());

  Rng rng(7);
  std::vector<std::pair<int, int>> queries;
  for (int q = 0; q < 200; ++q) {
    queries.push_back({rng.NextInt(0, index.num_items() - 1),
                       rng.NextInt(0, index.num_items() - 1)});
  }
  ViewHandle view = service->default_view();
  EXPECT_EQ(service->DependsMany(view, restored, queries).value(),
            service->DependsMany(view, index, queries).value());
}

// Walks a port-label path to the module that created the port, mirroring
// how RunLabeler extends paths (and how the service's untrusted-
// label boundary check resolves modules).
ModuleId ModuleAtPathEnd(const ProvenanceService& service,
                         const std::vector<EdgeLabel>& path) {
  const Grammar& g = service.grammar();
  const ProductionGraph& pg = service.production_graph();
  ModuleId module = g.start();
  for (const EdgeLabel& e : path) {
    if (e.kind == EdgeLabel::Kind::kProduction) {
      module = g.production(e.production).rhs.members[e.position];
    } else {
      const ProductionGraph::Cycle& cycle = pg.cycle(e.cycle);
      module = cycle.members[static_cast<size_t>(
          (e.start + e.iteration - 1) % cycle.length())];
    }
  }
  return module;
}

TEST(ServiceHardening, PerModulePortBoundsEnforced) {
  // A label whose port is within the *global* maximum arity but beyond the
  // arity of its own module would index past that module's matrix
  // dimensions in a release-build decoder; the batch entry points must
  // reject it. The paper example has modules of 1 to 3 ports, so such
  // labels exist and survive encoding.
  auto service = MakePaperService();
  auto session = service->GenerateLabeledRun(RunGeneratorOptions{
      .target_items = 300, .seed = 17});

  int max_outputs = 0;
  for (ModuleId m = 0; m < service->grammar().num_modules(); ++m) {
    max_outputs = std::max(max_outputs, service->grammar().module(m).num_outputs);
  }

  int victim = -1;
  DataLabel tampered;
  for (int item = 0; item < session->num_items(); ++item) {
    DataLabel label = session->Label(item);
    if (!label.producer.has_value()) continue;
    ModuleId m = ModuleAtPathEnd(*service, label.producer->path);
    int arity = service->grammar().module(m).num_outputs;
    if (arity < max_outputs) {
      // In range for the old global check, out of range for the module.
      label.producer->port = arity;
      tampered = std::move(label);
      victim = item;
      break;
    }
  }
  ASSERT_GE(victim, 0) << "no item from a below-max-arity module found";

  LabelStore store(LabelCodec(service->production_graph()));
  store.BeginGroup();
  for (int item = 0; item < session->num_items(); ++item) {
    store.Append(item == victim ? tampered : session->Label(item));
  }
  ProvenanceIndex index(std::move(store));

  std::vector<std::pair<int, int>> queries = {{victim, victim}};
  EXPECT_EQ(
      service->DependsMany(service->default_view(), index, queries).code(),
      ErrorCode::kInvalidArgument);
  EXPECT_EQ(service->VisibilitySweep(service->default_view(), index).code(),
            ErrorCode::kInvalidArgument);

  // Queries that never touch the tampered item still answer.
  std::vector<std::pair<int, int>> clean = {{0, 1}};
  EXPECT_TRUE(
      service->DependsMany(service->default_view(), index, clean).ok());
}

TEST(ServiceHardening, InconsistentPathsRejected) {
  // Each edge of a label's path must expand the module the path has
  // reached; a production edge whose lhs is some *other* module (id still
  // in range — the old field-wise check accepted it) means the decoder
  // would multiply matrices of unrelated productions. Rejected at the
  // boundary instead.
  auto service = MakePaperService();
  auto session = service->GenerateLabeledRun(RunGeneratorOptions{
      .target_items = 300, .seed = 23});

  int victim = -1;
  DataLabel tampered;
  for (int item = 0; item < session->num_items() && victim < 0; ++item) {
    DataLabel label = session->Label(item);
    if (!label.producer.has_value() || label.producer->path.empty()) continue;
    EdgeLabel& first = label.producer->path.front();
    if (first.kind != EdgeLabel::Kind::kProduction) continue;
    // Retarget the root edge to a production of a non-start module, keeping
    // the position valid for that production.
    for (ProductionId p = 0; p < service->grammar().num_productions(); ++p) {
      if (service->grammar().production(p).lhs ==
          service->grammar().start()) {
        continue;
      }
      first.production = p;
      first.position = 0;
      tampered = label;
      victim = item;
      break;
    }
  }
  ASSERT_GE(victim, 0);

  LabelStore store(LabelCodec(service->production_graph()));
  store.BeginGroup();
  for (int item = 0; item < session->num_items(); ++item) {
    store.Append(item == victim ? tampered : session->Label(item));
  }
  ProvenanceIndex index(std::move(store));
  std::vector<std::pair<int, int>> queries = {{victim, victim}};
  EXPECT_EQ(
      service->DependsMany(service->default_view(), index, queries).code(),
      ErrorCode::kInvalidArgument);
}

TEST(ServiceHardening, DependsOnLabelsOfTwoRunsReturns) {
  // π is defined over labels of one parse tree. Labels of two runs of one
  // specification each pass vetting, but their paths can fork where the
  // runs expanded a module differently (another production, or a recursion
  // that one run left earlier). Depends must still return — the answer is
  // unspecified — and a label that fails vetting is kInvalidArgument, as in
  // DependsMany.
  Workload bio = MakeBioAid(4);
  auto service = ProvenanceService::Create(bio.spec).value();
  auto a = service->GenerateLabeledRun(
      RunGeneratorOptions{.target_items = 300, .seed = 1});
  auto b = service->GenerateLabeledRun(
      RunGeneratorOptions{.target_items = 300, .seed = 2});
  ASSERT_GT(a->num_items(), 245);
  ASSERT_GT(b->num_items(), 315);
  const ViewHandle view = service->default_view();
  for (ViewLabelMode mode :
       {ViewLabelMode::kSpaceEfficient, ViewLabelMode::kDefault,
        ViewLabelMode::kQueryEfficient}) {
    EXPECT_TRUE(service->Depends(view, a->Label(245), b->Label(315), mode).ok())
        << ToString(mode);
  }
  for (int d1 = 0; d1 < a->num_items(); d1 += 3) {
    for (int d2 = 0; d2 < b->num_items(); d2 += 3) {
      ASSERT_TRUE(service->Depends(view, a->Label(d1), b->Label(d2)).ok());
      ASSERT_TRUE(service->Depends(view, b->Label(d2), a->Label(d1)).ok());
    }
  }

  // The matrix-free predicate returns on the same pairs of a black-box
  // view.
  CompiledView black_box = GenerateSafeView(
      bio, ViewGeneratorOptions{.deps = PerceivedDeps::kBlackBox, .seed = 6});
  ASSERT_TRUE(black_box.IsBlackBox());
  const ViewLabel& label =
      *service
           ->LabelOf(service->RegisterView(black_box.view()).value(),
                     ViewLabelMode::kQueryEfficient)
           .value();
  MatrixFreeDecoder matrix_free(&service->production_graph(), &label);
  for (int d1 = 0; d1 < a->num_items(); d1 += 3) {
    for (int d2 = 0; d2 < b->num_items(); d2 += 3) {
      matrix_free.Depends(a->Label(d1), b->Label(d2));
      matrix_free.Depends(b->Label(d2), a->Label(d1));
    }
  }

  // Unvetted labels never reach the decoder.
  DataLabel bad = a->Label(245);
  ASSERT_TRUE(bad.consumer.has_value());
  bad.consumer->port = 1000;
  EXPECT_EQ(service->Depends(view, bad, b->Label(315)).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(service->Depends(view, b->Label(315), bad).code(),
            ErrorCode::kInvalidArgument);
}

TEST(ServiceBatch, SparseThresholdAndDenseBatchesMatchSingleQueries) {
  // DependsMany decodes through a per-batch hash map when pending*4 < N
  // (the branch every served batch takes) and through a flat table
  // otherwise, where pending is the batch's same-run pairs. Both branches,
  // and the exact threshold between them, must answer like one-at-a-time
  // Decoder::Depends on the same labels — on a single snapshot and on a
  // merged index, with the label cache cold and then warm.
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  ViewHandle grey = service->RegisterView(ex.grey_view).value();
  const Decoder& decoder = *service->DecoderOf(
      grey, ViewLabelMode::kQueryEfficient).value();
  const ViewLabel& grey_label =
      *service->LabelOf(grey, ViewLabelMode::kQueryEfficient).value();

  // Run 2 repeats run 0 (same seed, so the same labels), which makes the
  // cross-run rule observable: a true pair of run 0 with one side moved to
  // its twin in run 2 has labels that alone would answer true.
  std::vector<ProvenanceIndex> snapshots;
  for (uint64_t seed : {31, 32, 31}) {
    snapshots.push_back(
        service
            ->GenerateLabeledRun(RunGeneratorOptions{.target_items = 2500,
                                                     .seed = seed})
            ->Snapshot());
  }
  ProvenanceIndex merged = ProvenanceIndex::Merge(snapshots).value();

  for (const ProvenanceIndex* index : {&snapshots[0], &merged}) {
    const int n = index->total_items();
    ASSERT_EQ(n % 4, 0) << "the exact threshold needs 4 | N";
    Rng rng(static_cast<uint64_t>(n));
    std::set<std::pair<int, int>> used;
    auto depends = [&](int a, int b) {
      return index->RunOf(a) == index->RunOf(b) &&
             decoder.Depends(index->Label(a), index->Label(b));
    };
    // `pending` distinct same-run pairs plus, on the merged index, their
    // true run-0 pairs moved across to run 2, which must answer false
    // without ever becoming pending.
    auto make_batch = [&](int pending) {
      std::vector<std::pair<int, int>> batch;
      while (static_cast<int>(batch.size()) < pending) {
        const int a = rng.NextInt(0, n - 1);
        const int run = index->RunOf(a);
        const int b = index->GlobalId(
            run, rng.NextInt(0, index->num_items(run) - 1));
        if (used.insert({a, b}).second) batch.push_back({a, b});
      }
      for (int i = 0; i < pending && index->num_runs() > 1; ++i) {
        const auto [a, b] = batch[i];
        if (index->RunOf(a) == 0 && depends(a, b)) {
          batch.push_back({a, b + index->GlobalId(2, 0)});
        }
      }
      return batch;
    };
    const std::vector<std::vector<std::pair<int, int>>> batches = {
        make_batch(n / 4 - 1),  // sparse: pending*4 < N
        make_batch(n / 4),      // exact threshold: pending*4 == N, dense
        make_batch(n),          // dense
    };
    std::vector<std::vector<bool>> want;
    for (const auto& batch : batches) {
      std::vector<bool> answers;
      for (const auto& [a, b] : batch) answers.push_back(depends(a, b));
      want.push_back(std::move(answers));
    }

    std::vector<bool> want_visible;
    for (int item = 0; item < n; ++item) {
      want_visible.push_back(IsItemVisible(index->Label(item), grey_label));
    }

    // A fresh index over the same store starts with a cold label cache;
    // the second pass finds it warm.
    const ProvenanceIndex fresh(index->store());
    for (const char* pass : {"cold", "warm"}) {
      for (size_t b = 0; b < batches.size(); ++b) {
        EXPECT_EQ(service->DependsMany(grey, fresh, batches[b]).value(),
                  want[b])
            << "runs=" << index->num_runs() << " batch=" << b << " " << pass;
      }
      EXPECT_EQ(service->VisibilitySweep(grey, fresh).value(), want_visible)
          << "runs=" << index->num_runs() << " " << pass;
    }
  }
}

TEST(ServiceThreads, RegistryIsInternallySynchronized) {
  // Registration, lazy label/decoder cache fills, session creation and
  // queries race from many threads; under ASan/TSan-less CI this still
  // catches registry corruption (lost entries, double labelings) via the
  // invariants below.
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  auto session = service->GenerateLabeledRun(RunGeneratorOptions{
      .target_items = 200, .seed = 41});
  ProvenanceIndex index = session->Snapshot();

  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  std::vector<ViewHandle> handles(kThreads);
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Everyone registers the same view — the registry must dedup to one
      // entry — while hammering the lazy caches and batch queries.
      Result<ViewHandle> handle = service->RegisterView(ex.grey_view);
      if (!handle.ok()) {
        failures.fetch_add(1);
        return;
      }
      handles[t] = handle.value();
      for (int round = 0; round < 20; ++round) {
        ViewLabelMode mode = static_cast<ViewLabelMode>(round % 3);
        if (!service->DecoderOf(handle.value(), mode).ok()) {
          failures.fetch_add(1);
        }
        std::vector<std::pair<int, int>> queries = {
            {t, round}, {round, t + round}};
        if (!service->DependsMany(handle.value(), index, queries, mode)
                 .ok()) {
          failures.fetch_add(1);
        }
        auto extra = service->BeginRun();
        if (extra->num_items() <= 0) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(handles[t], handles[0]) << "dedup failed for thread " << t;
  }
  // One grey-view entry (plus the default view), and at most one labeling
  // per (view, mode): 2 views x 3 modes.
  EXPECT_EQ(service->num_views(), 2);
  EXPECT_LE(service->view_labelings_performed(), 6);
}

TEST(ServiceBatch, ForeignIndexRejected) {
  // A snapshot from a service with a different specification must be turned
  // away (its labels would index out of this service's decoder matrices).
  auto service = MakePaperService();
  auto other = ProvenanceService::Create(MakeBioAid(2012).spec).value();
  ProvenanceIndex foreign =
      other->GenerateLabeledRun(RunGeneratorOptions{.target_items = 50,
                                                    .seed = 5})
          ->Snapshot();
  std::vector<std::pair<int, int>> queries = {{0, 1}};
  EXPECT_EQ(
      service->DependsMany(service->default_view(), foreign, queries).code(),
      ErrorCode::kInvalidArgument);
  EXPECT_EQ(service->VisibilitySweep(service->default_view(), foreign).code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace fvl
