// Heap-allocation contracts of the label walks and the predicate, checked
// by counting calls to a replaced global operator new. A walk over every
// label of a store (a span-cursor pass, VisibilitySweep, the decode check
// that opens an archive) must allocate a number of times that does not grow
// with the item count: it decodes into storage it reuses. A warm
// Query-Efficient Decoder::Depends allocates nothing at all.
//
// The two stores are the same BioAID run frozen at about 2K and at 16K
// items, so the small store's labels are the large store's first ones.
// Whatever a walk allocates while its reused label grows to the deepest
// path therefore happens identically at both sizes, and any allocation per
// label shows as a difference of about 14K.
//
// Building a run holds to a contract of the same kind: a live session keeps
// the same number of heap blocks at both sizes, because it keeps paths only
// for the frontier and the run's tables are flat vectors; and a warm
// RunLabeler::OnApply allocates only when one of those vectors grows.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "fvl/core/decoder.h"
#include "fvl/core/index.h"
#include "fvl/core/label_store.h"
#include "fvl/core/visibility.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/blob_source.h"
#include "fvl/util/random.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/view_generator.h"

namespace {

std::atomic<int64_t> g_allocations{0};
std::atomic<int64_t> g_releases{0};

[[gnu::noinline]] void* CountedAllocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

[[gnu::noinline]] void CountedRelease(void* p) {
  if (p != nullptr) g_releases.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// Every replaceable non-aligned form, so no allocation escapes the count
// and every pointer is freed by the allocator that made it (the sanitizer
// runtimes define these forms too). Allocation and release stay out of
// line: inlined, GCC would see a malloc'd pointer reach operator delete
// (or free() reach the result of operator new) and warn.
void* operator new(std::size_t size) {
  if (void* p = CountedAllocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocate(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { CountedRelease(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept {
  CountedRelease(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  CountedRelease(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  CountedRelease(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  CountedRelease(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  CountedRelease(p);
}

namespace fvl {
namespace {

// Heap allocations made while `fn` runs.
template <typename Fn>
int64_t CountAllocations(Fn&& fn) {
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// Heap blocks allocated and not yet released.
int64_t LiveBlocks() {
  return g_allocations.load(std::memory_order_relaxed) -
         g_releases.load(std::memory_order_relaxed);
}

RunGeneratorOptions RunOptions(int items) {
  RunGeneratorOptions options;
  options.target_items = items;
  options.seed = 5;
  return options;
}

class AllocationContractTest : public ::testing::Test {
 protected:
  static constexpr int kSmallItems = 2000;
  static constexpr int kLargeItems = 16000;

  AllocationContractTest()
      : workload_(MakeBioAid(2012)),
        service_(ProvenanceService::Create(workload_.spec).value()),
        run_(GenerateRandomRun(workload_.spec.grammar,
                               RunOptions(kLargeItems))) {
    RunLabeler labeler = service_->MakeRunLabeler();
    labeler.OnStart(run_);
    int step = 0;
    for (; labeler.num_labels() < kSmallItems; ++step) {
      labeler.OnApply(run_, run_.step(step));
    }
    small_steps_ = step;
    small_ = ProvenanceIndex(labeler.store());
    for (; step < run_.num_steps(); ++step) {
      labeler.OnApply(run_, run_.step(step));
    }
    large_ = ProvenanceIndex(labeler.store());
  }

  // Counts of `walk` over the small and the large store.
  template <typename Walk>
  std::pair<int64_t, int64_t> CountBoth(Walk&& walk) {
    const int64_t small = CountAllocations([&] { walk(small_); });
    const int64_t large = CountAllocations([&] { walk(large_); });
    return {small, large};
  }

  Workload workload_;
  std::shared_ptr<ProvenanceService> service_;
  // The run behind both stores; its first small_steps_ steps make small_.
  ::fvl::Run run_;
  int small_steps_ = 0;
  ProvenanceIndex small_, large_;
};

TEST_F(AllocationContractTest, StoresShareTheirFirstLabels) {
  ASSERT_GE(small_.total_items(), kSmallItems);
  ASSERT_GE(large_.total_items(), 7 * kSmallItems);
  for (int item = 0; item < small_.total_items(); item += 97) {
    ASSERT_EQ(small_.Label(item), large_.Label(item)) << "item " << item;
  }
}

// A span-cursor pass decodes into one label. Once a pass has grown its
// paths, a pass over the two-sided labels allocates nothing. A full pass
// also starts at the run's boundary items, whose one-sided labels drop a
// side that then grows back: a few allocations, the same at both sizes.
TEST_F(AllocationContractTest, SpanCursorPassIntoOneLabel) {
  int64_t full_pass[2] = {0, 0};
  int size = 0;
  for (const ProvenanceIndex* index : {&small_, &large_}) {
    const LabelStore& store = index->store();
    DataLabel label;
    auto pass = [&](int first) {
      LabelStore::SpanCursor cursor(store);
      for (int item = first; item < store.total_items(); ++item) {
        cursor.DecodeAt(item, &label);
      }
    };
    pass(0);
    full_pass[size] = CountAllocations([&] { pass(0); });
    int first_two_sided = 0;
    while (!(index->Label(first_two_sided).producer.has_value() &&
             index->Label(first_two_sided).consumer.has_value())) {
      ++first_two_sided;
    }
    EXPECT_EQ(CountAllocations([&] { pass(first_two_sided); }), 0)
        << "items " << store.total_items();
    ++size;
  }
  EXPECT_EQ(full_pass[0], full_pass[1]);
}

TEST_F(AllocationContractTest, VisibilitySweepAllocatesTheSameAtBothSizes) {
  CompiledView view = GenerateSafeView(workload_, [] {
    ViewGeneratorOptions options;
    options.num_expandable = 8;
    options.seed = 9;
    return options;
  }());
  ViewHandle handle = service_->RegisterView(view.view()).value();
  std::vector<bool> small_visible, large_visible;
  auto sweep = [&](const ProvenanceIndex& index, std::vector<bool>* out) {
    *out = service_->VisibilitySweep(handle, index).value();
  };
  // Builds and caches the view label, outside the counts.
  sweep(small_, &small_visible);
  const auto [small, large] = CountBoth([&](const ProvenanceIndex& index) {
    sweep(index, &index == &small_ ? &small_visible : &large_visible);
  });
  EXPECT_EQ(small, large);
  // The sweep's answers still match the one-label-at-a-time definition.
  const ViewLabel& label =
      *service_->LabelOf(handle, ViewLabelMode::kQueryEfficient).value();
  for (int item = 0; item < large_.total_items(); item += 31) {
    ASSERT_EQ(large_visible[item], IsItemVisible(large_.Label(item), label))
        << "item " << item;
  }
  for (int item = 0; item < small_.total_items(); ++item) {
    ASSERT_EQ(small_visible[item], large_visible[item]) << "item " << item;
  }
}

// Map's parse of a single-run archive: the FVLIDX3 header (magic, item
// count, arena bits: 24 bytes), then the store tail, which ParseTail
// parses and decode-checks in place against the mapping.
TEST_F(AllocationContractTest, MapValidationAllocatesTheSameAtBothSizes) {
  std::vector<BlobSource> sources;
  for (const ProvenanceIndex* index : {&small_, &large_}) {
    const std::string path = ::testing::TempDir() + "/fvl_alloc_" +
                             std::to_string(index->total_items()) + ".fvl";
    std::ofstream(path, std::ios::binary) << index->Serialize();
    sources.push_back(BlobSource::MapFile(path).value());
    // The archive also opens through Map and decodes as the store it was.
    Result<ProvenanceIndex> mapped = ProvenanceIndex::Map(path);
    std::remove(path.c_str());
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ASSERT_EQ(mapped->total_items(), index->total_items());
    for (int item = 0; item < index->total_items(); item += 53) {
      ASSERT_EQ(mapped->Label(item), index->Label(item)) << "item " << item;
    }
  }
  bool parsed[2] = {false, false};
  int size = 0;
  const auto [small, large] = CountBoth([&](const ProvenanceIndex& index) {
    const BlobSource& source = sources[size];
    size_t pos = 24;
    parsed[size++] =
        LabelStore::ParseTail(source.view(), &pos, {0, index.total_items()},
                              static_cast<uint64_t>(index.store().arena_bits()),
                              &source)
            .ok();
  });
  ASSERT_TRUE(parsed[0] && parsed[1]);
  EXPECT_EQ(small, large);
}

// A session built step by step, as a server builds one, holds as many heap
// blocks at 16K items as at 2K: the run's tables, the labeler's frontier
// paths and the label store are each one block, whatever their length.
// Per-instance blocks (a path or a port list each) would show as a
// difference in the thousands.
TEST_F(AllocationContractTest, SessionHoldsTheSameBlocksAtBothSizes) {
  int64_t held[2] = {0, 0};
  const int steps[2] = {small_steps_, run_.num_steps()};
  for (int size = 0; size < 2; ++size) {
    const int64_t before = LiveBlocks();
    std::shared_ptr<ProvenanceSession> session = service_->BeginRun();
    for (int s = 0; s < steps[size]; ++s) {
      ASSERT_TRUE(
          session->Apply(run_.step(s).instance, run_.step(s).production).ok());
    }
    held[size] = LiveBlocks() - before;
  }
  EXPECT_GT(held[0], 0);
  EXPECT_LE(std::abs(held[1] - held[0]), 2)
      << "blocks held at " << small_.total_items() << " items: " << held[0]
      << ", at " << large_.total_items() << ": " << held[1];
}

// Once warm, RunLabeler::OnApply allocates only when one of the labeler's
// or the store's vectors grows: O(log n) times over n items, not once per
// instance. Growing from 2K to 16K items doubles each vector about three
// times.
TEST_F(AllocationContractTest, WarmOnApplyAllocatesOnlyToGrow) {
  RunLabeler labeler = service_->MakeRunLabeler();
  labeler.OnStart(run_);
  for (int s = 0; s < small_steps_; ++s) labeler.OnApply(run_, run_.step(s));
  const int64_t allocations = CountAllocations([&] {
    for (int s = small_steps_; s < run_.num_steps(); ++s) {
      labeler.OnApply(run_, run_.step(s));
    }
  });
  EXPECT_LE(allocations, 40) << "over " << run_.num_steps() - small_steps_
                             << " steps";
  EXPECT_EQ(labeler.store().total_items(), large_.total_items());
}

// π's cases, told apart by the shapes of the two labels (decoder.h's
// numbering); 2b splits by which item sits in the deeper iteration.
enum PiCase {
  kCaseI,
  kCaseII,
  kCaseIII,
  kCaseIV,
  kCase1,
  kCase2a,
  kCase2bDeeperD2,  // i < j
  kCase2bDeeperD1,  // i > j
  kNumCases
};

PiCase CaseOf(const DataLabel& d1, const DataLabel& d2) {
  if (!d1.consumer.has_value() || !d2.producer.has_value()) return kCaseI;
  if (!d1.producer.has_value()) {
    return d2.consumer.has_value() ? kCaseIII : kCaseII;
  }
  if (!d2.consumer.has_value()) return kCaseIV;
  const std::vector<EdgeLabel>& l1 = d1.producer->path;
  const std::vector<EdgeLabel>& l2 = d2.consumer->path;
  size_t cp = 0;
  while (cp < l1.size() && cp < l2.size() && l1[cp] == l2[cp]) ++cp;
  if (cp == l1.size() || cp == l2.size()) return kCase1;
  if (l1[cp].kind == EdgeLabel::Kind::kProduction) return kCase2a;
  return l1[cp].iteration < l2[cp].iteration ? kCase2bDeeperD2
                                             : kCase2bDeeperD1;
}

// Once warm, a Query-Efficient Depends reads the view label in place: a
// second pass over a few thousand BioAID pairs allocates nothing. Every
// case that reads the label is reached, each with a true answer, so each
// crossing (Z, both walk directions) runs to its end.
TEST_F(AllocationContractTest, WarmQueryEfficientDependsAllocatesNothing) {
  CompiledView view = GenerateSafeView(workload_, ViewGeneratorOptions{});
  ViewHandle handle = service_->RegisterView(view.view()).value();
  Decoder pi(
      service_->LabelOf(handle, ViewLabelMode::kQueryEfficient).value());
  std::vector<DataLabel> labels;
  for (int item = 0; item < large_.total_items(); ++item) {
    labels.push_back(large_.Label(item));
  }
  // Random pairs, plus pairs through the run's few initial inputs and final
  // outputs, which random pairs rarely draw (cases II to IV).
  Rng rng(17);
  auto random_item = [&] { return rng.NextInt(0, large_.total_items() - 1); };
  std::vector<std::pair<int, int>> pairs;
  for (int q = 0; q < 4000; ++q) {
    pairs.emplace_back(random_item(), random_item());
  }
  std::vector<int> initial_inputs, final_outputs;
  for (int item = 0; item < large_.total_items(); ++item) {
    if (!labels[item].producer.has_value()) initial_inputs.push_back(item);
    if (!labels[item].consumer.has_value()) final_outputs.push_back(item);
  }
  for (int a : initial_inputs) {
    for (int b : final_outputs) pairs.emplace_back(a, b);
    for (int q = 0; q < 50; ++q) pairs.emplace_back(a, random_item());
  }
  for (int b : final_outputs) {
    for (int q = 0; q < 50; ++q) pairs.emplace_back(random_item(), b);
  }

  std::array<int, kNumCases> hits{}, trues{};
  int expected_trues = 0;
  for (const auto& [a, b] : pairs) {
    const bool answer = pi.Depends(labels[a], labels[b]);
    const PiCase c = CaseOf(labels[a], labels[b]);
    ++hits[c];
    trues[c] += answer;
    expected_trues += answer;
  }
  int warm_trues = 0;
  EXPECT_EQ(CountAllocations([&] {
              for (const auto& [a, b] : pairs) {
                warm_trues += pi.Depends(labels[a], labels[b]);
              }
            }),
            0);
  EXPECT_EQ(warm_trues, expected_trues);
  for (PiCase c : {kCaseII, kCaseIII, kCaseIV, kCase2a, kCase2bDeeperD2,
                   kCase2bDeeperD1}) {
    EXPECT_GT(trues[c], 0) << "case " << c << " hits " << hits[c];
  }
}

}  // namespace
}  // namespace fvl
