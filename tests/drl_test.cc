#include <gtest/gtest.h>

#include "fvl/util/random.h"
#include "fvl/drl/drl_scheme.h"
#include "fvl/run/provenance_oracle.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/query_generator.h"
#include "fvl/workload/view_generator.h"
#include "test_util.h"

namespace fvl {
namespace {

class DrlTest : public ::testing::Test {
 protected:
  DrlTest() : workload_(MakeBioAid(2012)) {}

  CompiledView BlackBoxView(int num_expandable, uint64_t seed) {
    ViewGeneratorOptions options;
    options.deps = PerceivedDeps::kBlackBox;
    options.num_expandable = num_expandable;
    options.seed = seed;
    return GenerateSafeView(workload_, options);
  }

  Workload workload_;
};

TEST_F(DrlTest, RestrictedGrammarSharesModuleIds) {
  CompiledView view = BlackBoxView(8, 3);
  DrlViewIndex index(&workload_.spec.grammar, &view);
  EXPECT_EQ(index.restricted().num_modules(),
            workload_.spec.grammar.num_modules());
  EXPECT_LT(index.restricted().num_productions(),
            workload_.spec.grammar.num_productions());
  int active = 0;
  for (ProductionId k = 0; k < workload_.spec.grammar.num_productions(); ++k) {
    if (view.IsActiveProduction(k)) {
      ++active;
      ProductionId rk = index.Restrict(k);
      ASSERT_GE(rk, 0);
      EXPECT_EQ(index.restricted().production(rk).lhs,
                workload_.spec.grammar.production(k).lhs);
    } else {
      EXPECT_EQ(index.Restrict(k), -1);
    }
  }
  EXPECT_EQ(index.restricted().num_productions(), active);
}

TEST_F(DrlTest, AgreesWithOracleOnBlackBoxViews) {
  RunGeneratorOptions run_options;
  run_options.target_items = 800;
  for (uint64_t seed : {1u, 2u, 3u}) {
    run_options.seed = seed;
    ::fvl::Run run = GenerateRandomRun(workload_.spec.grammar, run_options);
    for (int size : {6, 10, 16}) {
      CompiledView view = BlackBoxView(size, seed * 17 + size);
      DrlViewIndex index(&workload_.spec.grammar, &view);
      DrlRunLabeler labeler = DrlLabelRun(run, index);
      ProvenanceOracle oracle(run, view);

      // DRL labels exactly the visible items.
      int visible = 0;
      for (int item = 0; item < run.num_items(); ++item) {
        ASSERT_EQ(labeler.HasLabel(item), oracle.ItemVisible(item))
            << "item " << item;
        visible += oracle.ItemVisible(item) ? 1 : 0;
      }
      EXPECT_EQ(labeler.num_visible_items(), visible);

      // Query agreement on sampled pairs.
      Rng rng(seed * 1000 + size);
      std::vector<int> visible_items;
      for (int item = 0; item < run.num_items(); ++item) {
        if (oracle.ItemVisible(item)) visible_items.push_back(item);
      }
      int positives = 0;
      for (int q = 0; q < 1200; ++q) {
        int d1 = visible_items[rng.NextBounded(visible_items.size())];
        int d2 = visible_items[rng.NextBounded(visible_items.size())];
        bool expected = oracle.Depends(d1, d2);
        positives += expected ? 1 : 0;
        ASSERT_EQ(DrlDepends(index, labeler.Label(d1), labeler.Label(d2)),
                  expected)
            << "seed=" << seed << " size=" << size << " d1=" << d1
            << " d2=" << d2 << "\n l1=" << labeler.Label(d1).ToString()
            << "\n l2=" << labeler.Label(d2).ToString();
      }
      EXPECT_GT(positives, 0);
    }
  }
}

TEST_F(DrlTest, LabelsGrowLogarithmically) {
  CompiledView view = BlackBoxView(-1, 1);
  DrlViewIndex index(&workload_.spec.grammar, &view);
  double previous_max = 0;
  double growth_sum = 0;
  int growth_count = 0;
  for (int target : {500, 1000, 2000, 4000}) {
    RunGeneratorOptions options;
    options.target_items = target;
    options.seed = 5;
    ::fvl::Run run = GenerateRandomRun(workload_.spec.grammar, options);
    DrlRunLabeler labeler = DrlLabelRun(run, index);
    int64_t max_bits = 0;
    for (int item = 0; item < run.num_items(); ++item) {
      if (labeler.HasLabel(item)) {
        max_bits = std::max(max_bits, labeler.LabelBits(item));
      }
    }
    if (previous_max > 0) {
      growth_sum += max_bits - previous_max;
      ++growth_count;
    }
    previous_max = static_cast<double>(max_bits);
  }
  // Doubling the run size must add only a constant number of bits.
  EXPECT_LT(growth_sum / growth_count, 12.0);
}

TEST_F(DrlTest, LabelCodecRoundTrip) {
  CompiledView view = BlackBoxView(10, 2);
  DrlViewIndex index(&workload_.spec.grammar, &view);
  RunGeneratorOptions options;
  options.target_items = 300;
  ::fvl::Run run = GenerateRandomRun(workload_.spec.grammar, options);
  DrlRunLabeler labeler = DrlLabelRun(run, index);
  for (int item = 0; item < run.num_items(); ++item) {
    if (!labeler.HasLabel(item)) continue;
    BitWriter writer = index.codec().Encode(labeler.Label(item));
    BitReader reader(writer);
    ASSERT_EQ(index.codec().Decode(&reader), labeler.Label(item));
    ASSERT_TRUE(reader.AtEnd());
    ASSERT_EQ(writer.size_bits(), labeler.LabelBits(item));
  }
}

TEST_F(DrlTest, PerViewLabelingCostMultiplies) {
  // The non-view-adaptive cost model of Figs. 21-22: labeling v views costs
  // v per-view label sets.
  RunGeneratorOptions options;
  options.target_items = 400;
  ::fvl::Run run = GenerateRandomRun(workload_.spec.grammar, options);
  int64_t total_bits_item0 = 0;
  int item = run.InputItems(run.start_instance())[0];
  for (uint64_t v = 0; v < 4; ++v) {
    CompiledView view = BlackBoxView(10, 100 + v);
    DrlViewIndex index(&workload_.spec.grammar, &view);
    DrlRunLabeler labeler = DrlLabelRun(run, index);
    ASSERT_TRUE(labeler.HasLabel(item));
    total_bits_item0 += labeler.LabelBits(item);
  }
  // Four views -> roughly four times one view's label bits (> 2x is enough
  // to witness the multiplication).
  CompiledView one = BlackBoxView(10, 100);
  DrlViewIndex index(&workload_.spec.grammar, &one);
  DrlRunLabeler labeler = DrlLabelRun(run, index);
  EXPECT_GT(total_bits_item0, 2 * labeler.LabelBits(item));
}

}  // namespace
}  // namespace fvl
